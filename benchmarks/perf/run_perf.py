"""Scalar-vs-batch performance harness.

Times every vectorized kernel and fast engine against its scalar
reference path, checks bit-exactness first (a fast wrong kernel is
worthless), and writes the measured speedups to ``BENCH_perf.json`` at
the repo root.  Methodology: each candidate is warmed up before timing
(first calls pay allocator/JIT-cache noise) and the reported time is
the best of ``repeats`` runs — the standard way to estimate the true
cost of a deterministic kernel under OS jitter.

References: the SECDED and BCH codecs run their scalar ``encode`` /
``decode`` through the same tables as their batch kernels, so every
speedup gate divides the time of the per-bit ``encode_reference`` /
``decode_reference`` bodies (codec sections) or of ``Cpu.run`` with
codec ports pinned to those bodies (platform and SIMD sections).  That
oracle also keeps OCEAN's checkpoint and rollback copies on per-word
port loops, so the engines' block copies are checked against an
independent path.  The gated fields keep their names and meaning
across revisions; the table-driven scalar timings sit next to them as
``*_table_*`` and ``cpu_run_*`` fields.

Run directly::

    PYTHONPATH=src python benchmarks/perf/run_perf.py           # full sizes
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick   # CI smoke

The ``checks`` block (:func:`gate_checks`) is the pass/fail record:
SECDED encode and decode >= 20x, Figure-5 campaign >= 5x, everything
bit-exact against the scalar paths under fixed seeds, and more.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.obs import names  # noqa: E402
from repro.analysis.batch import BatchCampaign  # noqa: E402
from repro.analysis.campaign import run_campaign  # noqa: E402
from repro.core.access import (  # noqa: E402
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
)
from repro.ecc import (  # noqa: E402
    BchCodec,
    STATUS_DETECTED,
    SecdedCodec,
    status_code,
)
from repro.ecc.base import Codec  # noqa: E402
from repro.mitigation import (  # noqa: E402
    NoMitigationRunner,
    OceanRunner,
    SecdedRunner,
)
from repro.mitigation.ocean import COPY_CYCLES_PER_WORD  # noqa: E402
from repro.resilience import ChaosPolicy  # noqa: E402
from repro.soc.faults import VoltageFaultModel  # noqa: E402
from repro.soc.ports import CodecPort, DetectOnlyCodec  # noqa: E402
from repro.soc.simd import run_lane_block  # noqa: E402
from repro.workloads.fft import (  # noqa: E402
    build_fft_program,
    fft_program_and_golden,
)

#: Problem sizes of a ``--quick`` (CI smoke) run and of a full run,
#: under the names the run manifest records them by.
SIZES = {
    True: {
        "secded_words": 20_000,
        "bch_words": 2_000,
        "fault_accesses": 200_000,
        "fig5_accesses_per_point": 2_000,
        "platform_fft_points": 64,
        "platform_speedup_target": 3.0,
        "resilience_runs": 4,
    },
    False: {
        "secded_words": 200_000,
        "bch_words": 20_000,
        "fault_accesses": 2_000_000,
        "fig5_accesses_per_point": 20_000,
        "platform_fft_points": 256,
        "platform_speedup_target": 10.0,
        "resilience_runs": 8,
    },
}
# The SIMD section always runs the FFT-64 campaign: the lockstep
# engine's win is lane count, not program size, and the scalar oracle
# must execute every seed once — larger programs would multiply that
# (serial) oracle cost for no extra information.
SIMD_FFT_POINTS = 64
SIMD_LANE_COUNTS = (1, 16, 64, 256)
#: Retry budget and per-run deadline of the resilience section.
RESILIENCE_MAX_RETRIES = 3
RESILIENCE_TASK_TIMEOUT = None


def best_of(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Return the best wall time of ``fn`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(fn):
    """``(fn(), wall time of that one call)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _secded_campaign(fft_points: int, **kwargs):
    """``run_campaign`` bound to a SECDED FFT campaign from seed 100."""
    program, golden = fft_program_and_golden(fft_points)
    return functools.partial(
        run_campaign, SecdedRunner,
        workload=program.workload,
        golden=golden,
        access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
        seed_base=100,
        macro_style="cell-based",
        **kwargs,
    )


def _per_word_encode(encode, words):
    return np.array([encode(int(w)) for w in words], dtype=np.uint64)


def _per_word_decode(decode, codewords):
    data = np.empty(codewords.size, dtype=np.uint64)
    status = np.empty(codewords.size, dtype=np.uint8)
    for i, cw in enumerate(codewords):
        result = decode(int(cw))
        data[i] = result.data
        status[i] = status_code(result.status)
    return data, status


def bench_codec(
    codec, name: str, n_words: int, error_bits: int, rng,
    dirty_fraction: float = 1.0 / 3.0, registry=None,
):
    """Time per-bit reference vs table-driven scalar vs batch paths.

    Verifies word-for-word first: the batch kernels and the scalar
    ``encode``/``decode`` must both equal the per-bit reference bodies.
    ``dirty_fraction`` of the codewords get 1..``error_bits`` random
    flips so decode exercises the clean, corrected and detected paths.
    The gated ``*_speedup`` fields divide the reference time, as they
    did before the scalar paths became table-driven.
    """
    words = rng.integers(0, 1 << codec.data_bits, size=n_words, dtype=np.uint64)
    batch_cw = codec.encode_batch(words)
    reference_cw = _per_word_encode(codec.encode_reference, words)
    encode_exact = bool(
        np.array_equal(batch_cw, reference_cw)
        and np.array_equal(_per_word_encode(codec.encode, words), reference_cw)
    )

    codewords = batch_cw.copy()
    dirty = rng.random(n_words) < dirty_fraction
    for i in np.nonzero(dirty)[0]:
        flips = rng.choice(
            codec.code_bits, size=int(rng.integers(1, error_bits + 1)),
            replace=False,
        )
        for bit in flips:
            codewords[i] ^= np.uint64(1) << np.uint64(bit)

    batch = codec.decode_batch(codewords)
    ref_data, ref_status = _per_word_decode(codec.decode_reference, codewords)
    table_data, table_status = _per_word_decode(codec.decode, codewords)
    decode_exact = bool(
        np.array_equal(batch.data, ref_data)
        and np.array_equal(batch.status, ref_status)
        and np.array_equal(table_data, ref_data)
        and np.array_equal(table_status, ref_status)
    )

    # The harness knows the ground truth, so it can publish the one
    # decode-outcome counter the codec itself cannot: miscorrections
    # (decoder claims success but the data is wrong).
    trusted = batch.status != STATUS_DETECTED
    miscorrected = int(np.count_nonzero(trusted & (batch.data != words)))
    if registry is not None:
        registry.counter(
            f"ecc.{type(codec).__name__}.miscorrected"
        ).inc(miscorrected)

    t_enc_scalar = best_of(
        lambda: _per_word_encode(codec.encode_reference, words)
    )
    t_enc_table = best_of(lambda: _per_word_encode(codec.encode, words))
    t_enc_batch = best_of(lambda: codec.encode_batch(words))
    t_dec_scalar = best_of(
        lambda: _per_word_decode(codec.decode_reference, codewords)
    )
    t_dec_table = best_of(lambda: _per_word_decode(codec.decode, codewords))
    t_dec_batch = best_of(lambda: codec.decode_batch(codewords))

    return {
        "codec": name,
        "n_words": n_words,
        "dirty_fraction": dirty_fraction,
        "encode_bit_exact": encode_exact,
        "decode_bit_exact": decode_exact,
        "miscorrected": miscorrected,
        "encode_scalar_s": t_enc_scalar,
        "encode_batch_s": t_enc_batch,
        "encode_speedup": t_enc_scalar / t_enc_batch,
        "encode_batch_mwords_per_s": n_words / t_enc_batch / 1e6,
        "encode_table_s": t_enc_table,
        "encode_table_speedup": t_enc_scalar / t_enc_table,
        "decode_scalar_s": t_dec_scalar,
        "decode_batch_s": t_dec_batch,
        "decode_speedup": t_dec_scalar / t_dec_batch,
        "decode_batch_mwords_per_s": n_words / t_dec_batch / 1e6,
        "decode_table_s": t_dec_table,
        "decode_table_speedup": t_dec_scalar / t_dec_table,
    }


def bench_faults(n_accesses: int, vdd: float = 0.42):
    """Time per-access vs batched fault-mask sampling at one voltage."""
    def model():
        return VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, width=32, vdd=vdd,
            rng=np.random.default_rng(7),
        )

    def scalar():
        sampler = model()
        for _ in range(n_accesses):
            sampler.sample_mask()
        return sampler

    def batch():
        sampler = model()
        sampler.sample_masks(n_accesses)
        return sampler

    # Distribution check: same seed, same number of accesses — the two
    # paths draw different stream layouts but must agree statistically;
    # with a common seed and this many accesses the injected-bit counts
    # land within a loose Poisson band of each other.
    s_model, b_model = scalar(), batch()
    expect = n_accesses * 32 * s_model.p_bit
    tol = 6.0 * np.sqrt(max(expect, 1.0)) + 10.0
    stats_ok = (
        abs(s_model.injected_bits - expect) < tol
        and abs(b_model.injected_bits - expect) < tol
    )

    t_scalar = best_of(scalar, repeats=3)
    t_batch = best_of(batch, repeats=3)

    return {
        "n_accesses": n_accesses,
        "vdd": vdd,
        "stats_within_tolerance": bool(stats_ok),
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
        "batch_maccesses_per_s": n_accesses / t_batch / 1e6,
    }


def _fig5_grids(accesses_per_point: int):
    """The Figure-5 campaign and its batch and per-access grid calls."""
    campaign = BatchCampaign(seed=5)
    voltages = np.linspace(0.30, 0.50, 11)
    args = (ACCESS_CELL_BASED_40NM, voltages, accesses_per_point)
    return (
        campaign,
        voltages,
        functools.partial(campaign.access_ber_grid, *args),
        functools.partial(campaign.access_ber_grid_scalar, *args),
    )


def bench_fig5_campaign(accesses_per_point: int):
    """Time the Figure-5 grid: vectorized campaign vs per-access loop."""
    _, voltages, grid, scalar = _fig5_grids(accesses_per_point)
    exact = bool(np.array_equal(grid().errors, scalar().errors))
    t_batch = best_of(grid, repeats=3)
    t_scalar = best_of(scalar, repeats=3, warmup=0)
    return {
        "accesses_per_point": accesses_per_point,
        "grid_points": int(voltages.size),
        "bit_exact": exact,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
    }


#: Cold grids, and warm re-queries, whose median ``bench_store`` divides.
STORE_TIMINGS = 5


def bench_store(accesses_per_point: int, campaign_runs: int,
                fft_points: int = 64):
    """Content-addressed result store: warm re-query vs cold execution.

    Runs the Figure-5 grid cold through a fresh store (execution plus
    fingerprint puts), then re-queries it warm (every point served from
    the store) — the headline ``warm_speedup``.  Both sides are timed
    alike: the median of ``STORE_TIMINGS`` cold grids, each on a fresh
    store, over the median of as many warm re-queries.  Bit-exactness is
    checked at its hardest point: a *half-primed* store (even-index
    points cached, odd-index points executed fresh) must assemble a
    grid byte-identical to the storeless run.  A full platform campaign
    point (SECDED FFT) is also timed cold vs warm.
    """
    from repro.store import ResultStore
    from repro.store.keys import fig5_point_key

    campaign, voltages, grid, _ = _fig5_grids(accesses_per_point)
    baseline = grid()

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        colds, cold_times = [], []
        for i in range(STORE_TIMINGS):
            store = ResultStore(tmp_path / f"bench_store_{i}.sqlite")
            cold, cold_s = _timed(lambda: grid(store=store))
            colds.append(cold)
            cold_times.append(cold_s)

        hits_before = store.stats()["hits"]
        warm, first_warm_s = _timed(lambda: grid(store=store))
        hit_ratio = (
            (store.stats()["hits"] - hits_before) / float(voltages.size)
        )
        warm_times = [first_warm_s] + [
            _timed(lambda: grid(store=store))[1]
            for _ in range(STORE_TIMINGS - 1)
        ]
        cold_s = statistics.median(cold_times)
        warm_s = statistics.median(warm_times)
        warm_exact = bool(
            all(np.array_equal(c.errors, baseline.errors) for c in colds)
            and np.array_equal(warm.errors, baseline.errors)
        )

        # Mixed cached+fresh assembly against a half-primed store.
        half = ResultStore(tmp_path / "bench_store_half.sqlite")
        for i, vdd in enumerate(voltages):
            if i % 2 == 0:
                key = fig5_point_key(
                    ACCESS_CELL_BASED_40NM, float(vdd),
                    accesses_per_point, 32, campaign.seed, i,
                )
                half.put(key, store.get(key))
        mixed = grid(store=half)
        half_stats = half.stats()
        cache_bit_exact = bool(
            warm_exact and np.array_equal(mixed.errors, baseline.errors)
        )

        # One full platform campaign point, cold then warm.
        point = _secded_campaign(
            fft_points, vdd=0.44, runs=campaign_runs, store=store,
        )
        campaign_cold, campaign_cold_s = _timed(point)
        campaign_warm, campaign_warm_s = _timed(point)
        campaign_warm_equal = bool(
            campaign_warm == campaign_cold
            and campaign_warm.resilience is None
        )

    return {
        "grid_points": int(voltages.size),
        "accesses_per_point": accesses_per_point,
        "campaign_runs": campaign_runs,
        "fft_points": fft_points,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "hit_ratio": hit_ratio,
        "cache_bit_exact": cache_bit_exact,
        "mixed_hits": half_stats["hits"],
        "mixed_misses": half_stats["misses"],
        "campaign_cold_s": campaign_cold_s,
        "campaign_warm_s": campaign_warm_s,
        "campaign_warm_speedup": campaign_cold_s / campaign_warm_s,
        "campaign_warm_equal": campaign_warm_equal,
    }


def _record(runner, outcome):
    """One run's outcome and its platform's per-memory RNG states."""
    plat = runner.last_platform
    memories = [plat.im, plat.sp]
    if plat.pm is not None:
        memories.append(plat.pm)
    return outcome, [
        memory.faults.rng.bit_generator.state if memory.faults else None
        for memory in memories
    ]


def _run_seeds(runner_cls, access_model, workload, vdd, seeds, oracle=None):
    """Run ``runner_cls`` once per seed, timing the loop as a whole.

    Returns ``(records, seconds, exact)``.  A record is one seed's
    :func:`_record`; ``exact`` says whether every record equals the
    ``oracle`` record of its seed (the same seeds' records from the
    reference engine): the whole :class:`RunOutcome` and the RNG
    bit-generator states of every fault stream, i.e. the engine also
    consumed exactly the same random draws.  Without an oracle the run
    *is* the oracle, and ``exact`` is true.
    """
    records = []
    start = time.perf_counter()
    for seed in seeds:
        runner = runner_cls(access_model, seed=seed)
        records.append(_record(runner, runner.run(workload, vdd, 25e6)))
    seconds = time.perf_counter() - start
    return records, seconds, oracle is None or records == oracle[: len(records)]


def _instructions(records) -> int:
    return sum(outcome.sim.instructions for outcome, _ in records)


class _ReferenceCodec(Codec):
    """A table-driven codec whose per-access calls run the per-bit bodies.

    Batch calls (bulk program loads) stay on the inner codec's kernels,
    so an oracle platform times the same code ``Cpu.run`` ran before
    the scalar paths became table-driven.
    """

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.data_bits = inner.data_bits
        self.code_bits = inner.code_bits

    def encode(self, data):
        return self.inner.encode_reference(data)

    def decode(self, codeword):
        return self.inner.decode_reference(codeword)

    def encode_batch(self, words):
        return self.inner.encode_batch(words)

    def decode_batch(self, codewords, record=True):
        return self.inner.decode_batch(codewords, record=record)


def _reference_codec(codec):
    if isinstance(codec, DetectOnlyCodec):
        return DetectOnlyCodec(_reference_codec(codec.inner))
    if hasattr(codec, "decode_reference"):
        return _ReferenceCodec(codec)
    return codec


class _PerWordOceanCopies:
    """OCEAN's software checkpoint and rollback copies, one port call
    per word — the loops the ports' block transfers replace.  (The
    harness runs OCEAN without the DMA engine.)"""

    def _checkpoint(self, platform, base, words):
        chunk = [platform.sp_port.read(base + i) for i in range(words)]
        for i, value in enumerate(chunk):
            platform.pm_port.write(i, value)
        return 2 * words * COPY_CYCLES_PER_WORD

    def _restore(self, platform, base, words):
        for i in range(words):
            platform.sp_port.write(base + i, platform.pm_port.read(i))
        return 2 * words * COPY_CYCLES_PER_WORD


def _scalar(runner_cls, reference_codecs: bool = True):
    """``runner_cls`` with its platforms pinned to the ``Cpu.run`` oracle.

    Runners leave the engine to the platform, which picks the fast lane
    for their stock ports; baselines bind the scalar interpreter
    instead, through the same ``bind_engine`` seam the lane block uses.
    OCEAN's checkpoint and rollback copies run as per-word port loops
    (:class:`_PerWordOceanCopies`).  With ``reference_codecs`` (the
    default) every codec port also runs the per-bit reference bodies
    instead of the shared tables, so the oracle shares no codec kernel
    with the engines it checks and times the same code the speedup
    gates always divided.
    """
    bases = (runner_cls,)
    if issubclass(runner_cls, OceanRunner):
        bases = (_PerWordOceanCopies, runner_cls)

    class ScalarRunner(*bases):
        def build_platform(self, vdd):
            platform = super().build_platform(vdd)
            platform.bind_engine(platform.cpu.run)
            if reference_codecs:
                for port in (
                    platform.im_port, platform.sp_port, platform.pm_port
                ):
                    if isinstance(port, CodecPort):
                        port.codec = _reference_codec(port.codec)
            return platform

    return ScalarRunner


def bench_platform(fft_points: int, seed: int = 7):
    """End-to-end platform runs: reference interpreter vs fast lane.

    One FFT run per scheme at its Table 2 operating voltage, executed
    three times from identical seeds — pinned to ``Cpu.run`` with the
    per-bit reference codecs (the oracle, ``reference_*``), pinned to
    ``Cpu.run`` with the stock table-driven codecs (``cpu_run_*``), and
    on the platform's own engine, the clean-burst fast lane.
    ``bit_exact`` is the strictest check available (:func:`_run_seeds`):
    identical :class:`RunOutcome` (the whole :class:`SimulationResult`,
    output and energy report) and byte-identical RNG bit-generator
    states on every fault stream, which ``rng_stream_identical`` also
    reports on its own.
    """
    program, golden = fft_program_and_golden(fft_points)
    sections = {}
    for runner_cls, vdd in (
        (NoMitigationRunner, 0.55),
        (SecdedRunner, 0.44),
        (OceanRunner, 0.33),
    ):
        run = functools.partial(
            _run_seeds, access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
            workload=program.workload, vdd=vdd, seeds=[seed],
        )
        oracle, t_reference, _ = run(_scalar(runner_cls))
        cpu_run, t_cpu_run, cpu_run_exact = run(
            _scalar(runner_cls, reference_codecs=False), oracle=oracle
        )
        fast, t_fast, fast_exact = run(runner_cls, oracle=oracle)
        outcome, streams = fast[0]
        instructions = outcome.sim.instructions
        sections[runner_cls.name] = {
            "vdd": vdd,
            "instructions": instructions,
            "completed": outcome.completed,
            "output_correct": outcome.output_matches(golden),
            "bit_exact": cpu_run_exact and fast_exact,
            "rng_stream_identical": oracle[0][1] == cpu_run[0][1] == streams,
            "reference_s": t_reference,
            "fast_lane_s": t_fast,
            "reference_mips": instructions / t_reference / 1e6,
            "fast_lane_mips": instructions / t_fast / 1e6,
            "speedup": t_reference / t_fast,
            "cpu_run_s": t_cpu_run,
            "cpu_run_mips": instructions / t_cpu_run / 1e6,
            "speedup_vs_cpu_run": t_cpu_run / t_fast,
        }
    return {"fft_points": fft_points, "seed": seed, "schemes": sections}


def bench_profile(fft_points: int, seed: int = 7, repeats: int = 3):
    """Engine-profiler cost and neutrality on the platform workload.

    Runs the SECDED FFT with profiling disabled and enabled (fresh
    runners, identical seeds) on both single-loop engines — the fast
    lane the platform picks and the scalar ``Cpu.run`` pinned through
    ``bind_engine`` — and checks each pair stays bit-exact
    (:func:`_run_seeds`).  Reports the enabled-profiler wall overhead
    of each engine (the fast lane's as ``overhead_pct``); a disabled
    profiler is a ``None`` tally in the same loop, so its cost is
    inside every other section's timings.
    """
    program, golden = fft_program_and_golden(fft_points)

    def measure(runner_cls):
        registry = obs.MetricsRegistry()

        def run_once(oracle=None):
            return _run_seeds(
                runner_cls, ACCESS_CELL_BASED_40NM_TYPICAL,
                program.workload, 0.44, [seed], oracle,
            )

        def run_profiled(oracle=None):
            with obs.scoped_metrics(registry), obs.scoped_profiling():
                return run_once(oracle)

        t_off = best_of(run_once, repeats=repeats)
        unprofiled, _, _ = run_once()
        t_on = best_of(run_profiled, repeats=repeats)
        profiled, _, exact = run_profiled(unprofiled)
        return t_off, t_on, exact, profiled[0][0], registry.snapshot()

    t_off, t_on, fast_exact, outcome, snapshot = measure(SecdedRunner)
    s_off, s_on, scalar_exact, _, scalar_snapshot = measure(
        _scalar(SecdedRunner)
    )
    return {
        "fft_points": fft_points,
        "seed": seed,
        "unprofiled_s": t_off,
        "profiled_s": t_on,
        "overhead_pct": (t_on - t_off) / t_off * 100.0,
        "scalar_unprofiled_s": s_off,
        "scalar_profiled_s": s_on,
        "scalar_overhead_pct": (s_on - s_off) / s_off * 100.0,
        "bit_exact": fast_exact and scalar_exact,
        "output_correct": outcome.output_matches(golden),
        "fast_instructions": snapshot.counters.get(
            names.PROFILE_FAST_INSTRUCTIONS, 0
        ),
        "slow_instructions": snapshot.counters.get(
            names.PROFILE_SLOW_INSTRUCTIONS, 0
        ),
        "bursts": snapshot.counters.get(names.PROFILE_BURSTS, 0),
        "scalar_slow_instructions": scalar_snapshot.counters.get(
            names.PROFILE_SLOW_INSTRUCTIONS, 0
        ),
        "scalar_pc_counts": sum(
            scalar_snapshot.histograms.get(names.PROFILE_PC, {}).values()
        ),
    }


def bench_simd(
    fft_points: int,
    lane_counts: tuple[int, ...],
    vdd: float = 0.44,
    seed_base: int = 300,
    cpu_run_seeds: int = 64,
):
    """Lane-scaling throughput of the lockstep SIMD engine.

    Runs the quick FFT campaign (one SECDED run per seed at the
    Table 2 operating point) once through the scalar engine with the
    per-bit reference codecs — the bit-exactness oracle *and* the
    baseline clock — then through :func:`repro.soc.simd.run_lane_block`
    at each lane count.  The scalar outcomes and RNG stream positions
    are kept per seed, so every lane of every configuration is
    verified bit-identical to its own scalar run; ``speedup_vs_scalar``
    compares aggregate instructions/s over the same seeds.  The first
    ``cpu_run_seeds`` seeds also run through ``Cpu.run`` with the stock
    table-driven codecs (verified against the oracle too): the baseline
    rate of ``speedup_vs_cpu_run``.  Every seed also runs one by one on
    the platform's own engine, the fast lane (verified too): the
    baseline of the ungated ``speedup_vs_fast_lane``, the number that
    says at which lane count a block beats running its lanes serially.
    """
    workload = build_fft_program(fft_points).workload
    seeds = range(seed_base, seed_base + max(lane_counts))
    run = functools.partial(
        _run_seeds, access_model=ACCESS_CELL_BASED_40NM,
        workload=workload, vdd=vdd,
    )
    oracle, t_scalar, _ = run(_scalar(SecdedRunner), seeds=seeds)
    scalar_ips = _instructions(oracle) / t_scalar
    cpu_run, t_cpu_run, cpu_run_exact = run(
        _scalar(SecdedRunner, reference_codecs=False),
        seeds=seeds[:cpu_run_seeds], oracle=oracle,
    )
    cpu_run_ips = _instructions(cpu_run) / t_cpu_run
    fast, t_fast, fast_exact = run(SecdedRunner, seeds=seeds, oracle=oracle)
    fast_ips = _instructions(fast) / t_fast

    configs = []
    for lanes in lane_counts:
        runners = [
            SecdedRunner(ACCESS_CELL_BASED_40NM, seed=seed)
            for seed in seeds[:lanes]
        ]
        outcomes, t_block = _timed(
            lambda: run_lane_block(runners, workload, vdd=vdd, frequency=25e6)
        )
        records = [_record(r, o) for r, o in zip(runners, outcomes)]
        ips = _instructions(records) / t_block
        configs.append(
            {
                "lanes": lanes,
                "instructions": _instructions(records),
                "bit_exact": records == oracle[:lanes],
                "lockstep_s": t_block,
                "aggregate_ips": ips,
                "speedup_vs_scalar": ips / scalar_ips,
                "speedup_vs_cpu_run": ips / cpu_run_ips,
                "speedup_vs_fast_lane": ips / fast_ips,
            }
        )
    return {
        "fft_points": fft_points,
        "scheme": "SECDED",
        "vdd": vdd,
        "seed_base": seed_base,
        "scalar_runs": len(oracle),
        "scalar_s": t_scalar,
        "scalar_ips": scalar_ips,
        "cpu_run_runs": len(cpu_run),
        "cpu_run_s": t_cpu_run,
        "cpu_run_ips": cpu_run_ips,
        "cpu_run_bit_exact": cpu_run_exact,
        "fast_lane_s": t_fast,
        "fast_lane_ips": fast_ips,
        "fast_lane_bit_exact": fast_exact,
        # Non-vacuousness record: the worst-case access model at this
        # sub-Vmin supply injects real faults, so bit_exact covers the
        # divergence/slow-path machinery, not just the clean path.
        "scalar_injected_bits": sum(
            sum(outcome.sim.injected_bits.values()) for outcome, _ in oracle
        ),
        "configs": configs,
    }


def bench_resilience(runs: int, fft_points: int, vdd: float = 0.40):
    """Prove the resilient campaign layer and price its overhead.

    Three campaigns at the same seeds: an unperturbed serial baseline,
    a chaos-perturbed pooled run (worker kill + in-task exception) that
    must converge to a bit-identical ``CampaignResult``, and a
    half-finished campaign resumed to completion from a result store —
    also bit-identical.
    """
    from repro.store import ResultStore

    campaign = _secded_campaign(
        fft_points, vdd=vdd, runs=runs,
        max_retries=RESILIENCE_MAX_RETRIES,
        task_timeout=RESILIENCE_TASK_TIMEOUT,
    )
    baseline, t_baseline = _timed(campaign)

    # Kill one worker mid-task and raise inside another: the pooled
    # campaign must still converge to the baseline result.
    chaos = ChaosPolicy(
        kill=[("run-101", 1)], raise_in_task=[("run-102", 1)]
    )
    perturbed, t_perturbed = _timed(
        lambda: campaign(processes=2, chaos=chaos)
    )

    # Interrupt-and-resume via the store: the first half of the runs
    # lands in the store, then the full campaign resumes from it.
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "resume.sqlite")
        campaign(store=store, runs=max(1, runs // 2))
        resumed, t_resumed = _timed(lambda: campaign(store=store))

    return {
        "runs": runs,
        "fft_points": fft_points,
        "vdd": vdd,
        "max_retries": RESILIENCE_MAX_RETRIES,
        "task_timeout": RESILIENCE_TASK_TIMEOUT,
        "chaos_bit_identical": bool(perturbed == baseline),
        "chaos_retries": perturbed.resilience.retries,
        "chaos_pool_breaks": perturbed.resilience.pool_breaks,
        "resume_bit_identical": bool(resumed == baseline),
        "resumed_tasks": resumed.resilience.resumed,
        "executed_after_resume": resumed.resilience.executed,
        "baseline_s": t_baseline,
        "perturbed_s": t_perturbed,
        "resumed_s": t_resumed,
    }


def bench_serve(runs: int, fft_points: int = 64):
    """Serving pipeline: cold submit, warm resubmit, journal recovery.

    Three passes over the same two-point grid through real
    ``ServerThread`` instances and the retrying ``ServeClient``: a
    cold submit into an empty store, a resubmit against a *fresh*
    server process sharing that store (every point a store hit — the
    serving-layer ``warm_speedup``), and a journal recovery pass where
    the server starts with a hand-written incomplete job (the SIGKILL
    aftermath) and must finish it warm.  All three must produce
    byte-identical results.
    """
    from repro.serve import ServeClient, ServerThread
    from repro.serve.durability import JobJournal
    from repro.serve.server import normalize_spec, spec_fingerprint
    from repro.store import ResultStore

    spec = {
        "scheme": "secded",
        "vdds": [0.44, 0.46],
        "runs": runs,
        "seed": 100,
        "fft": fft_points,
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store = ResultStore(tmp_path / "serve.sqlite")

        def submit():
            # A fresh server on the same store each time: the second
            # submit is served entirely from cache.
            with ServerThread(store) as handle:
                return _timed(
                    lambda: ServeClient(handle.url).submit_and_wait(
                        spec, poll_s=0.02
                    )
                )

        (cold, cold_s), (warm, warm_s) = submit(), submit()

        # Journal recovery: submitted+started with no terminal record
        # is exactly what a SIGKILLed server leaves behind.
        journal = tmp_path / "serve_jobs.ndjson"
        normalized = normalize_spec(dict(spec))
        with JobJournal(journal) as job_journal:
            job_journal.record_submitted(
                "job-0001-bench", spec_fingerprint(normalized),
                normalized, len(normalized["vdds"]),
            )
            job_journal.record_started("job-0001-bench")
        start = time.perf_counter()
        with ServerThread(store, journal=journal) as handle:
            client = ServeClient(handle.url)
            recovered = client.wait(
                "job-0001-bench", poll_s=0.02, deadline_s=120
            )
            serve_stats = client.stats()
        recovered_s = time.perf_counter() - start

    identical = (
        json.dumps(cold["results"], sort_keys=True)
        == json.dumps(warm["results"], sort_keys=True)
        == json.dumps(recovered["results"], sort_keys=True)
    )
    return {
        "runs": runs,
        "fft_points": fft_points,
        "grid_points": len(spec["vdds"]),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "warm_hits": warm["hits"],
        "recovered_s": recovered_s,
        "recovered_jobs": serve_stats["recovered_jobs"],
        "recovered_hits": recovered["hits"],
        "warm_bit_identical": bool(identical),
    }


def gate_checks(results: dict) -> dict:
    """The pass/fail gates of a results dict: the ``checks`` block.

    The platform gate's floor, and with it its name, follows the run's
    sizes: ``platform_secded_3x`` for ``--quick``, else
    ``platform_secded_10x``.
    """
    secded, bch, store = results["secded"], results["bch"], results["store"]
    schemes = results["platform"]["schemes"]
    simd, resilience = results["simd"], results["resilience"]
    serve, profile = results["serve"], results["profile"]
    target = SIZES[results["quick"]]["platform_speedup_target"]
    simd_256 = next(c for c in simd["configs"] if c["lanes"] == 256)
    return {
        "secded_encode_bit_exact": secded["encode_bit_exact"],
        "secded_decode_bit_exact": secded["decode_bit_exact"],
        "bch_encode_bit_exact": bch["encode_bit_exact"],
        "bch_decode_bit_exact": bch["decode_bit_exact"],
        "fault_stats_ok": results["faults"]["stats_within_tolerance"],
        "fig5_bit_exact": results["fig5_campaign"]["bit_exact"],
        "store_warm_100x": store["warm_speedup"] >= 100.0,
        "store_hit_ratio": store["hit_ratio"] == 1.0,
        "store_cache_bit_exact": store["cache_bit_exact"],
        "store_campaign_warm_equal": store["campaign_warm_equal"],
        "secded_encode_20x": secded["encode_speedup"] >= 20.0,
        "secded_decode_20x": secded["decode_speedup"] >= 20.0,
        # Regression guard for the vectorized syndrome/Chien decode
        # path: the scalar-dirty-loop implementation measured ~26x.
        "bch_decode_40x": bch["decode_speedup"] >= 40.0,
        "fig5_campaign_5x": results["fig5_campaign"]["speedup"] >= 5.0,
        "simd_bit_exact": (
            all(c["bit_exact"] for c in simd["configs"])
            and simd["cpu_run_bit_exact"]
            and simd["fast_lane_bit_exact"]
        ),
        "simd_256_10x": simd_256["speedup_vs_scalar"] >= 10.0,
        "simd_faults_observed": simd["scalar_injected_bits"] > 0,
        "platform_bit_exact": all(
            s["bit_exact"] for s in schemes.values()
        ),
        "platform_rng_identical": all(
            s["rng_stream_identical"] for s in schemes.values()
        ),
        "platform_output_correct": all(
            s["output_correct"] for s in schemes.values()
        ),
        f"platform_secded_{target:g}x": (
            schemes["SECDED"]["speedup"] >= target
        ),
        "resilience_chaos_bit_identical": resilience["chaos_bit_identical"],
        "resilience_chaos_recovered": resilience["chaos_retries"] >= 1,
        "resilience_resume_bit_identical": (
            resilience["resume_bit_identical"]
        ),
        "resilience_resume_skipped_work": resilience["resumed_tasks"] >= 1,
        "serve_warm_all_hits": serve["warm_hits"] == serve["grid_points"],
        "serve_recovered_job_completed": (
            serve["recovered_jobs"] == 1
            and serve["recovered_hits"] == serve["grid_points"]
        ),
        "serve_warm_bit_identical": serve["warm_bit_identical"],
        "profile_bit_exact": profile["bit_exact"],
        "profile_output_correct": profile["output_correct"],
        "profile_instruments_populated": (
            profile["fast_instructions"] > 0
            and profile["bursts"] > 0
            and profile["scalar_slow_instructions"] > 0
            and profile["scalar_pc_counts"]
            == profile["scalar_slow_instructions"]
        ),
    }


def headline_speedups(results: dict) -> dict:
    """The manifest's ``speedups`` block, which the console prints too."""
    return {
        "secded_encode": results["secded"]["encode_speedup"],
        "secded_decode": results["secded"]["decode_speedup"],
        "bch_encode": results["bch"]["encode_speedup"],
        "bch_decode": results["bch"]["decode_speedup"],
        "faults": results["faults"]["speedup"],
        "fig5_campaign": results["fig5_campaign"]["speedup"],
        "store_warm": results["store"]["warm_speedup"],
        "store_campaign_warm": results["store"]["campaign_warm_speedup"],
        "serve_warm": results["serve"]["warm_speedup"],
        "platform": {
            name: s["speedup"]
            for name, s in results["platform"]["schemes"].items()
        },
        "simd": {
            str(c["lanes"]): c["speedup_vs_scalar"]
            for c in results["simd"]["configs"]
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--manifest", type=Path, default=None,
        help="where to write the run manifest "
        "(default: BENCH_manifest.json next to --output)",
    )
    args = parser.parse_args()
    if not args.output.parent.is_dir():
        parser.error(f"output directory does not exist: {args.output.parent}")
    manifest_path = (
        args.manifest
        if args.manifest is not None
        else args.output.parent / "BENCH_manifest.json"
    )
    sizes = SIZES[args.quick]

    # The harness keeps its own registry (the ground-truth
    # miscorrection counters, the manifest snapshot); it is never the
    # active one, so the kernels under test run with telemetry
    # disabled.
    registry = obs.MetricsRegistry()
    manifest = obs.RunManifest.capture(
        kind="benchmark",
        name="perf-harness",
        seeds={"rng": 2014, "fault_engine": 7, "fig5_campaign": 5},
        parameters={
            "quick": args.quick,
            **sizes,
            "simd_fft_points": SIMD_FFT_POINTS,
            "simd_lane_counts": list(SIMD_LANE_COUNTS),
            "resilience_max_retries": RESILIENCE_MAX_RETRIES,
            "resilience_task_timeout": RESILIENCE_TASK_TIMEOUT,
        },
    )

    rng = np.random.default_rng(2014)
    # Each section lands in ``results[<name>]``, and its wall time in
    # the manifest as ``bench.<name>``, in this order (the codec
    # sections share ``rng``).  The 1% BCH dirty fraction reflects
    # near-threshold word fault rates, where p_word stays far below a
    # percent; both decode paths are vectorized (a packed byte-LUT
    # syndrome screen, then batched Chien search; only Berlekamp-Massey
    # stays scalar).
    sections = {
        "secded": lambda: bench_codec(
            SecdedCodec(), "SECDED(39,32)", sizes["secded_words"],
            error_bits=2, rng=rng, registry=registry,
        ),
        "bch": lambda: bench_codec(
            BchCodec(), "BCH(56,32,t=4)", sizes["bch_words"], error_bits=4,
            rng=rng, dirty_fraction=0.01, registry=registry,
        ),
        "faults": lambda: bench_faults(sizes["fault_accesses"]),
        "fig5_campaign": lambda: bench_fig5_campaign(
            sizes["fig5_accesses_per_point"]
        ),
        "store": lambda: bench_store(
            sizes["fig5_accesses_per_point"], sizes["resilience_runs"]
        ),
        "platform": lambda: bench_platform(sizes["platform_fft_points"]),
        "profile": lambda: bench_profile(sizes["platform_fft_points"]),
        "simd": lambda: bench_simd(SIMD_FFT_POINTS, SIMD_LANE_COUNTS),
        "resilience": lambda: bench_resilience(sizes["resilience_runs"], 64),
        "serve": lambda: bench_serve(sizes["resilience_runs"]),
    }
    results = {"quick": args.quick,
               "python": platform.python_version(),
               "numpy": np.__version__}
    for name, section in sections.items():
        start = time.perf_counter()
        results[name] = section()
        manifest.add_timing(f"bench.{name}", time.perf_counter() - start)
    checks = results["checks"] = gate_checks(results)
    results["all_checks_passed"] = all(checks.values())

    args.output.write_text(json.dumps(results, indent=2) + "\n")

    manifest.attach_metrics(registry.snapshot())
    speedups = headline_speedups(results)
    manifest.results = {
        "checks": checks,
        "all_checks_passed": results["all_checks_passed"],
        "speedups": speedups,
        "output": str(args.output),
    }
    manifest.write(manifest_path)

    print(f"wrote {args.output}")
    print(f"wrote {manifest_path}")
    for name, value in speedups.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k} {v:.1f}x" for k, v in value.items())
        else:
            value = f"{value:.1f}x"
        print(f"{name:>20}: {value}")
    print("checks:", "PASS" if results["all_checks_passed"] else "FAIL",
          {k: v for k, v in checks.items() if not v} or "")
    return 0 if results["all_checks_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
