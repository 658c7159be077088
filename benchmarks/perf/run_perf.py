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
codec ports pinned to those bodies (platform and SIMD sections).  The
gated fields keep their names and meaning across history; the
table-driven scalar timings sit next to them as ``*_table_*`` and
``cpu_run_*`` fields.

Run directly::

    PYTHONPATH=src python benchmarks/perf/run_perf.py           # full sizes
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick   # CI smoke

Acceptance targets (asserted by the caller, recorded in the JSON):
SECDED encode and decode >= 20x, Figure-5 campaign >= 5x, everything
bit-exact against the scalar paths under fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.obs import names  # noqa: E402
from repro.obs.perfhistory import append_history  # noqa: E402
from repro.analysis.batch import BatchCampaign  # noqa: E402
from repro.core.access import ACCESS_CELL_BASED_40NM  # noqa: E402
from repro.ecc import (  # noqa: E402
    BchCodec,
    STATUS_DETECTED,
    SecdedCodec,
    status_code,
)
from repro.ecc.base import Codec  # noqa: E402
from repro.soc.faults import VoltageFaultModel  # noqa: E402
from repro.soc.ports import CodecPort, DetectOnlyCodec  # noqa: E402
from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL  # noqa: E402
from repro.mitigation import (  # noqa: E402
    NoMitigationRunner,
    OceanRunner,
    SecdedRunner,
)
from repro.analysis.campaign import run_campaign  # noqa: E402
from repro.resilience import ChaosPolicy  # noqa: E402
from repro.soc.simd import run_lane_block  # noqa: E402
from repro.workloads.fft import build_fft_program  # noqa: E402


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
    def scalar():
        model = VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, width=32, vdd=vdd,
            rng=np.random.default_rng(7),
        )
        for _ in range(n_accesses):
            model.sample_mask()
        return model

    def batch():
        model = VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, width=32, vdd=vdd,
            rng=np.random.default_rng(7),
        )
        model.sample_masks(n_accesses)
        return model

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


def bench_fig5_campaign(accesses_per_point: int):
    """Time the Figure-5 grid: vectorized campaign vs per-access loop."""
    campaign = BatchCampaign(seed=5)
    voltages = np.linspace(0.30, 0.50, 11)

    grid = campaign.access_ber_grid(
        ACCESS_CELL_BASED_40NM, voltages, accesses_per_point
    )
    ref = campaign.access_ber_grid_scalar(
        ACCESS_CELL_BASED_40NM, voltages, accesses_per_point
    )
    exact = bool(np.array_equal(grid.errors, ref.errors))

    t_batch = best_of(
        lambda: campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, voltages, accesses_per_point
        ),
        repeats=3,
    )
    t_scalar = best_of(
        lambda: campaign.access_ber_grid_scalar(
            ACCESS_CELL_BASED_40NM, voltages, accesses_per_point
        ),
        repeats=3, warmup=0,
    )
    return {
        "accesses_per_point": accesses_per_point,
        "grid_points": int(voltages.size),
        "bit_exact": exact,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
    }


def bench_store(accesses_per_point: int, campaign_runs: int,
                fft_points: int = 64):
    """Content-addressed result store: warm re-query vs cold execution.

    Runs the Figure-5 grid cold through a fresh store (execution plus
    fingerprint puts), then re-queries it warm (every point served from
    the store) — the headline ``warm_speedup``.  Bit-exactness is
    checked at its hardest point: a *half-primed* store (even-index
    points cached, odd-index points executed fresh) must assemble a
    grid byte-identical to the storeless run.  A full platform campaign
    point (SECDED FFT) is also timed cold vs warm.
    """
    from repro.store import ResultStore
    from repro.store.keys import fig5_point_key

    campaign = BatchCampaign(seed=5)
    voltages = np.linspace(0.30, 0.50, 11)
    baseline = campaign.access_ber_grid(
        ACCESS_CELL_BASED_40NM, voltages, accesses_per_point
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store = ResultStore(tmp_path / "bench_store.sqlite")
        start = time.perf_counter()
        cold = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, voltages, accesses_per_point,
            store=store,
        )
        cold_s = time.perf_counter() - start

        hits_before = store.stats()["hits"]
        start = time.perf_counter()
        warm = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, voltages, accesses_per_point,
            store=store,
        )
        first_warm_s = time.perf_counter() - start
        hit_ratio = (
            (store.stats()["hits"] - hits_before) / float(voltages.size)
        )
        warm_s = min(
            first_warm_s,
            best_of(
                lambda: campaign.access_ber_grid(
                    ACCESS_CELL_BASED_40NM, voltages, accesses_per_point,
                    store=store,
                )
            ),
        )
        warm_exact = bool(
            np.array_equal(cold.errors, baseline.errors)
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
        mixed = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, voltages, accesses_per_point,
            store=half,
        )
        half_stats = half.stats()
        cache_bit_exact = bool(
            warm_exact and np.array_equal(mixed.errors, baseline.errors)
        )

        # One full platform campaign point, cold then warm.
        program = build_fft_program(fft_points)
        golden = program.expected_output(
            list(program.data_words[:fft_points])
        )
        campaign_kwargs = dict(
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
            vdd=0.44,
            runs=campaign_runs,
            seed_base=100,
            macro_style="cell-based",
            store=store,
        )
        start = time.perf_counter()
        campaign_cold = run_campaign(SecdedRunner, **campaign_kwargs)
        campaign_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        campaign_warm = run_campaign(SecdedRunner, **campaign_kwargs)
        campaign_warm_s = time.perf_counter() - start
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


def _platform_rng_states(runner):
    """Per-memory RNG bit-generator states after a completed run."""
    plat = runner.last_platform
    memories = [plat.im, plat.sp]
    if plat.pm is not None:
        memories.append(plat.pm)
    return [
        memory.faults.rng.bit_generator.state if memory.faults else None
        for memory in memories
    ]


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


def _scalar(runner_cls, reference_codecs: bool = True):
    """``runner_cls`` with its platforms pinned to the ``Cpu.run`` oracle.

    Runners leave the engine to the platform, which picks the fast lane
    for their stock ports; baselines bind the scalar interpreter
    instead, through the same ``bind_engine`` seam the lane block uses.
    With ``reference_codecs`` (the default) every codec port also runs
    the per-bit reference bodies instead of the shared tables, so the
    oracle shares no codec kernel with the engines it checks and times
    the same code the speedup gates always divided.
    """

    class ScalarRunner(runner_cls):
        def build_platform(self, vdd):
            platform = super().build_platform(vdd)
            platform.bind_engine(platform.cpu.run)
            if reference_codecs:
                for port in (
                    platform.im_port, platform.sp_port, platform.pm_port
                ):
                    if isinstance(port, CodecPort):
                        port.codec = port.wrapper.codec = _reference_codec(
                            port.codec
                        )
            return platform

    return ScalarRunner


def bench_platform(fft_points: int, seed: int = 7):
    """End-to-end platform runs: reference interpreter vs fast lane.

    One FFT run per scheme at its Table 2 operating voltage, executed
    three times from identical seeds — pinned to ``Cpu.run`` with the
    per-bit reference codecs (the oracle, ``reference_*``), pinned to
    ``Cpu.run`` with the stock table-driven codecs (``cpu_run_*``), and
    on the platform's own engine, the clean-burst fast lane.
    Bit-exactness here is the strictest available: identical
    :class:`SimulationResult` (cycles, instructions, access counters,
    corrected/detected words, injected bits), identical program
    output, and byte-identical RNG bit-generator states on every fault
    stream — i.e. the fast lane consumed exactly the same random draws
    as per-access sampling.
    """
    program = build_fft_program(fft_points)
    golden = program.expected_output(list(program.data_words[:fft_points]))
    sections = {}
    for runner_cls, vdd in (
        (NoMitigationRunner, 0.55),
        (SecdedRunner, 0.44),
        (OceanRunner, 0.33),
    ):
        runners = [
            _scalar(runner_cls)(ACCESS_CELL_BASED_40NM_TYPICAL, seed=seed),
            _scalar(runner_cls, reference_codecs=False)(
                ACCESS_CELL_BASED_40NM_TYPICAL, seed=seed
            ),
            runner_cls(ACCESS_CELL_BASED_40NM_TYPICAL, seed=seed),
        ]
        outcomes, times = [], []
        for runner in runners:
            start = time.perf_counter()
            outcomes.append(runner.run(program.workload, vdd, 25e6))
            times.append(time.perf_counter() - start)
        ref_outcome = outcomes[0]
        fast_outcome = outcomes[-1]
        t_reference, t_cpu_run, t_fast = times

        bit_exact = all(
            ref_outcome.sim == outcome.sim
            and ref_outcome.completed == outcome.completed
            and ref_outcome.failure == outcome.failure
            and ref_outcome.output == outcome.output
            for outcome in outcomes[1:]
        )
        rng_identical = all(
            _platform_rng_states(runners[0]) == _platform_rng_states(runner)
            for runner in runners[1:]
        )
        instructions = fast_outcome.sim.instructions
        sections[runners[0].name] = {
            "vdd": vdd,
            "instructions": instructions,
            "completed": fast_outcome.completed,
            "output_correct": fast_outcome.output_matches(golden),
            "bit_exact": bit_exact,
            "rng_stream_identical": rng_identical,
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
    ``bind_engine`` — and checks each pair stays bit-exact: identical
    :class:`SimulationResult`, program output and RNG stream positions.
    Reports the enabled-profiler wall overhead of each engine (the
    fast lane's as ``overhead_pct``); a disabled profiler is a ``None``
    tally in the same loop, so its cost is inside every other section's
    timings.
    """
    program = build_fft_program(fft_points)
    golden = program.expected_output(list(program.data_words[:fft_points]))
    vdd = 0.44

    def measure(runner_cls):
        def run_once():
            runner = runner_cls(ACCESS_CELL_BASED_40NM_TYPICAL, seed=seed)
            outcome = runner.run(program.workload, vdd, 25e6)
            return outcome, _platform_rng_states(runner)

        registry = obs.MetricsRegistry()

        def run_profiled():
            with obs.scoped_metrics(registry), obs.scoped_profiling():
                return run_once()

        t_off = best_of(run_once, repeats=repeats)
        off_outcome, off_rng = run_once()
        t_on = best_of(run_profiled, repeats=repeats)
        on_outcome, on_rng = run_profiled()
        bit_exact = bool(
            off_outcome.sim == on_outcome.sim
            and off_outcome.completed == on_outcome.completed
            and off_outcome.failure == on_outcome.failure
            and off_outcome.output == on_outcome.output
            and off_rng == on_rng
        )
        snapshot = registry.snapshot()
        return t_off, t_on, bit_exact, on_outcome, snapshot

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
    lane_counts: tuple[int, ...] = (1, 16, 64, 256),
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
    are cached per seed, so every lane of every configuration is
    verified bit-identical to its own scalar run; ``speedup_vs_scalar``
    compares aggregate instructions/s over the same seeds.  The first
    ``cpu_run_seeds`` seeds also run through ``Cpu.run`` with the stock
    table-driven codecs (verified against the oracle too): the baseline
    rate of ``speedup_vs_cpu_run``.
    """
    program = build_fft_program(fft_points)
    workload = program.workload
    n_max = max(lane_counts)
    oracle = {}
    scalar_instructions = 0
    injected_bits = 0
    start = time.perf_counter()
    for index in range(n_max):
        runner = _scalar(SecdedRunner)(
            ACCESS_CELL_BASED_40NM, seed=seed_base + index
        )
        outcome = runner.run(workload, vdd, 25e6)
        oracle[index] = (outcome, _platform_rng_states(runner))
        scalar_instructions += outcome.sim.instructions
        injected_bits += sum(outcome.sim.injected_bits.values())
    t_scalar = time.perf_counter() - start
    scalar_ips = scalar_instructions / t_scalar

    cpu_run_exact = True
    cpu_run_instructions = 0
    start = time.perf_counter()
    for index in range(min(cpu_run_seeds, n_max)):
        runner = _scalar(SecdedRunner, reference_codecs=False)(
            ACCESS_CELL_BASED_40NM, seed=seed_base + index
        )
        outcome = runner.run(workload, vdd, 25e6)
        cpu_run_instructions += outcome.sim.instructions
        cpu_run_exact &= (
            outcome == oracle[index][0]
            and _platform_rng_states(runner) == oracle[index][1]
        )
    t_cpu_run = time.perf_counter() - start
    cpu_run_ips = cpu_run_instructions / t_cpu_run

    configs = []
    for lanes in lane_counts:
        runners = [
            SecdedRunner(
                ACCESS_CELL_BASED_40NM, seed=seed_base + index
            )
            for index in range(lanes)
        ]
        start = time.perf_counter()
        outcomes = run_lane_block(
            runners, workload, vdd=vdd, frequency=25e6
        )
        t_block = time.perf_counter() - start
        instructions = sum(o.sim.instructions for o in outcomes)
        bit_exact = all(
            outcomes[index] == oracle[index][0]
            and _platform_rng_states(runners[index]) == oracle[index][1]
            for index in range(lanes)
        )
        ips = instructions / t_block
        configs.append(
            {
                "lanes": lanes,
                "instructions": instructions,
                "bit_exact": bool(bit_exact),
                "lockstep_s": t_block,
                "aggregate_ips": ips,
                "speedup_vs_scalar": ips / scalar_ips,
                "speedup_vs_cpu_run": ips / cpu_run_ips,
            }
        )
    return {
        "fft_points": fft_points,
        "scheme": "SECDED",
        "vdd": vdd,
        "seed_base": seed_base,
        "scalar_runs": n_max,
        "scalar_s": t_scalar,
        "scalar_ips": scalar_ips,
        "cpu_run_runs": min(cpu_run_seeds, n_max),
        "cpu_run_s": t_cpu_run,
        "cpu_run_ips": cpu_run_ips,
        "cpu_run_bit_exact": bool(cpu_run_exact),
        # Non-vacuousness record: the worst-case access model at this
        # sub-Vmin supply injects real faults, so bit_exact covers the
        # divergence/slow-path machinery, not just the clean path.
        "scalar_injected_bits": injected_bits,
        "configs": configs,
    }


def bench_resilience(
    runs: int,
    fft_points: int,
    max_retries: int,
    task_timeout: float | None,
    vdd: float = 0.40,
):
    """Prove the resilient campaign layer and price its overhead.

    Three campaigns at the same seeds: an unperturbed serial baseline,
    a chaos-perturbed pooled run (worker kill + in-task exception) that
    must converge to a bit-identical ``CampaignResult``, and a
    half-finished campaign resumed to completion from a result store —
    also bit-identical.
    """
    from repro.store import ResultStore

    program = build_fft_program(fft_points)
    golden = program.expected_output(list(program.data_words[:fft_points]))
    kwargs = dict(
        workload=program.workload,
        golden=golden,
        access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
        vdd=vdd,
        runs=runs,
        seed_base=100,
        macro_style="cell-based",
        max_retries=max_retries,
        task_timeout=task_timeout,
    )

    start = time.perf_counter()
    baseline = run_campaign(SecdedRunner, **kwargs)
    t_baseline = time.perf_counter() - start

    # Kill one worker mid-task and raise inside another: the pooled
    # campaign must still converge to the baseline result.
    chaos = ChaosPolicy(
        kill=[("run-101", 1)], raise_in_task=[("run-102", 1)]
    )
    start = time.perf_counter()
    perturbed = run_campaign(
        SecdedRunner, processes=2, chaos=chaos, **kwargs
    )
    t_perturbed = time.perf_counter() - start

    # Interrupt-and-resume via the store: the first half of the runs
    # lands in the store, then the full campaign resumes from it.
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "resume.sqlite")
        run_campaign(
            SecdedRunner, store=store,
            **{**kwargs, "runs": max(1, runs // 2)},
        )
        start = time.perf_counter()
        resumed = run_campaign(SecdedRunner, store=store, **kwargs)
        t_resumed = time.perf_counter() - start

    return {
        "runs": runs,
        "fft_points": fft_points,
        "vdd": vdd,
        "max_retries": max_retries,
        "task_timeout": task_timeout,
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
        with ServerThread(store) as handle:
            start = time.perf_counter()
            cold = ServeClient(handle.url).submit_and_wait(spec, poll_s=0.02)
            cold_s = time.perf_counter() - start

        # A fresh server on the same store: the resubmit is served
        # entirely from cache.
        with ServerThread(store) as handle:
            start = time.perf_counter()
            warm = ServeClient(handle.url).submit_and_wait(spec, poll_s=0.02)
            warm_s = time.perf_counter() - start

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
    parser.add_argument(
        "--telemetry", action="store_true",
        help="install the harness registry as the active one, so "
        "library-level counters (ecc.*, faults.*) flow into the "
        "manifest; off by default to keep timings comparable",
    )
    parser.add_argument(
        "--history", type=Path,
        default=REPO_ROOT / "BENCH_history.ndjson",
        help="append-only NDJSON perf-history ledger (one entry per "
        "run; read by `repro perf-compare`)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending this run to the perf-history ledger",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="retry budget per campaign run in the resilience section "
        "(default 3)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run deadline in the resilience section (default none)",
    )
    args = parser.parse_args()
    if not args.output.parent.is_dir():
        parser.error(f"output directory does not exist: {args.output.parent}")
    manifest_path = (
        args.manifest
        if args.manifest is not None
        else args.output.parent / "BENCH_manifest.json"
    )

    if args.quick:
        secded_n, bch_n = 20_000, 2_000
        fault_n, fig5_n = 200_000, 2_000
        platform_fft = 64
        platform_target = 3.0
        resilience_runs = 4
    else:
        secded_n, bch_n = 200_000, 20_000
        fault_n, fig5_n = 2_000_000, 20_000
        platform_fft = 256
        platform_target = 10.0
        resilience_runs = 8
    # The SIMD section always runs the FFT-64 campaign: the lockstep
    # engine's win is lane count, not program size, and the scalar
    # oracle must execute every seed once — larger programs would
    # multiply that (serial) oracle cost for no extra information.
    simd_fft = 64
    simd_lane_counts = (1, 16, 64, 256)

    # The harness always keeps its own registry (section timers, the
    # ground-truth miscorrection counters, the manifest snapshot).
    # Installing it as the *active* registry — so the kernels under
    # test also publish — is opt-in, because that is exactly the
    # telemetry-enabled configuration whose cost we want to be able to
    # measure against the disabled default.
    registry = obs.MetricsRegistry()
    if args.telemetry:
        obs.enable_metrics(registry)

    manifest = obs.RunManifest.capture(
        kind="benchmark",
        name="perf-harness",
        seeds={"rng": 2014, "fault_engine": 7, "fig5_campaign": 5},
        parameters={
            "quick": args.quick,
            "telemetry": args.telemetry,
            "secded_words": secded_n,
            "bch_words": bch_n,
            "fault_accesses": fault_n,
            "fig5_accesses_per_point": fig5_n,
            "platform_fft_points": platform_fft,
            "platform_speedup_target": platform_target,
            "simd_fft_points": simd_fft,
            "simd_lane_counts": list(simd_lane_counts),
            "resilience_runs": resilience_runs,
            "resilience_max_retries": args.max_retries,
            "resilience_task_timeout": args.task_timeout,
        },
    )

    rng = np.random.default_rng(2014)
    results = {"quick": args.quick,
               "python": platform.python_version(),
               "numpy": np.__version__}
    with registry.timer("bench.secded").time():
        results["secded"] = bench_codec(
            SecdedCodec(), "SECDED(39,32)", secded_n, error_bits=2,
            rng=rng, registry=registry,
        )
    # The 1% dirty fraction reflects near-threshold word fault rates,
    # where p_word stays far below a percent.  Both decode paths are
    # vectorized: a packed byte-LUT syndrome screen over every word,
    # then batched Chien search across the dirty candidates (only
    # Berlekamp-Massey itself stays scalar per dirty word).
    with registry.timer("bench.bch").time():
        results["bch"] = bench_codec(
            BchCodec(), "BCH(56,32,t=4)", bch_n, error_bits=4, rng=rng,
            dirty_fraction=0.01, registry=registry,
        )
    with registry.timer("bench.faults").time():
        results["faults"] = bench_faults(fault_n)
    with registry.timer("bench.fig5_campaign").time():
        results["fig5_campaign"] = bench_fig5_campaign(fig5_n)
    with registry.timer("bench.store").time():
        results["store"] = bench_store(fig5_n, resilience_runs)
    with registry.timer("bench.platform").time():
        results["platform"] = bench_platform(platform_fft)
    with registry.timer("bench.profile").time():
        results["profile"] = bench_profile(platform_fft)
    with registry.timer("bench.simd").time():
        results["simd"] = bench_simd(
            simd_fft, lane_counts=simd_lane_counts
        )
    with registry.timer("bench.resilience").time():
        results["resilience"] = bench_resilience(
            resilience_runs, 64, args.max_retries, args.task_timeout,
        )
    with registry.timer("bench.serve").time():
        results["serve"] = bench_serve(resilience_runs)

    schemes = results["platform"]["schemes"]
    simd_configs = results["simd"]["configs"]
    simd_256 = next(c for c in simd_configs if c["lanes"] == 256)
    checks = {
        "secded_encode_bit_exact": results["secded"]["encode_bit_exact"],
        "secded_decode_bit_exact": results["secded"]["decode_bit_exact"],
        "bch_encode_bit_exact": results["bch"]["encode_bit_exact"],
        "bch_decode_bit_exact": results["bch"]["decode_bit_exact"],
        "fault_stats_ok": results["faults"]["stats_within_tolerance"],
        "fig5_bit_exact": results["fig5_campaign"]["bit_exact"],
        "store_warm_100x": results["store"]["warm_speedup"] >= 100.0,
        "store_hit_ratio": results["store"]["hit_ratio"] == 1.0,
        "store_cache_bit_exact": results["store"]["cache_bit_exact"],
        "store_campaign_warm_equal": (
            results["store"]["campaign_warm_equal"]
        ),
        "secded_encode_20x": results["secded"]["encode_speedup"] >= 20.0,
        "secded_decode_20x": results["secded"]["decode_speedup"] >= 20.0,
        # Regression guard for the vectorized syndrome/Chien decode
        # path: the scalar-dirty-loop implementation measured ~26x.
        "bch_decode_40x": results["bch"]["decode_speedup"] >= 40.0,
        "fig5_campaign_5x": results["fig5_campaign"]["speedup"] >= 5.0,
        "simd_bit_exact": (
            all(c["bit_exact"] for c in simd_configs)
            and results["simd"]["cpu_run_bit_exact"]
        ),
        "simd_256_10x": simd_256["speedup_vs_scalar"] >= 10.0,
        "simd_faults_observed": results["simd"]["scalar_injected_bits"] > 0,
        "platform_bit_exact": all(
            s["bit_exact"] for s in schemes.values()
        ),
        "platform_rng_identical": all(
            s["rng_stream_identical"] for s in schemes.values()
        ),
        "platform_output_correct": all(
            s["output_correct"] for s in schemes.values()
        ),
        f"platform_secded_{platform_target:g}x": (
            schemes["SECDED"]["speedup"] >= platform_target
        ),
        "resilience_chaos_bit_identical": (
            results["resilience"]["chaos_bit_identical"]
        ),
        "resilience_chaos_recovered": (
            results["resilience"]["chaos_retries"] >= 1
        ),
        "resilience_resume_bit_identical": (
            results["resilience"]["resume_bit_identical"]
        ),
        "resilience_resume_skipped_work": (
            results["resilience"]["resumed_tasks"] >= 1
        ),
        "serve_warm_all_hits": (
            results["serve"]["warm_hits"]
            == results["serve"]["grid_points"]
        ),
        "serve_recovered_job_completed": (
            results["serve"]["recovered_jobs"] == 1
            and results["serve"]["recovered_hits"]
            == results["serve"]["grid_points"]
        ),
        "serve_warm_bit_identical": (
            results["serve"]["warm_bit_identical"]
        ),
        "profile_bit_exact": results["profile"]["bit_exact"],
        "profile_output_correct": results["profile"]["output_correct"],
        "profile_instruments_populated": (
            results["profile"]["fast_instructions"] > 0
            and results["profile"]["bursts"] > 0
            and results["profile"]["scalar_slow_instructions"] > 0
            and results["profile"]["scalar_pc_counts"]
            == results["profile"]["scalar_slow_instructions"]
        ),
    }
    results["checks"] = checks
    results["all_checks_passed"] = all(checks.values())

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    if not args.no_history:
        append_history(args.history, results)

    if args.telemetry:
        obs.disable_metrics()
    snapshot = registry.snapshot()
    for name, stats in snapshot.timers.items():
        manifest.add_timing(name, stats["total_s"])
    manifest.attach_metrics(snapshot)
    manifest.results = {
        "checks": checks,
        "all_checks_passed": results["all_checks_passed"],
        "speedups": {
            "secded_encode": results["secded"]["encode_speedup"],
            "secded_decode": results["secded"]["decode_speedup"],
            "bch_encode": results["bch"]["encode_speedup"],
            "bch_decode": results["bch"]["decode_speedup"],
            "faults": results["faults"]["speedup"],
            "fig5_campaign": results["fig5_campaign"]["speedup"],
            "store_warm": results["store"]["warm_speedup"],
            "store_campaign_warm": (
                results["store"]["campaign_warm_speedup"]
            ),
            "serve_warm": results["serve"]["warm_speedup"],
            "platform": {
                name: s["speedup"] for name, s in schemes.items()
            },
            "simd": {
                str(c["lanes"]): c["speedup_vs_scalar"]
                for c in simd_configs
            },
        },
        "output": str(args.output),
    }
    manifest.write(manifest_path)

    print(f"wrote {args.output}")
    print(f"wrote {manifest_path}")
    if not args.no_history:
        print(f"appended perf-history entry to {args.history}")
    for section in ("secded", "bch"):
        r = results[section]
        per_word_us = 1e6 / r["n_words"]
        print(
            f"{r['codec']:>16}: encode {r['encode_speedup']:6.1f}x "
            f"({r['encode_batch_mwords_per_s']:.1f} Mword/s), "
            f"decode {r['decode_speedup']:6.1f}x "
            f"({r['decode_batch_mwords_per_s']:.1f} Mword/s) vs per-bit; "
            f"scalar decode {r['decode_scalar_s'] * per_word_us:.2f} -> "
            f"{r['decode_table_s'] * per_word_us:.2f} us/word with tables"
        )
    f = results["faults"]
    print(
        f"{'fault engine':>16}: batch {f['speedup']:6.1f}x "
        f"({f['batch_maccesses_per_s']:.0f} Maccess/s)"
    )
    c = results["fig5_campaign"]
    print(f"{'fig5 campaign':>16}: batch {c['speedup']:6.1f}x")
    st = results["store"]
    print(
        f"{'result store':>16}: warm {st['warm_speedup']:6.1f}x "
        f"(hit ratio {st['hit_ratio']:.2f}, "
        f"cache_bit_exact={st['cache_bit_exact']}), campaign warm "
        f"{st['campaign_warm_speedup']:.1f}x"
    )
    res = results["resilience"]
    print(
        f"{'resilience':>16}: chaos identical={res['chaos_bit_identical']} "
        f"(retries {res['chaos_retries']}, pool breaks "
        f"{res['chaos_pool_breaks']}), resume "
        f"identical={res['resume_bit_identical']} "
        f"({res['resumed_tasks']} resumed / "
        f"{res['executed_after_resume']} executed)"
    )
    sv = results["serve"]
    print(
        f"{'serve':>16}: warm {sv['warm_speedup']:6.1f}x "
        f"(cold {sv['cold_s']:.2f}s, warm {sv['warm_s']:.2f}s), "
        f"recovery {sv['recovered_s']:.2f}s "
        f"({sv['recovered_jobs']} job, "
        f"bit_identical={sv['warm_bit_identical']})"
    )
    for name, s in schemes.items():
        print(
            f"{'platform ' + name:>16}: fast lane {s['speedup']:6.1f}x "
            f"({s['fast_lane_mips']:.2f} vs {s['reference_mips']:.2f} "
            f"MIPS), {s['speedup_vs_cpu_run']:.1f}x vs table-driven "
            f"Cpu.run, bit_exact={s['bit_exact']}, "
            f"rng_identical={s['rng_stream_identical']}"
        )
    p = results["profile"]
    print(
        f"{'profiler':>16}: enabled overhead {p['overhead_pct']:+5.1f}% "
        f"fast lane / {p['scalar_overhead_pct']:+5.1f}% scalar "
        f"(bit_exact={p['bit_exact']}, "
        f"{p['fast_instructions']} fast / {p['slow_instructions']} slow "
        f"insns profiled)"
    )
    for c in simd_configs:
        print(
            f"{'simd N=' + str(c['lanes']):>16}: "
            f"{c['speedup_vs_scalar']:6.1f}x aggregate "
            f"({c['speedup_vs_cpu_run']:.1f}x vs table-driven Cpu.run, "
            f"{c['aggregate_ips'] / 1e6:.2f} Minstr/s, "
            f"bit_exact={c['bit_exact']})"
        )
    print("checks:", "PASS" if results["all_checks_passed"] else "FAIL",
          {k: v for k, v in checks.items() if not v} or "")
    return 0 if results["all_checks_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
