"""Differential fuzzing of the lockstep SIMD lane block.

The bit-exactness contract of :mod:`repro.soc.simd` is the strongest
claim in the codebase: every lane of an N-lane lockstep run must be
bit-identical — registers, memory images, fault statistics, counters
and RNG stream positions — to an independent scalar run of the same
platform.  The scalar engine is the oracle; these tests hold the
vector engine to it three ways:

* an N-lane campaign oracle check on the real FFT workload for every
  scheme and every OCEAN controller branch at sub-Vmin supplies, lanes
  with differing scheme options included (full ``RunOutcome``
  equality plus RNG stream positions);
* Hypothesis differential fuzzing of random programs (ALU, memory
  traffic, branches, yields) across lane blocks with per-lane fault
  seeds, reusing the scalar fuzzer's golden machinery;
* deterministic divergence edge cases — every lane faulted at the
  same access, a single lane halting early, N=1 blocks, and campaign
  lane counts that do not divide the seed grid.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import run_campaign
from repro.core.access import ACCESS_CELL_BASED_40NM
from repro.mitigation import (
    DectedRunner,
    NoMitigationRunner,
    OceanRunner,
    SecdedRunner,
)
from repro.obs import scoped_metrics
from repro.soc.assembler import assemble
from repro.soc.cpu import StopReason
from repro.soc.platform import DetectedError, SystemFailure
from repro.soc.simd import LaneBlock, lane_capable, run_lane_block
from repro.workloads.fft import build_fft_program

from tests.test_soc_fuzz import (
    _build_soc,
    _fingerprint,
    _run_soc,
    _scalar_runner,
    soc_programs,
)

_FREQUENCY = 290e3


def _rng_states(runner):
    """Per-memory fault RNG positions of the runner's last platform."""
    platform = runner.last_platform
    memories = [platform.im, platform.sp]
    if platform.pm is not None:
        memories.append(platform.pm)
    return [
        memory.faults.rng.bit_generator.state if memory.faults else None
        for memory in memories
    ]


def _fft_fixture(points):
    program = build_fft_program(points)
    golden = program.expected_output(list(program.data_words[:points]))
    return program.workload, golden


# ---------------------------------------------------------------------------
# N-lane oracle: lockstep vs. N independent scalar runs, real workload
# ---------------------------------------------------------------------------
class TestLockstepOracle:
    """run_lane_block == N scalar runner.run calls, outcome for outcome."""

    def _check(self, runner_cls, vdd, options, seed_base=40):
        """Lane ``i`` runs seed ``seed_base + i`` with ``options[i]``;
        returns the lane outcomes."""
        workload, _ = _fft_fixture(16)
        model = ACCESS_CELL_BASED_40NM
        seeds = range(seed_base, seed_base + len(options))
        oracle = []
        for seed, kwargs in zip(seeds, options):
            runner = _scalar_runner(runner_cls)(model, seed=seed, **kwargs)
            outcome = runner.run(workload, vdd, _FREQUENCY)
            oracle.append((outcome, _rng_states(runner)))
        runners = [
            runner_cls(model, seed=seed, **kwargs)
            for seed, kwargs in zip(seeds, options)
        ]
        outcomes = run_lane_block(runners, workload, vdd, _FREQUENCY)
        assert len(outcomes) == len(options)
        for lane in range(len(options)):
            assert outcomes[lane] == oracle[lane][0]
            assert _rng_states(runners[lane]) == oracle[lane][1]
        return outcomes

    def test_secded_sub_vmin(self):
        """The default controller, shared by SECDED, DECTED and the
        unprotected baseline (one lane of which crashes at 0.38 V)."""
        self._check(SecdedRunner, 0.38, [{}] * 6)
        self._check(DectedRunner, 0.32, [{}] * 6)
        outcomes = self._check(NoMitigationRunner, 0.38, [{}] * 6)
        assert any(not outcome.completed for outcome in outcomes)

    def test_ocean_sub_vmin(self):
        """Every OCEAN controller branch: rollbacks at each checkpoint
        interval and copy engine, and lanes lost to an IM error."""
        for options in ({}, {"checkpoint_interval": 3}, {"use_dma": True}):
            outcomes = self._check(OceanRunner, 0.32, [options] * 6)
            assert all(outcome.sim.rollbacks for outcome in outcomes)
        outcomes = self._check(OceanRunner, 0.28, [{}] * 12)
        failures = [outcome.failure for outcome in outcomes]
        assert failures.count("uncorrectable:IM") == 3

    def test_lanes_keep_their_own_scheme_options(self):
        """Each lane runs its own runner's controller: checkpoint
        interval and DMA engine differ per lane, and each lane still
        equals its own scalar run."""
        self._check(OceanRunner, 0.32, [
            {"checkpoint_interval": 1},
            {"checkpoint_interval": 3},
            {"use_dma": True},
            {"checkpoint_interval": 7},
        ])

    def test_single_lane_block_matches_scalar(self):
        """N=1: the degenerate block is still bit-exact, not special."""
        self._check(SecdedRunner, 0.40, [{}])

    def test_lane_platforms_are_lane_capable(self):
        runner = SecdedRunner(ACCESS_CELL_BASED_40NM, seed=1)
        assert lane_capable(runner.build_platform(0.5))


# ---------------------------------------------------------------------------
# Hypothesis: random programs, per-lane fault seeds, full fingerprints
# ---------------------------------------------------------------------------
def _run_lockstep(platforms, block, source, seed_regs, data,
                  max_instructions=300):
    """Breadth-first lockstep mirror of the scalar ``_run_soc`` loop."""
    words = assemble(source)
    n = len(platforms)
    for platform in platforms:
        platform.load_program(words)
        platform.load_data(data)
        platform.cpu.state.registers = list(seed_regs)
    outcomes = [[] for _ in range(n)]
    done = [False] * n
    for _ in range(6):  # bounded number of YIELD resumptions
        pending = [lane for lane in range(n) if not done[lane]]
        if not pending:
            break
        block.demand(pending, max_instructions)
        for lane in pending:
            try:
                reason = platforms[lane].run_until_stop(max_instructions)
            except SystemFailure as exc:
                outcomes[lane].append(
                    ("SystemFailure", exc.kind, str(exc))
                )
                done[lane] = True
            except DetectedError as exc:
                outcomes[lane].append(
                    ("DetectedError", exc.module, exc.address)
                )
                done[lane] = True
            else:
                outcomes[lane].append(reason.name)
                if reason is StopReason.HALT:
                    done[lane] = True
    return outcomes


@st.composite
def lane_scenarios(draw):
    program = draw(soc_programs())
    vdd = draw(st.sampled_from([0.55, 0.45, 0.40, 0.35, 0.30]))
    scheme = draw(st.sampled_from(["raw", "secded", "detect"]))
    lanes = draw(st.integers(min_value=2, max_value=5))
    seeds = [draw(st.integers(0, 1 << 16)) for _ in range(lanes)]
    return program, vdd, scheme, seeds


@given(scenario=lane_scenarios())
@settings(max_examples=60, deadline=None)
def test_lane_block_is_bit_exact(scenario):
    (source, seed_regs, data), vdd, scheme, seeds = scenario
    references = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    ref_outcomes = [
        _run_soc(platform, source, seed_regs, data)
        for platform in references
    ]
    platforms = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    block = LaneBlock(platforms, program_words=assemble(source))
    outcomes = _run_lockstep(platforms, block, source, seed_regs, data)
    assert outcomes == ref_outcomes
    for platform, reference in zip(platforms, references):
        assert _fingerprint(platform) == _fingerprint(reference)
        assert platform.result() == reference.result()


# ---------------------------------------------------------------------------
# Deterministic divergence edge cases
# ---------------------------------------------------------------------------
_LOAD_LOOP = """
    addi r2, r0, 8
loop:
    lw r3, r1, 0
    add r4, r4, r3
    addi r1, r1, 1
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""

#: Branch on r1: lanes seeded with r1 == 0 halt after two instructions,
#: the rest grind through a long ALU tail first.
_EARLY_EXIT = """
    beq r1, r0, done
    addi r2, r0, 200
spin:
    add r3, r3, r2
    xor r4, r4, r3
    addi r2, r2, -1
    bne r2, r0, spin
done:
    halt
"""


def _edge_case(scheme, vdd, seeds, source, seed_regs, data,
               prepare=None):
    """Run scalar references and a lane block; both fingerprints match."""
    references = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    platforms = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    if prepare is not None:
        for platform in references:
            prepare(platform)
        for platform in platforms:
            prepare(platform)
    ref_outcomes = [
        _run_soc(platform, source, seed_regs, data)
        for platform in references
    ]
    block = LaneBlock(platforms, program_words=assemble(source))
    outcomes = _run_lockstep(platforms, block, source, seed_regs, data)
    assert outcomes == ref_outcomes
    for platform, reference in zip(platforms, references):
        assert _fingerprint(platform) == _fingerprint(reference)


def test_all_lanes_faulted_at_same_access():
    """Every lane hits a forced scratchpad fault on the same load."""
    seed_regs = [0] * 16
    data = list(range(100, 108))

    def prepare(platform):
        # Third SP access of the run faults in every lane — the whole
        # group leaves the vector path at once and must re-fuse after.
        platform.sp.faults.force_next(0)
        platform.sp.faults.force_next(0)
        platform.sp.faults.force_next(0b101)

    _edge_case(
        "secded", 0.55, [11, 12, 13, 14], _LOAD_LOOP,
        seed_regs, data, prepare=prepare,
    )


def test_single_lane_forced_fault_diverges_and_refuses():
    """One lane faults mid-loop; the others stay on the vector path."""
    seed_regs = [0] * 16
    data = list(range(7, 15))

    def prepare_one(platform):
        platform.sp.faults.force_next(0b11)

    references = [
        _build_soc("secded", 0.55, seed, scalar=True)
        for seed in (21, 22, 23)
    ]
    platforms = [
        _build_soc("secded", 0.55, seed, scalar=True)
        for seed in (21, 22, 23)
    ]
    prepare_one(references[1])
    prepare_one(platforms[1])
    ref_outcomes = [
        _run_soc(platform, _LOAD_LOOP, seed_regs, data)
        for platform in references
    ]
    block = LaneBlock(platforms, program_words=assemble(_LOAD_LOOP))
    outcomes = _run_lockstep(
        platforms, block, _LOAD_LOOP, seed_regs, data
    )
    assert outcomes == ref_outcomes
    for platform, reference in zip(platforms, references):
        assert _fingerprint(platform) == _fingerprint(reference)


def test_single_lane_early_halt():
    """A lane that exits early must stop at its own HALT event while
    the surviving lanes keep executing the long tail."""
    seed_regs = [0] * 16
    seed_regs[1] = 0  # every lane shares the register file seed...
    data = [0] * 8
    # ...so drive the divergence through per-lane data instead: r1 is
    # loaded from the scratchpad, which differs per lane via load_data.
    source = """
        lw r1, r0, 0
        beq r1, r0, 5
        addi r2, r0, 150
        add r3, r3, r2
        addi r2, r2, -1
        bne r2, r0, -2
        halt
    """
    for lane_data in ([0, 1, 1, 1], [1, 0, 1, 1]):
        references = []
        platforms = []
        for seed, first_word in zip((31, 32, 33, 34), lane_data):
            ref = _build_soc("secded", 0.55, seed, scalar=True)
            plat = _build_soc("secded", 0.55, seed, scalar=True)
            references.append((ref, first_word))
            platforms.append((plat, first_word))
        words = assemble(source)
        ref_outcomes = []
        for ref, first_word in references:
            ref_outcomes.append(
                _run_soc(ref, source, seed_regs, [first_word] + data)
            )
        block = LaneBlock(
            [plat for plat, _ in platforms], program_words=words
        )
        outcomes = [[] for _ in platforms]
        for lane, (plat, first_word) in enumerate(platforms):
            plat.load_program(words)
            plat.load_data([first_word] + data)
            plat.cpu.state.registers = list(seed_regs)
        block.demand(range(len(platforms)), 300)
        for lane, (plat, _) in enumerate(platforms):
            try:
                reason = plat.run_until_stop(300)
                outcomes[lane].append(reason.name)
            except SystemFailure as exc:
                outcomes[lane].append(
                    ("SystemFailure", exc.kind, str(exc))
                )
        assert outcomes == ref_outcomes
        for (plat, _), (ref, _) in zip(platforms, references):
            assert _fingerprint(plat) == _fingerprint(ref)


def test_n1_block_on_random_program():
    """N=1 lockstep equals scalar on a branchy, memory-heavy program."""
    seed_regs = [0, 3] + [0] * 14
    data = [9, 8, 7, 6, 5, 4, 3, 2]
    _edge_case("secded", 0.40, [77], _LOAD_LOOP, seed_regs, data)
    _edge_case("raw", 0.35, [78], _EARLY_EXIT, seed_regs, data)


# ---------------------------------------------------------------------------
# Campaign integration: lanes= sharding is invisible in the results
# ---------------------------------------------------------------------------
class TestCampaignLanes:
    def _kwargs(self, runs):
        workload, golden = _fft_fixture(16)
        return dict(
            workload=workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM,
            vdd=0.38,
            runs=runs,
            seed_base=500,
        )

    def test_lanes_not_dividing_runs_matches_scalar(self):
        """runs=5, lanes=2 → blocks of 2+2+1; classification, counts
        and failure kinds identical to the scalar campaign."""
        kwargs = self._kwargs(runs=5)
        scalar = run_campaign(_scalar_runner(SecdedRunner), **kwargs)
        laned = run_campaign(SecdedRunner, lanes=2, **kwargs)
        assert laned.correct == scalar.correct
        assert laned.silent_corruption == scalar.silent_corruption
        assert laned.detected_failure == scalar.detected_failure
        assert laned.total_injected_bits == scalar.total_injected_bits
        assert laned.total_corrected == scalar.total_corrected
        assert laned.total_rollbacks == scalar.total_rollbacks
        assert laned.failures_by_kind == scalar.failures_by_kind

    def test_lanes_wider_than_runs(self):
        """lanes > runs degenerates to one short block."""
        kwargs = self._kwargs(runs=3)
        scalar = run_campaign(_scalar_runner(SecdedRunner), **kwargs)
        laned = run_campaign(SecdedRunner, lanes=8, **kwargs)
        assert laned.correct == scalar.correct
        assert laned.failures_by_kind == scalar.failures_by_kind
        assert laned.total_injected_bits == scalar.total_injected_bits

    def test_metrics_parity_modulo_engine_counters(self):
        """A lane block publishes the same instrumented-layer counters
        as N scalar runs; only the engine's own ``simd.*`` telemetry
        is new."""
        workload, _ = _fft_fixture(16)
        model = ACCESS_CELL_BASED_40NM
        seeds = list(range(70, 73))
        scalar_counters: dict = {}
        for seed in seeds:
            with scoped_metrics() as registry:
                _scalar_runner(SecdedRunner)(model, seed=seed).run(
                    workload, 0.38, _FREQUENCY
                )
            for name, value in registry.snapshot().as_dict()[
                "counters"
            ].items():
                scalar_counters[name] = (
                    scalar_counters.get(name, 0) + value
                )
        with scoped_metrics() as registry:
            run_lane_block(
                [SecdedRunner(model, seed=seed) for seed in seeds],
                workload, 0.38, _FREQUENCY,
            )
        block_counters = {
            name: value
            for name, value in registry.snapshot()
            .as_dict()["counters"]
            .items()
            if not name.startswith("simd.")
        }
        assert block_counters == scalar_counters


def test_block_rejects_mismatched_lanes():
    import pytest

    secded = _build_soc("secded", 0.5, 1, scalar=True)
    raw = _build_soc("raw", 0.5, 2, scalar=True)
    with pytest.raises(ValueError):
        LaneBlock([secded, raw])
    with pytest.raises(ValueError):
        LaneBlock([])


def test_rng_positions_equal_np_advancement():
    """The strongest stream claim, spelled out: after a lockstep run
    each lane's generators sit exactly where N scalar runs left them
    (already asserted via fingerprints above; this pins the numpy
    state dict shape the assertion relies on)."""
    platform = _build_soc("secded", 0.45, 5, scalar=True)
    state = platform.sp.faults.rng.bit_generator.state
    assert isinstance(state, dict) and "state" in state


@given(scenario=lane_scenarios())
@settings(max_examples=25, deadline=None)
def test_lane_block_bit_exact_with_profiling(scenario):
    """Profiling on must be bit-exactness-neutral on the SIMD engine.

    Lane outcomes, fingerprints and results must match an unprofiled
    lockstep run exactly, while SIMD lane telemetry (service rounds,
    occupancy/divergence histograms) actually populates.
    """
    from repro.obs import MetricsRegistry, names
    from repro.obs import scoped_metrics as _scoped_metrics
    from repro.obs.profile import scoped_profiling

    (source, seed_regs, data), vdd, scheme, seeds = scenario
    references = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    block = LaneBlock(references, program_words=assemble(source))
    ref_outcomes = _run_lockstep(
        references, block, source, seed_regs, data
    )

    platforms = [
        _build_soc(scheme, vdd, seed, scalar=True) for seed in seeds
    ]
    registry = MetricsRegistry()
    with _scoped_metrics(registry), scoped_profiling():
        prof_block = LaneBlock(platforms, program_words=assemble(source))
        outcomes = _run_lockstep(
            platforms, prof_block, source, seed_regs, data
        )

    assert outcomes == ref_outcomes
    for platform, reference in zip(platforms, references):
        assert _fingerprint(platform) == _fingerprint(reference)
        assert platform.result() == reference.result()

    snapshot = registry.snapshot()
    assert snapshot.counters[names.PROFILE_SIMD_ROUNDS] > 0
    occupancy = snapshot.histograms[names.PROFILE_LANE_OCCUPANCY]
    assert sum(occupancy.values()) > 0
    assert names.PROFILE_MASK_DENSITY in snapshot.histograms
    assert names.PROFILE_RECONVERGENCE_DEPTH in snapshot.histograms
