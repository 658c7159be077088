"""Invalidation and fallback edges of the clean-burst fast lane.

The differential fuzzer (``tests/test_soc_fuzz.py``) sweeps the broad
state space; this file pins the specific hazards the fast lane's
caches must survive: forced faults queued mid-run, supply moves
between YIELDs, self-modifying instruction memory, architectural
rollback, latent corruption, unsupported port wiring, and the exact
semantics of the instruction limit.

Every test runs the same scenario through a reference platform (pinned
to ``Cpu.run`` via ``bind_engine``) and a fast-lane platform and
requires identical observable state — the contract is always
"bit-exact with the interpreter", never a hand-computed expectation.
"""

import numpy as np
import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM, ACCESS_CELL_BASED_40NM_TYPICAL
from repro.ecc import SecdedCodec
from repro.mitigation import DectedRunner
from repro.soc.assembler import assemble
from repro.soc.cpu import StopReason
from repro.soc.fastlane import FastLaneEngine, lane_capable
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform, SystemFailure
from repro.soc.ports import CodecPort, RawPort
from repro.workloads.fft import build_fft_program

from tests.test_soc_fuzz import _scalar_runner

_MODEL = ACCESS_CELL_BASED_40NM_TYPICAL
_IM_WORDS = 64
_SP_WORDS = 64


class _CountingPort:
    """Pass-through IM port counting fetches: wiring the fast lane
    cannot see through, since it observes every access."""

    def __init__(self, inner):
        self.inner = inner
        self.codec = inner.codec
        self.fetches = 0

    def read(self, address):
        self.fetches += 1
        return self.inner.read(address)

    def write(self, address, value):
        self.inner.write(address, value)

    def load(self, words, base=0):
        self.inner.load(words, base)

    def peek(self, address):
        return self.inner.peek(address)

    @property
    def stats(self):
        return self.inner.stats


def _build(scheme="raw", vdd=0.55, seed=11, scalar=False,
           counting_im=False):
    def faults(width, salt):
        return VoltageFaultModel(
            _MODEL, width, vdd, rng=np.random.default_rng(seed * 2 + salt)
        )

    if scheme == "raw":
        im = FaultyMemory("IM", _IM_WORDS, 32, faults=faults(32, 0))
        sp = FaultyMemory("SP", _SP_WORDS, 32, faults=faults(32, 1))
        im_port, sp_port = RawPort(im), RawPort(sp)
    else:
        codec = SecdedCodec()
        width = codec.code_bits
        im = FaultyMemory("IM", _IM_WORDS, width, faults=faults(width, 0))
        sp = FaultyMemory("SP", _SP_WORDS, width, faults=faults(width, 1))
        im_port = CodecPort(im, codec, auto_scrub=True)
        sp_port = CodecPort(sp, codec, auto_scrub=True)
    if counting_im:
        im_port = _CountingPort(im_port)
    platform = Platform(im, im_port, sp, sp_port)
    if scalar:
        platform.bind_engine(platform.cpu.run)
    return platform


def _pair(**kwargs):
    return _build(scalar=True, **kwargs), _build(scalar=False, **kwargs)


def _state_tuple(platform):
    s = platform.cpu.state
    return (s.pc, list(s.registers), s.cycles, s.instructions,
            s.taken_branches)


def _assert_same(reference, fast):
    assert _state_tuple(fast) == _state_tuple(reference)
    assert fast.im.snapshot() == reference.im.snapshot()
    assert fast.sp.snapshot() == reference.sp.snapshot()
    assert fast.result() == reference.result()
    for mem_f, mem_r in ((fast.im, reference.im), (fast.sp, reference.sp)):
        assert (
            mem_f.faults.rng.bit_generator.state
            == mem_r.faults.rng.bit_generator.state
        )
        assert mem_f.faults.injected_bits == mem_r.faults.injected_bits
        assert mem_f.faults.injected_events == mem_r.faults.injected_events


# A store/compute loop with a yield per iteration: r1 counts down from
# r2's initial value, each iteration stores the counter and yields.
_LOOP = assemble("""
    addi r2, r0, 5
loop:
    sw   r2, r0, 8
    lw   r3, r0, 8
    add  r4, r4, r3
    yield
    addi r2, r2, -1
    bne  r2, r0, loop
    sw   r4, r0, 9
    halt
""")


def _load(platform, words=_LOOP):
    platform.load_program(words)
    platform.load_data([0] * 16)


def _drain(platform, max_instructions=20_000, max_yields=64):
    """Run through YIELDs until HALT (or a bounded yield budget).

    Every call passes the same bounded ``max_instructions`` so that a
    fault-corrupted runaway loop fails fast — and identically — in
    both lanes instead of grinding to the interpreter's default cap.
    """
    for _ in range(max_yields):
        if platform.run_until_stop(max_instructions) is StopReason.HALT:
            return StopReason.HALT
    return StopReason.YIELD


@pytest.mark.parametrize("scheme", ["raw", "secded"])
def test_forced_fault_mid_run(scheme):
    """force_next() queued between YIELDs lands on the same access."""
    reference, fast = _pair(scheme=scheme)
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        # Poison the very next SP access and (separately) a later IM
        # fetch: clean_run_length() must report 0 while forced masks
        # are queued so the slow path consumes them faithfully.
        platform.sp.faults.force_next(0b1)          # flips sw data bit 0
        platform.im.faults.force_next(0)            # explicit no-op mask
        _drain(platform)
    _assert_same(reference, fast)
    # The forced SP flip really happened (and, under SECDED, was
    # corrected; raw stores it silently).
    assert fast.sp.faults.injected_events >= 1


@pytest.mark.parametrize("scheme", ["raw", "secded"])
def test_set_vdd_mid_run(scheme):
    """A supply move between YIELDs reshapes both lanes identically."""
    reference, fast = _pair(scheme=scheme, vdd=0.55)
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        platform.im.faults.set_vdd(0.32)
        platform.sp.faults.set_vdd(0.32)
        try:
            _drain(platform)
        except SystemFailure:
            pass  # plausible at 0.32 V; both lanes must agree
    _assert_same(reference, fast)


def test_im_self_modification_between_yields():
    """A poke into the IM invalidates the predecoded view."""
    reference, fast = _pair(scheme="raw")
    patch = assemble("addi r2, r0, 0")[0]  # collapse the countdown
    for platform in (reference, fast):
        _load(platform)
        assert platform.run_until_stop() is StopReason.YIELD
        # Overwrite the decrement at word 5 so the loop exits after the
        # next iteration.  The fast lane predecoded this word already;
        # the memory version bump must drop the stale entry.
        platform.im.poke(5, patch)
        _drain(platform)
    _assert_same(reference, fast)
    assert fast.cpu.state.instructions < 5 * 6 + 4


def test_restore_cpu_rollback():
    """Architectural rollback between YIELDs replays identically."""
    reference, fast = _pair(scheme="secded")
    for platform in (reference, fast):
        _load(platform)
        snapshot = platform.snapshot_cpu()
        assert platform.run_until_stop() is StopReason.YIELD
        assert platform.run_until_stop() is StopReason.YIELD
        platform.restore_cpu(snapshot)
        _drain(platform)
    _assert_same(reference, fast)


@pytest.mark.parametrize("auto_scrub", [False, True])
def test_latent_corruption_takes_slow_path(auto_scrub):
    """A corrupted stored word never enters the clean view.

    The slow path corrects it (bumping corrected_words) and, with
    auto_scrub, writes the repaired codeword back; either way the fast
    lane's behaviour matches the interpreter exactly.
    """
    codec = SecdedCodec()
    platforms = []
    for scalar in (True, False):
        im = FaultyMemory("IM", _IM_WORDS, codec.code_bits)
        sp = FaultyMemory("SP", _SP_WORDS, codec.code_bits)
        platform = Platform(
            im,
            CodecPort(im, codec, auto_scrub=auto_scrub),
            sp,
            CodecPort(sp, codec, auto_scrub=auto_scrub),
        )
        if scalar:
            platform.bind_engine(platform.cpu.run)
        # Two loads of the same address, so a scrubbed word is read
        # clean the second time while an unscrubbed one corrects again.
        _load(platform, assemble(
            "lw r1, r0, 8\nlw r2, r0, 8\nadd r3, r1, r2\nhalt"
        ))
        # Flip one stored bit in the data word at SP address 8 *and*
        # in the IM word at 0 (the first lw) — both must decode
        # through the faithful path and be counted as corrections.
        sp.poke(8, sp.peek(8) ^ 0b100)
        im.poke(0, im.peek(0) ^ 0b100)
        _drain(platform)
        platforms.append(platform)
    reference, fast = platforms
    assert _state_tuple(fast) == _state_tuple(reference)
    assert fast.im.snapshot() == reference.im.snapshot()
    assert fast.sp.snapshot() == reference.sp.snapshot()
    assert fast.result() == reference.result()
    assert fast.result().corrected_words >= 2


def test_profiling_port_falls_back_to_interpreter():
    """Unsupported wiring: the engine declines, Cpu.run takes over."""
    platform = _build(counting_im=True, scalar=False)
    assert not lane_capable(platform)
    _load(platform)
    _drain(platform)
    assert platform._fast_engine is None
    assert platform.im_port.fetches == (
        platform.cpu.state.instructions
    )
    # And the run still matches a plain reference platform.
    reference = _build(scalar=True)
    _load(reference)
    _drain(reference)
    assert _state_tuple(platform) == _state_tuple(reference)


def test_execution_limit_parity():
    """The runaway failure fires at the same instruction, same pc,
    with the same message, in both lanes."""
    words = assemble("addi r1, r1, 1\njal r0, 0")
    failures = []
    for scalar in (True, False):
        platform = _build(scalar=scalar)
        _load(platform, words)
        with pytest.raises(SystemFailure) as excinfo:
            platform.run_until_stop(max_instructions=101)
        failures.append((str(excinfo.value), _state_tuple(platform)))
    assert failures[0] == failures[1]
    assert "runaway" in failures[0][0]


def test_halt_on_limit_instruction_returns():
    """HALT as the limit-th instruction halts — it does not raise."""
    words = assemble("addi r1, r0, 7\nhalt")
    for scalar in (True, False):
        platform = _build(scalar=scalar)
        _load(platform, words)
        assert platform.run_until_stop(max_instructions=2) is (
            StopReason.HALT
        )
        assert platform.cpu.state.instructions == 2


def test_run_rejects_nonpositive_limit():
    platform = _build(scalar=False)
    _load(platform)
    with pytest.raises(ValueError):
        platform.run_until_stop(max_instructions=0)


def test_engine_rebuilt_when_wiring_changes():
    """Swapping a port mid-life forces a rebuild, not a stale engine."""
    platform = _build(scalar=False)
    _load(platform)
    assert platform.run_until_stop() is StopReason.YIELD
    first = platform._fast_engine
    assert isinstance(first, FastLaneEngine)
    platform.sp_port = RawPort(platform.sp)
    assert platform.run_until_stop() is StopReason.YIELD
    second = platform._fast_engine
    assert second is not first
    assert second.matches(platform)


def test_dected_runner_runs_fast_lane_bit_exact():
    """Every runner gets the fast lane: a faulting DECTED FFT run
    builds the engine and matches the same run pinned to ``Cpu.run``
    — outcome, counters, output and every fault RNG position."""
    program = build_fft_program(64)
    runs = []
    for runner_cls in (DectedRunner, _scalar_runner(DectedRunner)):
        runner = runner_cls(ACCESS_CELL_BASED_40NM, seed=3)
        outcome = runner.run(program.workload, 0.36, 25e6)
        platform = runner.last_platform
        rng = [
            memory.faults.rng.bit_generator.state
            for memory in (platform.im, platform.sp)
        ]
        runs.append((outcome, rng, platform))
    (fast, fast_rng, fast_platform), (ref, ref_rng, _) = runs
    assert isinstance(fast_platform._fast_engine, FastLaneEngine)
    assert sum(ref.sim.injected_bits.values()) > 0
    assert fast.sim == ref.sim
    assert fast.output == ref.output
    assert fast_rng == ref_rng
