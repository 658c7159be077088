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

import sys
import threading

import numpy as np
import pytest

from repro.analysis.experiments import fig8_power_breakdown
from repro.core.access import ACCESS_CELL_BASED_40NM, ACCESS_CELL_BASED_40NM_TYPICAL
from repro.ecc import SecdedCodec
from repro.mitigation import (
    SCHEME_RUNNERS,
    DectedRunner,
    NoMitigationRunner,
    SecdedRunner,
)
from repro.obs import MetricsRegistry, names, scoped_metrics
from repro.obs.profile import scoped_profiling
from repro.soc import fastlane
from repro.soc.assembler import assemble
from repro.soc.cpu import _HANDLERS, StopReason, predecode
from repro.soc.fastlane import (
    EARLY_EXIT,
    TEMPLATES,
    FastLaneEngine,
    lane_capable,
)
from repro.soc.isa import Opcode
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform, SystemFailure
from repro.soc.ports import CodecPort, RawPort
from repro.workloads.fft import build_fft_program

from tests.test_soc_fuzz import _scalar_runner

_MODEL = ACCESS_CELL_BASED_40NM_TYPICAL
_IM_WORDS = 64
_SP_WORDS = 64


@pytest.fixture(autouse=True)
def _empty_block_cache():
    """Start every test with no block seen, so test order never decides
    whether a block runs compiled or interpreted."""
    with fastlane._BLOCK_CACHE_LOCK:
        fastlane._BLOCK_CACHE.clear()


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


def test_lane_platforms_are_lane_capable():
    """Every scheme's stock platform runs on the fast lane."""
    for runner_cls in SCHEME_RUNNERS.values():
        runner = runner_cls(ACCESS_CELL_BASED_40NM, seed=1)
        assert lane_capable(runner.build_platform(0.5)), runner_cls.name


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


# ---------------------------------------------------------------------------
# Precise invalidation: a slow step re-derives only the cells it touched
# ---------------------------------------------------------------------------
class _CountingSecded(SecdedCodec):
    """SECDED that records every codeword it decodes.  ``lane_capable``
    checks the port type, not the codec type, so the fast lane still
    runs over it."""

    def __init__(self):
        super().__init__()
        self.decoded = []

    def decode(self, codeword):
        self.decoded.append(codeword)
        return super().decode(codeword)

    def decode_batch(self, codewords, record=True):
        self.decoded.extend(int(word) for word in codewords)
        return super().decode_batch(codewords, record=record)


# Three SP loads and a yield per iteration.  Addresses: 0 init,
# 1-3 loads, 4 add, 5 yield, 6 decrement, 7 branch, 8 halt.
_READ_LOOP = assemble("""
    addi r2, r0, 12
loop:
    lw   r3, r0, 8
    lw   r5, r0, 9
    lw   r6, r0, 10
    add  r4, r4, r3
    yield
    addi r2, r2, -1
    bne  r2, r0, loop
    halt
""")
_SP_DATA = [0] * 8 + [0x1111, 0x2222, 0x3333]


def _counting_platform(scalar=False):
    """SECDED platform over counting codecs; no random faults (only
    the forced masks a test queues)."""
    im_codec, sp_codec = _CountingSecded(), _CountingSecded()
    width = im_codec.code_bits
    memories = [
        FaultyMemory(name, _IM_WORDS, width, faults=VoltageFaultModel(
            _MODEL, width, 0.6, rng=np.random.default_rng(salt)
        ))
        for salt, name in enumerate(("IM", "SP"))
    ]
    im, sp = memories
    platform = Platform(
        im, CodecPort(im, im_codec, auto_scrub=True),
        sp, CodecPort(sp, sp_codec, auto_scrub=True),
    )
    if scalar:
        platform.bind_engine(platform.cpu.run)
    platform.load_program(_READ_LOOP)
    platform.load_data(_SP_DATA)
    return platform, im_codec, sp_codec


def _upset(memory, address, mask, step):
    """Queue ``mask`` for the next access of ``memory``, run ``step``,
    and return the upset word as stored by that access."""
    memory.faults.force_next(mask)
    corrupted = memory.peek(address) ^ mask
    step()
    assert memory.faults.injected_events == 1
    return corrupted


def test_slow_step_re_derives_only_the_upset_im_word():
    """A forced IM upset on a warm fast lane: the faulted fetch decodes
    the corrupted word once (slow step), and the next pass re-decodes
    exactly that one scrubbed word — no other IM cell."""
    fast, im_codec, _ = _counting_platform()
    reference, _, _ = _counting_platform(scalar=True)
    for platform in (fast, reference):
        for _ in range(2):  # warm: every loop address is cached
            assert platform.run_until_stop() is StopReason.YIELD
    im_codec.decoded.clear()
    corrupted = _upset(fast.im, 6, 1 << 3, fast.run_until_stop)
    assert fast.run_until_stop() is StopReason.YIELD
    assert im_codec.decoded == [corrupted, fast.im.peek(6)]
    reference.im.faults.force_next(1 << 3)
    for _ in range(2):
        reference.run_until_stop()
    _assert_same(reference, fast)


def test_slow_step_re_derives_only_the_upset_sp_word():
    """A forced SP upset on a warm fast lane: only the upset word is
    decoded again (slow step, then one refill of its scrubbed form);
    the other cached SP words are not."""
    fast, _, sp_codec = _counting_platform()
    reference, _, _ = _counting_platform(scalar=True)
    for platform in (fast, reference):
        for _ in range(2):
            assert platform.run_until_stop() is StopReason.YIELD
    sp_codec.decoded.clear()
    corrupted = _upset(fast.sp, 8, 1 << 2, fast.run_until_stop)
    assert fast.run_until_stop() is StopReason.YIELD
    assert sp_codec.decoded == [corrupted, fast.sp.peek(8)]
    reference.sp.faults.force_next(1 << 2)
    for _ in range(2):
        reference.run_until_stop()
    _assert_same(reference, fast)


# A loop whose body after the yield is a straight-line ALU run
# (addresses 2-6), which the fast lane compiles as one block.
_RUN_LOOP = assemble("""
    addi r2, r0, 9
loop:
    yield
    addi r2, r2, -1
    add  r4, r4, r2
    xor  r5, r4, r2
    lw   r3, r0, 8
    bne  r2, r0, loop
    halt
""")
#: Upset of the stored word at address 3: ``add r4, r4, r2`` becomes
#: ``add r4, r4, r3``, a different legal instruction.
_RUN_UPSET = _RUN_LOOP[3] ^ assemble("add r4, r4, r3")[0]


def _raw_platform(scalar=False):
    memories = [
        FaultyMemory(name, _IM_WORDS, 32, faults=VoltageFaultModel(
            _MODEL, 32, 0.6, rng=np.random.default_rng(salt)
        ))
        for salt, name in enumerate(("IM", "SP"))
    ]
    im, sp = memories
    platform = Platform(im, RawPort(im), sp, RawPort(sp))
    if scalar:
        platform.bind_engine(platform.cpu.run)
    platform.load_program(_RUN_LOOP)
    platform.load_data([0] * 8 + [7])
    return platform


def _rounds(platforms, count=None):
    """Run every platform to its next stop, ``count`` times or until
    all have halted."""
    pending = list(platforms)
    done = 0
    while pending and (count is None or done < count):
        pending = [
            platform for platform in pending
            if platform.run_until_stop() is StopReason.YIELD
        ]
        done += 1


def test_raw_im_upset_inside_a_cached_run_executes_the_new_word():
    """On a RawPort a fetch upset rewrites the stored instruction, so
    the engine must re-derive that cell or it keeps executing the old
    word.  The fast lane runs with the loop body (addresses 2-6)
    compiled: the upset drops that block, and the variant it creates is
    a fault variant, so it runs uncompiled."""
    _see_blocks(_raw_platform)
    fast = _raw_platform()
    upset, clean = _raw_platform(scalar=True), _raw_platform(scalar=True)
    _rounds([fast], count=2)  # warm views
    body = fast._fast_engine._blocks[2]
    assert (body.n, body.run is not None) == (5, True)
    calls = _spy(body)
    _rounds([fast], count=1)
    assert len(calls) == 1  # the compiled body ran
    _rounds([upset, clean], count=3)
    for platform in (upset, fast):
        # Address 2 fetches clean (a forced no-op), 3 is upset.
        platform.im.faults.force_next(0)
        platform.im.faults.force_next(_RUN_UPSET)
    _rounds([fast])
    _rounds([upset, clean])
    assert upset.cpu.state.registers != clean.cpu.state.registers
    _assert_same(upset, fast)
    variant = fast._fast_engine._blocks[2]
    assert variant.entries[1] == predecode(upset.im.peek(3))
    assert variant.run is None
    assert len(calls) == 1  # the old body never ran after the upset


# ---------------------------------------------------------------------------
# Compiled blocks: budgets, early exits, invalidation and profiling
# ---------------------------------------------------------------------------
def _spy(block):
    """Record the return value of every call of ``block``'s compiled
    function (blocks are shared, so every engine's calls are seen)."""
    returns = []
    run = block.run

    def spy(*args):
        result = run(*args)
        returns.append(result)
        return result

    block.run = spy
    return returns


def _see_blocks(make):
    """Drain :data:`~repro.soc.fastlane.COMPILE_AT_RUN` throwaway
    platforms from ``make()``: each program block a drain reaches has
    then run that often and compiled, so every engine that derives it
    runs it compiled from its first visit."""
    for _ in range(fastlane.COMPILE_AT_RUN):
        platform = make()
        try:
            _drain(platform)
        except SystemFailure:
            pass


def _set_gap(memory, accesses):
    """Schedule ``memory``'s next fault after ``accesses`` clean ones
    (the fault engine's pending geometric gap)."""
    memory.faults._gap = accesses


# After the yield (address 1), one 11-instruction block at address 2:
# three loads, ALU work and a store, closed by the loop branch.
_BODY_LOOP = assemble("""
    addi r2, r0, 6
loop:
    yield
    lw   r3, r0, 8
    lw   r5, r0, 9
    add  r4, r4, r3
    xor  r6, r4, r5
    slli r7, r6, 3
    sub  r8, r7, r2
    lw   r9, r0, 10
    add  r4, r4, r9
    sw   r4, r0, 11
    addi r2, r2, -1
    bne  r2, r0, loop
    halt
""")
_BODY_DATA = [0] * 8 + [0x1111, 0x2222, 0x3333]


def _body_pair():
    """A warm SECDED pair on ``_BODY_LOOP``: the fast lane's body block
    compiled, and both platforms one iteration in (the SP gap drawn).
    At 0.35 V faults are possible but the drawn gaps are astronomical,
    so only the gaps a test schedules fault."""
    def make(scalar=False):
        platform = _build(scheme="secded", vdd=0.35, scalar=scalar)
        _load(platform, _BODY_LOOP)
        platform.load_data(_BODY_DATA)
        return platform

    _see_blocks(make)
    reference, fast = make(scalar=True), make()
    for platform in (reference, fast):
        for _ in range(2):
            assert platform.run_until_stop() is StopReason.YIELD
    body = fast._fast_engine._blocks[2]
    assert (body.n, body.run is not None) == (11, True)
    return reference, fast, body


def test_im_budget_ending_mid_block_runs_it_per_instruction():
    """A fault scheduled on the 5th fetch of the body: the compiled
    block does not run, the loop commits four instructions, the slow
    step takes the faulty fetch, and the next iteration runs compiled
    again — all bit-exact with the interpreter."""
    reference, fast, body = _body_pair()
    calls = _spy(body)
    for platform in (reference, fast):
        _set_gap(platform.im, 4)
        assert platform.run_until_stop() is StopReason.YIELD
    assert calls == []
    assert fast.im.faults.injected_events == 1
    # The pc after the slow step (address 7) is mid-run, not a leader.
    assert fast._fast_engine._blocks[7] is None
    for platform in (reference, fast):
        _drain(platform)
    assert calls == [1, 1, 1, 13]  # the last iteration falls through
    _assert_same(reference, fast)


def test_sp_budget_short_of_a_blocks_accesses_runs_it_per_instruction():
    """The body samples four SP accesses; with a fault due on the
    second, the block does not run and the fault lands on the second
    load, exactly where per-access sampling puts it."""
    reference, fast, body = _body_pair()
    calls = _spy(body)
    for platform in (reference, fast):
        _set_gap(platform.sp, 1)
        assert platform.run_until_stop() is StopReason.YIELD
    assert calls == []
    assert fast.sp.faults.injected_events == 1
    for platform in (reference, fast):
        _drain(platform)
    assert calls == [1, 1, 1, 13]  # the last iteration falls through
    _assert_same(reference, fast)


def test_non_clean_sp_word_exits_a_compiled_block_early():
    """A corrupted codeword at SP address 9: the compiled body commits
    its first load and exits at the second, whose slow step corrects
    and scrubs the word; later iterations run compiled again."""
    reference, fast, body = _body_pair()
    calls = _spy(body)
    for platform in (reference, fast):
        platform.sp.poke(9, platform.sp.peek(9) ^ (1 << 5))
        _drain(platform)
    assert calls == [EARLY_EXIT + 1, 1, 1, 1, 13]
    assert fast.result().corrected_words >= 1
    _assert_same(reference, fast)


# r2 walks up from 61 past the scratchpad's last word (63): the fourth
# iteration's access at address 64 is a wild access.
_WALK = """
    addi r2, r0, 61
loop:
    yield
    addi r3, r3, 1
    {access} r5, r2, 0
    add  r5, r5, r3
    addi r2, r2, 1
    bne  r2, r0, loop
    halt
"""


@pytest.mark.parametrize("access", ["lw", "sw"])
def test_out_of_range_access_exits_a_compiled_block_early(access):
    """The compiled body commits its first instruction and exits at
    the wild access; the slow step raises it, and the failure, pc and
    counters match the interpreter's."""
    words = assemble(_WALK.format(access=access))

    def make(scalar=False):
        platform = _build(scalar=scalar)
        _load(platform, words)
        return platform

    _see_blocks(make)
    failures = []
    for platform in (make(scalar=True), make()):
        with pytest.raises(SystemFailure) as excinfo:
            for _ in range(3):
                platform.run_until_stop()
            if platform._fast_engine is not None:
                calls = _spy(platform._fast_engine._blocks[2])
            _drain(platform)
        failures.append((str(excinfo.value), _state_tuple(platform)))
    assert "wild-access" in failures[0][0]
    assert failures[1] == failures[0]
    assert calls == [1, EARLY_EXIT + 1]


def test_branch_below_zero_from_a_compiled_block_is_a_next_pc():
    """A compiled block whose taken branch names pc -26 returns that
    pc — never mistaken for an early exit — and the fetch there fails
    as the interpreter's does."""
    words = assemble("""
        addi r2, r0, 3
    loop:
        yield
        addi r2, r2, -1
        add  r4, r4, r2
        beq  r2, r0, -30
        jal  r0, loop
    """)

    def make(scalar=False):
        platform = _build(scalar=scalar)
        _load(platform, words)
        return platform

    _see_blocks(make)
    failures = []
    for platform in (make(scalar=True), make()):
        with pytest.raises(SystemFailure) as excinfo:
            for _ in range(2):
                platform.run_until_stop()
            if platform._fast_engine is not None:
                calls = _spy(platform._fast_engine._blocks[2])
            _drain(platform)
        failures.append((str(excinfo.value), _state_tuple(platform)))
    assert "wild-access" in failures[0][0]
    assert failures[1] == failures[0]
    assert calls == [5, -26]


def test_scrubbed_im_upset_keeps_every_compiled_block():
    """An auto-scrubbed SECDED upset rewrites the word it corrects:
    the cell re-derives to the same entry, so every block — the one
    covering the word included — stays, compiled."""
    _see_blocks(lambda: _counting_platform()[0])
    fast, _, _ = _counting_platform()
    reference, _, _ = _counting_platform(scalar=True)
    for platform in (fast, reference):
        for _ in range(2):
            assert platform.run_until_stop() is StopReason.YIELD
    engine = fast._fast_engine
    blocks, spans = list(engine._blocks), dict(engine._spans)
    covering = engine._blocks[6]  # addi r2, r2, -1; bne: addresses 6-7
    assert covering.run is not None
    calls = _spy(covering)
    _upset(fast.im, 6, 1 << 3, fast.run_until_stop)
    reference.im.faults.force_next(1 << 3)
    reference.run_until_stop()
    assert engine._blocks == blocks and engine._spans == spans
    for platform in (fast, reference):
        _drain(platform)
    assert len(calls) == 10  # every later iteration ran it compiled
    _assert_same(reference, fast)


def test_profiling_with_compiled_blocks_is_bit_exact():
    """Profiling on runs the same compiled blocks as profiling off:
    identical outcomes and RNG positions, each block run expanded into
    the per-pc tally (fault-free, the opcode and pc histograms equal
    the interpreter's), and the compiled share counted."""
    program = build_fft_program(16)

    def run(runner_cls, model, vdd, profiled):
        runner = runner_cls(model, seed=5)
        registry = MetricsRegistry()
        if profiled:
            with scoped_metrics(registry), scoped_profiling():
                outcome = runner.run(program.workload, vdd, 25e6)
        else:
            outcome = runner.run(program.workload, vdd, 25e6)
        platform = runner.last_platform
        rng = [m.faults.rng.bit_generator.state for m in (platform.im, platform.sp)]
        return outcome, rng, registry.snapshot()

    for model, vdd in ((_MODEL, 0.7), (ACCESS_CELL_BASED_40NM, 0.44)):
        run(SecdedRunner, model, vdd, profiled=False)  # blocks warm up
        off = run(SecdedRunner, model, vdd, profiled=False)
        on = run(SecdedRunner, model, vdd, profiled=True)
        assert on[:2] == off[:2]
        counters, histograms = on[2].counters, on[2].histograms
        assert counters[names.PROFILE_BLOCK_INSTRUCTIONS] > 0
        assert sum(histograms[names.PROFILE_PC].values()) == (
            counters[names.PROFILE_FAST_INSTRUCTIONS]
        )
    scalar = run(_scalar_runner(SecdedRunner), _MODEL, 0.7, profiled=True)
    fast = run(SecdedRunner, _MODEL, 0.7, profiled=True)
    for name in (names.PROFILE_OPCODE, names.PROFILE_PC):
        assert fast[2].histograms[name] == scalar[2].histograms[name]


def test_every_handler_opcode_has_a_template():
    """The block templates cover every opcode a block may contain."""
    compilable = set(_HANDLERS) - {Opcode.HALT, Opcode.YIELD}
    assert set(TEMPLATES) == compilable


# A hot loop that yields once per iteration, so a test can queue IM
# upsets between iterations.  Every iteration starts the 4-instruction
# block at address 2.
_HOT_LOOP = """
    addi r2, r0, {count}
loop:
    yield
    addi r2, r2, -1
    add  r4, r4, r2
    xor  r5, r4, r2
    bne  r2, r0, loop
    halt
"""


def test_a_loop_body_compiles_at_its_kth_run_within_the_first_run():
    """With no block seen before, a loop body runs interpreted for its
    first ``COMPILE_AT_RUN - 1`` visits and compiled from the
    ``COMPILE_AT_RUN``-th on, within the process's first run of its
    program, bit-exact with the interpreter."""
    count = 3 * fastlane.COMPILE_AT_RUN
    words = assemble(_HOT_LOOP.format(count=count))
    reference = _build(vdd=0.6, scalar=True)
    fast = _build(vdd=0.6)
    registry = MetricsRegistry()
    for platform in (reference, fast):
        _load(platform, words)
    with scoped_metrics(registry), scoped_profiling():
        for platform in (reference, fast):
            assert _drain(platform, max_yields=count + 1) is StopReason.HALT
    _assert_same(reference, fast)
    body = fast._fast_engine._blocks[2]
    counters = registry.snapshot().counters
    compiled = counters.get(names.PROFILE_BLOCK_INSTRUCTIONS, 0)
    assert compiled == (count - fastlane.COMPILE_AT_RUN + 1) * body.n
    assert body.run is not None
    assert (body.n, body.program, body.runs) == (
        4, True, fastlane.COMPILE_AT_RUN
    )


def test_a_fault_variant_never_compiles():
    """A RawPort fetch upset rewrites an instruction of a hot loop: the
    block derived over it afterwards is a fault variant, which never
    compiles, however often it runs — here ``3 * COMPILE_AT_RUN - 1``
    times in each of two engines that share it."""
    count = 3 * fastlane.COMPILE_AT_RUN
    words = assemble(_HOT_LOOP.format(count=count))
    #: ``add r4, r4, r2`` at address 3 becomes ``add r4, r4, r3``.
    upset = words[3] ^ assemble("add r4, r4, r3")[0]
    reference = _build(vdd=0.6, scalar=True)
    fast = [_build(vdd=0.6), _build(vdd=0.6)]
    for platform in fast + [reference]:
        _load(platform, words)
        assert platform.run_until_stop() is StopReason.YIELD
        platform.im.faults.force_next(0)  # address 2 fetches clean
        platform.im.faults.force_next(upset)  # address 3 is upset
        assert _drain(platform, max_yields=count + 1) is StopReason.HALT
    first, second = (platform._fast_engine._blocks[2] for platform in fast)
    assert second is first  # one shared block, derived by both engines
    assert first.entries[1] == predecode(reference.im.peek(3))
    assert first.run is None
    assert (first.program, first.runs) == (False, 0)
    for platform in fast:
        _assert_same(reference, platform)


def test_a_cold_fig8_study_runs_mostly_compiled():
    """With no block seen before, one Figure 8 study at its paper size
    (FFT-256 under three schemes) runs at least 85 % of its fast-lane
    instructions in compiled blocks: its loop bodies compile during the
    first scheme's run."""
    registry = MetricsRegistry()
    with scoped_metrics(registry), scoped_profiling():
        fig8_power_breakdown(256)
    counters = registry.snapshot().counters
    compiled = counters[names.PROFILE_BLOCK_INSTRUCTIONS]
    assert compiled >= 0.85 * counters[names.PROFILE_FAST_INSTRUCTIONS] > 0


def test_shared_block_cache_under_threads(monkeypatch):
    """``repro serve`` runs jobs on threads that share the block cache.
    More threads than cores, each running FFTs on its own platforms
    with a tiny switch interval, under a cache bound smaller than the
    blocks in play: every outcome equals the ``Cpu.run`` oracle, and
    the cache never holds more than its bound."""
    limit = 40
    monkeypatch.setattr(fastlane, "_BLOCK_CACHE_LIMIT", limit)
    cases = [
        (runner_cls, build_fft_program(points).workload, vdd, seed)
        for runner_cls, vdd in ((SecdedRunner, 0.44), (NoMitigationRunner, 0.5))
        for points in (16, 64)
        for seed in (1, 2)
    ]

    def run(case, scalar=False):
        runner_cls, workload, vdd, seed = case
        if scalar:
            runner_cls = _scalar_runner(runner_cls)
        runner = runner_cls(ACCESS_CELL_BASED_40NM, seed=seed)
        return runner.run(workload, vdd, 25e6)

    oracle = [run(case, scalar=True) for case in cases]
    results, errors, peak = {}, [], [0]
    done = threading.Event()

    def worker(index):
        try:
            for offset in range(len(cases)):
                case = (index + offset) % len(cases)
                results[index, case] = run(cases[case])
        except Exception as exc:  # reported below, with its thread
            errors.append((index, exc))

    def watch():
        while not done.wait(0.0001):
            peak[0] = max(peak[0], len(fastlane._BLOCK_CACHE))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    watcher = threading.Thread(target=watch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        watcher.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [watcher])
    assert errors == []
    assert len(results) == len(threads) * len(cases)
    for (_, case), outcome in results.items():
        assert outcome == oracle[case]
    assert peak[0] == limit  # reached, so threads evicted concurrently
    assert any(b.run is not None for b in fastlane._BLOCK_CACHE.values())
