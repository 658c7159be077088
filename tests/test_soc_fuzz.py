"""Differential fuzzing of the NTC32 CPU.

Hypothesis generates random straight-line ALU programs; an independent
golden interpreter (written directly against the ISA spec, sharing no
code with :mod:`repro.soc.cpu`) predicts the architectural state, and
both must agree register for register.  This is the test that keeps
the FFT's correctness proofs honest: if the CPU and the golden model
ever disagree, one of them misreads the spec.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.ecc import SecdedCodec
from repro.soc import fastlane
from repro.soc.assembler import assemble
from repro.soc.cpu import Cpu, StopReason
from repro.soc.faults import VoltageFaultModel
from repro.soc.isa import Opcode
from repro.soc.memory import FaultyMemory
from repro.soc.platform import DetectedError, Platform, SystemFailure
from repro.soc.ports import CodecPort, DetectOnlyCodec, RawPort

_MASK32 = 0xFFFFFFFF

_R_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
          "mul", "mulh"]
_I_OPS = ["addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti"]


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


def _golden_r(op, b, c):
    """Golden semantics of R-type ops on 32-bit unsigned patterns."""
    if op == "add":
        return (b + c) & _MASK32
    if op == "sub":
        return (b - c) & _MASK32
    if op == "and":
        return b & c
    if op == "or":
        return b | c
    if op == "xor":
        return b ^ c
    if op == "sll":
        return (b << (c & 31)) & _MASK32
    if op == "srl":
        return b >> (c & 31)
    if op == "sra":
        return (_signed(b) >> (c & 31)) & _MASK32
    if op == "slt":
        return int(_signed(b) < _signed(c))
    if op == "mul":
        return (_signed(b) * _signed(c)) & _MASK32
    if op == "mulh":
        return ((_signed(b) * _signed(c)) >> 32) & _MASK32
    raise AssertionError(op)


def _golden_i(op, b, imm):
    if op == "addi":
        return (b + imm) & _MASK32
    # Logical immediates are sign-extended (RISC-V convention), so a
    # negative imm applies as its full 32-bit two's-complement pattern.
    if op == "andi":
        return b & (imm & _MASK32)
    if op == "ori":
        return b | (imm & _MASK32)
    if op == "xori":
        return b ^ (imm & _MASK32)
    if op == "slli":
        return (b << (imm & 31)) & _MASK32
    if op == "srli":
        return b >> (imm & 31)
    if op == "srai":
        return (_signed(b) >> (imm & 31)) & _MASK32
    if op == "slti":
        return int(_signed(b) < imm)
    raise AssertionError(op)


def _golden_run(instructions, seed_regs):
    regs = list(seed_regs)
    for kind, payload in instructions:
        if kind == "r":
            op, a, b, c = payload
            result = _golden_r(op, regs[b], regs[c])
        elif kind == "i":
            op, a, b, imm = payload
            result = _golden_i(op, regs[b], imm)
        else:  # lui
            a, imm = payload
            result = (imm << 12) & _MASK32
        if a != 0:
            regs[a] = result
    return regs


@st.composite
def alu_programs(draw):
    """Random straight-line programs plus seed register values."""
    seed_regs = [0] + [
        draw(st.integers(0, _MASK32)) for _ in range(15)
    ]
    length = draw(st.integers(min_value=1, max_value=25))
    instructions = []
    for _ in range(length):
        kind = draw(st.sampled_from(["r", "i", "lui"]))
        a = draw(st.integers(0, 15))
        if kind == "r":
            op = draw(st.sampled_from(_R_OPS))
            b = draw(st.integers(0, 15))
            c = draw(st.integers(0, 15))
            instructions.append(("r", (op, a, b, c)))
        elif kind == "i":
            op = draw(st.sampled_from(_I_OPS))
            b = draw(st.integers(0, 15))
            imm = draw(st.integers(-(1 << 13), (1 << 13) - 1))
            if op in ("slli", "srli", "srai"):
                imm = draw(st.integers(0, 31))
            instructions.append(("i", (op, a, b, imm)))
        else:
            imm = draw(st.integers(0, (1 << 21) - 1))
            instructions.append(("lui", (a, imm)))
    return instructions, seed_regs


def _to_source(instructions):
    lines = []
    for kind, payload in instructions:
        if kind == "r":
            op, a, b, c = payload
            lines.append(f"{op} r{a}, r{b}, r{c}")
        elif kind == "i":
            op, a, b, imm = payload
            lines.append(f"{op} r{a}, r{b}, {imm}")
        else:
            a, imm = payload
            lines.append(f"lui r{a}, {imm}")
    lines.append("halt")
    return "\n".join(lines)


@given(program=alu_programs())
@settings(max_examples=300, deadline=None)
def test_cpu_matches_golden_model(program):
    instructions, seed_regs = program
    words = assemble(_to_source(instructions))
    memory = FaultyMemory("IM", max(len(words), 1), 32)
    memory.load(words)
    cpu = Cpu(
        fetch=memory.peek,
        load=lambda a: 0,
        store=lambda a, v: None,
    )
    cpu.state.registers = list(seed_regs)
    cpu.run(max_instructions=1000)
    expected = _golden_run(instructions, seed_regs)
    assert cpu.state.registers == expected


@given(program=alu_programs())
@settings(max_examples=100, deadline=None)
def test_r0_never_written(program):
    instructions, seed_regs = program
    seed_regs = [0] + seed_regs[1:]
    words = assemble(_to_source(instructions))
    memory = FaultyMemory("IM", max(len(words), 1), 32)
    memory.load(words)
    cpu = Cpu(fetch=memory.peek, load=lambda a: 0, store=lambda a, v: None)
    cpu.state.registers = list(seed_regs)
    cpu.run(max_instructions=1000)
    assert cpu.state.registers[0] == 0


def test_every_alu_opcode_covered_by_fuzz_tables():
    """The fuzz op tables must cover the full R/I ALU opcode sets."""
    from repro.soc.isa import I_TYPE, R_TYPE

    assert {op.name.lower() for op in R_TYPE} == set(_R_OPS)
    assert {op.name.lower() for op in I_TYPE} == set(_I_OPS)


def test_golden_tables_reject_unknown():
    import pytest

    with pytest.raises(AssertionError):
        _golden_r("nand", 1, 2)
    with pytest.raises(AssertionError):
        _golden_i("subi", 1, 2)


def test_opcode_enum_is_stable():
    """Binary compatibility: programs assembled today must decode the
    same tomorrow; pin the opcode numbering."""
    assert Opcode.ADD == 0x01
    assert Opcode.LW == 0x20
    assert Opcode.BEQ == 0x30
    assert Opcode.HALT == 0x3E
    assert Opcode.YIELD == 0x3F


# ---------------------------------------------------------------------------
# Differential fuzzing of the clean-burst fast lane
# ---------------------------------------------------------------------------
# The fast lane (repro.soc.fastlane) promises bit-exactness with the
# reference interpreter: same architectural state, same memory images,
# same counters, same fault statistics, and — the strongest claim —
# the same RNG stream consumption, so every later fault lands on the
# same access in both worlds.  Hypothesis generates random programs
# (ALU, loads/stores, branches, jumps, yields) and random supply
# voltages; the same platform is built with identically seeded fault
# engines, run once per engine, and fingerprinted.  The fast lane runs
# twice on fresh platforms with blocks compiling at their second run:
# the first run meets each straight-line block interpreted and compiles
# it mid-run if it comes back, and the second runs the program's blocks
# compiled (a block a fault rewrote stays interpreted).

_IM_WORDS = 64
_SP_WORDS = 64
_BRANCH_OPS = ["beq", "bne", "blt", "bge"]
#: Longest generated program: it and its closing HALT fit the IM.
_MAX_PROGRAM = _IM_WORDS - 1


def _offsets():
    """Branch and jump offsets: mostly short, with targets that leave
    the instruction memory on both sides."""
    return st.one_of(
        st.integers(-3, 4),
        st.integers(-2 * _IM_WORDS, 2 * _IM_WORDS),
    )


@st.composite
def soc_programs(draw):
    """Random programs with memory traffic and control flow.

    A program is a few straight-line runs (ALU and LUI, with or without
    LW/SW; up to 30 long), each closed by a branch, JAL, JALR or YIELD.
    Register seeds are biased toward small values so loads, stores and
    JALR targets mostly stay in range, with full-range outliers to
    exercise wild-access parity.  Runaway loops are fine — both engines
    must then agree on the runaway failure, instruction for instruction.
    """
    seed_regs = [0] + [
        draw(
            st.one_of(
                st.integers(0, _SP_WORDS - 1),
                st.integers(0, _MASK32),
            )
        )
        for _ in range(15)
    ]
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        # Half the runs make no data access, so their blocks need no
        # SP budget and can run compiled even at a run's first leader.
        kinds = ["r", "i", "lui"]
        if draw(st.booleans()):
            kinds += ["lw", "sw"]
        for _ in range(draw(st.integers(min_value=0, max_value=30))):
            kind = draw(st.sampled_from(kinds))
            a = draw(st.integers(0, 15))
            b = draw(st.integers(0, 15))
            if kind == "r":
                op = draw(st.sampled_from(_R_OPS))
                c = draw(st.integers(0, 15))
                lines.append(f"{op} r{a}, r{b}, r{c}")
            elif kind == "i":
                op = draw(st.sampled_from(_I_OPS))
                imm = draw(st.integers(-(1 << 13), (1 << 13) - 1))
                if op in ("slli", "srli", "srai"):
                    imm = draw(st.integers(0, 31))
                lines.append(f"{op} r{a}, r{b}, {imm}")
            elif kind == "lui":
                lines.append(
                    f"lui r{a}, {draw(st.integers(0, (1 << 21) - 1))}"
                )
            else:
                base = draw(st.sampled_from([0, b]))
                imm = draw(st.integers(0, _SP_WORDS - 1))
                lines.append(f"{kind} r{a}, r{base}, {imm}")
        end = draw(st.sampled_from(["branch", "jal", "jalr", "yield"]))
        a = draw(st.integers(0, 15))
        b = draw(st.integers(0, 15))
        if end == "branch":
            op = draw(st.sampled_from(_BRANCH_OPS))
            lines.append(f"{op} r{a}, r{b}, {draw(_offsets())}")
        elif end == "jal":
            lines.append(f"jal r{a}, {draw(_offsets())}")
        elif end == "jalr":
            lines.append(f"jalr r{a}, r{b}, {draw(_offsets())}")
        else:
            lines.append("yield")
    lines = lines[:_MAX_PROGRAM]
    lines.append("halt")
    data = [draw(st.integers(0, _MASK32)) for _ in range(8)]
    return "\n".join(lines), seed_regs, data


def _build_soc(scheme, vdd, seed, scalar):
    """One platform; fault engines seeded deterministically per memory.

    ``scalar`` pins the reference interpreter (``Cpu.run``) through
    ``bind_engine``; otherwise the platform picks its own engine, the
    fast lane for these stock ports.
    """
    model = ACCESS_CELL_BASED_40NM_TYPICAL

    def faults(width, salt):
        return VoltageFaultModel(
            model, width, vdd, rng=np.random.default_rng(seed * 2 + salt)
        )

    if scheme == "raw":
        im = FaultyMemory("IM", _IM_WORDS, 32, faults=faults(32, 0))
        sp = FaultyMemory("SP", _SP_WORDS, 32, faults=faults(32, 1))
        im_port, sp_port = RawPort(im), RawPort(sp)
    else:
        codec = SecdedCodec()
        if scheme == "detect":
            codec = DetectOnlyCodec(codec)
        width = codec.code_bits
        im = FaultyMemory("IM", _IM_WORDS, width, faults=faults(width, 0))
        sp = FaultyMemory("SP", _SP_WORDS, width, faults=faults(width, 1))
        scrub = scheme == "secded"
        im_port = CodecPort(im, codec, auto_scrub=scrub)
        sp_port = CodecPort(sp, codec, auto_scrub=scrub)
    platform = Platform(im, im_port, sp, sp_port)
    if scalar:
        platform.bind_engine(platform.cpu.run)
    return platform


def _scalar_runner(runner_cls):
    """``runner_cls`` whose platforms are pinned to ``Cpu.run``."""

    class ScalarRunner(runner_cls):
        def build_platform(self, vdd):
            platform = super().build_platform(vdd)
            platform.bind_engine(platform.cpu.run)
            return platform

    return ScalarRunner


def _run_soc(platform, source, seed_regs, data, max_instructions=300):
    """Run to completion/failure; return a comparable outcome trace.

    ``max_instructions`` bounds each ``run_until_stop``; the fast-lane
    fuzzers draw it per example, so some runs end mid-block.
    """
    platform.load_program(assemble(source))
    platform.load_data(data)
    platform.cpu.state.registers = list(seed_regs)
    outcome = []
    try:
        for _ in range(6):  # bounded number of YIELD resumptions
            reason = platform.run_until_stop(max_instructions)
            outcome.append(reason.name)
            if reason is StopReason.HALT:
                break
    except SystemFailure as exc:
        outcome.append(("SystemFailure", exc.kind, str(exc)))
    except DetectedError as exc:
        outcome.append(("DetectedError", exc.module, exc.address))
    return outcome


def _fingerprint(platform):
    """Everything the bit-exactness contract covers, in one dict."""
    state = platform.cpu.state
    fp = {
        "pc": state.pc,
        "registers": list(state.registers),
        "cycles": state.cycles,
        "instructions": state.instructions,
        "taken_branches": state.taken_branches,
        "im_data": platform.im.snapshot(),
        "sp_data": platform.sp.snapshot(),
    }
    for name, mem, port in (
        ("im", platform.im, platform.im_port),
        ("sp", platform.sp, platform.sp_port),
    ):
        fp[f"{name}_counters"] = (mem.counters.reads, mem.counters.writes)
        fp[f"{name}_injected"] = (
            mem.faults.injected_bits,
            mem.faults.injected_events,
        )
        fp[f"{name}_rng"] = mem.faults.rng.bit_generator.state
        if hasattr(port, "stats"):
            stats = port.stats
            fp[f"{name}_stats"] = (
                stats.reads,
                stats.writes,
                stats.corrected_words,
                stats.detected_words,
            )
    return fp


@st.composite
def soc_scenarios(draw):
    program = draw(soc_programs())
    vdd = draw(st.sampled_from([0.55, 0.45, 0.40, 0.35, 0.30]))
    scheme = draw(st.sampled_from(["raw", "secded", "detect"]))
    seed = draw(st.integers(0, 1 << 16))
    limit = draw(st.integers(1, 400))
    return program, vdd, scheme, seed, limit


#: The fuzzers' compile threshold: generated programs are short, so
#: under the stock one most of their blocks would never compile.
_FUZZ_COMPILE_AT_RUN = 2


def _fast_runs(scheme, vdd, seed, program, limit):
    """Run the fast lane twice on fresh platforms, program blocks
    compiling at their second run: the first run meets each block
    interpreted and compiles those it revisits, the second runs them
    compiled from their first visit.  Returns both (outcome, platform)."""
    runs = []
    with mock.patch.object(fastlane, "COMPILE_AT_RUN", _FUZZ_COMPILE_AT_RUN):
        for _ in range(2):
            fast = _build_soc(scheme, vdd, seed, scalar=False)
            runs.append((_run_soc(fast, *program, limit), fast))
    return runs


@given(scenario=soc_scenarios())
@settings(max_examples=120, deadline=None)
def test_fast_lane_is_bit_exact(scenario):
    program, vdd, scheme, seed, limit = scenario
    reference = _build_soc(scheme, vdd, seed, scalar=True)
    ref_outcome = _run_soc(reference, *program, limit)
    for fast_outcome, fast in _fast_runs(scheme, vdd, seed, program, limit):
        assert fast_outcome == ref_outcome
        assert _fingerprint(fast) == _fingerprint(reference)
        # SimulationResult is derived from the fingerprint, but it is
        # the object every experiment consumes — pin it directly too.
        assert fast.result() == reference.result()


@given(scenario=soc_scenarios())
@settings(max_examples=25, deadline=None)
def test_fast_lane_bit_exact_with_profiling(scenario):
    """Profiling on must be bit-exactness-neutral on both engines.

    Outcomes, architectural fingerprints (including fault statistics
    and RNG bit-generator positions) must match the unprofiled runs
    exactly, while the ``profile.*`` instruments actually populate.
    The profiled fast lane runs blocks the unprofiled runs compiled.
    """
    from repro.obs import MetricsRegistry, names, scoped_metrics
    from repro.obs.profile import scoped_profiling

    program, vdd, scheme, seed, limit = scenario
    reference = _build_soc(scheme, vdd, seed, scalar=True)
    ref_outcome = _run_soc(reference, *program, limit)
    (fast_outcome, fast), _ = _fast_runs(scheme, vdd, seed, program, limit)

    prof_reference = _build_soc(scheme, vdd, seed, scalar=True)
    prof_fast = _build_soc(scheme, vdd, seed, scalar=False)
    registry = MetricsRegistry()
    with scoped_metrics(registry), scoped_profiling():
        prof_ref_outcome = _run_soc(prof_reference, *program, limit)
        prof_fast_outcome = _run_soc(prof_fast, *program, limit)

    assert prof_ref_outcome == ref_outcome
    assert prof_fast_outcome == fast_outcome
    assert _fingerprint(prof_reference) == _fingerprint(reference)
    assert _fingerprint(prof_fast) == _fingerprint(fast)
    assert prof_fast.result() == fast.result()

    snapshot = registry.snapshot()
    # The scalar reference is pure slow path, and its every
    # instruction lands in the opcode mix.
    assert snapshot.counters[names.PROFILE_SLOW_INSTRUCTIONS] > 0
    assert sum(snapshot.histograms[names.PROFILE_OPCODE].values()) > 0
    if prof_fast._fast_engine is not None:
        assert snapshot.counters[names.PROFILE_BURSTS] > 0
        assert names.PROFILE_BURST_LENGTH in snapshot.histograms
