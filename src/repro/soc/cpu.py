"""Cycle-counting NTC32 interpreter core.

Stands in for MPARM's ARM9 instruction-set simulator.  The core is a
simple non-pipelined interpreter with per-opcode cycle costs plus a
one-cycle taken-branch bubble — enough fidelity for the paper's use of
the platform, which is counting cycles and memory accesses to drive the
energy model.

The core fetches through an instruction-memory port and loads/stores
through a data port; both ports are plain callables so mitigation
wrappers (SECDED decode, OCEAN detection) can interpose transparently.

Execution is table-driven: each fetched word is predecoded once into a
``(handler, a, b, c, imm, cycles, opcode, mem_kind)`` tuple and cached
by *word value* in a process-wide table, so the per-step cost is one
dict probe plus one handler call instead of re-running the field
extraction and an if/elif opcode ladder.  Keying the cache on the word
value (rather than the memory address) makes invalidation automatic:
when an IM fault or write changes a stored word, the corrupted word is
simply a different key.  The address-keyed predecode tables of the
fault-free fast lane (:mod:`repro.soc.fastlane`) build on the same
entries and handle their own invalidation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.profile import active_profiler
from repro.soc.isa import (
    BASE_CYCLES,
    NUM_REGISTERS,
    Opcode,
    decode_fields,
)

#: Opcode-int -> mnemonic, for profiler opcode-mix tallies.
OPCODE_NAMES = {int(op): op.name for op in Opcode}

_MASK32 = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_TWO32 = 0x100000000


def _to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as two's complement."""
    return value - _TWO32 if value & _SIGN_BIT else value


def _to_unsigned(value: int) -> int:
    return value & _MASK32


class StopReason(enum.Enum):
    """Why :meth:`Cpu.run` returned."""

    HALT = "halt"
    YIELD = "yield"


class ExecutionLimitExceeded(Exception):
    """The program ran past the configured instruction budget —
    almost always a corrupted loop counter sending the program into an
    endless loop, one of the real failure modes of unmitigated
    near-threshold memory operation."""


@dataclass
class CpuState:
    """Architectural state plus performance counters."""

    pc: int = 0
    registers: list[int] = field(
        default_factory=lambda: [0] * NUM_REGISTERS
    )
    cycles: int = 0
    instructions: int = 0
    taken_branches: int = 0

    def reset_counters(self) -> None:
        self.cycles = 0
        self.instructions = 0
        self.taken_branches = 0


# ----------------------------------------------------------------------
# Per-opcode handlers.  Every handler receives ``(cpu, state, entry)``
# with ``entry = (handler, a, b, c, imm, cycles, opcode_int, mem_kind)``
# and is responsible for the register write-back (r0 stays hard-wired
# to zero) and the PC update; branch handlers also account the taken
# bubble.  Semantics are bit-for-bit those of the original if/elif
# interpreter ladder.
# ----------------------------------------------------------------------
def _x_add(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = (regs[e[2]] + regs[e[3]]) & _MASK32
    state.pc += 1


def _x_sub(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = (regs[e[2]] - regs[e[3]]) & _MASK32
    state.pc += 1


def _x_and(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] & regs[e[3]]
    state.pc += 1


def _x_or(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] | regs[e[3]]
    state.pc += 1


def _x_xor(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] ^ regs[e[3]]
    state.pc += 1


def _x_sll(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = (regs[e[2]] << (regs[e[3]] & 31)) & _MASK32
    state.pc += 1


def _x_srl(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] >> (regs[e[3]] & 31)
    state.pc += 1


def _x_sra(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        v = regs[e[2]]
        if v & _SIGN_BIT:
            v -= _TWO32
        regs[a] = (v >> (regs[e[3]] & 31)) & _MASK32
    state.pc += 1


def _x_slt(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        lhs, rhs = regs[e[2]], regs[e[3]]
        if lhs & _SIGN_BIT:
            lhs -= _TWO32
        if rhs & _SIGN_BIT:
            rhs -= _TWO32
        regs[a] = 1 if lhs < rhs else 0
    state.pc += 1


def _x_mul(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        lhs, rhs = regs[e[2]], regs[e[3]]
        if lhs & _SIGN_BIT:
            lhs -= _TWO32
        if rhs & _SIGN_BIT:
            rhs -= _TWO32
        regs[a] = (lhs * rhs) & _MASK32
    state.pc += 1


def _x_mulh(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        lhs, rhs = regs[e[2]], regs[e[3]]
        if lhs & _SIGN_BIT:
            lhs -= _TWO32
        if rhs & _SIGN_BIT:
            rhs -= _TWO32
        regs[a] = ((lhs * rhs) >> 32) & _MASK32
    state.pc += 1


def _x_addi(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = (regs[e[2]] + e[4]) & _MASK32
    state.pc += 1


def _x_andi(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] & (e[4] & _MASK32)
    state.pc += 1


def _x_ori(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] | (e[4] & _MASK32)
    state.pc += 1


def _x_xori(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] ^ (e[4] & _MASK32)
    state.pc += 1


def _x_slli(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = (regs[e[2]] << (e[4] & 31)) & _MASK32
    state.pc += 1


def _x_srli(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        regs[a] = regs[e[2]] >> (e[4] & 31)
    state.pc += 1


def _x_srai(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        v = regs[e[2]]
        if v & _SIGN_BIT:
            v -= _TWO32
        regs[a] = (v >> (e[4] & 31)) & _MASK32
    state.pc += 1


def _x_slti(cpu, state, e):
    a = e[1]
    if a:
        regs = state.registers
        lhs = regs[e[2]]
        if lhs & _SIGN_BIT:
            lhs -= _TWO32
        regs[a] = 1 if lhs < e[4] else 0
    state.pc += 1


def _x_lui(cpu, state, e):
    a = e[1]
    if a:
        state.registers[a] = (e[4] << 12) & _MASK32
    state.pc += 1


def _x_lw(cpu, state, e):
    value = cpu.load((state.registers[e[2]] + e[4]) & _MASK32)
    a = e[1]
    if a:
        state.registers[a] = value & _MASK32
    state.pc += 1


def _x_sw(cpu, state, e):
    regs = state.registers
    cpu.store((regs[e[2]] + e[4]) & _MASK32, regs[e[1]])
    state.pc += 1


def _x_jal(cpu, state, e):
    a = e[1]
    if a:
        state.registers[a] = (state.pc + 1) & _MASK32
    state.pc += e[4]


def _x_jalr(cpu, state, e):
    regs = state.registers
    target = (regs[e[2]] + e[4]) & _MASK32
    a = e[1]
    if a:
        regs[a] = (state.pc + 1) & _MASK32
    state.pc = target


def _x_beq(cpu, state, e):
    regs = state.registers
    if regs[e[1]] == regs[e[2]]:
        state.taken_branches += 1
        state.cycles += 1  # pipeline bubble
        state.pc += e[4]
    else:
        state.pc += 1


def _x_bne(cpu, state, e):
    regs = state.registers
    if regs[e[1]] != regs[e[2]]:
        state.taken_branches += 1
        state.cycles += 1
        state.pc += e[4]
    else:
        state.pc += 1


def _x_blt(cpu, state, e):
    regs = state.registers
    lhs, rhs = regs[e[1]], regs[e[2]]
    if lhs & _SIGN_BIT:
        lhs -= _TWO32
    if rhs & _SIGN_BIT:
        rhs -= _TWO32
    if lhs < rhs:
        state.taken_branches += 1
        state.cycles += 1
        state.pc += e[4]
    else:
        state.pc += 1


def _x_bge(cpu, state, e):
    regs = state.registers
    lhs, rhs = regs[e[1]], regs[e[2]]
    if lhs & _SIGN_BIT:
        lhs -= _TWO32
    if rhs & _SIGN_BIT:
        rhs -= _TWO32
    if lhs >= rhs:
        state.taken_branches += 1
        state.cycles += 1
        state.pc += e[4]
    else:
        state.pc += 1


def _x_halt(cpu, state, e):
    state.pc += 1
    return StopReason.HALT


def _x_yield(cpu, state, e):
    state.pc += 1
    return StopReason.YIELD


_HANDLERS = {
    Opcode.ADD: _x_add, Opcode.SUB: _x_sub, Opcode.AND: _x_and,
    Opcode.OR: _x_or, Opcode.XOR: _x_xor, Opcode.SLL: _x_sll,
    Opcode.SRL: _x_srl, Opcode.SRA: _x_sra, Opcode.SLT: _x_slt,
    Opcode.MUL: _x_mul, Opcode.MULH: _x_mulh,
    Opcode.ADDI: _x_addi, Opcode.ANDI: _x_andi, Opcode.ORI: _x_ori,
    Opcode.XORI: _x_xori, Opcode.SLLI: _x_slli, Opcode.SRLI: _x_srli,
    Opcode.SRAI: _x_srai, Opcode.SLTI: _x_slti, Opcode.LUI: _x_lui,
    Opcode.LW: _x_lw, Opcode.SW: _x_sw,
    Opcode.JAL: _x_jal, Opcode.JALR: _x_jalr,
    Opcode.BEQ: _x_beq, Opcode.BNE: _x_bne, Opcode.BLT: _x_blt,
    Opcode.BGE: _x_bge,
    Opcode.HALT: _x_halt, Opcode.YIELD: _x_yield,
}

#: ``mem_kind`` codes in predecoded entries: which data-port access an
#: instruction performs (the fast lane budgets data accesses with it).
MEM_NONE, MEM_LOAD, MEM_STORE = 0, 1, 2

_MEM_KIND = {Opcode.LW: MEM_LOAD, Opcode.SW: MEM_STORE}

#: Process-wide predecode table, keyed by instruction *word value*.
#: Bounded defensively: fuzzing campaigns feed unbounded random words.
_PREDECODE_CACHE: dict = {}
_PREDECODE_CACHE_LIMIT = 1 << 16


def predecode(word: int) -> tuple:
    """Decode ``word`` once into a dispatchable handler/operand tuple.

    Returns ``(handler, a, b, c, imm, cycles, opcode_int, mem_kind)``.
    Raises :class:`repro.soc.isa.IllegalInstruction` on junk words,
    exactly like :func:`repro.soc.isa.decode`.  Entries are pure
    functions of the word value, so cached entries never go stale.
    """
    entry = _PREDECODE_CACHE.get(word)
    if entry is None:
        op, a, b, c, imm = decode_fields(word)
        if len(_PREDECODE_CACHE) >= _PREDECODE_CACHE_LIMIT:
            _PREDECODE_CACHE.clear()
        entry = (
            _HANDLERS[op], a, b, c, imm, BASE_CYCLES[op], int(op),
            _MEM_KIND.get(op, MEM_NONE),
        )
        _PREDECODE_CACHE[word] = entry
    return entry


def publish_tally(profiler, tally: dict) -> None:
    """Fold an engine's ``{(pc, opcode_int): count}`` tally into the
    profiler's opcode mix and per-PC histogram."""
    opcodes: dict = {}
    pcs: dict = {}
    for (pc, op), count in tally.items():
        name = OPCODE_NAMES[op]
        opcodes[name] = opcodes.get(name, 0) + count
        pcs[pc] = pcs.get(pc, 0) + count
    if opcodes:
        profiler.record_opcodes(opcodes)
        profiler.record_pcs(pcs)


class Cpu:
    """NTC32 interpreter bound to instruction/data memory ports.

    Parameters
    ----------
    fetch:
        Callable ``(address) -> int`` returning instruction words.
    load / store:
        Data-port callables for LW/SW.
    """

    def __init__(
        self,
        fetch: Callable[[int], int],
        load: Callable[[int], int],
        store: Callable[[int, int], None],
    ) -> None:
        self.fetch = fetch
        self.load = load
        self.store = store
        self.state = CpuState()

    def step(self) -> StopReason | None:
        """Execute one instruction; returns a stop reason or None."""
        state = self.state
        word = self.fetch(state.pc)
        entry = _PREDECODE_CACHE.get(word)
        if entry is None:
            entry = predecode(word)
        state.instructions += 1
        state.cycles += entry[5]
        return entry[0](self, state, entry)

    def run(self, max_instructions: int = 50_000_000) -> StopReason:
        """Run until HALT or YIELD; raises on runaway programs.

        With a live profiler the loop also tallies the ``(pc, opcode)``
        of every executed instruction in a local dict (``None`` when
        profiling is off).  The tally only observes the entry already
        decoded for dispatch, so it cannot perturb execution; it is
        published via try/finally so partial tallies survive raised
        faults.
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        state = self.state
        start_instructions = state.instructions
        start_cycles = state.cycles
        executed_limit = start_instructions + max_instructions
        profiler = active_profiler()
        tally = {} if profiler.enabled else None
        try:
            while True:
                pc = state.pc
                word = self.fetch(pc)
                entry = _PREDECODE_CACHE.get(word)
                if entry is None:
                    entry = predecode(word)
                state.instructions += 1
                state.cycles += entry[5]
                if tally is not None:
                    key = (pc, entry[6])
                    tally[key] = tally.get(key, 0) + 1
                reason = entry[0](self, state, entry)
                if reason is not None:
                    return reason
                if state.instructions >= executed_limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_instructions} instructions at "
                        f"pc={state.pc}"
                    )
        finally:
            if tally is not None:
                profiler.record_slow_path(
                    state.instructions - start_instructions,
                    state.cycles - start_cycles,
                )
                publish_tally(profiler, tally)
