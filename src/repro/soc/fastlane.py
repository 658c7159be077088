"""Fault-free fast lane: clean-burst execution for the platform.

At the voltages the paper studies, the overwhelming majority of memory
accesses are fault-free, and a fault-free ECC read is the identity — so
the faithful per-access machinery (port call, codec decode, mask
sampling, stats) only *needs* to run when a fault is actually
scheduled.  The fault engine already samples the geometric gap to the
next faulty access; :class:`FastLaneEngine` borrows that gap as an
execution *budget* and runs the CPU against cached plain-word views of
the instruction memory and scratchpad for exactly that many accesses,
falling back to the reference interpreter step at the scheduled faulty
access (or at any word it cannot prove clean).

Bit-exactness contract (checked by the differential fuzzer in
``tests/test_soc_fuzz.py``):

* **RNG streams.**  The only RNG draws the fault engine makes are the
  lazy gap draw and the per-faulty-access draws.  The fast lane reads
  the gap via ``clean_run_length()`` — the same lazy draw
  ``sample_mask`` would have made on the next access — and settles the
  fault-free decrements in bulk via ``consume_clean``.  Gap draws only
  happen when an access is genuinely about to occur, so the stream is
  positionally identical to per-access sampling.
* **Counters.**  Burst accesses are settled through the ports'
  ``account_clean_*`` hooks, which bump exactly the counters the
  per-access path would have bumped (memory access counters, codec
  port read/write stats).  Corrected/detected counters never move in a
  burst because a burst only ever touches words that decode CLEAN.
* **Faithful slow path.**  Anything the burst cannot handle — the
  budgeted access where the fault lands, a stored word that does not
  decode CLEAN (latent corruption), a forced mask, an out-of-range
  address, an illegal instruction — is *not* partially executed: the
  burst stops before committing any state and the instruction replays
  wholly through ``Cpu.step`` against the real ports, reproducing
  stats, scrubbing, telemetry and exceptions exactly.
* **Stores.**  Burst stores land in a dirty plain-word buffer and are
  encoded and written back (fault-free, as budgeted) before anything
  can observe the memory: before every slow step, stop, or raise.
* **Compiled blocks.**  A burst runs a straight-line run of the view
  as one generated Python function (:class:`Block`) only when the IM
  budget, the instruction limit and an *already drawn* SP budget cover
  all of it (drawn by an earlier access, possibly in an earlier burst:
  ``drawn_clean_run_length``), so a block never draws from the fault
  RNG and never needs a budget check inside.  A block's LW/SW exits
  early at an out-of-range address or a non-CLEAN SP word: the
  instructions before it are committed, the access itself is not, and
  the burst stops so the slow step replays it — the per-instruction
  loop and ``Cpu.step`` stay the only places that know the slow-path
  rules.  The early-exit
  marker (:data:`EARLY_EXIT` plus the count run) lies above every next
  pc a block can return, negative branch targets included.  Taken
  branches update ``CpuState`` exactly as the handlers do; the
  templates (:data:`TEMPLATES`) restate each opcode's semantics, and
  the ``_x_*`` handlers of :mod:`repro.soc.cpu` remain the oracle the
  fuzzer holds them to.  With a profiler, each block run is tallied
  and expanded into the per-pc tally at publish.

Cache invalidation keys off :attr:`FaultyMemory.version`, which bumps
on every content mutation (stores, destructive read upsets, scrubs,
back-door pokes/loads/restores, DMA).  Two rules:

* **Slow steps re-derive only what they touched.**  A faithful step
  (:func:`slow_step`) mutates at most one word per memory: the fetched
  IM word (a read upset or its scrub) and the one SP word its LW/SW or
  scrub touched.  The memory records that address
  (:attr:`FaultyMemory.mutated_address`) — taken from the memory, not
  from the predecoded entry, because on a :class:`RawPort` a faulted
  fetch can execute a different instruction than the view holds — and
  the engine resets just that view cell, keeping the rest.  The fast
  lane re-derives a touched IM cell at once and drops the blocks
  covering it only if its entry changed, so an auto-scrub that
  restores the same word keeps every block.
* **Everything else drops the whole view.**  A version mismatch at
  burst entry means a mutation the engine did not make itself —
  controller traffic between YIELDs (OCEAN restores), loads, pokes,
  ``force_next`` fallout — so the cached view, blocks included, is
  discarded and can never be observed stale.

Blocks are looked up only at *leaders*: the pc a run starts at, and
every pc reached by a control transfer or a completed block — never
the pc after a slow step, which is usually mid-run.  They live in one
bounded process-wide cache keyed by start pc and predecoded entries
(:func:`cached_block`) and compile when hot.  A block derived while the
IM still holds its program as loaded (no per-access write or upset
yet: ``mutated_address is None``) is a *program block*: each leader
visit of it while uncompiled counts one run, summed over every engine
in the process, and its :data:`COMPILE_AT_RUN`-th run compiles it, so
a loop body compiles within a process's first run of its program.  A
block derived after an IM word changed is a fault variant and never
compiles: it lives as long as its platform, and its compile would cost
more than the runs it would save.
"""

from __future__ import annotations

import threading

from repro.ecc.base import DecodeStatus
from repro.obs.profile import active_profiler
from repro.soc.cpu import (
    MEM_LOAD,
    MEM_STORE,
    Cpu,
    ExecutionLimitExceeded,
    StopReason,
    predecode,
    publish_tally,
)
from repro.soc.isa import IllegalInstruction, Opcode
from repro.soc.ports import BATCH_THRESHOLD, CodecPort, RawPort, poke_encoded

_MASK32 = 0xFFFFFFFF

#: IM-view marker for addresses whose stored word cannot be executed
#: from a clean view (non-CLEAN decode or illegal instruction): every
#: fetch of such an address takes the faithful slow path.
BLOCKED: tuple = ()

#: SP-view marker with the same meaning (plain values are >= 0).
_SP_BLOCKED = -1

# ----------------------------------------------------------------------
# Compiled blocks
# ----------------------------------------------------------------------
#: Template kinds: the value written to register ``a``; the SP address
#: of a load or store; a branch's taken condition; a jump's next pc
#: (its link ``pc + 1`` goes to register ``a``).
_SET, _LOAD, _STORE, _BRANCH, _JUMP = range(5)

#: Each compilable opcode's semantics for :func:`compile_block`, stated
#: once, as ``(kind, expression)``.  Fields: ``{a}``/``{b}``/``{c}``
#: read a register (a local, or ``0`` for r0), ``{sa}``/``{sb}``/``{sc}``
#: read it as a signed value; ``{imm}`` is the decoded immediate,
#: ``{imm32}`` its 32-bit pattern, ``{shift}`` its low five bits,
#: ``{lui}`` its LUI result and ``{target}`` the pc it names.
TEMPLATES = {
    Opcode.ADD: (_SET, "({b} + {c}) & 0xFFFFFFFF"),
    Opcode.SUB: (_SET, "({b} - {c}) & 0xFFFFFFFF"),
    Opcode.AND: (_SET, "{b} & {c}"),
    Opcode.OR: (_SET, "{b} | {c}"),
    Opcode.XOR: (_SET, "{b} ^ {c}"),
    Opcode.SLL: (_SET, "({b} << ({c} & 31)) & 0xFFFFFFFF"),
    Opcode.SRL: (_SET, "{b} >> ({c} & 31)"),
    Opcode.SRA: (_SET, "({sb} >> ({c} & 31)) & 0xFFFFFFFF"),
    Opcode.SLT: (_SET, "1 if {sb} < {sc} else 0"),
    Opcode.MUL: (_SET, "({b} * {c}) & 0xFFFFFFFF"),  # sign cancels mod 2**32
    Opcode.MULH: (_SET, "(({sb} * {sc}) >> 32) & 0xFFFFFFFF"),
    Opcode.ADDI: (_SET, "({b} + {imm}) & 0xFFFFFFFF"),
    Opcode.ANDI: (_SET, "{b} & {imm32}"),
    Opcode.ORI: (_SET, "{b} | {imm32}"),
    Opcode.XORI: (_SET, "{b} ^ {imm32}"),
    Opcode.SLLI: (_SET, "({b} << {shift}) & 0xFFFFFFFF"),
    Opcode.SRLI: (_SET, "{b} >> {shift}"),
    Opcode.SRAI: (_SET, "({sb} >> {shift}) & 0xFFFFFFFF"),
    Opcode.SLTI: (_SET, "1 if {sb} < {imm} else 0"),
    Opcode.LUI: (_SET, "{lui}"),
    Opcode.LW: (_LOAD, "({b} + {imm}) & 0xFFFFFFFF"),
    Opcode.SW: (_STORE, "({b} + {imm}) & 0xFFFFFFFF"),
    Opcode.BEQ: (_BRANCH, "{a} == {b}"),
    Opcode.BNE: (_BRANCH, "{a} != {b}"),
    Opcode.BLT: (_BRANCH, "{sa} < {sb}"),
    Opcode.BGE: (_BRANCH, "{sa} >= {sb}"),
    Opcode.JAL: (_JUMP, "{target}"),
    Opcode.JALR: (_JUMP, "({b} + {imm}) & 0xFFFFFFFF"),
}

#: A block returns its next pc, or ``EARLY_EXIT + k`` after committing
#: its first ``k`` instructions.  Next pcs lie in
#: ``[-2**21, 2**32 + IM size)`` (branch/JAL offsets are signed,
#: JALR targets 32-bit), far below this marker.
EARLY_EXIT = 1 << 40


def _signed(register: str) -> str:
    """A block expression reading ``register`` as a signed value."""
    return f"(({register} ^ 0x80000000) - 0x80000000)"


def compile_block(start: int, entries: tuple):
    """Generate the function that runs ``entries`` as one block.

    ``entries`` are the predecoded entries at ``start``, ``start + 1``,
    ...; only the last may be a branch or jump, and none is HALT or
    YIELD.  The function takes ``(regs, sp, sp_words, fill, dirty,
    state)`` — the register list, the SP view with its size and filler,
    the dirty-store set, and the ``CpuState`` a taken branch bumps.  It
    keeps the registers it uses in locals, writes back the ones it
    assigns however it returns, and returns its next pc, or
    :data:`EARLY_EXIT` ``+ k`` when the ``k``-th instruction's access
    has to take the slow path.
    """
    used: set = set()
    written: set = set()

    def register(number):
        if not number:
            return "0"
        used.add(number)
        return f"r{number}"

    body: list = []
    for index, entry in enumerate(entries):
        pc = start + index
        a, b, c, imm = entry[1], entry[2], entry[3], entry[4]
        kind, template = TEMPLATES[entry[6]]
        # A field the template ignores only costs an unused load.
        ra, rb, rc = register(a), register(b), register(c)
        expression = template.format(
            a=ra, b=rb, c=rc, sa=_signed(ra), sb=_signed(rb), sc=_signed(rc),
            imm=imm, imm32=imm & _MASK32, shift=imm & 31,
            lui=(imm << 12) & _MASK32, target=pc + imm,
        )
        early_exit = f"    return {EARLY_EXIT + index}"
        if kind == _SET:
            if a:
                body.append(f"{ra} = {expression}")
                written.add(a)
        elif kind == _LOAD:
            body += [f"t = {expression}", "if t >= sp_words:", early_exit,
                     "v = sp[t]", "if v is None:", "    v = fill(t)",
                     "if v < 0:", early_exit]
            if a:
                body.append(f"{ra} = v")
                written.add(a)
        elif kind == _STORE:
            body += [f"t = {expression}", "if t >= sp_words:", early_exit,
                     f"sp[t] = {ra}", "dirty.add(t)"]
        elif kind == _BRANCH:
            body += [
                f"if {expression}:",
                "    state.taken_branches += 1",
                "    state.cycles += 1",
                f"    return {pc + imm}",
                f"return {pc + 1}",
            ]
        else:  # _JUMP: the target reads its register before the link
            body.append(f"t = {expression}")
            if a:
                body.append(f"{ra} = {(pc + 1) & _MASK32}")
                written.add(a)
            body.append("return t")
    if kind not in (_BRANCH, _JUMP):  # cut short: fall through
        body.append(f"return {start + len(entries)}")
    # Every used register is loaded, so the write-back is exact at any
    # return: a register not yet assigned writes back its own value.
    lines = [f"r{r} = regs[{r}]" for r in sorted(used)]
    if written:
        lines += ["try:"] + ["    " + line for line in body] + ["finally:"]
        lines += [f"    regs[{r}] = r{r}" for r in sorted(written)]
    else:
        lines += body
    name = f"block_{start}"
    source = "\n".join(
        [f"def {name}(regs, sp, sp_words, fill, dirty, state):"]
        + ["    " + line for line in lines]
    )
    namespace: dict = {}
    exec(compile(source, f"<ntc32 block at pc {start}>", "exec"), namespace)
    return namespace[name]


class Block:
    """One straight-line run of predecoded entries starting at a leader.

    It ends at its first branch or jump (included), or before the first
    HALT, YIELD or :data:`BLOCKED` cell.  ``run`` is the compiled
    function (:func:`compile_block`), ``None`` until the block compiles;
    ``program`` says whether an engine derived it from an IM holding
    its program as loaded, and ``runs`` counts a program block's leader
    visits while uncompiled (see the module docstring).  ``n``,
    ``cycles``, ``loads`` and ``stores`` are what one complete run
    commits.
    """

    __slots__ = (
        "start", "entries", "n", "cycles", "loads", "stores", "run",
        "program", "runs",
    )

    def __init__(self, start: int, entries: tuple) -> None:
        self.start = start
        self.entries = entries
        self.n = len(entries)
        self.cycles, self.loads, self.stores = self.prefix(self.n)
        self.run = None
        self.program = False
        self.runs = 0

    def prefix(self, count: int) -> tuple:
        """``(cycles, loads, stores)`` of the first ``count`` entries."""
        done = self.entries[:count]
        return (
            sum(entry[5] for entry in done),
            sum(entry[7] == MEM_LOAD for entry in done),
            sum(entry[7] == MEM_STORE for entry in done),
        )


#: Leader cell that starts no block (HALT, YIELD or BLOCKED).
_NO_BLOCK = Block(-1, ())

#: The run of a program block that compiles it.  A compile costs about
#: 50-60 interpreted runs of the block (FFT-256's blocks average 31
#: instructions: 0.6-1.1 ms to compile against 12-16 us per
#: interpreted run on a 2-CPU x86_64 host).  Runs add up over the
#: whole process, so a block that runs once per program run (set-up
#: code) compiles only at the program's 32nd run, while a loop body
#: (FFT-256's run 63 to 1,792 times per FFT) compiles early in the
#: first.
COMPILE_AT_RUN = 32

#: Process-wide blocks, least recently derived first, keyed by
#: ``(start, entries)``.  Bounded: faults and fuzzing create variants
#: that are seen once.  The lock makes each lookup-insert-evict step
#: atomic across the server's job threads.  Run counts and compiles
#: happen outside it: a lost count only delays a compile, and two
#: threads may at worst compile the same block twice.
_BLOCK_CACHE: dict = {}
_BLOCK_CACHE_LIMIT = 512
_BLOCK_CACHE_LOCK = threading.Lock()


def cached_block(start: int, entries: tuple) -> Block:
    """The shared :class:`Block` for ``entries`` at ``start``.

    Looks the block up, creating (uncompiled) and inserting it when the
    cache lacks it; every engine holding the block runs its compiled
    function once any engine's visits have compiled it.
    """
    key = (start, entries)
    with _BLOCK_CACHE_LOCK:
        block = _BLOCK_CACHE.pop(key, None)
        if block is None:
            block = Block(start, entries)
            if len(_BLOCK_CACHE) >= _BLOCK_CACHE_LIMIT:
                del _BLOCK_CACHE[next(iter(_BLOCK_CACHE))]
        _BLOCK_CACHE[key] = block
    return block


def lane_capable(platform) -> bool:
    """Whether a platform's ports support the fast lane's clean views.

    Only the stock port types with a 32-bit data side qualify, so the
    plain-word views are faithful; any other port (custom
    instrumentation) observes per-access traffic that a burst would
    hide, and execution stays on the reference interpreter.
    """
    for port in (platform.im_port, platform.sp_port):
        if type(port) is RawPort:
            continue
        if type(port) is CodecPort and port.codec.data_bits == 32:
            continue
        return False
    return True


def write_back(memory, codec, addresses, values) -> None:
    """Encode a clean view's dirty words and poke them into ``memory``.

    :func:`~repro.soc.ports.poke_encoded` (counters and fault samples
    were already settled per executed store), recorded as one engine
    write-back for the profiler.
    """
    profiler = active_profiler()
    if profiler.enabled:
        profiler.record_writeback(
            len(addresses),
            codec is not None and len(addresses) >= BATCH_THRESHOLD,
        )
    poke_encoded(memory, codec, addresses, values)


def im_entry(memory, codec, address):
    """The predecoded entry of the stored IM word, if provably clean.

    Peeks the word, decodes it through ``codec`` (if any) and
    predecodes it; returns :data:`BLOCKED` when the word does not
    decode CLEAN or is not a legal instruction.
    """
    raw = memory.peek(address)
    if codec is not None:
        result = codec.decode(raw)
        if result.status is not DecodeStatus.CLEAN:
            return BLOCKED
        raw = result.data
    try:
        return predecode(raw)
    except IllegalInstruction:
        return BLOCKED


def slow_step(cpu, im, sp, profiler=None):
    """One faithful ``Cpu.step``, reporting the view cells it touched.

    Returns ``(reason, im_cell, sp_cell)``: the step's stop reason
    and, per memory, the address of the one word the step changed, or
    ``None`` when that memory's version did not move (see the module
    docstring for why one word and why the memory names it).  A view
    that was in sync before the step stays exact after resetting just
    those cells.  With a ``profiler``, the step is bracketed by
    instruction/cycle deltas for slow-path residency, recorded even
    when the step raises (``Cpu.step`` itself never profiles).
    """
    state = cpu.state
    im_version, sp_version = im.version, sp.version
    instructions, cycles = state.instructions, state.cycles
    try:
        reason = cpu.step()
    finally:
        if profiler is not None:
            profiler.record_slow_path(
                state.instructions - instructions, state.cycles - cycles
            )
    im_cell = im.mutated_address if im.version != im_version else None
    sp_cell = sp.mutated_address if sp.version != sp_version else None
    return reason, im_cell, sp_cell


class FastLaneEngine:
    """Clean-burst executor bound to one :class:`Platform`.

    The platform builds one whenever its ports are
    :func:`lane_capable` and no engine is bound.
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        self._cpu: Cpu = platform.cpu
        self._im = platform.im
        self._sp = platform.sp
        self._im_port = platform.im_port
        self._sp_port = platform.sp_port
        self._im_codec = platform.im_port.codec
        self._sp_codec = platform.sp_port.codec
        self._im_entries: list = [None] * self._im.words
        self._sp_values: list = [None] * self._sp.words
        # Per leader pc: its Block once derived; and the end of the IM
        # cells each derived block's extent depends on.
        self._blocks: list = [None] * self._im.words
        self._spans: dict = {}
        # Forced stale so the first burst syncs against the memories.
        self._im_version = -1
        self._sp_version = -1
        self._dirty: set = set()

    def matches(self, platform) -> bool:
        """Whether this engine still reflects the platform's wiring."""
        return (
            self._cpu is platform.cpu
            and self._im_port is platform.im_port
            and self._sp_port is platform.sp_port
        )

    # ------------------------------------------------------------------
    # Execution (drop-in for Cpu.run)
    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 50_000_000) -> StopReason:
        """Run until HALT/YIELD, alternating bursts and slow steps.

        Raises exactly what :meth:`Cpu.run` would: every blocked
        instruction replays through ``Cpu.step`` (:func:`slow_step`)
        with all accounting settled first, so exceptions carry
        identical messages and the platform sees identical counter/RNG
        state.  The views are in sync at every slow step (the burst
        just synced them), so afterwards only the cells the step
        touched are reset.  The pc a run starts at is a leader; the pc
        after a slow step is not.
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        state = self._cpu.state
        executed_limit = state.instructions + max_instructions
        profiler = active_profiler()
        if not profiler.enabled:
            profiler = None
        im, sp = self._im, self._sp
        leader = True
        while True:
            stop = self._burst(
                executed_limit, max_instructions, profiler, leader
            )
            if stop is not None:
                return stop
            leader = False
            # The burst could not (or could no longer) make progress:
            # one faithful reference step handles the blocking access.
            reason, im_cell, sp_cell = slow_step(self._cpu, im, sp, profiler)
            if im_cell is not None:
                self._reset_im_cell(im_cell)
                self._im_version = im.version
            if sp_cell is not None:
                self._sp_values[sp_cell] = None
                self._sp_version = sp.version
            if reason is not None:
                return reason
            if state.instructions >= executed_limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at "
                    f"pc={state.pc}"
                )

    # ------------------------------------------------------------------
    # Burst core
    # ------------------------------------------------------------------
    def _burst(self, executed_limit, max_instructions, profiler, leader):
        """Execute instructions against the clean views until blocked.

        Returns a :class:`StopReason` on HALT/YIELD, else ``None``
        (meaning: run one reference step next).  All accounting —
        fault-engine gap consumption, access counters, dirty stores —
        is settled before returning or raising, so every observer
        (slow path, controller code between YIELDs, result collection)
        sees the exact per-access state.  ``leader`` says whether the
        entry pc is a leader.  Each leader visit of an uncompiled
        program block counts one run, and the :data:`COMPILE_AT_RUN`-th
        compiles it.  At each leader whose compiled block the budgets
        cover, the block runs in place of the per-instruction loop.
        With a ``profiler``, committed instructions are tallied
        per pc in a local dict (block runs per start and length, expanded
        at the end) and published (with their opcodes) after settlement,
        together with the burst's length and its compiled share.
        """
        im, sp = self._im, self._sp
        if im.version != self._im_version:
            self._im_entries = [None] * im.words
            self._blocks = [None] * im.words
            self._spans = {}
            self._im_version = im.version
        if sp.version != self._sp_version:
            self._sp_values = [None] * sp.words
            self._dirty.clear()
            self._sp_version = sp.version
        state = self._cpu.state
        regs = state.registers
        im_entries = self._im_entries
        blocks = self._blocks
        im_codec = self._im_codec
        sp_values = self._sp_values
        im_words = im.words
        sp_words = sp.words
        im_faults = im.faults
        sp_faults = sp.faults
        sp_samples_writes = sp_faults is not None and sp.fault_on_write
        dirty = self._dirty
        fill = self._sp_fill
        unbounded = 1 << 62

        pc = state.pc
        if not 0 <= pc < im_words:
            return None  # the slow step raises the wild access
        # Safe to draw here: at least one fetch of `pc` follows, either
        # in this burst or in the slow step the caller runs next.
        if im_faults is not None:
            im_left = im_faults.clean_run_length()
        else:
            im_left = unbounded
        # The SP gap is only drawn when a data access is certain: by the
        # loop's first one, unless an earlier access already drew it.
        # Blocks with data accesses only run once it is drawn.
        if sp_faults is not None:
            sp_left = sp_faults.drawn_clean_run_length()
        else:
            sp_left = unbounded
        # Instruction/cycle tallies accumulate in locals and settle in
        # one shot at burst exit — the hot loop touches no dataclass
        # attributes beyond the PC handshake the shared handlers need.
        insns_left = executed_limit - state.instructions
        executed = 0
        cycles = 0
        sp_reads = 0
        sp_writes = 0
        stop = None
        tally = {} if profiler is not None else None
        block_runs = {} if profiler is not None else None

        while True:
            if leader:
                leader = False
                block = blocks[pc]
                if block is None:
                    block = self._block_at(pc)
                run = block.run
                if run is None and block.program:
                    block.runs += 1
                    if block.runs >= COMPILE_AT_RUN:
                        run = block.run = compile_block(pc, block.entries)
                if run is not None:
                    n = block.n
                    loads = block.loads
                    stores = block.stores
                    samples = loads + stores if sp_samples_writes else loads
                    if n <= im_left and n <= insns_left - executed and (
                        not samples
                        or (sp_left is not None and samples <= sp_left)
                    ):
                        next_pc = run(
                            regs, sp_values, sp_words, fill, dirty, state
                        )
                        if next_pc >= EARLY_EXIT:
                            # n instructions ran; the slow step takes the
                            # access at the next pc.
                            n = next_pc - EARLY_EXIT
                            block_cycles, loads, stores = block.prefix(n)
                            next_pc = pc + n
                        else:
                            block_cycles = block.cycles
                            im_left -= n
                            if samples:
                                sp_left -= samples
                            leader = True
                        executed += n
                        cycles += block_cycles
                        sp_reads += loads
                        sp_writes += stores
                        if block_runs is not None and n:
                            key = (pc, n)
                            block_runs[key] = block_runs.get(key, 0) + 1
                        pc = next_pc
                        if (
                            not leader
                            or executed >= insns_left
                            or not 0 <= pc < im_words
                        ):
                            break
                        continue
            entry = im_entries[pc]
            if entry is None:
                entry = im_entries[pc] = im_entry(im, im_codec, pc)
            if entry is BLOCKED or im_left < 1:
                break
            mem_kind = entry[7]
            if mem_kind == 0:
                im_left -= 1
                executed += 1
                cycles += entry[5]
                if tally is not None:
                    tally[pc] = tally.get(pc, 0) + 1
                op = entry[6]
                if op >= 62:  # HALT (0x3E) / YIELD (0x3F)
                    pc += 1
                    stop = (
                        StopReason.HALT if op == 62 else StopReason.YIELD
                    )
                    break
                state.pc = pc
                entry[0](None, state, entry)
                pc = state.pc
                if op >= 48:  # BEQ (0x30) .. JALR (0x35)
                    leader = True
            elif mem_kind == 1:  # LW
                address = (regs[entry[2]] + entry[4]) & _MASK32
                if address >= sp_words:
                    break
                value = sp_values[address]
                if value is None:
                    value = fill(address)
                if value < 0:
                    break
                if sp_left is None:
                    sp_left = sp_faults.clean_run_length()
                if sp_left < 1:
                    break
                sp_left -= 1
                sp_reads += 1
                im_left -= 1
                executed += 1
                cycles += entry[5]
                if tally is not None:
                    tally[pc] = tally.get(pc, 0) + 1
                a = entry[1]
                if a:
                    regs[a] = value
                pc += 1
            else:  # SW
                address = (regs[entry[2]] + entry[4]) & _MASK32
                if address >= sp_words:
                    break
                if sp_samples_writes:
                    if sp_left is None:
                        sp_left = sp_faults.clean_run_length()
                    if sp_left < 1:
                        break
                    sp_left -= 1
                sp_writes += 1
                im_left -= 1
                executed += 1
                cycles += entry[5]
                if tally is not None:
                    tally[pc] = tally.get(pc, 0) + 1
                sp_values[address] = regs[entry[1]]
                dirty.add(address)
                pc += 1
            if executed >= insns_left:
                break
            if not 0 <= pc < im_words:
                break

        state.pc = pc
        state.instructions += executed
        state.cycles += cycles
        self._settle(executed, sp_reads, sp_writes, sp_samples_writes)
        if tally is not None:
            compiled = 0
            for (start, length), count in block_runs.items():
                compiled += length * count
                for at in range(start, start + length):
                    tally[at] = tally.get(at, 0) + count
            profiler.record_burst(executed, cycles, compiled)
            # The view is fixed for the whole burst, so the entry it
            # holds at a tallied pc is the one every execution ran.
            publish_tally(
                profiler,
                {(at, im_entries[at][6]): n for at, n in tally.items()},
            )
        if stop is not None:
            return stop
        if executed >= insns_left:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions at "
                f"pc={state.pc}"
            )
        return None

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    def _block_at(self, start):
        """Derive the :class:`Block` that starts at leader ``start``.

        Walks the view from ``start``, filling cells as a fetch would
        (resolution peeks and decodes, which observes nothing), and
        records the end of the cells the block's extent depends on:
        through its closing branch or jump, or through the cell that
        cut it short.  While the IM holds its program as loaded, the
        shared block is marked a program block.
        """
        im_entries = self._im_entries
        words = self._im.words
        entries = []
        address = start
        end = words
        while address < words:
            entry = im_entries[address]
            if entry is None:
                entry = im_entries[address] = im_entry(
                    self._im, self._im_codec, address
                )
            if entry is BLOCKED or entry[6] >= 62:  # HALT / YIELD
                end = address + 1
                break
            entries.append(entry)
            address += 1
            if entry[6] >= 48:  # BEQ (0x30) .. JALR (0x35)
                end = address
                break
        if entries:
            block = cached_block(start, tuple(entries))
            if self._im.mutated_address is None:
                block.program = True
        else:
            block = _NO_BLOCK
        self._blocks[start] = block
        self._spans[start] = end
        return block

    def _reset_im_cell(self, address):
        """Re-derive the IM cell a slow step rewrote.

        An unchanged entry (an auto-scrub restoring the corrected word)
        keeps every block; a changed one drops the blocks whose extent
        covers the cell.  A cell never filled is left for its next
        fetch: no block covers it.
        """
        previous = self._im_entries[address]
        if previous is None:
            return
        entry = im_entry(self._im, self._im_codec, address)
        if entry == previous:
            return
        self._im_entries[address] = entry
        spans = self._spans
        for start in [s for s, end in spans.items() if s <= address < end]:
            del spans[start]
            self._blocks[start] = None

    # ------------------------------------------------------------------
    # View population
    # ------------------------------------------------------------------
    def _sp_fill(self, address):
        """Mirror the stored SP word if it is provably clean."""
        raw = self._sp.peek(address)
        codec = self._sp_codec
        if codec is None:
            value = raw
        else:
            result = codec.decode(raw)
            if result.status is not DecodeStatus.CLEAN:
                value = _SP_BLOCKED
            else:
                value = result.data
        self._sp_values[address] = value
        return value

    # ------------------------------------------------------------------
    # Accounting settlement
    # ------------------------------------------------------------------
    def _settle(self, im_used, sp_reads, sp_writes, sp_samples_writes):
        """Commit a burst's bulk accounting to the faithful state."""
        if im_used:
            if self._im.faults is not None:
                self._im.faults.consume_clean(im_used)
            self._im_port.account_clean_reads(im_used)
        sp_samples = sp_reads + (sp_writes if sp_samples_writes else 0)
        if sp_samples and self._sp.faults is not None:
            self._sp.faults.consume_clean(sp_samples)
        if sp_reads:
            self._sp_port.account_clean_reads(sp_reads)
        if sp_writes:
            self._sp_port.account_clean_writes(sp_writes)
            self._flush_dirty()
        if im_used or sp_reads or sp_writes:
            profiler = active_profiler()
            if profiler.enabled:
                profiler.record_settlement(sp_reads, sp_writes)

    def _flush_dirty(self):
        """Write back the burst's pending stores (see :func:`write_back`)."""
        dirty = self._dirty
        if not dirty:
            return
        sp = self._sp
        values = self._sp_values
        addresses = sorted(dirty)
        write_back(
            sp, self._sp_codec, addresses, [values[a] for a in addresses]
        )
        dirty.clear()
        # The pokes bumped the version; the view itself made them, so
        # its cached plain words are still exact — resync, don't drop.
        self._sp_version = sp.version
