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
  per-access path would have bumped (memory access counters, wrapper
  read/write stats).  Corrected/detected counters never move in a
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

Cache invalidation keys off :attr:`FaultyMemory.version`, which bumps
on every content mutation (stores, destructive read upsets, scrubs,
back-door pokes/loads/restores, DMA): a version mismatch at burst
entry drops the whole cached view, so external mutation — OCEAN
rollback traffic, ``force_next``, ``set_vdd``, self-modifying tests —
can never be observed stale.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import DecodeStatus
from repro.obs.profile import active_profiler
from repro.soc.cpu import (
    Cpu,
    ExecutionLimitExceeded,
    StopReason,
    predecode,
    publish_tally,
)
from repro.soc.isa import IllegalInstruction
from repro.soc.ports import CodecPort, RawPort

_MASK32 = 0xFFFFFFFF

#: IM-view marker for addresses whose stored word cannot be executed
#: from the fast lane (non-CLEAN decode or illegal instruction): every
#: fetch of such an address takes the faithful slow path.
_BLOCKED: tuple = ()

#: SP-view marker with the same meaning (plain values are >= 0).
_SP_BLOCKED = -1

#: Dirty-store write-back switches to the vectorized codec path above
#: this many distinct addresses.
_BATCH_FLUSH_THRESHOLD = 16


def lane_capable(platform) -> bool:
    """Whether a platform's ports support clean-view execution.

    The one applicability check of both clean-view engines — the fast
    lane and the lockstep :class:`~repro.soc.simd.LaneBlock`.  Only
    the stock port types with a 32-bit data side qualify, so the
    plain-word views are faithful; any wrapper (custom
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

    ``values`` holds the plain words of ``addresses`` (Python ints).
    Back-door pokes, because counters and fault samples were already
    settled per executed store; the encode is the same transform the
    per-access write path applies, vectorized for larger flushes.
    """
    count = len(addresses)
    batched = codec is not None and count >= _BATCH_FLUSH_THRESHOLD
    profiler = active_profiler()
    if profiler.enabled:
        profiler.record_writeback(count, batched)
    if batched:
        words = codec.encode_batch(np.array(values, dtype=np.uint64))
        values = words.tolist()
    elif codec is not None:
        values = [codec.encode(value) for value in values]
    for address, word in zip(addresses, values):
        memory.poke(address, word)


class FastLaneEngine:
    """Clean-burst executor bound to one :class:`Platform`.

    The platform builds one whenever its ports are
    :func:`lane_capable` and no other engine is bound.
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
        instruction replays through ``Cpu.step`` with all accounting
        settled first, so exceptions carry identical messages and the
        platform sees identical counter/RNG state.  With a live
        profiler, each slow step is bracketed by instruction/cycle
        deltas (``Cpu.step`` itself never profiles, so nothing is
        double-counted).
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        state = self._cpu.state
        executed_limit = state.instructions + max_instructions
        profiler = active_profiler()
        if not profiler.enabled:
            profiler = None
        while True:
            stop = self._burst(executed_limit, max_instructions, profiler)
            if stop is not None:
                return stop
            # The burst could not (or could no longer) make progress:
            # one faithful reference step handles the blocking access.
            before_instructions = state.instructions
            before_cycles = state.cycles
            try:
                reason = self._cpu.step()
            finally:
                if profiler is not None:
                    profiler.record_slow_path(
                        state.instructions - before_instructions,
                        state.cycles - before_cycles,
                    )
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
    def _burst(self, executed_limit, max_instructions, profiler):
        """Execute instructions against the clean views until blocked.

        Returns a :class:`StopReason` on HALT/YIELD, else ``None``
        (meaning: run one reference step next).  All accounting —
        fault-engine gap consumption, access counters, dirty stores —
        is settled before returning or raising, so every observer
        (slow path, controller code between YIELDs, result collection)
        sees the exact per-access state.  With a ``profiler``, committed
        instructions are tallied per pc in a local dict and published
        (with their opcodes) after settlement, together with the burst's
        length.
        """
        im, sp = self._im, self._sp
        if im.version != self._im_version:
            self._im_entries = [None] * im.words
            self._im_version = im.version
        if sp.version != self._sp_version:
            self._sp_values = [None] * sp.words
            self._dirty.clear()
            self._sp_version = sp.version
        state = self._cpu.state
        regs = state.registers
        im_entries = self._im_entries
        sp_values = self._sp_values
        im_words = im.words
        sp_words = sp.words
        im_faults = im.faults
        sp_faults = sp.faults
        sp_samples_writes = sp_faults is not None and sp.fault_on_write
        dirty = self._dirty
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
        sp_left = None  # drawn lazily at the first data access
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

        while True:
            entry = im_entries[pc]
            if entry is None:
                entry = self._im_fill(pc)
            if entry is _BLOCKED or im_left < 1:
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
            elif mem_kind == 1:  # LW
                address = (regs[entry[2]] + entry[4]) & _MASK32
                if address >= sp_words:
                    break
                value = sp_values[address]
                if value is None:
                    value = self._sp_fill(address)
                if value < 0:
                    break
                if sp_left is None:
                    if sp_faults is not None:
                        sp_left = sp_faults.clean_run_length()
                    else:
                        sp_left = unbounded
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
            profiler.record_burst(executed, cycles)
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
    # View population
    # ------------------------------------------------------------------
    def _im_fill(self, address):
        """Predecode the stored IM word if it is provably clean."""
        raw = self._im.peek(address)
        codec = self._im_codec
        if codec is not None:
            result = codec.decode(raw)
            if result.status is not DecodeStatus.CLEAN:
                self._im_entries[address] = _BLOCKED
                return _BLOCKED
            raw = result.data
        try:
            entry = predecode(raw)
        except IllegalInstruction:
            entry = _BLOCKED
        self._im_entries[address] = entry
        return entry

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
