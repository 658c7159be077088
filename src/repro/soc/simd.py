"""Lockstep SIMD execution: N fault scenarios of one binary at once.

Monte-Carlo campaigns run the *same* program thousands of times,
differing only in the fault draws.  A :class:`LaneBlock` exploits that
shape: N platforms ("lanes") execute in lockstep as structure-of-arrays
numpy state — registers as an ``(N, 16)`` array, per-lane plain-word
scratchpad views as ``(N, words)`` arrays, and a shared predecoded
instruction stream — with one vectorized commit per opcode instead of N
interpreter steps.  Lanes diverge only at taken branches and faulted
accesses; min-PC scheduling keeps the common path fused and lets
stragglers catch up until the group reconverges.

Bit-exactness contract (checked by the differential fuzzer in
``tests/test_soc_simd.py``): every lane must be bit-identical —
registers, memories, fault counters, RNG stream positions — to an
independent scalar run of the same platform.  The block inherits the
fast lane's machinery for this (see :mod:`repro.soc.fastlane`):

* **RNG streams.**  Each lane consumes only its own fault models'
  generators.  Gap budgets are read via ``clean_run_length()`` exactly
  when a fetch/access is about to occur and settled in bulk via
  ``consume_clean``; anything that would sample a mask is delegated to
  a faithful per-lane ``Cpu.step`` against the real ports.  This module
  deliberately never constructs a Generator of its own (rule REP102).
* **Counters.**  Vector-committed accesses settle through the ports'
  ``account_clean_*`` hooks; corrected/detected counters never move in
  lockstep because only provably-CLEAN words are executed vectorized.
* **Faithful slow path.**  A lane whose next instruction cannot be
  proven clean (budget exhausted, non-CLEAN word, out-of-range address,
  illegal instruction) is settled and single-stepped through
  ``Cpu.step``, reproducing stats, scrubbing, telemetry and exceptions
  exactly; it rejoins the vector group at the next opportunity.
* **Stores.**  Vector stores land in the per-lane view rows and are
  encoded (batched across addresses) and written back before anything
  can observe the lane's memory.
* **Invalidation.**  The fast lane's two rules, per lane: a slow step
  resets only the view cells it touched (the fetched IM word, clearing
  the lane's straight-line run memo with it, and the one SP word its
  LW/SW or scrub touched), via the shared
  :func:`~repro.soc.fastlane.slow_step`; any other mutation of a lane's
  memories (controller traffic between services) drops that lane's
  whole view.  The IM view is filled by the shared
  :func:`~repro.soc.fastlane.im_entry`.

Lane-facing ECC work is vectorized across lanes as well: scratchpad
view fills gather each lane's raw word and decode them through one
``decode_batch`` call (``record=False`` — the scalar path these fills
mirror publishes no metrics).

Each member platform is attached via :meth:`Platform.bind_engine`, so
``run_until_stop`` — and every mitigation controller built on it —
transparently executes through the block.  A lane's
``run_until_stop`` call *demands* that lane; servicing advances every
demanded lane until each has produced its own stop/raise event, never
past it.  :func:`run_lane_block` is the one lockstep driver: it demands
every pending lane up front, so the whole block advances together, and
resumes each lane's own scheme controller
(:meth:`~repro.mitigation.base.SchemeRunner.control`) between
services — schemes carry no lockstep copy of their controllers.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import STATUS_CLEAN
from repro.obs import active_metrics, names
from repro.obs.profile import active_profiler, pow2_bucket, ratio_bucket
from repro.soc.cpu import (
    ExecutionLimitExceeded,
    StopReason,
    predecode,
    publish_tally,
)
from repro.soc.fastlane import (
    BLOCKED,
    im_entry,
    lane_capable,
    slow_step,
    write_back,
)
from repro.soc.isa import NUM_REGISTERS, IllegalInstruction
from repro.soc.memory import MemoryAccessFault
from repro.soc.platform import DetectedError

_MASK32 = 0xFFFFFFFF
_U64 = np.uint64
_I64 = np.int64
_M32 = _U64(0xFFFFFFFF)
_M32_I = _I64(0xFFFFFFFF)
_SIGN32 = _I64(0x80000000)
_TWO32 = _I64(0x100000000)

#: Fault budget not yet read from the lane's fault model.
_UNDRAWN = -1

#: Budget stand-in when a memory has no fault model at all.
_UNBOUNDED = 1 << 62

#: Scratchpad view cell states.
_SP_UNKNOWN, _SP_VALID, _SP_BLOCKED = 0, 1, 2

#: Exceptions a faithful slow step may raise; buffered as the lane's
#: event and re-raised from that lane's ``run_until_stop``.
_STEP_ERRORS = (DetectedError, IllegalInstruction, MemoryAccessFault)


def _signed(values: np.ndarray) -> np.ndarray:
    """Reinterpret 32-bit patterns (in uint64 lanes) as two's complement."""
    as_int = values.astype(_I64)
    return np.where(as_int >= _SIGN32, as_int - _TWO32, as_int)


class LaneBlock:
    """N platforms executing one binary in lockstep.

    Parameters
    ----------
    platforms:
        Lane members.  All must be lane-capable, share memory
        geometries and use the same port/codec configuration (fault
        models and RNG streams stay strictly per-lane).
    """

    def __init__(self, platforms, program_words=None) -> None:
        if not platforms:
            raise ValueError("a lane block needs at least one platform")
        first = platforms[0]
        for platform in platforms:
            if not lane_capable(platform):
                raise ValueError(
                    "platform ports are not lane-capable; run it on the "
                    "scalar engine instead"
                )
            if (
                platform.im.words != first.im.words
                or platform.sp.words != first.sp.words
            ):
                raise ValueError("lane memory geometries differ")
            for mine, ref in (
                (platform.im_port, first.im_port),
                (platform.sp_port, first.sp_port),
            ):
                if type(mine) is not type(ref):
                    raise ValueError("lane port types differ")
                if mine.codec is not None and (
                    type(mine.codec) is not type(ref.codec)
                    or mine.codec.code_bits != ref.codec.code_bits
                ):
                    raise ValueError("lane codec configurations differ")
        n = len(platforms)
        self._platforms = list(platforms)
        self._im_words = first.im.words
        self._sp_words = first.sp.words
        # Codecs are stateless pure functions of their construction
        # parameters (validated identical above), so one instance can
        # decode gathered words from every lane.
        self._im_codec = first.im_port.codec
        self._sp_codec = first.sp_port.codec
        self._im_mems = [p.im for p in platforms]
        self._sp_mems = [p.sp for p in platforms]
        self._im_ports = [p.im_port for p in platforms]
        self._sp_ports = [p.sp_port for p in platforms]
        self._im_faults = [p.im.faults for p in platforms]
        self._sp_faults = [p.sp.faults for p in platforms]
        self._sp_samples_writes = [
            p.sp.faults is not None and p.sp.fault_on_write
            for p in platforms
        ]
        if len(set(self._sp_samples_writes)) > 1:
            raise ValueError(
                "lanes disagree on write fault sampling; build the "
                "block from identically configured platforms"
            )
        # Structure-of-arrays architectural state.
        self._regs = np.zeros((n, NUM_REGISTERS), dtype=_U64)
        self._pc = np.zeros(n, dtype=_I64)
        self._cycles = np.zeros(n, dtype=_I64)
        self._instructions = np.zeros(n, dtype=_I64)
        self._taken = np.zeros(n, dtype=_I64)
        # Per-lane accounting pending since the last settle.
        self._settled_instructions = np.zeros(n, dtype=_I64)
        self._sp_reads = np.zeros(n, dtype=_I64)
        self._sp_writes = np.zeros(n, dtype=_I64)
        self._im_left = np.full(n, _UNDRAWN, dtype=_I64)
        self._sp_left = np.full(n, _UNDRAWN, dtype=_I64)
        # Clean views: shared-by-value IM predecode entries per lane,
        # plain-word scratchpad rows, and dirty-store masks.
        self._im_entries = [[None] * self._im_words for _ in range(n)]
        self._im_version = [-1] * n
        self._sp_view = np.zeros((n, self._sp_words), dtype=_U64)
        self._sp_state = np.zeros((n, self._sp_words), dtype=np.uint8)
        self._sp_dirty = np.zeros((n, self._sp_words), dtype=bool)
        self._sp_version = [-1] * n
        # Per-lane memo of verified straight-line run lengths for the
        # current IM row version (-1 = not computed yet).
        self._im_runs = [[-1] * self._im_words for _ in range(n)]
        # Demand/event machinery.
        self._events: list = [None] * n
        self._events_dirty = False
        self._demanded: set = set()
        self._limit_abs = np.zeros(n, dtype=_I64)
        self._max_arg = [0] * n
        # Optional clean-program reference enabling multi-instruction
        # batched commits of converged ALU runs (see ``_batch_run``).
        self._clean_entries = None
        self._alu_run = None
        if program_words is not None:
            self._set_program(program_words)
        for lane, platform in enumerate(platforms):
            platform.bind_engine(self._make_run(lane))
        metrics = active_metrics()
        metrics.counter(names.SIMD_BLOCKS).inc()
        metrics.counter(names.SIMD_LANES).inc(n)

    def __len__(self) -> int:
        return len(self._platforms)

    @property
    def platforms(self):
        return list(self._platforms)

    def close(self) -> None:
        """Detach the block; platforms revert to their own engines."""
        for platform in self._platforms:
            platform.bind_engine(None)

    def _set_program(self, words) -> None:
        """Precompute the clean-program ALU-run reference.

        ``_clean_entries[pc]`` is the predecoded entry of the pristine
        program word at ``pc`` (``None`` for illegal words or past the
        program end) and ``_alu_run[pc]`` the length of the maximal
        straight-line run of register-only entries starting there.  A
        lane cell that resolves to the *same object* is provably an
        uncorrupted fetch, which is what licenses multi-instruction
        batched commits.
        """
        full: list = [None] * self._im_words
        for address, word in enumerate(words[: self._im_words]):
            try:
                full[address] = predecode(word & _MASK32)
            except IllegalInstruction:
                full[address] = None
        runs = [0] * (self._im_words + 1)
        for address in range(self._im_words - 1, -1, -1):
            entry = full[address]
            if entry is not None and entry[6] < 32:
                runs[address] = runs[address + 1] + 1
        self._clean_entries = full
        self._alu_run = runs

    # ------------------------------------------------------------------
    # Demand / event plumbing
    # ------------------------------------------------------------------
    def _make_run(self, lane: int):
        def run(max_instructions: int = 50_000_000) -> StopReason:
            return self._run_lane(lane, max_instructions)

        return run

    def demand(self, lanes, max_instructions: int = 50_000_000) -> None:
        """Mark lanes as runnable so the next service advances them all.

        A breadth-first controller demands every pending lane before
        running the first one; otherwise the first ``run_until_stop``
        would execute its lane alone.  The instruction limit is fixed
        at demand time (the lane is quiescent then, exactly like the
        scalar engine at its ``run`` call).
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        for lane in lanes:
            if self._events[lane] is None and lane not in self._demanded:
                self._demanded.add(lane)
                state = self._platforms[lane].cpu.state
                self._limit_abs[lane] = (
                    state.instructions + max_instructions
                )
                self._max_arg[lane] = max_instructions

    def _run_lane(self, lane: int, max_instructions: int) -> StopReason:
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        if self._events[lane] is None:
            self.demand((lane,), max_instructions)
            self._service()
        kind, payload = self._events[lane]
        self._events[lane] = None
        self._demanded.discard(lane)
        if kind == "stop":
            return payload
        raise payload

    # ------------------------------------------------------------------
    # Service loop: min-PC lockstep scheduling
    # ------------------------------------------------------------------
    def _service(self) -> None:
        """Advance every demanded lane to its next stop/raise event.

        No lane ever runs past its own event — the controller must
        observe it (and may mutate the lane) before the lane continues,
        which is what keeps per-lane RNG and counter sequences
        positionally identical to scalar runs.
        """
        events = self._events
        demanded = self._demanded
        pc = self._pc
        for lane in sorted(demanded):
            if events[lane] is None:
                self._sync_in(lane)
        vector_committed = 0
        slow_steps = 0
        # Profiler telemetry accumulates in plain locals and publishes
        # once per service; lane scheduling and RNG/counter effects are
        # untouched whether profiling is on or off.
        profiler = active_profiler()
        profiling = profiler.enabled
        prof_rounds = 0
        prof_fast_cycles = 0
        prof_occupancy: dict = {}
        prof_density: dict = {}
        prof_divergence: dict = {}
        prof_depth: dict = {}
        prof_tally: dict = {}
        # ``active`` (and its index-array mirror) is maintained in
        # ascending lane order across rounds and only re-filtered when
        # a round produced events — the scheduler's per-round work is
        # otherwise a couple of vector reads, not per-lane numpy
        # scalar indexing.
        active = sorted(
            lane for lane in demanded if events[lane] is None
        )
        active_arr = np.array(active, dtype=np.intp)
        while active:
            pcs = pc[active_arr]
            pcmin = int(pcs.min())
            if int(pcs[-1]) == pcmin and int(pcs.max()) == pcmin:
                group = active
            else:
                sel = np.nonzero(pcs == pcmin)[0]
                group = [active[i] for i in sel.tolist()]
            if profiling:
                prof_rounds += 1
                occupancy = len(group)
                key = pow2_bucket(occupancy)
                prof_occupancy[key] = prof_occupancy.get(key, 0) + 1
                key = ratio_bucket(occupancy, len(active))
                prof_density[key] = prof_density.get(key, 0) + 1
                if occupancy == len(active):
                    distinct, depth = 1, 0
                else:
                    distinct = int(np.unique(pcs).size)
                    depth = int(pcs.max()) - pcmin
                key = pow2_bucket(distinct)
                prof_divergence[key] = prof_divergence.get(key, 0) + 1
                key = pow2_bucket(depth)
                prof_depth[key] = prof_depth.get(key, 0) + 1
            slow: list = []
            by_entry: dict = {}
            if not 0 <= pcmin < self._im_words:
                slow = group
            else:
                im_left = self._im_left
                im_entries = self._im_entries
                lefts = im_left[
                    np.array(group, dtype=np.intp)
                ].tolist()
                for i, lane in enumerate(group):
                    entry = im_entries[lane][pcmin]
                    if entry is None:
                        entry = im_entries[lane][pcmin] = im_entry(
                            self._im_mems[lane], self._im_codec, pcmin
                        )
                    if entry is BLOCKED:
                        slow.append(lane)
                        continue
                    # A fetch of pcmin definitely follows (vectorized
                    # or via the slow step), so the gap draw is legal.
                    left = lefts[i]
                    if left == _UNDRAWN:
                        faults = self._im_faults[lane]
                        left = (
                            faults.clean_run_length()
                            if faults is not None
                            else _UNBOUNDED
                        )
                        im_left[lane] = left
                    if left < 1:
                        slow.append(lane)
                        continue
                    by_entry.setdefault(id(entry), (entry, []))[1].append(
                        lane
                    )
            if (
                self._clean_entries is not None
                and not slow
                and len(by_entry) == 1
            ):
                entry, lanes = next(iter(by_entry.values()))
                if (
                    entry[6] < 32
                    and entry is self._clean_entries[pcmin]
                ):
                    batched = self._batch_run(pcmin, lanes, pcs)
                    if batched:
                        vector_committed += batched * len(lanes)
                        if profiling:
                            clean = self._clean_entries
                            width = len(lanes)
                            for address in range(pcmin, pcmin + batched):
                                run_entry = clean[address]
                                prof_fast_cycles += run_entry[5] * width
                                key = (address, run_entry[6])
                                prof_tally[key] = prof_tally.get(key, 0) + width
                        by_entry = {}
            for entry, lanes in by_entry.values():
                committed = self._commit(entry, pcmin, lanes, slow)
                vector_committed += committed
                if profiling and committed:
                    prof_fast_cycles += entry[5] * committed
                    key = (pcmin, entry[6])
                    prof_tally[key] = prof_tally.get(key, 0) + committed
            for lane in slow:
                self._slow_step(lane, profiler if profiling else None)
                slow_steps += 1
            if self._events_dirty:
                self._events_dirty = False
                active = [
                    lane for lane in active if events[lane] is None
                ]
                active_arr = np.array(active, dtype=np.intp)
        metrics = active_metrics()
        if metrics.enabled:
            metrics.counter(names.SIMD_SERVICES).inc()
            metrics.counter(names.SIMD_VECTOR_INSTRUCTIONS).inc(
                vector_committed
            )
            metrics.counter(names.SIMD_SLOW_STEPS).inc(slow_steps)
        if profiling:
            profiler.record_simd_service(
                prof_rounds,
                vector_committed,
                prof_occupancy,
                prof_density,
                prof_divergence,
                prof_depth,
                vector_cycles=prof_fast_cycles,
            )
            publish_tally(profiler, prof_tally)

    # ------------------------------------------------------------------
    # Vectorized commit of one shared entry across a lane group
    # ------------------------------------------------------------------
    def _commit(self, entry, pcmin, lanes, slow) -> int:
        """Execute ``entry`` for every lane in ``lanes`` at ``pcmin``.

        Lanes whose data access cannot be proven clean are moved to
        ``slow`` uncommitted.  Returns the number of lane-instructions
        committed vectorized.
        """
        regs = self._regs
        pc = self._pc
        op = entry[6]
        mem_kind = entry[7]
        a = entry[1]
        imm = entry[4]
        if mem_kind == 1:  # LW
            lanes = self._peel_load(entry, lanes, slow)
            if not lanes:
                return 0
        elif mem_kind == 2:  # SW
            lanes = self._peel_store(entry, lanes, slow)
            if not lanes:
                return 0
        idx = np.array(lanes, dtype=np.intp)
        if op < 32 and op != 24:  # register-writing ALU ops
            if a:
                regs[idx, a] = self._alu(entry, idx)
            pc[idx] = pcmin + 1
        elif op == 24:  # LUI
            if a:
                regs[idx, a] = _U64((imm << 12) & _MASK32)
            pc[idx] = pcmin + 1
        elif op == 32:  # LW (addresses pre-validated by the peel)
            address = (
                (regs[idx, entry[2]] + _U64(imm & _MASK32)) & _M32
            ).astype(np.intp)
            values = self._sp_view[idx, address]
            if a:
                regs[idx, a] = values
            self._sp_left[idx] -= 1
            self._sp_reads[idx] += 1
            pc[idx] = pcmin + 1
        elif op == 33:  # SW
            address = (
                (regs[idx, entry[2]] + _U64(imm & _MASK32)) & _M32
            ).astype(np.intp)
            self._sp_view[idx, address] = regs[idx, a]
            self._sp_state[idx, address] = _SP_VALID
            self._sp_dirty[idx, address] = True
            if self._sp_samples_writes[lanes[0]]:
                self._sp_left[idx] -= 1
            self._sp_writes[idx] += 1
            pc[idx] = pcmin + 1
        elif 48 <= op <= 51:  # BEQ/BNE/BLT/BGE
            lhs = regs[idx, a]
            rhs = regs[idx, entry[2]]
            if op == 48:
                cond = lhs == rhs
            elif op == 49:
                cond = lhs != rhs
            elif op == 50:
                cond = _signed(lhs) < _signed(rhs)
            else:
                cond = _signed(lhs) >= _signed(rhs)
            bubble = cond.astype(_I64)
            self._taken[idx] += bubble
            self._cycles[idx] += bubble  # taken-branch pipeline bubble
            pc[idx] = np.where(cond, pcmin + imm, pcmin + 1)
        elif op == 52:  # JAL
            if a:
                regs[idx, a] = _U64((pcmin + 1) & _MASK32)
            pc[idx] = pcmin + imm
        elif op == 53:  # JALR (target captured before the link write)
            target = (
                (regs[idx, entry[2]] + _U64(imm & _MASK32)) & _M32
            ).astype(_I64)
            if a:
                regs[idx, a] = _U64((pcmin + 1) & _MASK32)
            pc[idx] = target
        else:  # HALT (62) / YIELD (63)
            pc[idx] = pcmin + 1
            self._instructions[idx] += 1
            self._cycles[idx] += entry[5]
            self._im_left[idx] -= 1
            reason = StopReason.HALT if op == 62 else StopReason.YIELD
            self._events_dirty = True
            for lane in lanes:
                self._settle(lane)
                self._events[lane] = ("stop", reason)
            return len(lanes)
        self._instructions[idx] += 1
        self._cycles[idx] += entry[5]
        self._im_left[idx] -= 1
        over = idx[self._instructions[idx] >= self._limit_abs[idx]]
        for lane in over.tolist():
            self._settle(lane)
            self._events_dirty = True
            self._events[lane] = (
                "raise",
                ExecutionLimitExceeded(
                    f"exceeded {self._max_arg[lane]} instructions at "
                    f"pc={int(pc[lane])}"
                ),
            )
        return len(lanes)

    def _batch_run(self, pcmin, lanes, pcs) -> int:
        """Commit a verified straight-line ALU run in one pass.

        Only entered when every lane of the (single) group resolved the
        clean program entry at ``pcmin`` and that entry is a pure
        register op.  Register ops cannot fault, trap or stop, so once
        the run is entered every instruction in it executes — the only
        per-instruction obligations are the register writes themselves,
        which lets the scheduler amortise its per-round Python overhead
        over the whole run.  Returns the number of instructions
        committed (0 = batch not worthwhile; fall back to the normal
        single-instruction commit).
        """
        cap = self._alu_run[pcmin]
        higher = pcs[pcs != pcmin]
        if higher.size:
            # Never run past another active lane's pc: min-pc
            # reconvergence would otherwise degrade into divergence.
            cap = min(cap, int(higher.min()) - pcmin)
        if cap < 2:
            return 0
        arr = np.array(lanes, dtype=np.intp)
        cap = min(cap, int(self._im_left[arr].min()))
        cap = min(
            cap,
            int((self._limit_abs[arr] - self._instructions[arr]).min()),
        )
        if cap < 2:
            return 0
        for lane in lanes:
            run = self._lane_run(lane, pcmin)
            if run < cap:
                cap = run
                if cap < 2:
                    return 0
        clean = self._clean_entries
        regs = self._regs
        total_cycles = 0
        for address in range(pcmin, pcmin + cap):
            entry = clean[address]
            a = entry[1]
            if a:
                if entry[6] == 24:  # LUI
                    regs[arr, a] = _U64((entry[4] << 12) & _MASK32)
                else:
                    regs[arr, a] = self._alu(entry, arr)
            total_cycles += entry[5]
        self._pc[arr] = pcmin + cap
        self._instructions[arr] += cap
        self._cycles[arr] += total_cycles
        self._im_left[arr] -= cap
        over = arr[self._instructions[arr] >= self._limit_abs[arr]]
        for lane in over.tolist():
            self._settle(lane)
            self._events_dirty = True
            self._events[lane] = (
                "raise",
                ExecutionLimitExceeded(
                    f"exceeded {self._max_arg[lane]} instructions at "
                    f"pc={int(self._pc[lane])}"
                ),
            )
        return cap

    def _lane_run(self, lane, pcmin) -> int:
        """Length of the lane's verified clean ALU run from ``pcmin``.

        Memoised per IM row version; resolving cells ahead of the pc is
        safe because a straight-line register run, once entered, always
        fetches all of them, and resolution itself (peek + decode) has
        no observable side effects.
        """
        runs = self._im_runs[lane]
        cached = runs[pcmin]
        if cached >= 0:
            return cached
        clean = self._clean_entries
        row = self._im_entries[lane]
        address = pcmin + 1
        end = pcmin + self._alu_run[pcmin]
        while address < end:
            cell = row[address]
            if cell is None:
                cell = row[address] = im_entry(
                    self._im_mems[lane], self._im_codec, address
                )
            if cell is not clean[address]:
                break
            address += 1
        run = address - pcmin
        runs[pcmin] = run
        return run

    def _alu(self, entry, idx) -> np.ndarray:
        """Vectorized register-writing ALU ops (opcodes 1..23)."""
        regs = self._regs
        op = entry[6]
        imm = entry[4]
        rb = regs[idx, entry[2]]
        if op == 1:
            return (rb + regs[idx, entry[3]]) & _M32
        if op == 2:
            return (rb - regs[idx, entry[3]]) & _M32
        if op == 3:
            return rb & regs[idx, entry[3]]
        if op == 4:
            return rb | regs[idx, entry[3]]
        if op == 5:
            return rb ^ regs[idx, entry[3]]
        if op == 6:
            return (rb << (regs[idx, entry[3]] & _U64(31))) & _M32
        if op == 7:
            return rb >> (regs[idx, entry[3]] & _U64(31))
        if op == 8:
            shift = (regs[idx, entry[3]] & _U64(31)).astype(_I64)
            return ((_signed(rb) >> shift) & _M32_I).astype(_U64)
        if op == 9:
            return (
                _signed(rb) < _signed(regs[idx, entry[3]])
            ).astype(_U64)
        if op == 10:
            product = _signed(rb) * _signed(regs[idx, entry[3]])
            return (product & _M32_I).astype(_U64)
        if op == 11:
            product = _signed(rb) * _signed(regs[idx, entry[3]])
            return ((product >> _I64(32)) & _M32_I).astype(_U64)
        if op == 16:
            return (rb + _U64(imm & _MASK32)) & _M32
        if op == 17:
            return rb & _U64(imm & _MASK32)
        if op == 18:
            return rb | _U64(imm & _MASK32)
        if op == 19:
            return rb ^ _U64(imm & _MASK32)
        if op == 20:
            return (rb << _U64(imm & 31)) & _M32
        if op == 21:
            return rb >> _U64(imm & 31)
        if op == 22:
            return ((_signed(rb) >> _I64(imm & 31)) & _M32_I).astype(_U64)
        if op == 23:
            return (_signed(rb) < imm).astype(_U64)
        raise AssertionError(f"unexpected ALU opcode {op}")

    # ------------------------------------------------------------------
    # Data-access peeling: prove each lane's access clean or slow-step
    # ------------------------------------------------------------------
    def _peel_load(self, entry, lanes, slow):
        """Return the lanes whose LW is provably clean; peel the rest.

        Mirrors the fast lane's decision order exactly: address range
        check, then view-cell fill/blocked check, then the (lazy) SP
        gap draw and budget check — wild and blocked accesses never
        draw prematurely.
        """
        idx = np.array(lanes, dtype=np.intp)
        address = (
            (self._regs[idx, entry[2]] + _U64(entry[4] & _MASK32)) & _M32
        )
        in_range = address < self._sp_words
        if not in_range.all():
            slow.extend(idx[~in_range].tolist())
            idx = idx[in_range]
            if not idx.size:
                return []
            address = address[in_range]
        address = address.astype(np.intp)
        cell = self._sp_state[idx, address]
        unknown = cell == _SP_UNKNOWN
        if unknown.any():
            self._fill_sp(idx[unknown], address[unknown])
            cell = self._sp_state[idx, address]
        ok = cell == _SP_VALID
        if not ok.all():
            slow.extend(idx[~ok].tolist())
            idx = idx[ok]
            if not idx.size:
                return []
        kept = []
        sp_left = self._sp_left
        for lane in idx.tolist():
            if sp_left[lane] == _UNDRAWN:
                faults = self._sp_faults[lane]
                sp_left[lane] = (
                    faults.clean_run_length()
                    if faults is not None
                    else _UNBOUNDED
                )
            if sp_left[lane] < 1:
                slow.append(lane)
            else:
                kept.append(lane)
        return kept

    def _peel_store(self, entry, lanes, slow):
        """Return the lanes whose SW is provably clean; peel the rest."""
        idx = np.array(lanes, dtype=np.intp)
        address = (
            (self._regs[idx, entry[2]] + _U64(entry[4] & _MASK32)) & _M32
        )
        in_range = address < self._sp_words
        if not in_range.all():
            slow.extend(idx[~in_range].tolist())
            idx = idx[in_range]
            if not idx.size:
                return []
        kept = []
        sp_left = self._sp_left
        for lane in idx.tolist():
            if self._sp_samples_writes[lane]:
                if sp_left[lane] == _UNDRAWN:
                    sp_left[lane] = self._sp_faults[
                        lane
                    ].clean_run_length()
                if sp_left[lane] < 1:
                    slow.append(lane)
                    continue
            kept.append(lane)
        return kept

    # ------------------------------------------------------------------
    # View population
    # ------------------------------------------------------------------
    def _fill_sp(self, idx, address) -> None:
        """Fill unknown SP view cells, decoding all lanes in one batch."""
        raws = np.fromiter(
            (
                self._sp_mems[lane].peek(cell)
                for lane, cell in zip(idx.tolist(), address.tolist())
            ),
            dtype=_U64,
            count=idx.size,
        )
        codec = self._sp_codec
        if codec is None:
            self._sp_view[idx, address] = raws
            self._sp_state[idx, address] = _SP_VALID
            return
        batch = codec.decode_batch(raws, record=False)
        clean = batch.status == STATUS_CLEAN
        self._sp_view[idx[clean], address[clean]] = batch.data[clean]
        self._sp_state[idx[clean], address[clean]] = _SP_VALID
        self._sp_state[idx[~clean], address[~clean]] = _SP_BLOCKED

    # ------------------------------------------------------------------
    # Per-lane faithful slow step
    # ------------------------------------------------------------------
    def _slow_step(self, lane, profiler=None) -> None:
        """Settle the lane and replay one instruction via ``Cpu.step``.

        The lane's views are in sync before the step (settling flushed
        its stores), so afterwards only the cells the step touched are
        reset (see :func:`~repro.soc.fastlane.slow_step`, which also
        records slow-path residency with a profiler).  A step that
        raises leaves the versions moved, and the lane's next sync
        drops its whole view.
        """
        self._settle(lane)
        im, sp = self._im_mems[lane], self._sp_mems[lane]
        try:
            reason, im_cell, sp_cell = slow_step(
                self._platforms[lane].cpu, im, sp, profiler
            )
        except _STEP_ERRORS as exc:
            self._events_dirty = True
            self._events[lane] = ("raise", exc)
            return
        if im_cell is not None:
            self._im_entries[lane][im_cell] = None
            self._im_runs[lane] = [-1] * self._im_words
            self._im_version[lane] = im.version
        if sp_cell is not None:
            self._sp_state[lane, sp_cell] = _SP_UNKNOWN
            self._sp_version[lane] = sp.version
        self._sync_in(lane)
        if reason is not None:
            self._events_dirty = True
            self._events[lane] = ("stop", reason)
            return
        if self._instructions[lane] >= self._limit_abs[lane]:
            self._events_dirty = True
            self._events[lane] = (
                "raise",
                ExecutionLimitExceeded(
                    f"exceeded {self._max_arg[lane]} instructions at "
                    f"pc={int(self._pc[lane])}"
                ),
            )

    # ------------------------------------------------------------------
    # SoA <-> CpuState synchronisation and accounting settlement
    # ------------------------------------------------------------------
    def _sync_in(self, lane) -> None:
        """Refresh a lane's SoA row from its (authoritative) CpuState."""
        state = self._platforms[lane].cpu.state
        self._pc[lane] = state.pc
        self._regs[lane, :] = state.registers
        self._cycles[lane] = state.cycles
        self._instructions[lane] = state.instructions
        self._taken[lane] = state.taken_branches
        self._settled_instructions[lane] = state.instructions
        self._sp_reads[lane] = 0
        self._sp_writes[lane] = 0
        self._im_left[lane] = _UNDRAWN
        self._sp_left[lane] = _UNDRAWN
        im = self._im_mems[lane]
        if im.version != self._im_version[lane]:
            self._im_entries[lane] = [None] * self._im_words
            self._im_runs[lane] = [-1] * self._im_words
            self._im_version[lane] = im.version
        sp = self._sp_mems[lane]
        if sp.version != self._sp_version[lane]:
            self._sp_state[lane, :] = _SP_UNKNOWN
            self._sp_dirty[lane, :] = False
            self._sp_version[lane] = sp.version

    def _settle(self, lane) -> None:
        """Commit a lane's pending bulk accounting to the faithful state."""
        state = self._platforms[lane].cpu.state
        state.pc = int(self._pc[lane])
        state.registers = [int(v) for v in self._regs[lane]]
        state.cycles = int(self._cycles[lane])
        state.instructions = int(self._instructions[lane])
        state.taken_branches = int(self._taken[lane])
        im_used = int(
            self._instructions[lane] - self._settled_instructions[lane]
        )
        if im_used:
            faults = self._im_faults[lane]
            if faults is not None:
                faults.consume_clean(im_used)
            self._im_ports[lane].account_clean_reads(im_used)
        sp_reads = int(self._sp_reads[lane])
        sp_writes = int(self._sp_writes[lane])
        sp_samples = sp_reads + (
            sp_writes if self._sp_samples_writes[lane] else 0
        )
        if sp_samples and self._sp_faults[lane] is not None:
            self._sp_faults[lane].consume_clean(sp_samples)
        if sp_reads:
            self._sp_ports[lane].account_clean_reads(sp_reads)
        if sp_writes:
            self._sp_ports[lane].account_clean_writes(sp_writes)
            self._flush_dirty(lane)
        if im_used or sp_reads or sp_writes:
            profiler = active_profiler()
            if profiler.enabled:
                profiler.record_settlement(sp_reads, sp_writes)
        self._settled_instructions[lane] = self._instructions[lane]
        self._sp_reads[lane] = 0
        self._sp_writes[lane] = 0

    def _flush_dirty(self, lane) -> None:
        """Write back a lane's pending vector stores (see
        :func:`~repro.soc.fastlane.write_back`)."""
        row = self._sp_dirty[lane]
        addresses = np.nonzero(row)[0]
        if not addresses.size:
            return
        sp = self._sp_mems[lane]
        write_back(
            sp,
            self._sp_codec,
            addresses.tolist(),
            self._sp_view[lane, addresses].tolist(),
        )
        row[:] = False
        # The pokes bumped the version; the view itself made them, so
        # its cached plain words are still exact — resync, don't drop.
        self._sp_version[lane] = sp.version


def run_lane_block(runners, workload, vdd, frequency):
    """Run one workload across N runners' platforms in lockstep.

    The only lockstep driver.  Builds and loads one platform per runner
    (all runners must be the same scheme, each with its own options),
    binds them to one :class:`LaneBlock`, and drives every lane with its
    *own* runner's :meth:`~repro.mitigation.base.SchemeRunner.control`
    generator: each controller first runs up to its first engine call,
    then every round demands all pending lanes and resumes their
    controllers in ascending lane order, each up to its next engine call
    or its result.  Returns one
    :class:`~repro.mitigation.base.RunOutcome` per lane — bit-identical
    to running each runner's ``run`` individually.
    """
    if not runners:
        raise ValueError("need at least one runner")
    if any(type(r) is not type(runners[0]) for r in runners):
        raise ValueError("all lane runners must be the same scheme")
    platforms = [runner.prepare(workload, vdd) for runner in runners]
    controls = [
        runner.control(platform, workload)
        for runner, platform in zip(runners, platforms)
    ]
    results: list = [None] * len(runners)

    def advance(lanes):
        for lane in lanes:
            try:
                next(controls[lane])
            except StopIteration as finished:
                results[lane] = finished.value
        return [lane for lane in lanes if results[lane] is None]

    block = LaneBlock(
        platforms, program_words=list(workload.program_words)
    )
    try:
        pending = advance(range(len(runners)))
        while pending:
            block.demand(pending)
            pending = advance(pending)
    finally:
        block.close()
    return [
        runner.collect_outcome(
            workload, vdd, frequency, platform, *result
        )
        for runner, platform, result in zip(runners, platforms, results)
    ]
