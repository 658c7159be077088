"""The assembled Figure 6 platform.

A :class:`Platform` wires the NTC32 core to an instruction memory and a
scratchpad through mitigation-specific ports, runs programs, and
collects the counters the energy model needs.  The optional protected
memory (PM) is OCEAN's addition (encircled red in the paper's
Figure 6); the OCEAN controller in :mod:`repro.mitigation.ocean` drives
it.

System failures surface as :class:`SystemFailure`: an uncorrectable
ECC word, an illegal instruction fetched from a corrupted IM, or a
runaway program — the concrete forms the paper's abstract "system
failure" takes in a real execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import active_metrics, active_tracer, names
from repro.obs.profile import ENGINE_FAST_LANE, ENGINE_SCALAR, active_profiler
from repro.soc.cpu import Cpu, CpuState, ExecutionLimitExceeded, StopReason
from repro.soc.fastlane import FastLaneEngine, lane_capable
from repro.soc.isa import IllegalInstruction
from repro.soc.memory import FaultyMemory, MemoryAccessFault
from repro.soc.ports import UncorrectableError


class SystemFailure(Exception):
    """The platform reached a state the mitigation cannot recover."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


class DetectedError(Exception):
    """An error was detected (not corrected) — recoverable by a
    rollback-capable controller, fatal otherwise."""

    def __init__(self, module: str, address: int) -> None:
        super().__init__(f"detected error in {module} at {address:#x}")
        self.module = module
        self.address = address


@dataclass(frozen=True)
class PlatformConfig:
    """Sizes of the paper's platform (Section V.A)."""

    im_words: int = 1024   # 4 KB instruction memory
    sp_words: int = 2048   # 8 KB scratchpad
    pm_words: int = 1024   # 4 KB protected buffer (OCEAN only)

    def __post_init__(self) -> None:
        if min(self.im_words, self.sp_words, self.pm_words) <= 0:
            raise ValueError("memory sizes must be positive")


@dataclass
class SimulationResult:
    """Counters of one completed run, food for the energy report."""

    cycles: int
    instructions: int
    access_counts: dict[str, tuple[int, int]]
    corrected_words: int
    detected_words: int
    injected_bits: dict[str, int]
    rollbacks: int = 0
    overhead_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """Execution plus modelled mitigation-software cycles."""
        return self.cycles + self.overhead_cycles


class Platform:
    """CPU + IM + SP (+ PM) with mitigation ports.

    Parameters
    ----------
    im / im_port:
        Instruction memory and the port the fetch path uses.
    sp / sp_port:
        Scratchpad and the data port.
    pm / pm_port:
        Optional protected buffer (OCEAN).

    The platform picks its engine from what it can observe (see
    :meth:`_runner`): an engine bound through :meth:`bind_engine`, else
    the clean-burst fast lane (:mod:`repro.soc.fastlane`, bit-exact
    with the reference interpreter but an order of magnitude faster)
    whenever the ports are :func:`~repro.soc.fastlane.lane_capable`,
    else the scalar ``Cpu.run``.  Pin the scalar oracle with
    ``platform.bind_engine(platform.cpu.run)``.
    """

    def __init__(
        self,
        im: FaultyMemory,
        im_port,
        sp: FaultyMemory,
        sp_port,
        pm: FaultyMemory | None = None,
        pm_port=None,
    ) -> None:
        self.im = im
        self.im_port = im_port
        self.sp = sp
        self.sp_port = sp_port
        self.pm = pm
        self.pm_port = pm_port
        self._fast_engine: FastLaneEngine | None = None
        self._engine_run = None
        self.cpu = Cpu(
            fetch=self._fetch, load=self._load, store=self._store
        )

    # ------------------------------------------------------------------
    # CPU ports with failure translation
    # ------------------------------------------------------------------
    def _fetch(self, address: int) -> int:
        try:
            return self.im_port.read(address)
        except UncorrectableError as exc:
            raise DetectedError("IM", exc.address) from exc

    def _load(self, address: int) -> int:
        try:
            return self.sp_port.read(address)
        except UncorrectableError as exc:
            raise DetectedError("SP", exc.address) from exc

    def _store(self, address: int, value: int) -> None:
        self.sp_port.write(address, value)

    # ------------------------------------------------------------------
    # Program / data loading
    # ------------------------------------------------------------------
    def load_program(self, words: list[int]) -> None:
        """Load instruction words at IM address 0 (fault-free)."""
        self.im_port.load(words, base=0)

    def load_data(self, words: list[int], base: int = 0) -> None:
        """Load initial scratchpad contents (fault-free)."""
        self.sp_port.load(words, base=base)

    def read_data(self, base: int, count: int) -> list[int]:
        """Inspect scratchpad results fault-free (best-effort decode)."""
        return [self.sp_port.peek(base + i) for i in range(count)]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until_stop(
        self, max_instructions: int = 50_000_000
    ) -> StopReason:
        """Run to the next HALT/YIELD; translate fatal events.

        ``DetectedError`` propagates untranslated — a rollback
        controller catches it; without one it bubbles up as the
        system-level failure it is.
        """
        runner = self._runner()
        profiler = active_profiler()
        if profiler.enabled:
            profiler.record_engine(
                ENGINE_SCALAR if runner == self.cpu.run else ENGINE_FAST_LANE
            )
        try:
            return runner(max_instructions)
        except IllegalInstruction as exc:
            self._record_failure("illegal-instruction")
            raise SystemFailure("illegal-instruction", str(exc)) from exc
        except ExecutionLimitExceeded as exc:
            self._record_failure("runaway")
            raise SystemFailure("runaway", str(exc)) from exc
        except MemoryAccessFault as exc:
            # A corrupted pointer or runaway PC left the address space:
            # the wild-access face of silent data corruption.
            self._record_failure("wild-access")
            raise SystemFailure("wild-access", str(exc)) from exc
        except DetectedError as exc:
            # Recoverable under a rollback controller; still worth a
            # trace record — rollback storms start here.
            active_metrics().counter(names.PLATFORM_DETECTED_ERRORS).inc()
            active_tracer().point(
                names.POINT_PLATFORM_DETECTED_ERROR,
                module=exc.module,
                address=exc.address,
            )
            raise

    def _runner(self):
        """Pick the execution entry point for this run.

        A bound engine (``cpu.run`` pinning the scalar oracle) takes
        precedence.  Otherwise the fast-lane engine runs whenever the
        ports are lane-capable: it is built lazily and kept across runs
        (its predecoded views survive YIELD boundaries), and rebuilt if
        the port wiring changed.  Any other wiring runs on ``Cpu.run``.
        """
        if self._engine_run is not None:
            return self._engine_run
        engine = self._fast_engine
        if engine is None or not engine.matches(self):
            engine = FastLaneEngine(self) if lane_capable(self) else None
            self._fast_engine = engine
        if engine is None:
            return self.cpu.run
        return engine.run

    def bind_engine(self, run) -> None:
        """Route execution through an external engine.

        ``run`` has the :meth:`Cpu.run` signature
        (``max_instructions -> StopReason``); ``run_until_stop``, and
        with it every controller built on top, executes through it.
        Binding ``self.cpu.run`` pins the scalar reference interpreter
        (the oracle differential tests and benchmarks compare against).
        Pass ``None`` to unbind.
        """
        self._engine_run = run

    @staticmethod
    def _record_failure(kind: str) -> None:
        active_metrics().histogram(names.PLATFORM_FAILURES).add(kind)
        active_tracer().point(names.POINT_PLATFORM_FAILURE, kind=kind)

    def snapshot_cpu(self) -> CpuState:
        """Copy the architectural state (OCEAN checkpoint support)."""
        active_metrics().counter(names.PLATFORM_CPU_CHECKPOINTS).inc()
        state = self.cpu.state
        copied = CpuState(
            pc=state.pc,
            registers=list(state.registers),
            cycles=state.cycles,
            instructions=state.instructions,
            taken_branches=state.taken_branches,
        )
        return copied

    def restore_cpu(self, snapshot: CpuState) -> None:
        """Restore architectural state; performance counters keep
        running (re-executed work costs real cycles)."""
        # Every rollback passes through here, whichever controller
        # drives it — the natural single point to count them.
        active_metrics().counter(names.PLATFORM_CPU_RESTORES).inc()
        active_tracer().point(
            names.POINT_PLATFORM_ROLLBACK,
            pc=snapshot.pc,
            cycles=self.cpu.state.cycles,
        )
        state = self.cpu.state
        state.pc = snapshot.pc
        state.registers = list(snapshot.registers)

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def result(
        self, rollbacks: int = 0, overhead_cycles: int = 0
    ) -> SimulationResult:
        """Assemble the counters of the run so far."""
        counts = {
            "IM": (self.im.counters.reads, self.im.counters.writes),
            "SP": (self.sp.counters.reads, self.sp.counters.writes),
        }
        injected = {
            "IM": self.im.faults.injected_bits if self.im.faults else 0,
            "SP": self.sp.faults.injected_bits if self.sp.faults else 0,
        }
        corrected = self.im_port.stats.corrected_words + (
            self.sp_port.stats.corrected_words
        )
        detected = self.im_port.stats.detected_words + (
            self.sp_port.stats.detected_words
        )
        if self.pm is not None:
            counts["PM"] = (self.pm.counters.reads, self.pm.counters.writes)
            injected["PM"] = (
                self.pm.faults.injected_bits if self.pm.faults else 0
            )
            if self.pm_port is not None:
                corrected += self.pm_port.stats.corrected_words
                detected += self.pm_port.stats.detected_words
        metrics = active_metrics()
        metrics.counter(names.PLATFORM_RUNS).inc()
        metrics.counter(names.PLATFORM_CYCLES).inc(self.cpu.state.cycles)
        metrics.counter(names.PLATFORM_INSTRUCTIONS).inc(
            self.cpu.state.instructions
        )
        metrics.counter(names.PLATFORM_CORRECTED_WORDS).inc(corrected)
        metrics.counter(names.PLATFORM_DETECTED_WORDS).inc(detected)
        metrics.counter(names.PLATFORM_INJECTED_BITS).inc(sum(injected.values()))
        metrics.counter(names.PLATFORM_ROLLBACKS).inc(rollbacks)
        return SimulationResult(
            cycles=self.cpu.state.cycles,
            instructions=self.cpu.state.instructions,
            access_counts=counts,
            corrected_words=corrected,
            detected_words=detected,
            injected_bits=injected,
            rollbacks=rollbacks,
            overhead_cycles=overhead_cycles,
        )
