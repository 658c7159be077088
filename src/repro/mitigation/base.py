"""Common mitigation-runner machinery.

A :class:`SchemeRunner` takes a streaming workload, builds the platform
its scheme declares (:attr:`SchemeRunner.memories`) at a given supply
voltage, executes the workload, and returns a :class:`RunOutcome`
containing the produced output, the simulation counters and the Figure
8/9 energy report.  The harness (benchmarks, examples) compares the
output against the workload's golden model — a *silently* wrong result
is exactly what distinguishes the no-mitigation baseline from the
protected schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.core.access import AccessErrorModel
from repro.core.errors import validate_vdd
from repro.core.fit_solver import SchemeReliability
from repro.ecc.base import Codec
from repro.soc.cpu import StopReason
from repro.soc.energy_model import (
    EnergyReport,
    MemoryComponentSpec,
    PlatformEnergyModel,
    check_macro_style,
)
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import (
    DetectedError,
    Platform,
    PlatformConfig,
    SimulationResult,
    SystemFailure,
)
from repro.soc.ports import CodecPort, RawPort
from repro.workloads.streaming import StreamingWorkload


@dataclass(frozen=True)
class SchemeMemory:
    """How a scheme protects one memory of the Figure 6 platform.

    A scheme lists one per memory in :attr:`SchemeRunner.memories`;
    the runner builds the memory, its fault model and its port from it,
    and prices it in the Figure 8/9 energy model.
    """

    #: ``"IM"``, ``"SP"`` or ``"PM"``: picks the memory's size in
    #: :class:`~repro.soc.platform.PlatformConfig` and its platform slot.
    name: str
    #: Builds the port's codec; None wires a raw 32-bit port.  The
    #: memory stores the codec's ``code_bits``-wide codewords.
    codec: Callable[[], Codec] | None = None
    #: Rewrite each corrected word (:class:`~repro.soc.ports.CodecPort`).
    auto_scrub: bool = False
    #: Per-access energy multiplier of the codec logic.
    codec_energy_factor: float = 1.0
    #: Fraction of the time the memory leaks at full supply.
    leakage_duty: float = 1.0


def _words(config: PlatformConfig, memory: SchemeMemory) -> int:
    return getattr(config, f"{memory.name.lower()}_words")


@dataclass(frozen=True)
class RunOutcome:
    """Everything one simulated run produced."""

    scheme: str
    vdd: float
    frequency: float
    completed: bool
    failure: str | None
    output: tuple[int, ...] | None
    sim: SimulationResult
    report: EnergyReport

    @property
    def power_w(self) -> float:
        return self.report.total_w

    def output_matches(self, golden: list[int]) -> bool:
        """Whether the run completed with bit-exact correct output."""
        return (
            self.completed
            and self.output is not None
            and list(self.output) == list(golden)
        )


class SchemeRunner:
    """Base class of the Section V mitigation runners.

    Parameters
    ----------
    access_model:
        Eq. 5 model of the platform's memory macros (cell-based by
        default — the single-supply NTC premise).
    config:
        Platform memory sizes.
    seed:
        Fault-engine RNG seed (reproducible campaigns).

    The runner does not choose an engine: its platform picks the
    clean-burst fast lane for the stock ports every scheme wires
    (bit-exact with the reference interpreter, see
    :class:`~repro.soc.platform.Platform`), and whoever binds another
    engine drives the scheme through :meth:`prepare`, :meth:`control`
    and :meth:`collect_outcome` itself.  A scheme declares its
    platform once, as :attr:`memories`, and writes its run controller
    once, as :meth:`control`.
    """

    #: Scheme name, matching the fit-solver scheme.
    name: str
    #: Failure semantics used by the Table 2 solver.
    reliability: SchemeReliability
    #: The platform's memories and their protection, in fault-RNG salt
    #: order (1, 2, 3...): :meth:`build_platform` builds them and
    #: :meth:`collect_outcome` prices them.
    memories: tuple[SchemeMemory, ...]

    def __init__(
        self,
        access_model: AccessErrorModel,
        config: PlatformConfig | None = None,
        seed: int = 0,
        macro_style: str = "cell-based",
    ) -> None:
        self.access_model = access_model
        self.config = config if config is not None else PlatformConfig()
        self.seed = seed
        self.macro_style = check_macro_style(macro_style)
        #: The platform of the most recent :meth:`prepare`, kept for
        #: post-run inspection (RNG stream positions, cache state) by
        #: benchmarks and differential tests.
        self.last_platform: Platform | None = None

    # ------------------------------------------------------------------
    # The declared platform
    # ------------------------------------------------------------------
    def build_platform(self, vdd: float) -> Platform:
        """Build each declared memory with its fault model and port.

        A memory stores its codec's codewords (32-bit words behind a
        raw port); its fault model draws from this runner's seed salted
        by the memory's place in :attr:`memories`, counting from 1.
        """
        vdd = validate_vdd(vdd, f"{self.name}.build_platform")
        wiring: dict = {}
        for salt, declared in enumerate(self.memories, start=1):
            codec = None if declared.codec is None else declared.codec()
            width = 32 if codec is None else codec.code_bits
            memory = FaultyMemory(
                declared.name,
                _words(self.config, declared),
                width=width,
                faults=VoltageFaultModel(
                    self.access_model, width, vdd, rng=self._rng(salt)
                ),
            )
            slot = declared.name.lower()
            wiring[slot] = memory
            wiring[f"{slot}_port"] = (
                RawPort(memory)
                if codec is None
                else CodecPort(memory, codec, auto_scrub=declared.auto_scrub)
            )
        return Platform(**wiring)

    @classmethod
    def data_words(cls) -> int:
        """Words of workload data the stock platform can hold.

        The data loads into the scratchpad, and every other data memory
        (OCEAN's checkpoint buffer) holds a copy of all of it; the
        instruction memory holds only the program.
        """
        config = PlatformConfig()
        return min(
            _words(config, declared)
            for declared in cls.memories
            if declared.name != "IM"
        )

    # ------------------------------------------------------------------
    # The scheme's run controller
    # ------------------------------------------------------------------
    def control(
        self, platform: Platform, workload: StreamingWorkload
    ) -> Generator[None, None, tuple[bool, str | None, int, int]]:
        """This scheme's run controller, written once as a generator.

        It yields just before every ``platform.run_until_stop()`` and
        returns ``(completed, failure, rollbacks, overhead_cycles)``.
        :meth:`execute` drives it straight through; a driver that
        interleaves several platforms resumes each one's controller
        between engine calls.  Default: straight-line run to HALT.
        """
        try:
            while True:
                yield
                if platform.run_until_stop() is StopReason.HALT:
                    return True, None, 0, 0
        except DetectedError as exc:
            return False, f"uncorrectable:{exc.module}", 0, 0
        except SystemFailure as exc:
            return False, exc.kind, 0, 0

    def execute(
        self, platform: Platform, workload: StreamingWorkload
    ) -> tuple[bool, str | None, int, int]:
        """Run :meth:`control` to completion; returns (completed,
        failure, rollbacks, overhead_cycles)."""
        control = self.control(platform, workload)
        try:
            while True:
                next(control)
        except StopIteration as finished:
            return finished.value

    # ------------------------------------------------------------------
    # Shared driver
    # ------------------------------------------------------------------
    def prepare(self, workload: StreamingWorkload, vdd: float) -> Platform:
        """Build this scheme's platform at ``vdd`` and load the workload.

        The platform is also kept as :attr:`last_platform`.
        """
        vdd = validate_vdd(vdd, f"{self.name}.prepare")
        platform = self.build_platform(vdd)
        self.last_platform = platform
        platform.load_program(list(workload.program_words))
        platform.load_data(list(workload.data_words), workload.data_base)
        return platform

    def run(
        self,
        workload: StreamingWorkload,
        vdd: float,
        frequency: float,
    ) -> RunOutcome:
        """Execute the full workload at one operating point."""
        platform = self.prepare(workload, vdd)
        completed, failure, rollbacks, overhead = self.execute(
            platform, workload
        )
        return self.collect_outcome(
            workload, vdd, frequency, platform,
            completed, failure, rollbacks, overhead,
        )

    def collect_outcome(
        self,
        workload: StreamingWorkload,
        vdd: float,
        frequency: float,
        platform: Platform,
        completed: bool,
        failure: str | None,
        rollbacks: int,
        overhead: int,
    ) -> RunOutcome:
        """Assemble the :class:`RunOutcome` of one executed platform."""
        vdd = validate_vdd(vdd, f"{self.name}.collect_outcome")
        sim = platform.result(
            rollbacks=rollbacks, overhead_cycles=overhead
        )
        output = None
        if completed:
            output = tuple(
                platform.read_data(
                    workload.result_base, workload.result_words
                )
            )
        specs = []
        for declared in self.memories:
            memory = getattr(platform, declared.name.lower())
            specs.append(
                MemoryComponentSpec(
                    name=declared.name,
                    words=memory.words,
                    stored_bits=memory.width,
                    codec_energy_factor=declared.codec_energy_factor,
                    leakage_duty=declared.leakage_duty,
                )
            )
        energy_model = PlatformEnergyModel(
            specs, macro_style=self.macro_style
        )
        report = energy_model.report(
            vdd=vdd,
            frequency=frequency,
            cycles=max(1, sim.total_cycles),
            access_counts=sim.access_counts,
        )
        return RunOutcome(
            scheme=self.name,
            vdd=vdd,
            frequency=frequency,
            completed=completed,
            failure=failure,
            output=output,
            sim=sim,
            report=report,
        )

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def _rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))
