"""Common mitigation-runner machinery.

A :class:`SchemeRunner` takes a streaming workload, builds the platform
with its scheme's ports and fault engines at a given supply voltage,
executes the workload, and returns a :class:`RunOutcome` containing the
produced output, the simulation counters and the Figure 8/9 energy
report.  The harness (benchmarks, examples) compares the output against
the workload's golden model — a *silently* wrong result is exactly what
distinguishes the no-mitigation baseline from the protected schemes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.core.access import AccessErrorModel
from repro.core.errors import validate_vdd
from repro.core.fit_solver import SchemeReliability
from repro.soc.cpu import StopReason
from repro.soc.energy_model import (
    EnergyReport,
    MemoryComponentSpec,
    PlatformEnergyModel,
)
from repro.soc.platform import (
    DetectedError,
    Platform,
    PlatformConfig,
    SimulationResult,
    SystemFailure,
)
from repro.workloads.streaming import StreamingWorkload


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


class SchemeRunner(abc.ABC):
    """Base class of the three Section V mitigation runners.

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
    and :meth:`collect_outcome` itself.  A scheme writes its run
    controller once, as :meth:`control`.
    """

    #: Scheme name, matching the fit-solver scheme.
    name: str
    #: Failure semantics used by the Table 2 solver.
    reliability: SchemeReliability

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
        self.macro_style = macro_style
        #: The platform of the most recent :meth:`prepare`, kept for
        #: post-run inspection (RNG stream positions, cache state) by
        #: benchmarks and differential tests.
        self.last_platform: Platform | None = None

    # ------------------------------------------------------------------
    # Scheme-specific hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_platform(self, vdd: float) -> Platform:
        """Assemble memories, fault engines and ports for this scheme."""

    @abc.abstractmethod
    def memory_specs(self) -> list[MemoryComponentSpec]:
        """Component widths/codec factors for the energy model."""

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
        energy_model = PlatformEnergyModel(
            self.memory_specs(), macro_style=self.macro_style
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
