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
    Platform,
    PlatformConfig,
    SimulationResult,
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
    :class:`~repro.soc.platform.Platform`), and
    :func:`~repro.soc.simd.run_lane_block` binds the lockstep engine.
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
        #: The platform of the most recent :meth:`run`, kept for
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

    def execute(
        self, platform: Platform, workload: StreamingWorkload
    ) -> tuple[bool, str | None, int, int]:
        """Run the workload; returns (completed, failure, rollbacks,
        overhead_cycles).  Default: straight-line run to HALT."""
        from repro.soc.platform import DetectedError, SystemFailure

        try:
            while True:
                reason = platform.run_until_stop()
                if reason is StopReason.HALT:
                    return True, None, 0, 0
        except DetectedError as exc:
            return False, f"uncorrectable:{exc.module}", 0, 0
        except SystemFailure as exc:
            return False, exc.kind, 0, 0

    def execute_lanes(
        self, platforms, workload: StreamingWorkload, block
    ) -> list[tuple[bool, str | None, int, int]]:
        """Lockstep counterpart of :meth:`execute` over a lane block.

        Runs every platform breadth-first — all pending lanes are
        demanded before any is run, so the whole block advances through
        :class:`repro.soc.simd.LaneBlock` servicing together — and
        mirrors the default :meth:`execute` control flow per lane.
        Returns one ``(completed, failure, rollbacks, overhead)`` tuple
        per lane, bit-identical to N scalar :meth:`execute` calls.
        """
        from repro.soc.platform import DetectedError, SystemFailure

        results: list = [None] * len(platforms)
        pending = set(range(len(platforms)))
        while pending:
            block.demand(pending)
            for lane in sorted(pending):
                try:
                    reason = platforms[lane].run_until_stop()
                except DetectedError as exc:
                    results[lane] = (
                        False, f"uncorrectable:{exc.module}", 0, 0
                    )
                except SystemFailure as exc:
                    results[lane] = (False, exc.kind, 0, 0)
                else:
                    if reason is StopReason.HALT:
                        results[lane] = (True, None, 0, 0)
                    # YIELD: the lane stays pending for the next round.
            pending = {
                lane for lane in pending if results[lane] is None
            }
        return results

    # ------------------------------------------------------------------
    # Shared driver
    # ------------------------------------------------------------------
    def run(
        self,
        workload: StreamingWorkload,
        vdd: float,
        frequency: float,
    ) -> RunOutcome:
        """Execute the full workload at one operating point."""
        platform = self.build_platform(vdd)
        self.last_platform = platform
        platform.load_program(list(workload.program_words))
        platform.load_data(list(workload.data_words), workload.data_base)
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
