"""OCEAN — hybrid HW/SW checkpoint-and-rollback mitigation [17][18].

Mechanism (paper Section V, Figure 7):

* the computation is split into phases; each phase's output chunk is
  what later phases depend on;
* after a phase completes, its chunk is checkpointed into a protected
  memory (PM) whose words carry a quadruple-error-correcting BCH code;
* the scratchpad itself only carries error *detection* (distance-4
  code used detect-only); on a detected error the controller restores
  the chunk from the PM and re-executes from the last checkpoint —
  mitigation is demand-driven, so the common error-free case pays only
  the checkpoint traffic;
* "OCEAN applies nonlinear programming to achieve the minimal energy
  overhead possible" — :func:`optimize_checkpoint_granularity` chooses
  how many phases to group per checkpoint by minimising the expected
  energy including re-execution.

System failure requires beating the PM's BCH code — five simultaneous
bit errors in one buffer word — matching the quintuple-error threshold
the FIT solver uses for OCEAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Generator

from repro.core.fit_solver import SCHEME_OCEAN
from repro.ecc.bch import BchCodec
from repro.ecc.hamming import SecdedCodec
from repro.soc.cpu import StopReason
from repro.soc.platform import (
    DetectedError,
    Platform,
    SystemFailure,
)
from repro.soc.dma import DmaEngine
from repro.soc.ports import (
    DetectOnlyCodec,
    UncorrectableError,
    copy_block,
)
from repro.mitigation.base import SchemeMemory, SchemeRunner
from repro.mitigation.secded import SECDED_CODEC_ENERGY_FACTOR

#: Modelled software cost of copying one word between SP and PM
#: (load, store, two address increments, compare, branch).
COPY_CYCLES_PER_WORD = 6

#: Per-access energy factor of the detect-only scratchpad checker
#: (syndrome generation without the correction network).
DETECT_CODEC_ENERGY_FACTOR = 1.08

#: Per-access energy factor of the BCH t=4 codec on the buffer.
BCH_CODEC_ENERGY_FACTOR = 1.30

#: Rollback-per-segment cap: more retries than this means the stored
#: state is corrupted beyond demand-driven repair (livelock).
MAX_ROLLBACKS_PER_SEGMENT = 25

#: Fraction of time the protected buffer sits at full (leaky) supply;
#: between checkpoints it drops to drowsy retention.
PM_LEAKAGE_DUTY = 0.3


def _detect_only_secded() -> DetectOnlyCodec:
    """The scratchpad's checker: SECDED's distance 4, detection only."""
    return DetectOnlyCodec(SecdedCodec())


@dataclass(frozen=True)
class CheckpointPlan:
    """Result of the checkpoint-granularity optimisation."""

    interval: int
    expected_energy: float
    expected_rollbacks: float

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be at least 1")


def _expected_energy(
    k: int,
    n_phases: int,
    p_phase: float,
    e_phase: float,
    e_checkpoint: float,
    e_restore: float,
) -> float:
    """Expected workload energy with a checkpoint every ``k`` phases,
    under per-phase detection probability ``p_phase``.

    A segment of k phases fails with 1-(1-p)^k; failed attempts are
    retried from the checkpoint, so the expected number of attempts
    per segment is the geometric 1/(1-p)^k... inverted: each attempt
    succeeds with q = (1-p)^k, costing (k * e_phase) per attempt plus
    e_restore per failed attempt.
    """
    if not 0.0 <= p_phase < 1.0:
        raise ValueError(f"p_phase must be in [0, 1), got {p_phase}")
    segments = n_phases / k
    q = (1.0 - p_phase) ** k
    attempts = 1.0 / q
    per_segment = (
        k * e_phase * attempts + e_restore * (attempts - 1.0) + e_checkpoint
    )
    return segments * per_segment


def optimize_checkpoint_granularity(
    n_phases: int,
    p_phase: float,
    e_phase: float,
    e_checkpoint: float,
    e_restore: float | None = None,
) -> CheckpointPlan:
    """Pick the energy-minimal checkpoint interval (paper's NLP step).

    Parameters
    ----------
    n_phases:
        Number of phases in the workload.
    p_phase:
        Probability that a phase's execution trips the detector.
    e_phase / e_checkpoint / e_restore:
        Energy of executing one phase, writing one checkpoint, and
        restoring from one (defaults to the checkpoint cost).

    The trade-off is classic: long intervals amortise checkpoint cost,
    short intervals bound the re-execution loss.  The interval is an
    integer in 1..n_phases, and a workload has few phases (7, 9 and 11
    for FFT-64/256/1024), so the program is solved exactly by scoring
    every interval; ties go to the shortest.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be at least 1")
    if e_phase <= 0.0 or e_checkpoint <= 0.0:
        raise ValueError("energies must be positive")
    restore = e_checkpoint if e_restore is None else e_restore

    def objective(k: int) -> float:
        return _expected_energy(
            k, n_phases, p_phase, e_phase, e_checkpoint, restore
        )

    best = min(range(1, n_phases + 1), key=objective)
    q = (1.0 - p_phase) ** best
    return CheckpointPlan(
        interval=best,
        expected_energy=objective(best),
        expected_rollbacks=(n_phases / best) * (1.0 / q - 1.0),
    )


class OceanRunner(SchemeRunner):
    """Platform with OCEAN's detection + checkpoint/rollback stack."""

    name = "OCEAN"
    reliability = SCHEME_OCEAN
    memories = (
        SchemeMemory("IM", SecdedCodec, auto_scrub=True,
                     codec_energy_factor=SECDED_CODEC_ENERGY_FACTOR),
        SchemeMemory("SP", _detect_only_secded,
                     codec_energy_factor=DETECT_CODEC_ENERGY_FACTOR),
        # The buffer is only touched around checkpoints; drowsy standby
        # the rest of the time cuts its static power.
        SchemeMemory("PM", partial(BchCodec, data_bits=32, t=4),
                     codec_energy_factor=BCH_CODEC_ENERGY_FACTOR,
                     leakage_duty=PM_LEAKAGE_DUTY),
    )

    def __init__(
        self,
        *args,
        checkpoint_interval: int = 1,
        use_dma: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self.checkpoint_interval = checkpoint_interval
        #: Move checkpoint traffic with the DMA engine instead of the
        #: software copy loop: fewer cycles per word, core freed.
        self.dma = DmaEngine() if use_dma else None

    # ------------------------------------------------------------------
    # Checkpoint / rollback machinery
    # ------------------------------------------------------------------
    def _checkpoint(
        self, platform: Platform, base: int, words: int
    ) -> int:
        """Copy the chunk SP -> PM; returns modelled SW cycles.

        Two-phase: read everything first (a detected error while
        reading aborts the checkpoint and leaves the previous one
        intact), then write the buffer.  Both phases are port block
        transfers — bit-exact with reading every word through
        ``sp_port.read`` and then writing each through
        ``pm_port.write``, but a fault-free run costs one batch decode
        and one batch encode instead of a codec call per word.
        """
        if words > platform.pm.words:
            raise ValueError(
                f"chunk of {words} words exceeds PM capacity "
                f"{platform.pm.words}"
            )
        if self.dma is not None:
            return self.dma.transfer(
                platform.sp_port, base, platform.pm_port, 0, words
            )
        chunk = platform.sp_port.read_block(base, words)
        platform.pm_port.write_block(0, chunk)
        return 2 * words * COPY_CYCLES_PER_WORD

    def _restore(self, platform: Platform, base: int, words: int) -> int:
        """Copy the chunk PM -> SP; returns modelled SW cycles.

        Word-interleaved (:func:`~repro.soc.ports.copy_block`): bit-exact
        with writing each SP word as soon as its PM word is read, so an
        uncorrectable PM word raises with the SP words before it already
        restored.  The DMA path copies two-phase instead.
        """
        if self.dma is not None:
            return self.dma.transfer(
                platform.pm_port, 0, platform.sp_port, base, words
            )
        copy_block(platform.pm_port, 0, platform.sp_port, base, words)
        return 2 * words * COPY_CYCLES_PER_WORD

    def control(
        self, platform: Platform, workload
    ) -> Generator[None, None, tuple[bool, str | None, int, int]]:
        """OCEAN's checkpoint-and-rollback state machine (Fig. 7).

        Checkpoints the chunk before the first phase and at every due
        phase boundary; a detected scratchpad error restores the last
        checkpoint and re-executes from it.  Yields before each engine
        call (see :meth:`SchemeRunner.control`).
        """
        phases = workload.phases
        chunk_base = workload.data_base
        chunk_words = len(workload.data_words)
        rollbacks = 0
        overhead = 0

        for attempt in range(MAX_ROLLBACKS_PER_SEGMENT):
            try:
                overhead += self._checkpoint(
                    platform, chunk_base, chunk_words
                )
                break
            except (DetectedError, UncorrectableError):
                # Detected before any computation: PM holds nothing yet,
                # so the repair source is the loader image itself (the
                # DMA refill from the reliable input stream).  Reads are
                # destructive, so the corrupted word must be rewritten.
                platform.load_data(
                    list(workload.data_words), workload.data_base
                )
        else:
            return False, "livelock", rollbacks, overhead
        cpu_checkpoint = platform.snapshot_cpu()
        checkpoint_phase_index = 0
        segment_rollbacks = 0
        phase_index = 0

        while True:
            yield
            try:
                reason = platform.run_until_stop()
            except DetectedError as exc:
                if exc.module == "IM":
                    # Rollback cannot repair instruction storage.
                    return False, "uncorrectable:IM", rollbacks, overhead
                segment_rollbacks += 1
                rollbacks += 1
                if segment_rollbacks > MAX_ROLLBACKS_PER_SEGMENT:
                    return False, "livelock", rollbacks, overhead
                try:
                    overhead += self._restore(
                        platform, chunk_base, chunk_words
                    )
                except UncorrectableError:
                    return False, "pm-uncorrectable", rollbacks, overhead
                platform.restore_cpu(cpu_checkpoint)
                phase_index = checkpoint_phase_index
                continue
            except SystemFailure as exc:
                return False, exc.kind, rollbacks, overhead

            if reason is StopReason.HALT:
                return True, None, rollbacks, overhead

            # YIELD: a phase boundary.
            phase_index += 1
            due = (
                phase_index % self.checkpoint_interval == 0
                or phase_index >= len(phases)
            )
            if due:
                try:
                    overhead += self._checkpoint(
                        platform, chunk_base, chunk_words
                    )
                except (DetectedError, UncorrectableError):
                    # Chunk unreadable at checkpoint time: roll back and
                    # re-execute the segment.
                    segment_rollbacks += 1
                    rollbacks += 1
                    if segment_rollbacks > MAX_ROLLBACKS_PER_SEGMENT:
                        return False, "livelock", rollbacks, overhead
                    try:
                        overhead += self._restore(
                            platform, chunk_base, chunk_words
                        )
                    except UncorrectableError:
                        return False, "pm-uncorrectable", rollbacks, overhead
                    platform.restore_cpu(cpu_checkpoint)
                    phase_index = checkpoint_phase_index
                    continue
                cpu_checkpoint = platform.snapshot_cpu()
                checkpoint_phase_index = phase_index
                segment_rollbacks = 0
