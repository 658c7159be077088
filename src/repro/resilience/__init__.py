"""repro.resilience — checkpointed, resumable, chaos-tested fan-out.

The paper's OCEAN scheme keeps a *computation* alive across memory
faults with checkpoint-and-rollback (Section V); this package applies
the same discipline to the Monte-Carlo *harness* that produces every
figure, so a campaign survives worker death, hangs, poison tasks and
``KeyboardInterrupt`` without losing completed work:

* :mod:`repro.resilience.executor` — :class:`ResilientExecutor`, the
  fault-tolerant task fan-out (retry with deterministic backoff,
  quarantine, pool-break detection, graceful serial degradation).  Its
  checkpoints are the result store (:mod:`repro.store`): each task's
  result is published under its provenance key as it lands, and a
  rerun against the same store skips every stored task, so resume is
  bit-identical.
* :mod:`repro.resilience.chaos` — :class:`ChaosPolicy` fault-injection
  hooks (kill-worker / raise-in-task / delay-task) for the chaos
  test-suite.

:func:`repro.analysis.campaign.run_campaign` and
:meth:`repro.analysis.batch.BatchCampaign.retention_failure_curve`
route their fan-out through this executor.
"""

from repro.resilience.chaos import (
    ChaosError,
    ChaosPolicy,
    NO_CHAOS,
    WorkerKilled,
)
from repro.resilience.executor import (
    ExecutionReport,
    ResilientExecutor,
    TaskSpec,
)

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "NO_CHAOS",
    "WorkerKilled",
    "ExecutionReport",
    "ResilientExecutor",
    "TaskSpec",
]
