"""Run-time error mitigation schemes (Section V).

Three executable schemes, each pairing failure semantics (for the FIT
solver) with a platform runner (for the cycle-level simulation) that
declares its memories once, as :attr:`SchemeRunner.memories`:

* :mod:`repro.mitigation.none_scheme` — no mitigation: bit flips reach
  the core unchecked.
* :mod:`repro.mitigation.secded` — the (39,32) SECDED hardware wrapper
  on both platform memories.
* :mod:`repro.mitigation.ocean` — OCEAN: detection on the scratchpad,
  phase-level checkpoints in a BCH-protected buffer, demand-driven
  rollback, and the nonlinear-programming granularity optimiser.
"""

from repro.mitigation.base import RunOutcome, SchemeRunner
from repro.mitigation.none_scheme import NoMitigationRunner
from repro.mitigation.secded import SecdedRunner
from repro.mitigation.dected import SCHEME_DECTED, DectedRunner
from repro.mitigation.ocean import (
    CheckpointPlan,
    OceanRunner,
    optimize_checkpoint_granularity,
)

#: Runner class of each scheme name that ``repro campaign --scheme`` and
#: ``repro serve`` job specs accept.
SCHEME_RUNNERS = {
    "none": NoMitigationRunner,
    "secded": SecdedRunner,
    "ocean": OceanRunner,
}

__all__ = [
    "SCHEME_RUNNERS",
    "RunOutcome",
    "SchemeRunner",
    "NoMitigationRunner",
    "SecdedRunner",
    "DectedRunner",
    "SCHEME_DECTED",
    "OceanRunner",
    "CheckpointPlan",
    "optimize_checkpoint_granularity",
]
