"""Name-only remnant of the retired lockstep SIMD engine.

The engine ran N fault scenarios of one program in lockstep.  No
product path ran it, and the fast lane outran it at every lane count
(EXPERIMENTS, "Lockstep SIMD lane blocks"), so it was deleted.  The
benchmark's tracer (``perfbench/tracing.py``) still imports this module
and wraps ``LaneBlock._service`` by name.  This stub goes, with the
``_campaign_run_lane_block`` alias in :mod:`repro.analysis.campaign`,
when the tracer drops both targets (ROADMAP item 2, Step A).
"""


class LaneBlock:
    """Holds the one method name the tracer wraps; nothing builds it."""

    def _service(self) -> None:
        """Never called."""
