"""Plan → probe → execute → store → assemble for campaign grids.

This module is the glue between the campaign drivers and the result
store: it gives :class:`~repro.analysis.campaign.CampaignResult` an
exact JSON codec (decode is bit-identical under dataclass equality —
``resilience`` is excluded from comparison by the dataclass itself),
builds the content-addressed key for a campaign invocation, and drives
whole (scheme × voltage) grids through the store so warm points are
answered without touching an engine.

Warm results are distinguishable from fresh ones by construction: a
fresh :class:`CampaignResult` carries its ``resilience``
:class:`~repro.resilience.ExecutionReport`, a decoded one carries
``resilience=None``.  The grid planner uses exactly that to report hit
/ executed counts, and the perf harness uses dataclass equality to
prove mixed cached+fresh assembly bit-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.campaign import CampaignResult
from repro.core.errors import validate_vdd
from repro.store.keys import PointKey, scheme_campaign_key


def encode_campaign_result(result: CampaignResult) -> Dict[str, Any]:
    """JSON-safe payload of a :class:`CampaignResult` (exact round-trip)."""
    return {
        "scheme": result.scheme,
        "vdd": float(result.vdd),
        "runs": int(result.runs),
        "correct": int(result.correct),
        "silent_corruption": int(result.silent_corruption),
        "detected_failure": int(result.detected_failure),
        "total_injected_bits": int(result.total_injected_bits),
        "total_corrected": int(result.total_corrected),
        "total_rollbacks": int(result.total_rollbacks),
        "failures_by_kind": {
            kind: int(count)
            for kind, count in sorted(result.failures_by_kind.items())
        },
        "quarantined": int(result.quarantined),
    }


def decode_campaign_result(payload: Dict[str, Any]) -> CampaignResult:
    """Inverse of :func:`encode_campaign_result`.

    The decoded result compares equal (``==``) to the original: every
    compared field round-trips exactly through JSON (ints, the scheme
    string, the float vdd via ``repr`` round-tripping), and
    ``resilience`` is excluded from dataclass equality.
    """
    return CampaignResult(
        scheme=str(payload["scheme"]),
        vdd=float(payload["vdd"]),
        runs=int(payload["runs"]),
        correct=int(payload["correct"]),
        silent_corruption=int(payload["silent_corruption"]),
        detected_failure=int(payload["detected_failure"]),
        total_injected_bits=int(payload["total_injected_bits"]),
        total_corrected=int(payload["total_corrected"]),
        total_rollbacks=int(payload["total_rollbacks"]),
        failures_by_kind={
            str(kind): int(count)
            for kind, count in payload["failures_by_kind"].items()
        },
        quarantined=int(payload["quarantined"]),
    )


def campaign_point_key(
    runner_cls: Any,
    workload: Any,
    golden: Any,
    access_model: Any,
    vdd: float,
    frequency: float,
    runs: int,
    seed_base: int,
    runner_kwargs: Dict[str, Any],
) -> PointKey:
    """Content-addressed key of one ``run_campaign`` invocation."""
    vdd = validate_vdd(vdd, "campaign_point_key")
    return scheme_campaign_key(
        scheme=runner_cls.name,
        workload=workload,
        golden=golden,
        access_model=access_model,
        vdd=vdd,
        frequency=frequency,
        runs=runs,
        seed_base=seed_base,
        runner_kwargs=runner_kwargs,
    )


@dataclass
class GridResult:
    """A (scheme × voltage) grid with its cache accounting."""

    results: List[CampaignResult] = field(default_factory=list)
    hits: int = 0
    executed_points: int = 0

    @property
    def total_points(self) -> int:
        return len(self.results)

    @property
    def hit_ratio(self) -> float:
        if not self.results:
            return 0.0
        return self.hits / len(self.results)


def scheme_failure_grid(
    runner_cls: Any,
    workload: Any,
    golden: Any,
    access_model: Any,
    vdds: Any,
    store: Any = None,
    frequency: float = 290e3,
    runs: int = 20,
    seed_base: int = 100,
    on_point: Optional[Callable[[int, int, CampaignResult], None]] = None,
    progress_factory: Optional[Callable[[int, int], Any]] = None,
    **campaign_kwargs: Any,
) -> GridResult:
    """Run a whole voltage grid for one scheme through the store.

    Each voltage point is planned, probed against ``store`` (when
    given), and executed only on a miss — fresh points are published
    back before assembly.  ``on_point(index, total, result)`` fires
    after each point (the serving layer's progress hook; raising from
    it aborts the grid, which is exactly what the chaos test does).
    ``progress_factory(index, total)`` may return a per-point
    :class:`~repro.obs.report.CampaignProgress` observer.
    """
    from repro.analysis.campaign import run_campaign

    vdd_list = [validate_vdd(float(v), "scheme_failure_grid") for v in vdds]
    grid = GridResult()
    total = len(vdd_list)
    for index, vdd in enumerate(vdd_list):
        progress = (
            progress_factory(index, total) if progress_factory else None
        )
        result = run_campaign(
            runner_cls,
            workload,
            golden,
            access_model,
            vdd,
            frequency=frequency,
            runs=runs,
            seed_base=seed_base,
            store=store,
            progress=progress,
            **campaign_kwargs,
        )
        grid.results.append(result)
        if store is not None and result.resilience is None:
            grid.hits += 1
        else:
            grid.executed_points += 1
        if on_point is not None:
            on_point(index, total, result)
    return grid


__all__ = [
    "GridResult",
    "campaign_point_key",
    "decode_campaign_result",
    "encode_campaign_result",
    "scheme_failure_grid",
]
