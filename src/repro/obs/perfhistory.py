"""Append-only perf trajectory and regression comparison.

``benchmarks/perf/run_perf.py`` writes a single overwritable
``BENCH_perf.json`` snapshot; this module gives it a trajectory.
:func:`append_history` appends one NDJSON line per perf run to
``BENCH_history.ndjson`` — flattened per-section scalars, git
revision, wall-clock stamp — and :func:`compare` (exposed as the
``repro perf-compare`` CLI) diffs the newest entry against the median
of the previous K comparable entries, failing on configurable
regression thresholds.

Metric direction is encoded in the name: keys ending in ``_s`` are
wall times (lower is better); everything else (speedups, throughput)
is higher-is-better.  Entries are only compared against entries with
the same ``quick`` flag — CI smoke sizes and full-size runs are
different workloads, not each other's baselines.

The soft-gate convention for CI: with fewer than ``--min-entries``
comparable history entries (default 3) the comparison warns and exits
0, so a fresh repository accumulates a baseline before the gate arms.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Optional, Union

from repro.obs.manifest import git_revision
from repro.obs.trace import NdjsonFileSink

PathLike = Union[str, "os.PathLike[str]"]

HISTORY_FILENAME = "BENCH_history.ndjson"

#: ``(section, field)`` scalars lifted from the BENCH_perf.json report.
_SCALAR_FIELDS = (
    ("secded", "encode_speedup"),
    ("secded", "decode_speedup"),
    ("secded", "encode_batch_s"),
    ("secded", "decode_batch_s"),
    ("bch", "encode_speedup"),
    ("bch", "decode_speedup"),
    ("bch", "encode_batch_s"),
    ("bch", "decode_batch_s"),
    ("faults", "speedup"),
    ("faults", "batch_s"),
    ("fig5_campaign", "speedup"),
    ("fig5_campaign", "batch_s"),
    ("store", "cold_s"),
    ("store", "warm_s"),
    ("store", "warm_speedup"),
    ("store", "hit_ratio"),
    ("store", "campaign_cold_s"),
    ("store", "campaign_warm_s"),
    ("store", "campaign_warm_speedup"),
    ("resilience", "baseline_s"),
    ("serve", "cold_s"),
    ("serve", "warm_s"),
    ("serve", "warm_speedup"),
    ("serve", "recovered_s"),
    ("serve", "recovered_jobs"),
    ("profile", "overhead_pct"),
    ("profile", "profiled_s"),
    ("profile", "unprofiled_s"),
)


def _put(sections: Dict[str, float], name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    sections[name] = float(value)


def flatten_report(report: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a BENCH_perf.json report into ``section.metric`` scalars."""
    sections: Dict[str, float] = {}
    for section, field in _SCALAR_FIELDS:
        body = report.get(section)
        if isinstance(body, dict):
            _put(sections, f"{section}.{field}", body.get(field))
    platform = report.get("platform")
    if isinstance(platform, dict):
        schemes = platform.get("schemes")
        if isinstance(schemes, dict):
            for name, scheme in schemes.items():
                if isinstance(scheme, dict):
                    _put(
                        sections,
                        f"platform.{name}.speedup",
                        scheme.get("speedup"),
                    )
                    _put(
                        sections,
                        f"platform.{name}.fast_lane_s",
                        scheme.get("fast_lane_s"),
                    )
    simd = report.get("simd")
    if isinstance(simd, dict):
        configs = simd.get("configs")
        if isinstance(configs, list):
            for config in configs:
                if isinstance(config, dict):
                    lanes = config.get("lanes")
                    _put(
                        sections,
                        f"simd.N{lanes}.speedup_vs_scalar",
                        config.get("speedup_vs_scalar"),
                    )
                    _put(
                        sections,
                        f"simd.N{lanes}.lockstep_s",
                        config.get("lockstep_s"),
                    )
    return sections


def append_history(
    path: PathLike, report: Dict[str, Any]
) -> Dict[str, Any]:
    """Append one history entry for ``report``; returns the entry."""
    entry: Dict[str, Any] = {
        "schema": 1,
        "t": time.time(),
        "rev": git_revision(),
        "quick": bool(report.get("quick", False)),
        "all_checks_passed": bool(report.get("all_checks_passed", False)),
        "sections": flatten_report(report),
    }
    sink = NdjsonFileSink(path, flush_each=True)
    try:
        sink.emit(entry)
    finally:
        sink.close()
    return entry


def load_history(path: PathLike) -> List[Dict[str, Any]]:
    """Read history entries, tolerating a torn final line."""
    entries: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(record, dict) and isinstance(
                record.get("sections"), dict
            ):
                entries.append(record)
    return entries


def _numeric_sections(entry: Dict[str, Any]) -> Dict[str, float]:
    """The entry's ``sections`` restricted to finite numeric scalars.

    History files accumulate across tool versions (and survive torn
    writes), so ``compare`` must not trust any individual entry's
    shape: a missing/odd-typed section or a non-numeric metric value
    silently drops that entry from the pool instead of crashing the
    whole comparison.
    """
    sections = entry.get("sections")
    if not isinstance(sections, dict):
        return {}
    cleaned: Dict[str, float] = {}
    for metric, value in sections.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        cleaned[str(metric)] = float(value)
    return cleaned


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def lower_is_better(metric: str) -> bool:
    return metric.endswith("_s")


def compare(
    entries: List[Dict[str, Any]],
    last_k: int = 5,
    max_regression: float = 0.25,
) -> Dict[str, Any]:
    """Diff the newest entry against the median of its predecessors.

    Only entries with the newest entry's ``quick`` flag participate.
    Returns ``{comparable, baseline_entries, deltas, regressions}``;
    ``comparable`` counts the baseline pool (the gate stays soft until
    it is large enough).  Each delta row carries the metric, its
    latest/baseline values, the signed relative delta, the direction,
    and whether it breached ``max_regression``.
    """
    if not entries:
        return {
            "comparable": 0,
            "baseline_entries": 0,
            "deltas": [],
            "regressions": [],
        }
    latest = entries[-1]
    pool = [
        e
        for e in entries[:-1]
        if e.get("quick") == latest.get("quick")
    ]
    baseline_pool = pool[-last_k:]
    deltas: List[Dict[str, Any]] = []
    regressions: List[str] = []
    baseline_sections = [_numeric_sections(e) for e in baseline_pool]
    latest_sections = _numeric_sections(latest)
    for metric in sorted(latest_sections):
        value = latest_sections[metric]
        history = [
            sections[metric]
            for sections in baseline_sections
            if metric in sections
        ]
        if not history:
            continue
        baseline = _median(history)
        if baseline == 0:
            continue
        delta = (value - baseline) / baseline
        lower = lower_is_better(metric)
        regressed = delta > max_regression if lower else (
            delta < -max_regression
        )
        deltas.append(
            {
                "metric": metric,
                "latest": value,
                "baseline": baseline,
                "delta_pct": delta * 100.0,
                "direction": "lower-better" if lower else "higher-better",
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(metric)
    return {
        "comparable": len(pool) + 1,
        "baseline_entries": len(baseline_pool),
        "deltas": deltas,
        "regressions": regressions,
    }


def format_comparison(
    comparison: Dict[str, Any], max_regression: float
) -> str:
    """Render a perf-compare result as an aligned terminal report."""
    deltas = comparison["deltas"]
    lines = [
        f"== perf-compare ==  baseline: median of "
        f"{comparison['baseline_entries']} prior entries, "
        f"threshold {max_regression * 100:.0f}%"
    ]
    if not deltas:
        lines.append("(no comparable metrics)")
        return "\n".join(lines)
    width = max(len(d["metric"]) for d in deltas)
    for d in deltas:
        marker = "REGRESSED" if d["regressed"] else "ok"
        lines.append(
            f"{d['metric']:<{width}}  {d['latest']:>12.6g}  "
            f"vs {d['baseline']:>12.6g}  {d['delta_pct']:>+7.1f}%  "
            f"[{d['direction']}]  {marker}"
        )
    regressions = comparison["regressions"]
    lines.append(
        f"{len(regressions)} regression(s) beyond threshold"
        + (f": {', '.join(regressions)}" if regressions else "")
    )
    return "\n".join(lines)


def parse_threshold(text: str) -> float:
    """Parse ``25%`` or ``0.25`` into a fraction."""
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    value = float(text)
    if value < 0:
        raise ValueError(f"threshold must be non-negative, got {text}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """``repro perf-compare`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro perf-compare",
        description="compare the newest BENCH_history.ndjson entry "
        "against the median of the last K comparable entries",
    )
    parser.add_argument(
        "--history",
        default=HISTORY_FILENAME,
        help=f"history file (default ./{HISTORY_FILENAME})",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=5,
        metavar="K",
        help="baseline pool size (default 5)",
    )
    parser.add_argument(
        "--max-regression",
        type=parse_threshold,
        default=0.25,
        metavar="PCT",
        help="failure threshold, e.g. 25%% or 0.25 (default 25%%)",
    )
    parser.add_argument(
        "--min-entries",
        type=int,
        default=3,
        metavar="N",
        help="soft gate: warn (exit 0) until this many comparable "
        "entries exist (default 3)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    args = parser.parse_args(argv)

    entries = load_history(args.history)
    comparison = compare(
        entries, last_k=args.last, max_regression=args.max_regression
    )
    if args.json:
        print(json.dumps(comparison, indent=2))
    else:
        print(format_comparison(comparison, args.max_regression))
    if comparison["comparable"] < args.min_entries:
        print(
            f"perf-compare: only {comparison['comparable']} comparable "
            f"entr{'y' if comparison['comparable'] == 1 else 'ies'} in "
            f"{args.history} (< {args.min_entries}); soft gate — not "
            f"failing"
        )
        return 0
    return 1 if comparison["regressions"] else 0


__all__ = [
    "HISTORY_FILENAME",
    "append_history",
    "compare",
    "flatten_report",
    "format_comparison",
    "load_history",
    "lower_is_better",
    "main",
    "parse_threshold",
]
