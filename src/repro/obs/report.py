"""Rollups of obs output: cost trees, profile reports, live progress.

Three consumers of the raw telemetry the rest of the package emits:

* :func:`aggregate_spans` / :func:`format_cost_tree` roll an NDJSON
  trace (or an in-memory record list) into a hierarchical per-phase
  cost tree — span counts, total/self durations, and the unsampled
  points that fired inside each span.
* :func:`render_profile` renders the engine profiler's metrics
  snapshot (:mod:`repro.obs.profile`) as a terminal report: engine
  residency, opcode mix, fast/slow-path cycle split, write-back and
  settlement costs, and the SIMD lane histograms.
* :class:`CampaignProgress` is a live progress reporter for
  ``run_campaign``: tasks done/total, an ETA derived from completed
  task durations, an optional NDJSON heartbeat sink (one flushed line
  per update, so external watchers can tail it), and an ``on_update``
  hook for terminal dashboards.  :class:`JournalLiveness` infers
  worker health from an append-only log's mtime.

:func:`read_ndjson` is the one NDJSON reader, the counterpart of
:class:`~repro.obs.trace.NdjsonFileSink`: traces, heartbeats, the
store sidecar, the serve job journal and the perf history all read
through it.  A file cut mid-line (worker death, SIGKILL) yields every
complete record before the tear.  This module is deliberately outside
the REP301 determinism scope — wall-clock reads (ETA, liveness) belong
here, not in the engines.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import NdjsonFileSink

PathLike = Union[str, "os.PathLike[str]"]


def read_ndjson(path: PathLike) -> List[Dict[str, Any]]:
    """Read NDJSON records, tolerating a torn final line.

    Returns every record up to the first undecodable line; a missing
    file reads as empty.
    """
    records: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return records
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(record, dict):
                records.append(record)
    return records


# ----------------------------------------------------------------------
# Hierarchical span aggregation
# ----------------------------------------------------------------------
class SpanNode:
    """Aggregated cost of all spans sharing one name under one parent."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.errors = 0
        self.children: Dict[str, "SpanNode"] = {}
        self.points: Dict[str, int] = {}

    @property
    def self_s(self) -> float:
        """Time attributed to this node alone (total minus children)."""
        child_total = sum(c.total_s for c in self.children.values())
        return max(0.0, self.total_s - child_total)

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node


def aggregate_spans(records: List[Dict[str, Any]]) -> SpanNode:
    """Roll trace records into a cost tree rooted at a synthetic node.

    Same-named spans under the same parent merge; spans whose parent
    never appeared (torn traces) attach to the root.  ``span_start``
    records without a matching ``span_end`` (the abnormal-exit case the
    flush lifecycle exists for) still contribute their count, so a torn
    trace shows *that* a phase ran even when its duration is lost.
    Points are credited to the node of their enclosing span.
    """
    root = SpanNode("<root>")
    # span id -> (name, parent id) from start records.
    starts: Dict[int, "tuple[str, Optional[int]]"] = {}
    for record in records:
        if record.get("kind") == "span_start":
            span = record.get("span")
            if isinstance(span, int):
                parent = record.get("parent")
                starts[span] = (
                    str(record.get("name")),
                    parent if isinstance(parent, int) else None,
                )

    nodes: Dict[int, SpanNode] = {}

    def node_for(span_id: Optional[int]) -> SpanNode:
        if span_id is None or span_id not in starts:
            return root
        cached = nodes.get(span_id)
        if cached is not None:
            return cached
        name, parent_id = starts[span_id]
        node = node_for(parent_id).child(name)
        nodes[span_id] = node
        return node

    ended = set()
    for record in records:
        kind = record.get("kind")
        if kind == "span_end":
            span = record.get("span")
            if not isinstance(span, int):
                continue
            node = node_for(span)
            node.count += 1
            ended.add(span)
            duration = record.get("dur_s")
            if isinstance(duration, (int, float)):
                node.total_s += float(duration)
            if "error" in record:
                node.errors += 1
        elif kind in ("point", "event"):
            span = record.get("span")
            node = node_for(span if isinstance(span, int) else None)
            name = str(record.get("name"))
            node.points[name] = node.points.get(name, 0) + 1
    # Unclosed spans (torn tail) still count once.
    for span_id, (name, _) in starts.items():
        if span_id not in ended:
            node_for(span_id).count += 1
    return root


def format_cost_tree(root: SpanNode) -> str:
    """Render a cost tree as indented text with self-time percentages."""
    total = sum(c.total_s for c in root.children.values())
    lines = [f"== cost tree ==  total {total:.3f}s"]

    def emit(node: SpanNode, depth: int) -> None:
        share = (node.total_s / total * 100.0) if total > 0 else 0.0
        error_note = f"  errors={node.errors}" if node.errors else ""
        lines.append(
            f"{'  ' * depth}{node.name}  x{node.count}  "
            f"{node.total_s:.3f}s total / {node.self_s:.3f}s self  "
            f"({share:.1f}%){error_note}"
        )
        for name, count in sorted(node.points.items()):
            lines.append(f"{'  ' * (depth + 1)}· {name} x{count}")
        for child in sorted(
            node.children.values(), key=lambda n: -n.total_s
        ):
            emit(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda n: -n.total_s):
        emit(child, 0)
    for name, count in sorted(root.points.items()):
        lines.append(f"· {name} x{count} (no enclosing span)")
    if len(lines) == 1:
        lines.append("(no spans)")
    return "\n".join(lines)


def aggregate_trace_file(path: PathLike) -> SpanNode:
    """Torn-tail-tolerant :func:`aggregate_spans` over an NDJSON file."""
    return aggregate_spans(read_ndjson(path))


# ----------------------------------------------------------------------
# Engine-profile rendering
# ----------------------------------------------------------------------
def _bar_section(title: str, counts: Dict[str, int]) -> List[str]:
    if not counts:
        return []
    # Lazy import: repro.analysis.__init__ imports campaign -> repro.obs,
    # so a module-level import here would be circular.
    from repro.analysis.ascii_plot import histogram

    return ["", histogram(counts, title=title)]


def render_profile(snapshot: MetricsSnapshot) -> str:
    """Render the engine profiler's instruments from a snapshot.

    Sections with no data are omitted, so a scalar-only run prints no
    SIMD histograms and an unprofiled snapshot collapses to a note.
    """
    counters = snapshot.counters
    histograms = snapshot.histograms
    lines: List[str] = ["== engine profile =="]

    engines = histograms.get("profile.engine", {})
    if engines:
        total_runs = sum(engines.values())
        parts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(engines.items())
        )
        lines.append(f"runs: {total_runs} ({parts})")

    fast_i = counters.get("profile.fast_path.instructions", 0)
    slow_i = counters.get("profile.slow_path.instructions", 0)
    fast_c = counters.get("profile.fast_path.cycles", 0)
    slow_c = counters.get("profile.slow_path.cycles", 0)
    if fast_i or slow_i:
        total_i = fast_i + slow_i
        share = (100.0 * fast_i / total_i) if total_i else 0.0
        lines.append(
            f"residency: fast-path {fast_i} insns / {fast_c} cycles, "
            f"slow-path {slow_i} insns / {slow_c} cycles "
            f"({share:.1f}% fast)"
        )

    bursts = counters.get("profile.fastlane.bursts", 0)
    if bursts:
        lines.append(
            f"fast lane: {bursts} bursts, "
            f"{counters.get('profile.writeback.words', 0)} words written "
            f"back ({counters.get('profile.writeback.batches', 0)} "
            f"batched flushes)"
        )
    settlements = counters.get("profile.settlements", 0)
    if settlements:
        lines.append(
            f"settlements: {settlements} "
            f"({counters.get('profile.settlement.reads', 0)} reads, "
            f"{counters.get('profile.settlement.writes', 0)} writes)"
        )
    rounds = counters.get("profile.simd.rounds", 0)
    if rounds:
        lines.append(f"simd: {rounds} scheduling rounds")

    lines.extend(
        _bar_section(
            "opcode mix (instructions)",
            histograms.get("profile.opcode", {}),
        )
    )
    lines.extend(
        _bar_section(
            "burst length (instructions)",
            histograms.get("profile.fastlane.burst_length", {}),
        )
    )
    lines.extend(
        _bar_section(
            "SIMD lane occupancy (rounds)",
            histograms.get("profile.simd.lane_occupancy", {}),
        )
    )
    lines.extend(
        _bar_section(
            "SIMD mask density (rounds)",
            histograms.get("profile.simd.mask_density", {}),
        )
    )
    lines.extend(
        _bar_section(
            "SIMD divergence: distinct PCs (rounds)",
            histograms.get("profile.simd.divergence", {}),
        )
    )
    lines.extend(
        _bar_section(
            "SIMD reconvergence depth: max-min PC (rounds)",
            histograms.get("profile.simd.reconvergence_depth", {}),
        )
    )
    if len(lines) == 1:
        lines.append("(no profiler data — was profiling enabled?)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live campaign progress
# ----------------------------------------------------------------------
class CampaignProgress:
    """Tasks done/total, ETA, and an NDJSON heartbeat for campaigns.

    Wired into ``ResilientExecutor.run`` via its ``progress`` hook;
    every completed task reports its wall-clock duration, from which
    the ETA extrapolates (mean duration x remaining / workers).  Each
    update appends one flushed line to the heartbeat file, so an
    external watcher (or a post-mortem) always sees the latest state —
    :func:`read_ndjson` tolerates a torn final heartbeat line.
    """

    def __init__(
        self,
        heartbeat: Optional[PathLike] = None,
        on_update: Optional[Callable[["CampaignProgress"], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = 0
        self.done = 0
        self.resumed = 0
        self.quarantined = 0
        self.workers = 1
        self._durations: List[float] = []
        self._on_update = on_update
        self._clock = clock
        self._started_at: Optional[float] = None
        self._sink: Optional[NdjsonFileSink] = (
            NdjsonFileSink(heartbeat, flush_each=True)
            if heartbeat is not None
            else None
        )

    # -- executor-facing hooks -----------------------------------------
    def on_start(self, total: int, resumed: int, workers: int) -> None:
        self.total = total
        self.done = resumed
        self.resumed = resumed
        self.workers = max(1, workers)
        self._started_at = self._clock()
        self._emit("start", resumed=resumed)

    def on_task(self, key: str, seconds: Optional[float]) -> None:
        self.done += 1
        if seconds is not None and seconds >= 0:
            self._durations.append(seconds)
        self._emit("task", key=key, seconds=seconds)

    def on_quarantine(self, key: str) -> None:
        self.done += 1
        self.quarantined += 1
        self._emit("quarantine", key=key)

    # -- derived state --------------------------------------------------
    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    def mean_task_seconds(self) -> Optional[float]:
        if not self._durations:
            return None
        return sum(self._durations) / len(self._durations)

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to completion, None before the first task."""
        mean = self.mean_task_seconds()
        if mean is None:
            return None
        return mean * self.remaining / self.workers

    def render(self) -> str:
        """One dashboard line: done/total, rate, quarantines, ETA."""
        parts = [f"campaign {self.done}/{self.total} done"]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        mean = self.mean_task_seconds()
        if mean is not None:
            parts.append(f"{mean:.2f}s/task")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {eta:.1f}s")
        return " · ".join(parts)

    # -- plumbing -------------------------------------------------------
    def _emit(self, kind: str, **extra: Any) -> None:
        if self._sink is not None:
            record: Dict[str, Any] = {
                "kind": kind,
                "done": self.done,
                "total": self.total,
                "quarantined": self.quarantined,
                "workers": self.workers,
            }
            eta = self.eta_seconds()
            if eta is not None:
                record["eta_s"] = round(eta, 6)
            record.update(extra)
            self._sink.emit(record)
        if self._on_update is not None:
            self._on_update(self)

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


class JournalLiveness:
    """Worker liveness inferred from an append-only log's mtime.

    ``repro serve`` probes its job journal this way: the journal
    carries no timestamps, but every job transition appends and
    flushes a record, so the file's mtime is a faithful worker
    heartbeat, observed from outside the deterministic scope.  The
    probe is one ``os.stat``; it never reads the file.
    """

    def __init__(
        self, path: PathLike, stale_after_s: float = 60.0
    ) -> None:
        self.path = path
        self.stale_after_s = stale_after_s

    def probe(self) -> Dict[str, Any]:
        """Snapshot of mtime-derived health.

        ``alive`` is None when no file exists yet (nothing to infer),
        else whether the last append is fresher than ``stale_after_s``.
        """
        try:
            stat = os.stat(self.path)
        except OSError:
            return {"exists": False, "alive": None, "age_s": None}
        age = max(0.0, time.time() - stat.st_mtime)
        return {
            "exists": True,
            "alive": age <= self.stale_after_s,
            "age_s": age,
        }


__all__ = [
    "CampaignProgress",
    "JournalLiveness",
    "SpanNode",
    "aggregate_spans",
    "aggregate_trace_file",
    "format_cost_tree",
    "read_ndjson",
    "render_profile",
]
