"""repro.obs — dependency-free telemetry for campaigns and kernels.

Five pillars:

* :mod:`repro.obs.metrics` — a named-instrument registry (counters
  and categorical histograms) with a free no-op default and picklable
  snapshots that merge exactly across process-pool workers.
* :mod:`repro.obs.trace` — span-based structured tracing emitting
  NDJSON to pluggable sinks.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (seeds, git revision, versions, parameters, timings, metrics)
  written alongside campaign and benchmark outputs.
* :mod:`repro.obs.profile` — the deterministic, sampling-free engine
  profiler: opcode mix, per-PC execution counts, fast/slow-path cycle
  residency, burst lengths, write-back and settlement costs, all
  published through the metrics registry under pinned ``profile.*``
  names.
* :mod:`repro.obs.report` — span-tree aggregation of NDJSON traces,
  profiler snapshot rendering, live campaign progress (done/total,
  ETA, heartbeat NDJSON) and mtime-based worker liveness.

Typical session::

    from repro import obs

    registry = obs.enable_metrics()
    obs.enable_tracing("campaign.ndjson")
    ...  # run campaigns; instrumented layers report automatically
    print(obs.format_snapshot(registry.snapshot()))
    obs.disable_tracing()

Everything is off by default: library code writes through
:func:`active_metrics` / :func:`active_tracer`, which cost two no-op
attribute calls until explicitly enabled.
"""

from repro.obs.manifest import RunManifest, git_revision
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NullMetrics,
    active_metrics,
    disable_metrics,
    enable_metrics,
    format_snapshot,
    scoped_metrics,
)
from repro.obs.profile import (
    EngineProfiler,
    NULL_PROFILER,
    NullEngineProfiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    scoped_profiling,
)
from repro.obs.report import (
    CampaignProgress,
    JournalLiveness,
    aggregate_spans,
    aggregate_trace_file,
    format_cost_tree,
    read_ndjson,
    render_profile,
)
from repro.obs.trace import (
    InMemorySink,
    NdjsonFileSink,
    NULL_TRACER,
    NullTracer,
    StderrSink,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullMetrics",
    "NULL_METRICS",
    "active_metrics",
    "enable_metrics",
    "disable_metrics",
    "scoped_metrics",
    "format_snapshot",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "InMemorySink",
    "NdjsonFileSink",
    "StderrSink",
    "active_tracer",
    "enable_tracing",
    "disable_tracing",
    "RunManifest",
    "git_revision",
    "EngineProfiler",
    "NullEngineProfiler",
    "NULL_PROFILER",
    "active_profiler",
    "enable_profiling",
    "disable_profiling",
    "scoped_profiling",
    "CampaignProgress",
    "JournalLiveness",
    "aggregate_spans",
    "aggregate_trace_file",
    "format_cost_tree",
    "read_ndjson",
    "render_profile",
]
