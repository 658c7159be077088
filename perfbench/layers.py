"""Per-layer metrics of a traced run, and what each one should move.

Every per-layer figure is taken over one *trace unit* of fixed input
(one exhibit-set pass, one cold-plus-warm campaign pass, or the first
:data:`perfbench.inputs.SERVE_TRACE_REQUESTS` serve requests) and
divided by the number of units traced, so counts repeat exactly for a
seed and times compare across commits.  Latency percentiles and ratios
are not divided.

``LAYER_METRICS`` ties each metric to the end-to-end metric and the
workloads it should move, so a change can name in advance the numbers
it expects to see change.  End-to-end metrics go by each workload's own
name (``campaign_runs_per_s``); :data:`END_TO_END_NAMES` gives the
``BENCHMARK.json`` metric that carries each one.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import EXHIBITS, Recorder, self_times

#: Each workload's own name for an end-to-end figure -> the
#: ``BENCHMARK.json`` metric that carries it (``failed_frac`` is printed,
#: and carried by the result line's ``failed``/``attempted``).
END_TO_END_NAMES: Dict[str, str] = {
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
    "failed_frac": "failed/attempted",
    "exhibits_s": "warm_p50_s",
    "campaign_runs_per_s": "throughput_per_s",
    "campaign_warm_s": "warm_p50_s",
    "serve_requests_per_s": "throughput_per_s",
    "serve_warm_p50_s": "warm_p50_s",
    "serve_cold_p50_s": "cold_p50_s",
}

_EXHIBITS = ("exhibits_s", "exhibits")
_CAMPAIGN = ("campaign_runs_per_s", "campaign")
_SERVE_COLD = ("serve_cold_p50_s", "serve")
_FAILED = ("failed_frac", "campaign, serve")
_STORE_READ = ("campaign_warm_s, serve_warm_p50_s", "campaign, serve")
_COLD_WORK = ("campaign_runs_per_s, serve_cold_p50_s", "campaign, serve")
_SIMD = ("serve_cold_p50_s, serve_requests_per_s", "serve")
_BATCH = ("exhibits_s, serve_cold_p50_s", "exhibits, serve")

#: name -> (unit, better, end-to-end metrics it should move, workloads).
LAYER_METRICS: Dict[str, tuple] = {
    **{f"analysis.exhibit.{label}_s": ("s", "lower", *_EXHIBITS)
       for label in EXHIBITS.values()},
    "analysis.batch_s": ("s", "lower", *_EXHIBITS),
    "analysis.campaign.self_s": ("s", "lower", *_COLD_WORK),
    "tech.delay_mc_s": ("s", "lower", *_EXHIBITS),
    "core.fit_solver_s": ("s", "lower", *_EXHIBITS),
    "workloads.build_fft_s": ("s", "lower", "setup_s", "all"),
    "resilience.executor.self_s": ("s", "lower", "campaign_runs_per_s",
                                   "campaign, serve"),
    "resilience.tasks": ("count", "lower", "campaign_runs_per_s",
                         "campaign, serve"),
    "resilience.retries": ("count", "lower", *_FAILED),
    "resilience.quarantined": ("count", "lower", *_FAILED),
    "mitigation.build_platform_s": ("s", "lower", *_CAMPAIGN),
    "mitigation.build_platform.calls": ("count", "lower", *_CAMPAIGN),
    "mitigation.execute.self_s": ("s", "lower", *_CAMPAIGN),
    "mitigation.collect_outcome_s": ("s", "lower", *_CAMPAIGN),
    "mitigation.rollbacks": ("count", "lower", *_CAMPAIGN),
    "mitigation.cpu_checkpoints": ("count", "lower", *_CAMPAIGN),
    "soc.load_s": ("s", "lower", *_CAMPAIGN),
    "soc.memory.accesses": ("count", "lower", *_CAMPAIGN),
    "soc.engine.scalar_s": ("s", "lower", *_CAMPAIGN),
    "soc.engine.scalar.instructions": ("count", "lower", *_CAMPAIGN),
    "soc.engine.scalar.ns_per_instr": ("ns", "lower", *_CAMPAIGN),
    "soc.engine.fast_lane_s": ("s", "lower", *_EXHIBITS),
    "soc.engine.fast_lane.instructions": ("count", "lower", *_EXHIBITS),
    "soc.engine.fast_lane.ns_per_instr": ("ns", "lower", *_EXHIBITS),
    "soc.engine.simd_s": ("s", "lower", *_SIMD),
    "soc.engine.simd.lane_instructions": ("count", "lower", *_SIMD),
    "soc.engine.simd.ns_per_lane_instr": ("ns", "lower", *_SIMD),
    "faults.sample_mask.calls": ("count", "lower", *_CAMPAIGN),
    "faults.sample_mask_s": ("s", "lower", *_CAMPAIGN),
    "faults.batch.calls": ("count", "lower", *_BATCH),
    "faults.batch_s": ("s", "lower", *_BATCH),
    "faults.injected_bits": ("count", "lower", *_COLD_WORK),
    "ecc.scalar.calls": ("count", "lower", *_CAMPAIGN),
    "ecc.scalar_s": ("s", "lower", *_CAMPAIGN),
    "ecc.corrected": ("count", "lower", *_CAMPAIGN),
    "ecc.detected": ("count", "lower", *_CAMPAIGN),
    "ecc.batch.words": ("count", "lower", *_BATCH),
    "ecc.batch_s": ("s", "lower", *_BATCH),
    "store.open_s": ("s", "lower", *_STORE_READ),
    "store.get.calls": ("count", "lower", *_STORE_READ),
    "store.get_s": ("s", "lower", *_STORE_READ),
    "store.hit_ratio": ("ratio", "higher", *_STORE_READ),
    "store.key_s": ("s", "lower", *_STORE_READ),
    "store.codec_s": ("s", "lower", *_STORE_READ),
    "store.put.calls": ("count", "lower", *_COLD_WORK),
    "store.put_s": ("s", "lower", *_COLD_WORK),
    "serve.http.curve_p50_s": ("s", "lower", "serve_warm_p50_s", "serve"),
    "serve.http.submit_p50_s": ("s", "lower", *_SERVE_COLD),
    "serve.http.status_p50_s": ("s", "lower", *_SERVE_COLD),
    "serve.http.result_p50_s": ("s", "lower", *_SERVE_COLD),
    "serve.polls_per_cold": ("count", "lower", *_SERVE_COLD),
    "serve.job_s": ("s", "lower", *_SERVE_COLD),
    "serve.journal_s": ("s", "lower", *_SERVE_COLD),
    "serve.journal.records": ("count", "lower", *_SERVE_COLD),
    # The workload's stated property: requests the store answers whole.
    "serve.warm_share": ("ratio", "higher", "serve_requests_per_s", "serve"),
    "serve.refused": ("count", "lower", "failed_frac", "serve"),
    "serve.client_retries": ("count", "lower", "failed_frac", "serve"),
    "obs.trace_overhead_pct": ("%", "lower", "none (cost of tracing)",
                               "all"),
}


def moves(name: str) -> str:
    """``LAYER_METRICS[name]``'s targets, each with its ``BENCHMARK.json``
    carrier, as printed beside a traced run's figures."""
    _, _, targets, workloads = LAYER_METRICS[name]
    named = []
    for target in targets.split(", "):
        carrier = END_TO_END_NAMES.get(target, target)
        named.append(target if carrier == target else f"{target} ({carrier})")
    return f"moves {', '.join(named)} on {workloads}"


#: Client-side round trips; ``submit`` is a ``/curve`` answered 202,
#: which submits the job on the server.
HTTP_SPANS = ("curve", "submit", "status", "result")


def summarize(recorder: Recorder, counters: Dict[str, int]) -> dict:
    """One process's spans, hot calls and registry counters, reduced."""
    spans = recorder.spans()
    calls: Dict[str, int] = {}
    roots: Dict[str, float] = {}
    by_fn: Dict[str, List[float]] = {}
    durations: Dict[str, List[float]] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.parent is None:
            roots[span.name] = roots.get(span.name, 0.0) + span.duration_s
        by_fn.setdefault(span.fn, []).append(span.duration_s)
        if span.name.startswith("serve.http."):
            durations.setdefault(span.name, []).append(span.duration_s)
    return {
        "self_s": self_times(recorder.records()),
        "calls": calls,
        "root_s": roots,
        "jobs_s": by_fn.get("scheme_failure_grid", []),
        "durations": durations,
        "hot": recorder.hot_totals(),
        "counts": recorder.counts(),
        "counters": dict(counters),
    }


def merge(first: dict, second: dict) -> dict:
    """Combine two processes' summaries (client and server)."""
    out: dict = {"jobs_s": first["jobs_s"] + second["jobs_s"]}
    for key in ("self_s", "calls", "root_s", "counts", "counters"):
        out[key] = dict(first[key])
        for name, value in second[key].items():
            out[key][name] = out[key].get(name, 0) + value
    a, b = first["durations"], second["durations"]
    out["durations"] = {
        name: a.get(name, []) + b.get(name, []) for name in a.keys() | b.keys()
    }
    a, b = first["hot"], second["hot"]
    out["hot"] = {
        name: [x + y for x, y in zip(a.get(name, [0, 0]), b.get(name, [0, 0]))]
        for name in a.keys() | b.keys()
    }
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(summary: dict, units: int, client: dict,
                  overhead_pct: float) -> Dict[str, float]:
    """Every ``LAYER_METRICS`` value from a (merged) summary.

    ``client`` holds the serve client's own tallies (``polls``,
    ``cold``, ``warm``, ``requests``, ``refused``); it is empty on the
    other workloads.
    """
    selfs, calls, hot = summary["self_s"], summary["calls"], summary["hot"]
    counts, counters = summary["counts"], summary["counters"]

    def per(value: float) -> float:
        return value / units

    def self_s(name: str) -> float:
        return per(selfs.get(name, 0.0))

    def hot_calls(name: str) -> float:
        return per(hot.get(name, [0, 0])[0])

    def hot_s(name: str) -> float:
        return per(hot.get(name, [0, 0])[1] / 1e9)

    out: Dict[str, float] = {}
    for label in EXHIBITS.values():
        name = f"analysis.exhibit.{label}"
        out[f"{name}_s"] = per(summary["root_s"].get(name, 0.0))
    out["analysis.batch_s"] = self_s("analysis.batch")
    out["analysis.campaign.self_s"] = self_s("analysis.campaign")
    out["tech.delay_mc_s"] = self_s("tech.delay_mc")
    out["core.fit_solver_s"] = self_s("core.fit_solver")
    out["workloads.build_fft_s"] = self_s("workloads.build_fft")
    out["resilience.executor.self_s"] = self_s("resilience.executor")
    for field in ("tasks", "retries", "quarantined"):
        out[f"resilience.{field}"] = per(counters.get(f"resilience.{field}", 0))
    out["mitigation.build_platform_s"] = self_s("mitigation.build_platform")
    out["mitigation.build_platform.calls"] = per(
        calls.get("mitigation.build_platform", 0))
    out["mitigation.execute.self_s"] = self_s("mitigation.execute")
    out["mitigation.collect_outcome_s"] = self_s("mitigation.collect_outcome")
    out["mitigation.rollbacks"] = per(counters.get("platform.rollbacks", 0))
    out["mitigation.cpu_checkpoints"] = per(
        counters.get("platform.cpu_checkpoints", 0))
    out["soc.load_s"] = self_s("soc.load")
    out["soc.memory.accesses"] = per(counts.get("soc.memory.accesses", 0))
    for engine, unit, rate in (
        ("scalar", "instructions", "ns_per_instr"),
        ("fast_lane", "instructions", "ns_per_instr"),
        ("simd", "lane_instructions", "ns_per_lane_instr"),
    ):
        seconds = selfs.get(f"soc.engine.{engine}", 0.0)
        executed = counts.get(f"soc.engine.{engine}.{unit}", 0)
        out[f"soc.engine.{engine}_s"] = per(seconds)
        out[f"soc.engine.{engine}.{unit}"] = per(executed)
        out[f"soc.engine.{engine}.{rate}"] = (
            seconds * 1e9 / executed if executed else 0.0)
    out["faults.sample_mask.calls"] = hot_calls("faults.sample_mask")
    out["faults.sample_mask_s"] = hot_s("faults.sample_mask")
    out["faults.batch.calls"] = hot_calls("faults.batch")
    out["faults.batch_s"] = hot_s("faults.batch")
    out["faults.injected_bits"] = per(counters.get("faults.injected_bits", 0))
    out["ecc.scalar.calls"] = hot_calls("ecc.scalar")
    out["ecc.scalar_s"] = hot_s("ecc.scalar")
    # Words the platform ports decoded as corrected / detected.
    out["ecc.corrected"] = per(counters.get("platform.corrected_words", 0))
    out["ecc.detected"] = per(counters.get("platform.detected_words", 0))
    out["ecc.batch.words"] = per(counts.get("ecc.batch.words", 0))
    out["ecc.batch_s"] = hot_s("ecc.batch")
    out["store.open_s"] = self_s("store.open")
    out["store.get.calls"] = per(calls.get("store.get", 0))
    out["store.get_s"] = self_s("store.get")
    hits = counters.get("store.hits", 0)
    probes = hits + counters.get("store.misses", 0)
    out["store.hit_ratio"] = hits / probes if probes else 0.0
    out["store.key_s"] = self_s("store.key")
    out["store.codec_s"] = self_s("store.codec")
    out["store.put.calls"] = per(calls.get("store.put", 0))
    out["store.put_s"] = self_s("store.put")
    for endpoint in HTTP_SPANS:
        out[f"serve.http.{endpoint}_p50_s"] = _median(
            summary["durations"].get(f"serve.http.{endpoint}", []))
    cold = client.get("cold", 0)
    out["serve.polls_per_cold"] = client.get("polls", 0) / cold if cold else 0.0
    out["serve.job_s"] = _median(summary["jobs_s"])
    out["serve.journal_s"] = self_s("serve.journal")
    out["serve.journal.records"] = per(calls.get("serve.journal", 0))
    requests = client.get("requests", 0)
    out["serve.warm_share"] = (
        client.get("warm", 0) / requests if requests else 0.0)
    out["serve.refused"] = float(client.get("refused", 0))
    out["serve.client_retries"] = float(
        counters.get("serve.client_retries", 0))
    out["obs.trace_overhead_pct"] = overhead_pct
    missing = set(LAYER_METRICS) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    return out
