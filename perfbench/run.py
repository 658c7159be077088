"""Repository benchmark: the ``exhibits``, ``campaign`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed unit of work untraced and then traced, and
prints the per-layer host-time split plus the tracing overhead.  The
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it name every metric with
its unit and, for ``exhibits``, the reproduction error against the
paper.  The exit code is non-zero when a correctness check failed.

What each workload measures (generic ``BENCHMARK.json`` name, then
the workload's own name for it):

==================  ===================  =====================  ====================
metric              exhibits             campaign               serve
==================  ===================  =====================  ====================
setup_s             imports              imports, FFT, store    until ``/healthz``
peak_rss_mb         worker process       worker process         server process
throughput_per_s    exhibits/s           campaign_runs_per_s    serve_requests_per_s
cold_p50_s          first pass           cold pass (3 points)   serve_cold_p50_s
warm_p50_s          exhibits_s           campaign_warm_s        serve_warm_p50_s
==================  ===================  =====================  ====================

``failed/attempted`` (the failed fraction) covers exhibit
regenerations, Monte-Carlo runs and warm re-answers, or serve requests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import calibrate
import checks
import inputs
import layers
import serve_load
import tracing
from procs import HERE, ROOT, Child, python

WORKLOADS = ("exhibits", "campaign", "serve")

#: name -> unit of every end-to-end metric, as in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "cold_p50_s": "s",
    "warm_p50_s": "s",
}

#: Set-up time is the median of this many fresh process starts.
SETUP_SAMPLES = 5
#: Every run must end well inside three minutes.
RUN_BUDGET_S = 170.0
#: The speed probe's output, in the run's work directory.
SPEED_FILE = "speed.txt"


def _worker_argv(args, work: Path, fresh: bool) -> List[str]:
    argv = [python(), str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work),
            "--speed", str(work / SPEED_FILE)]
    return argv + ["--fresh"] if fresh else argv


def _remaining(started: float) -> float:
    return max(1.0, RUN_BUDGET_S - (time.perf_counter() - started))


def _start_worker(args, work: Path, started: float, fresh: bool):
    """Start a worker; returns it and its set-up interval."""
    child = Child(_worker_argv(args, work, fresh))
    try:
        child.expect(lambda line: line == "ready", _remaining(started))
    except BaseException:
        child.stop()
        raise
    return child, (child.started, time.perf_counter())


def _finish_worker(child: Child, started: float) -> Dict[str, Any]:
    try:
        lines = child.finish(_remaining(started))
    finally:
        code = child.stop()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(lines[-1])


def run_worker(args, work: Path, started: float) -> Dict[str, Any]:
    """``exhibits`` / ``campaign``: fresh-process samples, then the worker."""
    setups, cold, attempted, failed = [], [], 0, 0
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        child, setup = _start_worker(args, work, started, fresh=True)
        setups.append(setup)
        fresh = _finish_worker(child, started)
        cold += [fresh["cold_s"]] if "cold_s" in fresh else []
        attempted += fresh["attempted"]
        failed += fresh["failed"]
    child, setup = _start_worker(args, work, started, fresh=False)
    setups.append(setup)
    out = _finish_worker(child, started)
    speed = calibrate.Speed.load(work / SPEED_FILE)
    out["setups"] = [speed.scale(*setup) for setup in setups]
    out["attempted"] += attempted
    out["failed"] += failed
    if "cold_s" in out:
        # A fresh process's first exhibit pass, once per process.
        out["measured"]["cold_p50_s"] = statistics.median(cold + [out["cold_s"]])
    return out


def run_serve(args, work: Path, started: float) -> Dict[str, Any]:
    """``serve``: set-up samples, then one server and the client loop."""
    reference = serve_load.serve_reference(args.seed)
    if args.trace:
        return _traced_serve(args, work, reference)
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        server = serve_load.Server(work, f"fresh{index}")
        setups.append(server.setup)
        server.stop()
    server = serve_load.Server(work, "main")
    setups.append(server.setup)
    try:
        # More requests than any run completes; the loop stops on time.
        requests = inputs.serve_requests(args.seed, 4000)
        result = serve_load.drive(server.url, requests, args.seconds,
                                  reference)
        rss = server.child.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        result["failed"] += 1
    speed = calibrate.Speed.load(work / SPEED_FILE)
    measured = serve_load.measure(result, speed)
    report = [
        f"serve_requests_per_s {measured['throughput_per_s']:.6f} req/s  "
        f"(throughput_per_s: {result['requests']} requests, one closed-loop "
        f"client)"]
    for kind in ("warm", "cold"):
        report.append(
            f"serve_{kind}_p50_s     {measured[f'{kind}_p50_s']:.6f} s  "
            f"({kind}_p50_s: p50 of {result[kind]} {kind} requests; raw "
            f"{measured[f'{kind}_raw_p50_s']:.6f} s)")
    warm_tail = checks.tail(measured["warm_s"])
    if warm_tail is not None:
        report.append(f"serve_warm_tail_s    {warm_tail[1]:.6f} s  "
                      f"(p{warm_tail[0]:g} of {result['warm']} warm "
                      f"requests)")
    return {"measured": measured, "peak_rss_mb": rss,
            "setups": [speed.scale(*setup) for setup in setups],
            "report": report, "attempted": result["requests"],
            "failed": result["failed"]}


def _traced_serve(args, work: Path, reference) -> Dict[str, Any]:
    from repro import obs

    requests = inputs.serve_requests(args.seed, inputs.SERVE_TRACE_REQUESTS)
    server = serve_load.Server(work, "untraced")
    try:
        base = serve_load.drive(server.url, requests, None, reference)
    finally:
        codes = [server.stop()]
    summary_path = work / "server-summary.json"
    server = serve_load.Server(work, "traced", summary_out=summary_path)
    registry = obs.enable_metrics()
    recorder = tracing.Recorder()
    try:
        traced = serve_load.drive(server.url, requests, None, reference,
                                  recorder=recorder)
    finally:
        codes.append(server.stop())
        obs.disable_metrics()
    with open(summary_path, encoding="utf-8") as handle:
        server_summary = json.load(handle)
    trace_path = tracing.trace_path(ROOT, args.workload, args.seed)
    tracing.write_records(trace_path.with_suffix(".server.ndjson"),
                          server_summary.pop("records"))
    tracing.write_records(trace_path, recorder.records())
    summary = layers.merge(
        layers.summarize(recorder, registry.snapshot().counters),
        server_summary)
    speed = calibrate.Speed.load(work / SPEED_FILE)
    overhead = 100.0 * (serve_load.measure(traced, speed)["elapsed_s"]
                        / serve_load.measure(base, speed)["elapsed_s"] - 1.0)
    failed = base["failed"] + traced["failed"] + sum(1 for c in codes if c)
    return {
        "layers": layers.layer_metrics(summary, 1, traced, overhead),
        "attempted": base["requests"] + traced["requests"],
        "failed": failed, "traced_units": 1,
    }


def _report_end_to_end(out: Dict[str, Any], args) -> Dict[str, float]:
    measured = out["measured"]
    values = {
        "setup_s": statistics.median(out["setups"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "throughput_per_s": measured["throughput_per_s"],
        "cold_p50_s": measured["cold_p50_s"],
        "warm_p50_s": measured["warm_p50_s"],
    }
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s) ==")
    for name, value in values.items():
        print(f"{name:<18} {value:.6f} {END_TO_END[name]}")
    print(f"setup_s samples    {', '.join(f'{s:.4f}' for s in out['setups'])}")
    attempted = max(out["attempted"], 1)
    print(f"failed_frac        {out['failed'] / attempted:.6f} ratio "
          f"({out['failed']} of {out['attempted']})")
    for line in out.get("report", []):
        print(line)
    return values


def _report_layers(out: Dict[str, Any], args) -> Dict[str, float]:
    print(f"== {args.workload} traced (seed {args.seed}, per unit of "
          f"{out['traced_units']} traced) ==")
    for name, value in out["layers"].items():
        unit = layers.LAYER_METRICS[name][0]
        print(f"{name:<36} {value:14.6f} {unit:<6} {layers.moves(name)}")
    return out["layers"]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # One CPU for the benchmark and everything it starts, so the
    # calibration loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = ROOT / "src" / "repro" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: {src} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    probe = Child([python(), str(HERE / "calibrate.py"), str(work / SPEED_FILE)])
    try:
        probe.expect(lambda line: line == "ready", 60.0)
        if args.workload == "serve":
            out = run_serve(args, work, started)
        else:
            out = run_worker(args, work, started)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = _report_layers(out, args)
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    else:
        values = _report_end_to_end(out, args)
        units = END_TO_END
    failed = int(out["failed"])
    result = {
        "correct": failed == 0,
        "attempted": max(int(out["attempted"]), 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
