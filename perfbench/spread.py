"""Run workloads on several seeds and print each end-to-end metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workloads exhibits,campaign,serve \\
        --seeds 1-10 --seconds 30 [--record LABEL]

Each run is ``perfbench/run.py --trace 0`` with one seed.  For every
metric it prints the median of the runs and their spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, the figure ``BENCHMARK.json``'s
bounds are judged against.  ``--record LABEL`` then makes one traced
run per workload at the first seed and appends an entry (medians,
spreads and per-layer figures) to ``trajectory.jsonl``, the benchmark's
history across commits.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.jsonl"


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> Dict[str, Any]:
    """One benchmark run; returns its result line (raises if it failed)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: List[float]) -> Dict[str, float]:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median,
            "iqr_share": (quartiles[2] - quartiles[0]) / median}


def measure(workload: str, seeds: List[int],
            seconds: int) -> Dict[str, Dict[str, Any]]:
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in seeds:
        result = run_once(workload, seed, seconds, trace=0)
        figures = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        print(f"{workload} seed {seed} ({result['wall_s']:.0f} s, "
              f"{result['failed']}/{result['attempted']} failed): "
              + ", ".join(f"{k} {v:.6g}" for k, v in figures.items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, series in values.items():
        out[name] = {**spread(series), "unit": units[name]}
        print(f"  {workload} {name:<18} median {out[name]['median']:.6g} "
              f"{units[name]:<4} spread {out[name]['iqr_share']:.4f}",
              flush=True)
    return out


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="exhibits,campaign,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",")
    entry: Dict[str, Any] = {
        "label": args.record,
        "date": datetime.date.today().isoformat(),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, CPython "
                f"{platform.python_version()}",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in workloads:
        entry["end_to_end"][workload] = measure(workload, seeds, args.seconds)
    if args.record:
        for workload in workloads:
            traced = run_once(workload, seeds[0], args.seconds, trace=1)
            entry["per_layer"][workload] = {
                name: metric["value"]
                for name, metric in traced["metrics"].items()}
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended {args.record!r} to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
