"""Worker process of the ``exhibits`` and ``campaign`` workloads.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It sets up,
prints ``ready`` (the parent times process start to that line as set-up
time), measures, and prints one JSON line with its samples and checks.
Every sample is timed as a ``(start, end)`` interval and scaled to the
reference host speed with the probe file ``--speed`` names
(:mod:`calibrate`).  With ``--fresh`` it only measures what a fresh
process's first unit costs, if that differs from later units (the
exhibits' cold pass).

Untraced (``--trace 0``) it repeats its unit of work until ``--seconds``
have passed.  Traced (``--trace 1``) it repeats one fixed trace unit
for half the time untraced and half the time with the layer wrappers
installed, and reports per-layer metrics per unit plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import calibrate
import checks
import inputs
import layers
import tracing


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _scaled(speed: calibrate.Speed, intervals) -> float:
    return sum(speed.scale(start, end) for start, end in intervals)


def _raw(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _repeat(unit, seconds: float, same_input: bool) -> List[Dict[str, Any]]:
    """Run units until ``seconds`` have passed (at least one)."""
    done: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done.append(unit(0 if same_input else len(done)))
    return done


# ----------------------------------------------------------------------
# exhibits
# ----------------------------------------------------------------------
class Exhibits:
    """Every exhibit function at its paper size and seed, no store."""

    def __init__(self, work: Path, seed: int) -> None:
        from repro.analysis import experiments

        self.experiments = experiments
        self.reference = checks.load_reference()["exhibits"]

    def unit(self, index: int) -> Dict[str, Any]:
        values, intervals = {}, []
        for attr, label in tracing.EXHIBITS.items():
            start = time.perf_counter()
            values[label] = getattr(self.experiments, attr)()
            intervals.append((start, time.perf_counter()))
        failed = 0
        for label, value in values.items():
            problems = checks.mismatches(
                checks.exhibit_summary(label, value), self.reference[label])
            if problems:
                failed += 1
                _log(f"exhibit {label} differs from the reference: "
                     f"{'; '.join(problems[:3])}")
        return {"intervals": intervals, "attempted": len(values),
                "failed": failed, "values": values}

    # Imports are the whole set-up; each exhibit builds its own FFT.
    trace_unit = unit

    def fresh(self, speed_file: Path) -> Dict[str, Any]:
        """A fresh process's first pass: one cold sample."""
        unit = self.unit(0)
        speed = calibrate.Speed.load(speed_file)
        return {"cold_s": _scaled(speed, unit["intervals"]),
                "attempted": unit["attempted"], "failed": unit["failed"]}

    def run(self, seconds: float, speed_file: Path) -> Dict[str, Any]:
        units = _repeat(self.unit, seconds, same_input=False)
        speed = calibrate.Speed.load(speed_file)
        times = [_scaled(speed, unit["intervals"]) for unit in units]
        warm = times[1:] or times
        raw = [_raw(unit["intervals"]) for unit in units]
        raw = raw[1:] or raw
        return {
            "units": units,
            "cold_s": times[0],
            "measured": {
                "throughput_per_s":
                    sum(u["attempted"] for u in units) / sum(times),
                "warm_p50_s": statistics.median(warm),
            },
            "report": checks.paper_error_lines(units[-1]["values"]) + [
                f"exhibits_s         {statistics.median(warm):.6f} s  "
                f"(warm_p50_s: p50 of {len(warm)} passes after the first; "
                f"raw {statistics.median(raw):.6f} s)"],
        }


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class Campaign:
    """``run_campaign`` as ``repro campaign`` runs it: serial, one lane."""

    def __init__(self, work: Path, seed: int) -> None:
        from repro.analysis import campaign
        from repro.core.access import ACCESS_CELL_BASED_40NM
        from repro.mitigation import (
            NoMitigationRunner,
            OceanRunner,
            SecdedRunner,
        )
        from repro.store import ResultStore
        from repro.store.pipeline import encode_campaign_result
        from repro.workloads.fft import build_fft_program

        self.campaign = campaign
        self.access = ACCESS_CELL_BASED_40NM
        self.runners = {"secded": SecdedRunner, "ocean": OceanRunner,
                        "none": NoMitigationRunner}
        self.store_cls = ResultStore
        self.encode = encode_campaign_result
        self.build_fft = build_fft_program
        self.work = work
        self.setup()
        reference = checks.load_reference()["campaign"]
        self.reference = (
            reference["passes"] if seed == reference["seed"] else [])
        self.bases = inputs.campaign_seed_bases(seed, 1000)
        self.stores = 0

    def fresh(self, speed_file: Path) -> Dict[str, Any]:
        """Nothing beyond set-up: every cold pass is a cold sample."""
        return {"attempted": 0, "failed": 0}

    def setup(self) -> None:
        """The set-up a ``repro campaign`` process pays: FFT, store open."""
        program = self.build_fft(inputs.CAMPAIGN_FFT)
        self.workload = program.workload
        self.golden = program.expected_output(
            list(program.data_words[: inputs.CAMPAIGN_FFT]))
        self.store_cls(self.work / "setup.sqlite")

    def _answer(self, store, seed_base: int) -> tuple:
        """All points through ``store``; returns (results, intervals)."""
        results, intervals = [], []
        for scheme, vdd, runs in inputs.CAMPAIGN_POINTS:
            start = time.perf_counter()
            results.append(self.campaign.run_campaign(
                self.runners[scheme], self.workload, self.golden,
                self.access, vdd, runs=runs, seed_base=seed_base,
                store=store, macro_style="cell-based",
            ))
            intervals.append((start, time.perf_counter()))
        return results, intervals

    def unit(self, index: int) -> Dict[str, Any]:
        """One cold pass: every point computed and published."""
        self.stores += 1
        path = self.work / f"store-{self.stores}.sqlite"
        store = self.store_cls(path)
        cold, intervals = self._answer(store, self.bases[index])
        failed = 0
        for (scheme, vdd, runs), result in zip(inputs.CAMPAIGN_POINTS, cold):
            problems = checks.campaign_problems(result, scheme, vdd, runs)
            if result.resilience is None:
                problems.append("cold point was served from the store")
            # Not vacuous: faults land, OCEAN rolls back, and unprotected
            # runs fail.  (A SECDED point alone may see no fault.)
            if scheme == "ocean" and result.total_rollbacks == 0:
                problems.append("OCEAN never rolled back")
            if scheme == "none" and result.correct == result.runs:
                problems.append("no unprotected run failed")
            if scheme != "secded" and result.total_injected_bits == 0:
                problems.append("no fault was injected")
            if index < len(self.reference):
                want = self.reference[index][scheme]
                if self.encode(result) != want:
                    problems.append(f"result {self.encode(result)} != {want}")
            if problems:
                failed += runs
                _log(f"campaign pass {index} {scheme}@{vdd}: "
                     f"{'; '.join(problems)}")
        runs = sum(point[2] for point in inputs.CAMPAIGN_POINTS)
        return {"intervals": intervals, "runs": runs, "attempted": runs,
                "failed": failed, "path": path, "base": self.bases[index],
                "cold": cold}

    def warm(self, units: List[Dict[str, Any]], samples: int) -> Dict[str, Any]:
        """Re-answer the passes' points through freshly opened stores."""
        samples_intervals, failed = [], 0
        for index in range(samples):
            unit = units[index % len(units)]
            reopened = self.store_cls(unit["path"])
            warm, intervals = self._answer(reopened, unit["base"])
            samples_intervals.append(intervals)
            for got, want in zip(warm, unit["cold"]):
                if got != want or got.resilience is not None:
                    failed += 1
                    _log(f"warm answer {got} != cold answer {want}")
        points = samples * len(inputs.CAMPAIGN_POINTS)
        return {"samples": samples_intervals, "attempted": points,
                "failed": failed}

    def trace_unit(self, index: int) -> Dict[str, Any]:
        # A traced unit repeats the process set-up too, so the set-up
        # layers (FFT build, store open) show in the split.
        self.setup()
        unit = self.unit(0)
        warm = self.warm([unit], 1)
        unit["intervals"] += warm["samples"][0]
        unit["attempted"] += warm["attempted"]
        unit["failed"] += warm["failed"]
        return unit

    def run(self, seconds: float, speed_file: Path) -> Dict[str, Any]:
        cold: List[Dict[str, Any]] = []
        warm: Dict[str, Any] = {"samples": [], "attempted": 0, "failed": 0}
        deadline = time.perf_counter() + seconds
        while not cold or time.perf_counter() < deadline:
            cold.append(self.unit(len(cold)))
            # Each pass's warm samples follow it, with its garbage
            # collected first, so they spread over the whole run and a
            # slow second cannot move their median.
            gc.collect()
            again = self.warm(cold[-1:], inputs.CAMPAIGN_WARM_PER_PASS)
            for key in warm:
                warm[key] += again[key]
        speed = calibrate.Speed.load(speed_file)
        cold_s = [_scaled(speed, unit["intervals"]) for unit in cold]
        cold_raw = sum(_raw(unit["intervals"]) for unit in cold)
        warm_s = [_scaled(speed, sample) for sample in warm["samples"]]
        warm_raw = [_raw(sample) for sample in warm["samples"]]
        runs = sum(u["runs"] for u in cold)
        measured = {
            "throughput_per_s": runs / sum(cold_s),
            "cold_p50_s": statistics.median(cold_s),
            "warm_p50_s": statistics.median(warm_s),
        }
        warm_tail = checks.tail(warm_s)
        return {
            "units": cold + [warm],
            "measured": measured,
            "report": [
                f"campaign_runs_per_s  {measured['throughput_per_s']:.6f} "
                f"runs/s  (throughput_per_s: {runs} runs in {len(cold)} cold "
                f"passes; raw {runs / cold_raw:.6f} runs/s)",
                f"campaign_warm_s      {measured['warm_p50_s']:.6f} s  "
                f"(warm_p50_s: p50 of {len(warm_s)} re-answers; raw "
                f"{statistics.median(warm_raw):.6f} s; "
                f"p{warm_tail[0]:g} {warm_tail[1]:.6f} s)",
            ],
        }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _traced(workload, seconds: float, trace_file: Path,
            speed_file: Path) -> Dict[str, Any]:
    from repro import obs

    untraced = _repeat(workload.trace_unit, seconds / 2, same_input=True)
    registry = obs.enable_metrics()
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        traced = _repeat(workload.trace_unit, seconds / 2, same_input=True)
    finally:
        tracing.uninstall(patches)
        obs.disable_metrics()
    speed = calibrate.Speed.load(speed_file)
    # The first untraced unit fills process caches; compare warm units.
    base = statistics.median(_scaled(speed, u["intervals"])
                             for u in untraced[1:] or untraced)
    cost = statistics.median(_scaled(speed, u["intervals"]) for u in traced)
    summary = layers.summarize(recorder, registry.snapshot().counters)
    tracing.write_records(trace_file, recorder.records())
    return {
        "layers": layers.layer_metrics(summary, len(traced), {},
                                       100.0 * (cost / base - 1.0)),
        "units": untraced + traced,
        "traced_units": len(traced),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("exhibits", "campaign"),
                        required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--speed", type=Path, required=True)
    parser.add_argument("--fresh", action="store_true")
    args = parser.parse_args(argv)

    workload_cls = Exhibits if args.workload == "exhibits" else Campaign
    workload = workload_cls(args.work, args.seed)
    print("ready", flush=True)
    if args.fresh:
        print(json.dumps(workload.fresh(args.speed)), flush=True)
        return 0
    if args.trace:
        out = _traced(workload, args.seconds, tracing.trace_path(
            Path(__file__).resolve().parents[1], args.workload, args.seed),
            args.speed)
    else:
        out = workload.run(args.seconds, args.speed)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    units = out.pop("units")
    out["attempted"] = sum(unit["attempted"] for unit in units)
    out["failed"] = sum(unit["failed"] for unit in units)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
