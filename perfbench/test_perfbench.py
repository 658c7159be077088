"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_children_on_two_threads():
    clock = FakeClock()
    recorder = tracing.Recorder(clock=clock)
    main = recorder.state()
    outer = recorder.open(main, "a")
    clock.now = 10
    child = recorder.open(main, "a.child")
    clock.now = 30
    recorder.close(main, child)

    def other_thread() -> None:
        state = recorder.state()
        clock.now = 40
        span = recorder.open(state, "b")
        clock.now = 45
        inner = recorder.open(state, "b.child")
        recorder.add_hot(state, "hot", 5)
        clock.now = 70
        recorder.close(state, inner)
        clock.now = 100
        recorder.close(state, span)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 120
    recorder.close(main, outer)

    spans = {span.name: span for span in recorder.spans()}
    # Each thread has its own stack: "b" overlaps "a" but is not its child.
    assert spans["b"].parent is None
    assert spans["b.child"].parent == spans["b"].id
    assert spans["a.child"].parent == spans["a"].id
    selfs = tracing.self_times(recorder.records())
    expected = {"a": 100e-9, "a.child": 20e-9, "b": 35e-9, "b.child": 20e-9,
                "hot": 5e-9}
    assert set(selfs) == set(expected)
    for name, seconds in expected.items():
        assert abs(selfs[name] - seconds) < 1e-15, name
    assert recorder.hot_totals() == {"hot": [1, 5]}


def test_traced_run_restores_every_wrapped_function():
    from repro.analysis import experiments

    before = {}
    for target in tracing.targets(server=True):
        for owner in tracing._lookup_sites(target):
            before[(id(owner), target.attr)] = (
                owner, target.attr, owner.__dict__[target.attr])
    recorder = tracing.Recorder()
    patches = tracing.install(recorder, server=True)
    assert len(patches) == len(before)
    assert experiments.table2_minimum_voltages is not before[
        (id(experiments), "table2_minimum_voltages")][2]
    try:
        experiments.table2_minimum_voltages()
    finally:
        tracing.uninstall(patches)
    assert any(span.name == "analysis.exhibit.table2"
               for span in recorder.spans())
    for owner, attr, original in before.values():
        assert owner.__dict__[attr] is original, (owner, attr)


def test_wrappers_reach_functions_imported_by_name():
    from repro.analysis import experiments
    from repro.serve import server
    from repro.tech import delay

    recorder = tracing.Recorder()
    patches = tracing.install(recorder, server=True)
    try:
        assert experiments.monte_carlo_inverter_delay is (
            delay.monte_carlo_inverter_delay)
        assert hasattr(experiments.monte_carlo_inverter_delay, "__wrapped__")
        assert hasattr(server.scheme_failure_grid, "__wrapped__")
    finally:
        tracing.uninstall(patches)
    assert not hasattr(experiments.monte_carlo_inverter_delay, "__wrapped__")


def test_speed_scales_each_sample_by_the_probes_in_its_interval():
    ref = calibrate.REFERENCE_S
    # Reference speed for the first half second, half speed after it.
    probes = [(i * 0.01, ref if i < 50 else 2 * ref) for i in range(100)]
    speed = calibrate.Speed(probes)
    assert abs(speed.scale(0.0, 0.4) - 0.4) < 1e-12
    assert abs(speed.scale(0.6, 0.9) - 0.15) < 1e-12
    assert abs(speed.scale(0.3, 0.7) - 0.4 * 2 / 3) < 0.01
    # Too short for its own probes: the nearest ones scale it.
    assert abs(speed.scale(0.7001, 0.7003) - 0.0001) < 1e-12
    assert abs(speed.scale(5.0, 5.0002) - 0.0001) < 1e-12


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert checks.tail(samples) == (90.0, 90.0)
    assert checks.tail(samples[:45])[0] == 75.0
    assert checks.tail(samples[:20]) == (50.0, 10.0)
    assert checks.tail(samples[:19]) is None
    assert checks.tail([float(i) for i in range(1000)])[0] == 99.0
    assert checks.tail([float(i) for i in range(10000)])[0] == 99.9
    for n in (20, 45, 100, 1000, 2500):
        percentile, value = checks.tail([float(i) for i in range(n)])
        assert sum(1 for i in range(n) if i > value) >= 10


def test_serve_requests_are_deterministic_with_stated_warm_share():
    first = inputs.serve_requests(7, 400)
    assert first == inputs.serve_requests(7, 400)
    assert first != inputs.serve_requests(8, 400)
    assert inputs.serve_requests(7, 40) == first[:40]
    warm = sum(1 for request in first if request.new_points == 0)
    assert warm / len(first) == 1 - 1 / inputs.SERVE_BLOCK
    seen = set()
    for request in first:
        new = [point for point in request.points() if point not in seen]
        assert len(new) == request.new_points
        assert len(set(request.vdds)) == 2
        assert all(v in inputs.SERVE_VDDS for v in request.vdds)
        seen.update(request.points())
    assert any(request.new_points == 1 for request in first)


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in layers.LAYER_METRICS.items()
    }
    carriers = set(run.END_TO_END) | {"failed/attempted"}
    assert set(layers.END_TO_END_NAMES.values()) <= carriers
    for name, spec in layers.LAYER_METRICS.items():
        if name != "obs.trace_overhead_pct":
            for target in spec[2].split(", "):
                assert target in layers.END_TO_END_NAMES, (name, target)


def test_benchmark_json_keeps_the_format_limits():
    text = (HERE.parent / "BENCHMARK.json").read_text()
    bench = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert 4 + 22 * len(bench["workloads"]) <= 3420 / (bench["run_seconds"] + 10)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    assert 2 <= len(bench["workloads"]) <= 8
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert unit.match(metric["unit"]), metric
        names.append(metric["name"])
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
