"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the contracts the instrumented layers rely on:

* metric snapshots merge *exactly* across process-pool workers;
* span traces are well-formed NDJSON with correct nesting and timing,
  and each thread nests its spans on a stack of its own;
* a seeded campaign's manifest provenance is byte-reproducible;
* the acceptance criterion — a Figure-8-condition campaign's trace
  counters sum exactly to the :class:`CampaignResult` totals, serial
  and fanned out.
"""

import functools
import json
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.analysis.campaign import EmptyCampaignError, run_campaign
from repro.cli import run as cli_run
from repro.core.access import ACCESS_CELL_BASED_40NM
from repro.mitigation import OceanRunner, SecdedRunner
from repro.obs import (
    InMemorySink,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    RunManifest,
    Tracer,
    active_metrics,
    active_tracer,
    scoped_metrics,
)
from repro.workloads.fft import build_fft_program


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    obs.disable_metrics()
    obs.disable_tracing()
    yield
    obs.disable_metrics()
    obs.disable_tracing()


@pytest.fixture(scope="module")
def fft32():
    program = build_fft_program(32)
    golden = program.expected_output(list(program.data_words[:32]))
    return program, golden


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_instruments_record(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        reg.timer("t").observe(0.25)
        reg.timer("t").observe(0.75)
        reg.histogram("h").add("LOAD", 3)
        reg.histogram("h").add("ADD")
        snap = reg.snapshot()
        assert snap.counters["c"] == 5
        assert snap.gauges["g"] == 2.5
        assert snap.timers["t"] == {
            "count": 2, "total_s": 1.0, "min_s": 0.25, "max_s": 0.75,
        }
        assert snap.histograms["h"] == {"LOAD": 3, "ADD": 1}

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.timer("t").time():
            pass
        snap = reg.snapshot()
        assert snap.timers["t"]["count"] == 1
        assert snap.timers["t"]["total_s"] >= 0.0

    def test_merge_is_exact(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(10)
        parent.timer("t").observe(1.0)
        parent.histogram("h").add("x", 2)
        for observed in (0.5, 3.0):
            worker = MetricsRegistry()
            worker.counter("c").inc(7)
            worker.timer("t").observe(observed)
            worker.histogram("h").add("x")
            worker.histogram("h").add("y", 5)
            parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap.counters["c"] == 24
        assert snap.timers["t"] == {
            "count": 3, "total_s": 4.5, "min_s": 0.5, "max_s": 3.0,
        }
        assert snap.histograms["h"] == {"x": 4, "y": 10}

    def test_snapshot_as_dict_sorted_and_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        payload = reg.snapshot().as_dict()
        assert list(payload["counters"]) == ["a", "b"]
        json.dumps(payload)  # must not raise

    def test_null_registry_is_shared_singletons(self):
        null = NullMetrics()
        assert null.counter("a") is null.counter("b")
        assert null.timer("a") is null.timer("b")
        assert not null.enabled
        null.counter("a").inc(5)
        assert null.snapshot().counters == {}

    def test_active_default_is_noop(self):
        assert isinstance(active_metrics(), NullMetrics)
        assert not active_metrics().enabled

    def test_enable_disable_cycle(self):
        reg = obs.enable_metrics()
        assert active_metrics() is reg
        active_metrics().counter("c").inc()
        assert reg.snapshot().counters["c"] == 1
        obs.disable_metrics()
        assert isinstance(active_metrics(), NullMetrics)

    def test_scoped_metrics_restores_previous(self):
        outer = obs.enable_metrics()
        with scoped_metrics() as inner:
            assert active_metrics() is inner
            active_metrics().counter("c").inc()
        assert active_metrics() is outer
        assert inner.snapshot().counters["c"] == 1
        assert "c" not in outer.snapshot().counters

    def test_scoped_metrics_capture_only_the_calling_thread(self):
        """A server's request thread keeps writing to the process-wide
        registry while a job thread runs under its own scope."""
        outer = obs.enable_metrics()
        scoped, written = threading.Event(), threading.Event()

        def request_thread():
            assert scoped.wait(10)
            active_metrics().counter("serve.requests").inc()
            written.set()

        thread = threading.Thread(target=request_thread)
        thread.start()
        with scoped_metrics() as inner:
            scoped.set()
            assert written.wait(10)
            active_metrics().counter("platform.runs").inc()
        thread.join(10)
        assert not thread.is_alive()
        assert inner.snapshot().counters == {"platform.runs": 1}
        assert outer.snapshot().counters == {"serve.requests": 1}


def _pool_worker(n: int) -> "obs.MetricsSnapshot":
    """Count under a scoped registry and ship the snapshot back."""
    with scoped_metrics() as registry:
        registry.counter("worker.items").inc(n)
        registry.histogram("worker.kind").add("even" if n % 2 == 0 else "odd")
    return registry.snapshot()


class TestProcessPoolMerge:
    def test_merge_across_pool_workers_is_exact(self):
        loads = [1, 2, 3, 4, 5, 6]
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snapshot in pool.map(_pool_worker, loads):
                parent.merge(snapshot)
        snap = parent.snapshot()
        assert snap.counters["worker.items"] == sum(loads)
        assert snap.histograms["worker.kind"] == {"even": 3, "odd": 3}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _run_threads(*targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestTracer:
    def test_span_nesting_and_timing(self):
        sink = InMemorySink()
        ticks = iter(range(100))
        tracer = Tracer(sink, clock=lambda: float(next(ticks)))
        with tracer.span("outer", scheme="OCEAN"):
            with tracer.span("inner"):
                tracer.point("p", value=7)
        kinds = [e["kind"] for e in sink.events]
        assert kinds == [
            "span_start", "span_start", "point", "span_end", "span_end",
        ]
        outer_start, inner_start, point, inner_end, outer_end = sink.events
        assert outer_start["parent"] is None
        assert inner_start["parent"] == outer_start["span"]
        assert point["span"] == inner_start["span"]
        assert point["value"] == 7
        assert outer_start["scheme"] == "OCEAN"
        assert inner_end["dur_s"] == inner_end["t"] - inner_start["t"]
        assert outer_end["dur_s"] == outer_end["t"] - outer_start["t"]
        assert outer_end["dur_s"] > inner_end["dur_s"] > 0

    def test_span_end_records_exception(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("boom")
        assert sink.events[-1]["kind"] == "span_end"
        assert sink.events[-1]["error"] == "RuntimeError"

    def test_threads_nest_spans_on_their_own_stacks(self):
        """A opens ``a``; B opens and closes ``b``; A opens ``a.child``.
        ``b`` has no parent although ``a`` is open on another thread."""
        sink = InMemorySink()
        tracer = Tracer(sink)
        a_open = threading.Event()
        b_closed = threading.Event()

        def thread_a():
            with tracer.span("a"):
                a_open.set()
                b_closed.wait(timeout=10)
                with tracer.span("a.child"):
                    pass

        def thread_b():
            a_open.wait(timeout=10)
            with tracer.span("b"):
                pass
            b_closed.set()

        _run_threads(thread_a, thread_b)
        starts = {
            e["name"]: e for e in sink.events if e["kind"] == "span_start"
        }
        assert starts["b"]["parent"] is None
        assert starts["a.child"]["parent"] == starts["a"]["span"]
        assert len({e["span"] for e in starts.values()}) == 3

    def test_span_ids_and_parents_hold_under_thread_contention(self):
        sink = InMemorySink()
        tracer = Tracer(sink)

        def nest(n):
            for _ in range(200):
                with tracer.span("outer", thread=n):
                    with tracer.span("inner", thread=n):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(*(functools.partial(nest, n) for n in range(8)))
        finally:
            sys.setswitchinterval(interval)
        starts = [e for e in sink.events if e["kind"] == "span_start"]
        owner = {e["span"]: e["thread"] for e in starts}
        assert len(owner) == len(starts) == 8 * 400
        for start in starts:
            if start["name"] == "outer":
                assert start["parent"] is None
            else:
                assert owner[start["parent"]] == start["thread"]

    def test_ndjson_file_sink_well_formed(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        tracer = obs.enable_tracing(path)
        with tracer.span("region", n=2):
            tracer.point("p", i=0)
            tracer.point("p", i=1)
        obs.disable_tracing()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [
            "span_start", "point", "point", "span_end",
        ]
        start, end = records[0], records[-1]
        assert start["span"] == end["span"]
        assert end["dur_s"] >= 0.0

    def test_event_emits_on_every_call(self):
        sink = InMemorySink()
        tracer = Tracer(sink, clock=lambda: 1.0)
        with tracer.span("region") as span:
            for i in range(3):
                tracer.event("e", i=i)
        events = [e for e in sink.events if e["kind"] == "event"]
        assert [e["i"] for e in events] == [0, 1, 2]
        assert {(e["name"], e["span"], e["t"]) for e in events} == {
            ("e", span.span_id, 1.0)
        }

    def test_null_tracer_is_free(self):
        null = NullTracer()
        span_a = null.span("a", key="value")
        span_b = null.span("b")
        assert span_a is span_b  # one shared no-op context
        with span_a:
            null.point("p")
            null.event("e")
        assert isinstance(active_tracer(), NullTracer)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
def _campaign_manifest(fft32) -> RunManifest:
    program, golden = fft32
    seeds = {"seed_base": 100}
    parameters = {"scheme": "SECDED", "vdd": 0.36, "runs": 3}
    registry = obs.enable_metrics()
    result = run_campaign(
        SecdedRunner,
        workload=program.workload,
        golden=golden,
        access_model=ACCESS_CELL_BASED_40NM,
        vdd=0.36,
        runs=3,
        seed_base=100,
        macro_style="cell-based",
    )
    manifest = RunManifest.capture(
        kind="campaign", name="secded-0v36", seeds=seeds,
        parameters=parameters,
    )
    manifest.results = {
        "correct": result.correct,
        "injected_bits": result.total_injected_bits,
        "corrected": result.total_corrected,
    }
    manifest.add_timing("campaign", 1.23)
    manifest.attach_metrics(registry.snapshot())
    obs.disable_metrics()
    return manifest


class TestRunManifest:
    def test_provenance_byte_reproducible(self, fft32):
        first = _campaign_manifest(fft32).provenance_json()
        second = _campaign_manifest(fft32).provenance_json()
        assert first == second

    def test_provenance_excludes_volatile_fields(self, fft32):
        manifest = _campaign_manifest(fft32)
        provenance = json.loads(manifest.provenance_json())
        assert "created_at" not in provenance
        assert "timings_s" not in provenance
        assert "host_platform" not in provenance
        assert provenance["metric_counters"]["campaign.runs"] == 3

    def test_write_and_reload(self, tmp_path, fft32):
        manifest = _campaign_manifest(fft32)
        path = manifest.write(tmp_path / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "campaign"
        assert loaded["seeds"] == {"seed_base": 100}
        assert loaded["timings_s"]["campaign"] == 1.23
        assert loaded["metrics"]["counters"]["campaign.runs"] == 3


# ----------------------------------------------------------------------
# Acceptance: trace counters sum exactly to CampaignResult totals
# ----------------------------------------------------------------------
class TestCampaignTelemetry:
    @pytest.mark.parametrize(
        "runner_cls, vdd, processes",
        [
            (SecdedRunner, 0.36, None),
            (SecdedRunner, 0.36, 2),
            (OceanRunner, 0.33, 2),
        ],
    )
    def test_trace_sums_match_result(
        self, fft32, runner_cls, vdd, processes
    ):
        program, golden = fft32
        sink = InMemorySink()
        obs.enable_tracing(sink)
        registry = obs.enable_metrics()
        result = run_campaign(
            runner_cls,
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM,
            vdd=vdd,
            runs=4,
            seed_base=100,
            processes=processes,
            macro_style="cell-based",
        )
        assert result.total_injected_bits > 0  # campaign saw faults

        outcomes = [
            e for e in sink.events
            if e["kind"] == "point" and e["name"] == "campaign.outcome"
        ]
        assert len(outcomes) == result.runs == 4
        assert sum(o["injected"] for o in outcomes) == (
            result.total_injected_bits
        )
        assert sum(o["corrected"] for o in outcomes) == (
            result.total_corrected
        )
        assert sum(o["rollbacks"] for o in outcomes) == (
            result.total_rollbacks
        )
        correct = sum(o["classification"] == "correct" for o in outcomes)
        assert correct == result.correct

        # The outcome points are nested inside the campaign.run span.
        starts = [e for e in sink.events if e["kind"] == "span_start"]
        campaign_span = next(
            e for e in starts if e["name"] == "campaign.run"
        )
        assert all(o["span"] == campaign_span["span"] for o in outcomes)

        # Worker-layer counters survive the process-pool merge exactly.
        counters = registry.snapshot().counters
        assert counters["campaign.runs"] == result.runs
        assert counters["campaign.injected_bits"] == (
            result.total_injected_bits
        )
        assert counters["campaign.corrected_words"] == (
            result.total_corrected
        )
        assert counters["campaign.rollbacks"] == result.total_rollbacks
        assert counters["faults.injected_bits"] == (
            result.total_injected_bits
        )

    def test_serial_and_fanned_metrics_identical(self, fft32):
        program, golden = fft32
        totals = {}
        for processes in (None, 2):
            registry = obs.enable_metrics()
            run_campaign(
                SecdedRunner,
                workload=program.workload,
                golden=golden,
                access_model=ACCESS_CELL_BASED_40NM,
                vdd=0.36,
                runs=4,
                seed_base=100,
                processes=processes,
                macro_style="cell-based",
            )
            totals[processes] = registry.snapshot().counters
            obs.disable_metrics()
        assert totals[None] == totals[2]


# ----------------------------------------------------------------------
# Typed empty errors
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_empty_campaign_error_carries_context(self):
        from repro.analysis.campaign import CampaignResult

        empty = CampaignResult(scheme="OCEAN", vdd=0.33)
        with pytest.raises(EmptyCampaignError) as excinfo:
            empty.failure_rate
        assert excinfo.value.statistic == "failure_rate"
        assert excinfo.value.scheme == "OCEAN"
        assert excinfo.value.vdd == 0.33
        assert "OCEAN" in str(excinfo.value)
        assert "0.330" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)  # back-compat
        with pytest.raises(EmptyCampaignError):
            empty.silent_rate


# ----------------------------------------------------------------------
# CLI integration (--json / --metrics / --trace)
# ----------------------------------------------------------------------
class TestCliObservability:
    def test_table2_json_parses(self):
        payload = json.loads(cli_run(["table2", "--json"]))
        rows = payload["table2"]
        assert {"scheme", "vdd_model", "vdd_paper"} <= set(rows[0])
        schemes = {row["scheme"] for row in rows}
        assert {"none", "SECDED", "OCEAN"} <= schemes

    def test_claims_json_with_metrics(self):
        payload = json.loads(
            cli_run(["claims", "--fft", "16", "--json", "--metrics"])
        )
        assert payload["claims"]["power_ratio_vs_none"] > 1.0
        counters = payload["metrics"]["counters"]
        assert counters["platform.runs"] == 3

    def test_fig8_trace_written(self, tmp_path):
        path = tmp_path / "fig8.ndjson"
        cli_run(["fig8", "--fft", "16", "--trace", str(path)])
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        names = {r["name"] for r in records}
        assert "cli.exhibit" in names
        assert "study.scheme_run" in names
        outcomes = [
            r for r in records if r["name"] == "study.scheme_outcome"
        ]
        assert {o["scheme"] for o in outcomes} == {
            "none", "SECDED", "OCEAN",
        }

    def test_text_mode_metrics_footer(self):
        text = cli_run(["claims", "--fft", "16", "--metrics"])
        assert "== metrics ==" in text
        assert "platform.runs = 3" in text
