"""Unit and property tests for the engine-profiling observability layer.

Covers the pieces the engine-level fuzzers do not: the bucket helpers
and active-profiler plumbing (:mod:`repro.obs.profile`), the exact
cross-process shard-merge property the profiler inherits from the
metrics registry, span aggregation and profile rendering
(:mod:`repro.obs.report`), live campaign progress and its NDJSON
heartbeat, and the trace-sink flush lifecycle on abnormal exits.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, scoped_metrics
from repro.obs.profile import (
    NULL_PROFILER,
    EngineProfiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    pow2_bucket,
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
from repro.obs.trace import NdjsonFileSink, Tracer
from repro.resilience import ChaosPolicy, ResilientExecutor, TaskSpec


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_metrics()
    obs.disable_tracing()
    disable_profiling()
    yield
    obs.disable_metrics()
    obs.disable_tracing()
    disable_profiling()


# ----------------------------------------------------------------------
# Bucket helpers
# ----------------------------------------------------------------------
class TestBuckets:
    @pytest.mark.parametrize(
        "n, bucket",
        [
            (0, "0"),
            (1, "1"),
            (2, "2-3"),
            (3, "2-3"),
            (4, "4-7"),
            (7, "4-7"),
            (8, "8-15"),
            (1000, "512-1023"),
        ],
    )
    def test_pow2_bucket(self, n, bucket):
        assert pow2_bucket(n) == bucket

    @given(n=st.integers(min_value=0, max_value=10**6))
    def test_pow2_bucket_contains_its_value(self, n):
        bucket = pow2_bucket(n)
        if "-" in bucket:
            low, high = (int(part) for part in bucket.split("-"))
        else:
            low = high = int(bucket)
        assert low <= n <= high


# ----------------------------------------------------------------------
# Active-profiler plumbing
# ----------------------------------------------------------------------
class TestActiveProfiler:
    def test_default_is_free_null_singleton(self):
        assert active_profiler() is NULL_PROFILER
        assert not active_profiler().enabled
        # Null recording is safe with no registry enabled.
        NULL_PROFILER.record_burst(3, 5)

    def test_enable_disable_cycle(self):
        profiler = enable_profiling()
        assert active_profiler() is profiler
        assert profiler.enabled
        disable_profiling()
        assert active_profiler() is NULL_PROFILER

    def test_scoped_profiling_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with scoped_profiling() as profiler:
                assert active_profiler() is profiler
                raise RuntimeError("boom")
        assert active_profiler() is NULL_PROFILER

    def test_recording_into_null_metrics_is_lost_not_fatal(self):
        # Enabled profiler + disabled metrics: writes vanish quietly.
        with scoped_profiling() as profiler:
            profiler.record_burst(4, 6)
            profiler.record_opcodes({"ADD": 4})


# ----------------------------------------------------------------------
# Recording semantics
# ----------------------------------------------------------------------
class TestProfilerRecording:
    def _record(self, fn):
        registry = MetricsRegistry()
        with scoped_metrics(registry):
            fn(EngineProfiler())
        return registry.snapshot()

    def test_zero_length_burst_measures_slow_path_pressure(self):
        snap = self._record(lambda p: p.record_burst(0, 0))
        assert snap.counters[names.PROFILE_BURSTS] == 1
        assert names.PROFILE_FAST_INSTRUCTIONS not in snap.counters
        assert snap.histograms[names.PROFILE_BURST_LENGTH] == {"0": 1}

    def test_burst_tallies_fast_path(self):
        snap = self._record(lambda p: p.record_burst(5, 9))
        assert snap.counters[names.PROFILE_FAST_INSTRUCTIONS] == 5
        assert snap.counters[names.PROFILE_FAST_CYCLES] == 9
        assert snap.histograms[names.PROFILE_BURST_LENGTH] == {"4-7": 1}

    def test_pc_tally_uses_hex_labels(self):
        snap = self._record(lambda p: p.record_pcs({0: 2, 0x1A: 5}))
        assert snap.histograms[names.PROFILE_PC] == {
            "0x0000": 2,
            "0x001a": 5,
        }

    def test_engines_tally_identical_opcode_and_pc_mix(self):
        """A fault-free FFT tallies the same ``profile.opcode`` and
        ``profile.pc`` histograms on both engines."""
        from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
        from repro.mitigation import SecdedRunner
        from repro.workloads.fft import build_fft_program
        from tests.test_soc_fuzz import _scalar_runner

        workload = build_fft_program(16).workload
        model = ACCESS_CELL_BASED_40NM_TYPICAL

        def tallies(run):
            registry = MetricsRegistry()
            with scoped_metrics(registry), scoped_profiling():
                run()
            snap = registry.snapshot()
            return (
                snap.histograms[names.PROFILE_OPCODE],
                snap.histograms[names.PROFILE_PC],
                snap.counters.get(names.PROFILE_SLOW_INSTRUCTIONS, 0),
            )

        scalar = tallies(
            lambda: _scalar_runner(SecdedRunner)(model, seed=1).run(
                workload, 0.7, 25e6
            )
        )
        fast = tallies(
            lambda: SecdedRunner(model, seed=1).run(workload, 0.7, 25e6)
        )
        assert sum(scalar[1].values()) == scalar[2] > 0
        assert fast[2] == 0  # fault-free: no slow steps
        assert fast[:2] == scalar[:2]

    def test_empty_slow_path_record_is_skipped(self):
        snap = self._record(lambda p: p.record_slow_path(0, 0))
        assert names.PROFILE_SLOW_INSTRUCTIONS not in snap.counters

    def test_settlement_and_writeback(self):
        def record(p):
            p.record_settlement(3, 2)
            p.record_settlement(0, 0)
            p.record_writeback(8, batched=True)
            p.record_writeback(1, batched=False)

        snap = self._record(record)
        assert snap.counters[names.PROFILE_SETTLEMENTS] == 2
        assert snap.counters[names.PROFILE_SETTLED_READS] == 3
        assert snap.counters[names.PROFILE_SETTLED_WRITES] == 2
        assert snap.counters[names.PROFILE_WRITEBACK_WORDS] == 9
        assert snap.counters[names.PROFILE_WRITEBACK_BATCHES] == 1


# ----------------------------------------------------------------------
# Shard-merge property: K worker shards merge == one process
# ----------------------------------------------------------------------
def _profiler_events():
    burst = st.tuples(
        st.just("burst"), st.integers(0, 64), st.integers(0, 256)
    )
    slow = st.tuples(
        st.just("slow"), st.integers(0, 64), st.integers(0, 256)
    )
    settle = st.tuples(
        st.just("settle"), st.integers(0, 8), st.integers(0, 8)
    )
    writeback = st.tuples(
        st.just("writeback"), st.integers(0, 32), st.booleans()
    )
    opcodes = st.tuples(
        st.just("opcodes"),
        st.dictionaries(
            st.sampled_from(["ADD", "LD", "ST", "BNE"]),
            st.integers(1, 40),
            max_size=4,
        ),
    )
    return st.one_of(burst, slow, settle, writeback, opcodes)


def _replay(profiler, event):
    kind = event[0]
    if kind == "burst":
        profiler.record_burst(event[1], event[2])
    elif kind == "slow":
        profiler.record_slow_path(event[1], event[2])
    elif kind == "settle":
        profiler.record_settlement(event[1], event[2])
    elif kind == "writeback":
        profiler.record_writeback(event[1], event[2])
    else:
        profiler.record_opcodes(event[1])


class TestShardMergeProperty:
    @given(
        events=st.lists(_profiler_events(), max_size=30),
        shard_of=st.lists(st.integers(0, 3), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_shards_match_single_process(self, events, shard_of):
        """Partitioning profiler events across K worker registries and
        merging their snapshots yields exactly the single-process
        registry — including the burst-length and opcode histograms."""
        profiler = EngineProfiler()
        single = MetricsRegistry()
        with scoped_metrics(single):
            for event in events:
                _replay(profiler, event)

        shards = {}
        for index, event in enumerate(events):
            shard = shard_of[index] if index < len(shard_of) else 0
            registry = shards.setdefault(shard, MetricsRegistry())
            with scoped_metrics(registry):
                _replay(profiler, event)
        merged = MetricsRegistry()
        for registry in shards.values():
            merged.merge(registry.snapshot())

        got, want = merged.snapshot(), single.snapshot()
        assert got.counters == want.counters
        assert got.histograms == want.histograms


# ----------------------------------------------------------------------
# Span aggregation and profile rendering
# ----------------------------------------------------------------------
def _span_records():
    return [
        {"kind": "span_start", "name": "campaign", "span": 1,
         "parent": None, "t": 0.0},
        {"kind": "span_start", "name": "run", "span": 2, "parent": 1,
         "t": 1.0},
        {"kind": "point", "name": "outcome", "span": 2, "t": 1.5},
        {"kind": "span_end", "name": "run", "span": 2, "t": 3.0,
         "dur_s": 2.0},
        {"kind": "span_start", "name": "run", "span": 3, "parent": 1,
         "t": 3.0},
        {"kind": "span_end", "name": "run", "span": 3, "t": 4.0,
         "dur_s": 1.0, "error": "ValueError"},
        {"kind": "span_end", "name": "campaign", "span": 1, "t": 5.0,
         "dur_s": 5.0},
    ]


class TestSpanAggregation:
    def test_same_named_spans_merge_under_parent(self):
        root = aggregate_spans(_span_records())
        campaign = root.children["campaign"]
        assert campaign.count == 1
        assert campaign.total_s == pytest.approx(5.0)
        run = campaign.children["run"]
        assert run.count == 2
        assert run.total_s == pytest.approx(3.0)
        assert run.errors == 1
        assert run.points == {"outcome": 1}
        assert campaign.self_s == pytest.approx(2.0)

    def test_torn_trace_unclosed_span_still_counted(self):
        records = _span_records()[:2]  # two starts, no ends
        root = aggregate_spans(records)
        campaign = root.children["campaign"]
        assert campaign.count == 1
        assert campaign.total_s == 0.0
        assert campaign.children["run"].count == 1

    def test_orphan_span_attaches_to_root(self):
        records = [
            {"kind": "span_end", "name": "lost", "span": 99,
             "dur_s": 1.0},
            {"kind": "point", "name": "stray", "span": 99},
        ]
        root = aggregate_spans(records)
        # Parentless records credit the synthetic root, not a crash.
        assert root.count == 1
        assert root.points == {"stray": 1}

    def test_format_cost_tree_renders_hierarchy(self):
        text = format_cost_tree(aggregate_spans(_span_records()))
        assert "== cost tree ==" in text
        assert "campaign" in text and "run  x2" in text
        assert "· outcome x1" in text
        assert "errors=1" in text

    def test_format_cost_tree_empty(self):
        assert "(no spans)" in format_cost_tree(aggregate_spans([]))

    def test_aggregate_trace_file_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        lines = [json.dumps(r) for r in _span_records()]
        path.write_text(
            "\n".join(lines) + '\n{"kind": "span_end", "sp',
            encoding="utf-8",
        )
        root = aggregate_trace_file(path)
        assert root.children["campaign"].children["run"].count == 2

    def test_read_ndjson_missing_file_is_empty(self, tmp_path):
        assert read_ndjson(tmp_path / "absent.ndjson") == []


class TestRenderProfile:
    def test_empty_snapshot_falls_back(self):
        text = render_profile(MetricsRegistry().snapshot())
        assert "no profiler data" in text

    def test_sections_render(self):
        registry = MetricsRegistry()
        with scoped_metrics(registry), scoped_profiling() as profiler:
            profiler.record_engine("fastlane")
            profiler.record_opcodes({"ADD": 10, "BNE": 2})
            profiler.record_burst(5, 9)
            profiler.record_slow_path(2, 4)
        text = render_profile(registry.snapshot())
        assert "== engine profile ==" in text
        assert "ADD" in text
        assert "fast-path" in text and "slow-path" in text
        assert "burst length" in text


# ----------------------------------------------------------------------
# Live campaign progress
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCampaignProgress:
    def test_eta_from_mean_duration(self):
        progress = CampaignProgress(clock=_FakeClock())
        progress.on_start(total=6, resumed=0, workers=2)
        assert progress.eta_seconds() is None
        progress.on_task("a", 2.0)
        progress.on_task("b", 4.0)
        # mean 3s x 4 remaining / 2 workers
        assert progress.eta_seconds() == pytest.approx(6.0)
        assert progress.remaining == 4
        text = progress.render()
        assert "2/6 done" in text and "ETA" in text

    def test_quarantine_counts_toward_done(self):
        progress = CampaignProgress()
        progress.on_start(total=2, resumed=0, workers=1)
        progress.on_task("ok", 1.0)
        progress.on_quarantine("poison")
        assert progress.done == 2
        assert progress.quarantined == 1
        assert "1 quarantined" in progress.render()

    def test_resumed_head_start(self):
        progress = CampaignProgress()
        progress.on_start(total=4, resumed=3, workers=1)
        assert progress.done == 3
        assert progress.remaining == 1

    def test_heartbeat_records_and_torn_tail(self, tmp_path):
        beat = tmp_path / "hb.ndjson"
        progress = CampaignProgress(heartbeat=beat)
        progress.on_start(total=2, resumed=0, workers=1)
        progress.on_task("a", 0.5)
        progress.on_task("b", 0.5)
        progress.close()
        records = read_ndjson(beat)
        assert [r["kind"] for r in records] == ["start", "task", "task"]
        assert "eta_s" not in records[0]  # no durations yet
        assert records[1]["eta_s"] == pytest.approx(0.5)
        assert records[-1]["done"] == 2
        with open(beat, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "task"')  # SIGKILL mid-write
        assert read_ndjson(beat) == records

    def test_on_update_hook_sees_live_state(self):
        seen = []
        progress = CampaignProgress(
            on_update=lambda p: seen.append((p.done, p.total))
        )
        progress.on_start(total=2, resumed=0, workers=1)
        progress.on_task("a", 0.1)
        assert seen == [(0, 2), (1, 2)]


class TestJournalLiveness:
    def test_missing_journal_probes_unknown(self, tmp_path):
        probe = JournalLiveness(tmp_path / "none.ndjson").probe()
        assert probe == {"exists": False, "alive": None, "age_s": None}

    def test_fresh_journal_is_alive(self, tmp_path):
        path = tmp_path / "hb.ndjson"
        progress = CampaignProgress(heartbeat=path)
        progress.on_start(total=3, resumed=0, workers=1)
        progress.on_task("a", 0.1)
        progress.on_quarantine("b")
        progress.close()
        probe = JournalLiveness(path, stale_after_s=3600.0).probe()
        assert probe["exists"] and probe["alive"]

    def test_stale_journal_is_dead(self, tmp_path):
        import os

        path = tmp_path / "hb.ndjson"
        path.write_text('{"kind": "task"}\n', encoding="utf-8")
        stat = os.stat(path)
        os.utime(path, (stat.st_atime, stat.st_mtime - 7200))
        probe = JournalLiveness(path, stale_after_s=60.0).probe()
        assert probe["exists"] and probe["alive"] is False
        assert probe["age_s"] >= 7000


# ----------------------------------------------------------------------
# Executor integration: progress hooks and abnormal-exit trace flush
# ----------------------------------------------------------------------
class _RecordingSink:
    def __init__(self):
        self.events = []
        self.flushes = 0
        self.closed = False

    def emit(self, record):
        self.events.append(record)

    def flush(self):
        self.flushes += 1

    def close(self):
        self.closed = True


class _LegacySink:
    """A sink predating ``TraceSink.flush`` — no flush attribute."""

    def __init__(self):
        self.events = []

    def emit(self, record):
        self.events.append(record)

    def close(self):
        pass


def _echo_task(x):
    return x


def _interruptible_task(x):
    if x == "boom":
        raise KeyboardInterrupt
    return x


class TestExecutorObservability:
    def test_progress_hooks_fire_per_task(self, tmp_path):
        beat = tmp_path / "hb.ndjson"
        progress = CampaignProgress(heartbeat=beat)
        executor = ResilientExecutor(_echo_task)
        tasks = [TaskSpec(key=f"k{i}", args=(i,)) for i in range(3)]
        report = executor.run(
            tasks, run_id="prog", progress=progress
        )
        progress.close()
        assert report.complete
        assert (progress.done, progress.total) == (3, 3)
        records = read_ndjson(beat)
        assert [r["kind"] for r in records] == [
            "start", "task", "task", "task",
        ]
        assert all(
            r["seconds"] >= 0.0 for r in records if r["kind"] == "task"
        )

    def test_progress_counts_quarantine(self):
        progress = CampaignProgress()
        chaos = ChaosPolicy(raise_in_task=[("k1", 1)])
        executor = ResilientExecutor(
            _echo_task, max_retries=0, backoff_base_s=0.0, chaos=chaos
        )
        tasks = [TaskSpec(key=f"k{i}", args=(i,)) for i in range(3)]
        report = executor.run(
            tasks, run_id="quar", progress=progress
        )
        assert report.quarantined == {"k1": "ChaosError"}
        assert progress.done == 3
        assert progress.quarantined == 1

    def test_keyboard_interrupt_flushes_trace(self):
        sink = _RecordingSink()
        obs.enable_tracing(sink)
        executor = ResilientExecutor(_interruptible_task)
        tasks = [
            TaskSpec(key="ok", args=("ok",)),
            TaskSpec(key="boom", args=("boom",)),
        ]
        with pytest.raises(KeyboardInterrupt):
            executor.run(tasks, run_id="kbint")
        assert sink.flushes >= 1
        assert not sink.closed  # flushed durable, stream still open
        obs.disable_tracing()
        assert sink.closed

    def test_pool_worker_death_flushes_trace(self):
        sink = _RecordingSink()
        obs.enable_tracing(sink)
        chaos = ChaosPolicy(kill=[("k1", 1)])
        executor = ResilientExecutor(
            _echo_task, processes=2, backoff_base_s=0.0, chaos=chaos
        )
        tasks = [TaskSpec(key=f"k{i}", args=(i,)) for i in range(3)]
        report = executor.run(tasks, run_id="break")
        assert report.complete
        assert report.pool_breaks >= 1
        assert sink.flushes >= 1

    def test_tracer_flush_tolerates_legacy_sink(self):
        tracer = Tracer(_LegacySink())
        tracer.flush()  # must not raise
        with tracer.span("phase"):
            pass
        assert tracer.sink.events[-1]["kind"] == "span_end"


class TestNdjsonFileSink:
    def test_flush_without_close_keeps_stream_open(self, tmp_path):
        path = tmp_path / "out.ndjson"
        sink = NdjsonFileSink(path)
        sink.emit({"a": 1})
        sink.flush()
        assert read_ndjson(path) == [{"a": 1}]
        sink.emit({"a": 2})  # still writable after flush
        sink.close()
        assert read_ndjson(path) == [{"a": 1}, {"a": 2}]
        sink.close()  # idempotent

    def test_large_record_reaches_the_file_in_one_write(
        self, tmp_path, monkeypatch
    ):
        """A record over the 8 KiB stdio chunk lands in one raw
        ``write()``, so an O_APPEND writer in another process cannot
        split it."""
        import io

        import repro.obs.trace as trace

        writes = []

        class CountingFileIO(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                return super().write(data)

        def counting_open(path, mode, encoding):
            raw = CountingFileIO(path, mode)
            return io.TextIOWrapper(io.BufferedWriter(raw), encoding=encoding)

        monkeypatch.setattr(trace, "open", counting_open, raising=False)
        path = tmp_path / "big.ndjson"
        record = {
            "kind": "task",
            "runs": [{"seed": seed, "failure": None} for seed in range(1000)],
        }
        sink = NdjsonFileSink(path, flush_each=True)
        sink.emit(record)
        sink.close()
        size = path.stat().st_size
        assert size > 8192
        assert writes == [size]
        assert read_ndjson(path) == [record]
