"""Unit tests for :mod:`repro.resilience` — executor, store resume, chaos.

These pin the building blocks in isolation (pure-python task
functions, no simulator): retry/quarantine accounting, deterministic
backoff, checkpoint/resume round-trips through a result store, and
the chaos policy's rule normalisation.  The end-to-end campaign proofs
live in ``test_resilience_chaos.py``.
"""

import pytest

from repro import obs
from repro.resilience import (
    ChaosError,
    ChaosPolicy,
    NO_CHAOS,
    ResilientExecutor,
    TaskSpec,
    WorkerKilled,
)
from repro.store import PointKey, ResultStore


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_metrics()
    obs.disable_tracing()
    yield
    obs.disable_metrics()
    obs.disable_tracing()


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _tasks(n):
    return [TaskSpec(key=f"t{i}", args=(i,)) for i in range(n)]


def _stored_tasks(n):
    """Tasks whose results live in a store under a per-task key."""
    return [
        TaskSpec(
            key=f"t{i}",
            args=(i,),
            store_key=PointKey.from_provenance("test-task", {"i": i}),
        )
        for i in range(n)
    ]


def _encode(value):
    return {"value": value}


def _decode(payload):
    return payload["value"]


class TestTaskSpec:
    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            TaskSpec(key="", args=())

    def test_duplicate_keys_rejected_at_run(self):
        executor = ResilientExecutor(_square)
        tasks = [TaskSpec("a", (1,)), TaskSpec("a", (2,))]
        with pytest.raises(ValueError):
            executor.run(tasks, run_id="r")


class TestSerialExecution:
    def test_results_in_submission_order(self):
        report = ResilientExecutor(_square).run(
            _tasks(5), run_id="r"
        )
        assert report.result_list() == [0, 1, 4, 9, 16]
        assert report.complete
        assert report.executed == 5
        assert report.retries == 0

    def test_poison_task_quarantined_not_fatal(self):
        executor = ResilientExecutor(
            _boom, max_retries=2, backoff_base_s=0.0
        )
        report = executor.run(_tasks(1), run_id="r")
        assert not report.complete
        assert report.quarantined == {"t0": "RuntimeError"}
        assert report.retries == 2  # 1 + max_retries attempts total

    def test_transient_failure_recovers(self):
        chaos = ChaosPolicy(raise_in_task=[("t1", 1), ("t1", 2)])
        executor = ResilientExecutor(
            _square, max_retries=3, backoff_base_s=0.0, chaos=chaos
        )
        report = executor.run(_tasks(3), run_id="r")
        assert report.complete
        assert report.result_list() == [0, 1, 4]
        assert report.retries == 2

    def test_serial_kill_rule_degrades_to_exception(self):
        chaos = ChaosPolicy(kill=[("t0", 1)])
        executor = ResilientExecutor(
            _square, max_retries=1, backoff_base_s=0.0, chaos=chaos
        )
        report = executor.run(_tasks(1), run_id="r")
        assert report.complete
        assert report.retries == 1

    def test_metrics_counters_emitted(self):
        registry = obs.enable_metrics()
        chaos = ChaosPolicy(raise_in_task=[("t0", 1)])
        ResilientExecutor(
            _square, max_retries=1, backoff_base_s=0.0, chaos=chaos
        ).run(_tasks(2), run_id="r")
        counters = registry.snapshot().counters
        assert counters["resilience.tasks"] == 2
        assert counters["resilience.tasks_completed"] == 2
        assert counters["resilience.retries"] == 1
        assert counters["resilience.task_failures"] == 1


class TestBackoff:
    def test_deterministic_exponential_schedule(self):
        executor = ResilientExecutor(
            _square, backoff_base_s=0.05, backoff_cap_s=0.4
        )
        delays = []
        for attempt_number in range(1, 7):
            attempt = type("A", (), {"attempt": attempt_number})()
            start = __import__("time").monotonic()
            executor._sleep_backoff(attempt)
            delays.append(__import__("time").monotonic() - start)
        # Attempt 1 pays nothing; then 0.05, 0.1, 0.2, 0.4, 0.4 (cap).
        assert delays[0] < 0.02
        assert 0.04 <= delays[1] < 0.09
        assert 0.09 <= delays[2] < 0.18
        assert 0.18 <= delays[3] < 0.36
        assert 0.36 <= delays[4]
        assert delays[5] < 0.5  # capped, not 0.8

    def test_zero_base_disables_sleeping(self):
        executor = ResilientExecutor(_square, backoff_base_s=0.0)
        attempt = type("A", (), {"attempt": 5})()
        start = __import__("time").monotonic()
        executor._sleep_backoff(attempt)
        assert __import__("time").monotonic() - start < 0.02


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ResilientExecutor(_square, max_retries=-1)
        with pytest.raises(ValueError):
            ResilientExecutor(_square, task_timeout=0.0)
        with pytest.raises(ValueError):
            ResilientExecutor(_square, backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            ResilientExecutor(_square, max_pool_breaks=-1)


class TestExecutorJournalIntegration:
    """Checkpoint and resume through a result store."""

    def test_checkpoint_and_resume_skips_completed(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        first = ResilientExecutor(
            _square, encode=_encode, decode=_decode
        ).run(_stored_tasks(3), run_id="r", store=store)
        assert first.checkpoints == 3
        second = ResilientExecutor(
            _square, encode=_encode, decode=_decode
        ).run(_stored_tasks(6), run_id="r", store=store)
        assert second.resumed == 3
        assert second.executed == 3
        assert second.result_list() == [0, 1, 4, 9, 16, 25]

    def test_resumed_results_pass_through_decode(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        ResilientExecutor(_square, encode=_encode, decode=_decode).run(
            _stored_tasks(2), run_id="r", store=store
        )
        assert store.get(_stored_tasks(2)[1].store_key) == {"value": 1}
        resumed = ResilientExecutor(
            _square, encode=_encode, decode=_decode
        ).run(_stored_tasks(2), run_id="r", store=store)
        assert resumed.result_list() == [0, 1]
        assert resumed.executed == 0

    def test_quarantined_task_retried_on_resume(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        poisoned = ResilientExecutor(
            _square,
            max_retries=0,
            backoff_base_s=0.0,
            chaos=ChaosPolicy(raise_in_task=[("t0", 1)]),
            encode=_encode,
            decode=_decode,
        ).run(_stored_tasks(1), run_id="r", store=store)
        assert poisoned.quarantined
        assert len(store) == 0  # a quarantined task stays absent
        # The transient cause is gone: the resume gives it a new chance.
        recovered = ResilientExecutor(
            _square, encode=_encode, decode=_decode
        ).run(_stored_tasks(1), run_id="r", store=store)
        assert recovered.complete
        assert recovered.result_list() == [0]


class TestChaosPolicy:
    def test_no_chaos_is_empty(self):
        assert NO_CHAOS.empty
        NO_CHAOS.apply("任意", 1, in_worker_process=False)  # no-op

    def test_rules_normalised_and_hashable(self):
        policy = ChaosPolicy(
            kill=[("a", 1)], raise_in_task=(("b", 2),),
            delay={("c", 1): 0.5},
        )
        assert ("a", 1) in policy.kill
        assert ("b", 2) in policy.raise_in_task
        assert dict(policy.delay) == {("c", 1): 0.5}
        assert not policy.empty
        hash(policy)  # frozen → usable as a key

    def test_raise_rule_fires_only_on_its_attempt(self):
        policy = ChaosPolicy(raise_in_task=[("t", 2)])
        policy.apply("t", 1, in_worker_process=False)
        with pytest.raises(ChaosError):
            policy.apply("t", 2, in_worker_process=False)
        policy.apply("t", 3, in_worker_process=False)

    def test_kill_rule_raises_worker_killed_serially(self):
        policy = ChaosPolicy(kill=[("t", 1)])
        with pytest.raises(WorkerKilled):
            policy.apply("t", 1, in_worker_process=False)

    def test_delay_rule_sleeps(self):
        import time

        policy = ChaosPolicy(delay={("t", 1): 0.05})
        start = time.monotonic()
        policy.apply("t", 1, in_worker_process=False)
        assert time.monotonic() - start >= 0.04


class TestKeyboardInterrupt:
    def test_journal_survives_interrupt(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")

        calls = {"n": 0}

        def interrupting(x):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt()
            return x * x

        executor = ResilientExecutor(
            interrupting, encode=_encode, decode=_decode
        )
        with pytest.raises(KeyboardInterrupt):
            executor.run(_stored_tasks(5), run_id="r", store=store)
        # The two completed tasks are checkpointed and resumable.
        assert len(store) == 2
        resumed = ResilientExecutor(
            _square, encode=_encode, decode=_decode
        ).run(_stored_tasks(5), run_id="r", store=store)
        assert resumed.resumed == 2
        assert resumed.executed == 3
        assert resumed.result_list() == [0, 1, 4, 9, 16]
