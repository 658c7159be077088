"""Fault-tolerant task executor for Monte-Carlo campaign fan-out.

The simulated SoC survives memory faults through OCEAN's checkpoint and
rollback; until this module, the harness *around* it did not — one dead
worker, hung task or ``KeyboardInterrupt`` lost every completed run of
a campaign.  :class:`ResilientExecutor` closes that gap with the same
discipline, one layer up:

* **Checkpoint**: given a :class:`~repro.store.ResultStore`, every
  completed task's result is published under the task's provenance key
  as it lands, and every task whose key is already stored is skipped,
  so an interrupted run resumes from its last completed task.  Because
  each task is fully determined by its own seed and results merge in
  task order, a resumed run is *bit-identical* to an uninterrupted one.
* **Rollback (retry)**: worker death (``BrokenProcessPool``), per-task
  deadline overruns and in-task exceptions requeue the task with
  deterministic, jitter-free exponential backoff.  A task that keeps
  failing is *quarantined* after ``1 + max_retries`` attempts instead
  of aborting the campaign.
* **Degradation**: a pool that keeps breaking is abandoned and the
  remaining tasks run serially in-process — slower, but the campaign
  completes.
* **Chaos**: a :class:`~repro.resilience.chaos.ChaosPolicy` perturbs
  chosen task attempts (kill / raise / delay), which is how the chaos
  test-suite proves all of the above under injected harness faults.

Telemetry flows through :mod:`repro.obs`: ``resilience.*`` counters
(retries, requeues, checkpoints, quarantines, pool breaks, deadline
overruns) and a ``resilience.run`` span with per-failure points.

Tasks must be *picklable and deterministic*: a :class:`TaskSpec` is a
stable string key plus the positional arguments handed to the
module-level task function, and optionally the store key of its
result.  Results that should survive in the store additionally need
``encode``/``decode`` hooks mapping them to and from JSON objects.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import active_metrics, active_tracer, names
from repro.resilience.chaos import NO_CHAOS, ChaosPolicy

if TYPE_CHECKING:
    from repro.store.keys import PointKey


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: a stable key plus picklable arguments.

    ``store_key`` is where the task's result lives in a result store;
    tasks without one are never probed or published.
    """

    key: str
    args: tuple
    store_key: PointKey | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("task key must be non-empty")


@dataclass
class ExecutionReport:
    """What a resilient run did and produced.

    ``results`` holds decoded task results by key; merge them in
    :attr:`order` (the submission order) for order-independent,
    bit-identical aggregation regardless of completion order, retries
    or resume.
    """

    order: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)  # key -> last error
    resumed: int = 0
    executed: int = 0
    retries: int = 0
    requeues: int = 0
    checkpoints: int = 0
    pool_breaks: int = 0
    deadline_overruns: int = 0
    degraded_to_serial: bool = False

    def result_list(self) -> list:
        """Completed results in task-submission order."""
        return [
            self.results[key] for key in self.order if key in self.results
        ]

    @property
    def complete(self) -> bool:
        return not self.quarantined and len(self.results) == len(self.order)


class _Attempt:
    """One scheduled execution of a task (attempts count from 1)."""

    __slots__ = ("task", "attempt")

    def __init__(self, task: TaskSpec, attempt: int) -> None:
        self.task = task
        self.attempt = attempt


def _execute_task(payload):
    """Module-level task wrapper (picklable for the process pool).

    Applies the chaos schedule, then runs the task function.  The same
    wrapper serves serial in-process execution with
    ``in_worker=False`` so chaos kill rules degrade to exceptions
    instead of taking the harness down.
    """
    fn, key, attempt, args, chaos, in_worker = payload
    chaos.apply(key, attempt, in_worker_process=in_worker)
    return fn(*args)


class ResilientExecutor:
    """Checkpointed, retrying, chaos-testable task fan-out.

    Parameters
    ----------
    fn:
        Module-level task function, called as ``fn(*task.args)`` —
        picklable so it ships to pool workers.
    processes:
        Pool width; ``None`` or ``<= 1`` executes serially in-process.
    max_retries:
        Retries granted per task after its first failed attempt; a task
        failing ``1 + max_retries`` attempts is quarantined.
    task_timeout:
        Per-task deadline in seconds.  In pooled mode an overdue task
        tears the (possibly hung) pool down and requeues; serially the
        overrun is detected after the fact and the result discarded.
    backoff_base_s / backoff_cap_s:
        Deterministic exponential backoff before attempt ``n >= 2``:
        ``min(cap, base * 2**(n-2))`` seconds.  Jitter-free, so a rerun
        schedules identically.
    max_pool_breaks:
        Pool teardowns (worker death or deadline) tolerated before the
        executor degrades to serial execution for the rest of the run.
    chaos:
        Optional :class:`ChaosPolicy` perturbing chosen attempts.
    encode / decode:
        Result ↔ JSON object hooks for the store (identity by default;
        required whenever results are not already JSON objects).
    """

    def __init__(
        self,
        fn,
        *,
        processes: int | None = None,
        max_retries: int = 3,
        task_timeout: float | None = None,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        max_pool_breaks: int = 2,
        chaos: ChaosPolicy | None = None,
        encode=None,
        decode=None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff must be non-negative")
        if max_pool_breaks < 0:
            raise ValueError(
                f"max_pool_breaks must be >= 0, got {max_pool_breaks}"
            )
        self.fn = fn
        self.processes = processes
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.max_pool_breaks = max_pool_breaks
        self.chaos = chaos if chaos is not None else NO_CHAOS
        self._encode = encode if encode is not None else (lambda value: value)
        self._decode = decode if decode is not None else (lambda value: value)
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------
    def run(
        self,
        tasks,
        *,
        run_id: str,
        store=None,
        progress=None,
    ) -> ExecutionReport:
        """Execute ``tasks``, resuming from ``store`` if one is given.

        Before scheduling, each task's ``store_key`` is probed: a hit
        counts as ``resumed`` and is not executed.  Each result is
        published to the store as it lands (``checkpoints``).  A
        quarantined task stays absent, so it is retried on the next
        run.

        ``progress`` is an optional live-progress observer with the
        :class:`repro.obs.report.CampaignProgress` hook surface
        (``on_start`` / ``on_task`` / ``on_quarantine``); it sees every
        completed or quarantined task as it lands, with measured task
        durations feeding its ETA.

        Raises
        ------
        KeyboardInterrupt
            Re-raised after the pool is shut down cleanly (pending
            futures cancelled, workers joined) — completed work stays
            in the store for a later rerun.
        """
        tasks = list(tasks)
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique within a run")
        report = ExecutionReport(order=keys)
        metrics = active_metrics()
        tracer = active_tracer()

        if store is not None:
            for task in tasks:
                if task.store_key is None:
                    continue
                payload = store.get(task.store_key)
                if payload is not None:
                    report.results[task.key] = self._decode(payload)
                    report.resumed += 1
            if report.resumed:
                metrics.counter(names.RESILIENCE_RESUMED_TASKS).inc(
                    report.resumed
                )
        pending = deque(
            _Attempt(task, 1)
            for task in tasks
            if task.key not in report.results
        )
        if progress is not None:
            progress.on_start(
                total=len(tasks),
                resumed=report.resumed,
                workers=self.processes or 1,
            )

        with tracer.span(
            names.SPAN_RESILIENCE_RUN,
            run_id=run_id,
            tasks=len(tasks),
            resumed=report.resumed,
            processes=self.processes or 1,
            max_retries=self.max_retries,
        ):
            try:
                self._drain(
                    pending, report, store, metrics, tracer, progress
                )
            except KeyboardInterrupt:
                # Clean shutdown is the contract: cancel what never
                # started, join the workers (no orphans), then
                # propagate.  Completed tasks are already in the store.
                self._shutdown_pool(cancel=True)
                metrics.counter(names.RESILIENCE_INTERRUPTED_RUNS).inc()
                tracer.point(
                    names.POINT_RESILIENCE_INTERRUPTED,
                    run_id=run_id,
                    completed=len(report.results),
                    pending=len(pending),
                )
                # The trace file must keep every record emitted before
                # the cut, so a torn trace still reads back.
                tracer.flush()
                raise
            finally:
                self._shutdown_pool(cancel=True)

        metrics.counter(names.RESILIENCE_RUNS).inc()
        metrics.counter(names.RESILIENCE_TASKS).inc(len(tasks))
        return report

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def _drain(
        self, pending, report, store, metrics, tracer, progress=None
    ) -> None:
        # future -> (_Attempt, deadline | None, submit time)
        inflight: dict = {}
        while pending or inflight:
            pooled = (
                self.processes is not None
                and self.processes > 1
                and not report.degraded_to_serial
            )
            if not pooled:
                attempt = pending.popleft()
                self._run_serial(
                    attempt, pending, report, store, metrics, tracer,
                    progress,
                )
                continue

            if not self._submit_ready(pending, inflight, report):
                # Submission itself found the pool broken.
                self._on_pool_failure(
                    inflight, pending, report, metrics, tracer,
                    reason="worker-death",
                )
                continue

            done = self._await_progress(inflight)
            broken = False
            for future in done:
                attempt, _, started = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    self._fail_attempt(
                        attempt, "worker-death", pending, report,
                        metrics, tracer, progress,
                    )
                except Exception as exc:
                    self._fail_attempt(
                        attempt, type(exc).__name__, pending, report,
                        metrics, tracer, progress,
                    )
                else:
                    self._complete(
                        attempt, result, report, store, metrics,
                        progress, time.monotonic() - started,
                    )
            if broken:
                self._on_pool_failure(
                    inflight, pending, report, metrics, tracer,
                    reason="worker-death",
                )
                continue

            overdue = self._overdue(inflight)
            if overdue:
                # A worker that blew its deadline may be hung; the only
                # portable way to reclaim its slot is to abandon the
                # pool.  Overdue tasks are charged a failed attempt,
                # innocent in-flight neighbours are requeued for free.
                for future in overdue:
                    attempt, _, _ = inflight.pop(future)
                    future.cancel()
                    report.deadline_overruns += 1
                    metrics.counter(names.RESILIENCE_DEADLINE_OVERRUNS).inc()
                    self._fail_attempt(
                        attempt, "deadline-overrun", pending, report,
                        metrics, tracer, progress,
                    )
                self._on_pool_failure(
                    inflight, pending, report, metrics, tracer,
                    reason="deadline-overrun",
                )

    def _submit_ready(self, pending, inflight, report) -> bool:
        """Fill the in-flight window; False if the pool broke on us."""
        window = max(2 * (self.processes or 1), 2)
        while pending and len(inflight) < window:
            attempt = pending.popleft()
            self._sleep_backoff(attempt)
            try:
                future = self._ensure_pool().submit(
                    _execute_task, self._payload(attempt, in_worker=True)
                )
            except (BrokenProcessPool, RuntimeError):
                pending.appendleft(attempt)
                return False
            deadline = (
                time.monotonic() + self.task_timeout
                if self.task_timeout is not None
                else None
            )
            inflight[future] = (attempt, deadline, time.monotonic())
        return True

    def _await_progress(self, inflight):
        """Block until a future completes or the nearest deadline."""
        if not inflight:
            return []
        timeout = None
        if self.task_timeout is not None:
            now = time.monotonic()
            nearest = min(
                deadline for _, deadline, _ in inflight.values()
                if deadline is not None
            )
            timeout = max(0.0, nearest - now)
        done, _ = wait(
            set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return done

    def _overdue(self, inflight) -> list:
        if self.task_timeout is None:
            return []
        now = time.monotonic()
        return [
            future
            for future, (_, deadline, _) in inflight.items()
            if deadline is not None and now >= deadline
            and not future.done()
        ]

    # ------------------------------------------------------------------
    # Attempt outcomes
    # ------------------------------------------------------------------
    def _run_serial(
        self, attempt, pending, report, store, metrics, tracer,
        progress=None,
    ) -> None:
        self._sleep_backoff(attempt)
        start = time.monotonic()
        try:
            result = _execute_task(self._payload(attempt, in_worker=False))
        except Exception as exc:
            self._fail_attempt(
                attempt, type(exc).__name__, pending, report, metrics,
                tracer, progress,
            )
            return
        elapsed = time.monotonic() - start
        if self.task_timeout is not None and elapsed > self.task_timeout:
            # Serial deadlines are necessarily post-hoc; the overrun
            # result is discarded so semantics match pooled execution.
            report.deadline_overruns += 1
            metrics.counter(names.RESILIENCE_DEADLINE_OVERRUNS).inc()
            self._fail_attempt(
                attempt, "deadline-overrun", pending, report, metrics,
                tracer, progress,
            )
            return
        self._complete(
            attempt, result, report, store, metrics, progress, elapsed
        )

    def _complete(
        self, attempt, result, report, store, metrics,
        progress=None, seconds=None,
    ) -> None:
        report.results[attempt.task.key] = result
        report.executed += 1
        metrics.counter(names.RESILIENCE_TASKS_COMPLETED).inc()
        if store is not None and attempt.task.store_key is not None:
            store.put(attempt.task.store_key, self._encode(result))
            report.checkpoints += 1
            metrics.counter(names.RESILIENCE_CHECKPOINTS).inc()
        if progress is not None:
            progress.on_task(attempt.task.key, seconds)

    def _fail_attempt(
        self, attempt, reason, pending, report, metrics, tracer,
        progress=None,
    ) -> None:
        """Charge a failed attempt: requeue with backoff or quarantine."""
        metrics.counter(names.RESILIENCE_TASK_FAILURES).inc()
        tracer.point(
            names.POINT_RESILIENCE_ATTEMPT_FAILED,
            key=attempt.task.key,
            attempt=attempt.attempt,
            reason=reason,
        )
        if attempt.attempt >= 1 + self.max_retries:
            report.quarantined[attempt.task.key] = reason
            metrics.counter(names.RESILIENCE_QUARANTINED).inc()
            tracer.point(
                names.POINT_RESILIENCE_QUARANTINED,
                key=attempt.task.key,
                attempts=attempt.attempt,
                reason=reason,
            )
            if progress is not None:
                progress.on_quarantine(attempt.task.key)
            return
        report.retries += 1
        metrics.counter(names.RESILIENCE_RETRIES).inc()
        pending.append(_Attempt(attempt.task, attempt.attempt + 1))

    def _on_pool_failure(
        self, inflight, pending, report, metrics, tracer, reason,
    ) -> None:
        """Tear the pool down, requeue survivors, maybe degrade."""
        self._shutdown_pool(cancel=True, wait_workers=False)
        report.pool_breaks += 1
        metrics.counter(names.RESILIENCE_POOL_BREAKS).inc()
        tracer.point(
            names.POINT_RESILIENCE_POOL_BREAK,
            reason=reason,
            inflight=len(inflight),
        )
        # In-flight neighbours died with the pool through no fault of
        # their own: requeue at the *same* attempt number so a bystander
        # can never be quarantined by someone else's poison task.
        for future, (attempt, _, _) in inflight.items():
            future.cancel()
            report.requeues += 1
            metrics.counter(names.RESILIENCE_REQUEUES).inc()
            pending.append(attempt)
        inflight.clear()
        # Worker death is an abnormal exit for the trace stream too:
        # make everything emitted so far durable before carrying on.
        tracer.flush()
        if (
            report.pool_breaks > self.max_pool_breaks
            and not report.degraded_to_serial
        ):
            report.degraded_to_serial = True
            metrics.counter(names.RESILIENCE_SERIAL_DEGRADATIONS).inc()
            tracer.point(
                names.POINT_RESILIENCE_DEGRADED_TO_SERIAL,
                pool_breaks=report.pool_breaks,
            )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _payload(self, attempt, in_worker: bool):
        return (
            self.fn,
            attempt.task.key,
            attempt.attempt,
            attempt.task.args,
            self.chaos,
            in_worker,
        )

    def _sleep_backoff(self, attempt) -> None:
        if attempt.attempt <= 1 or self.backoff_base_s == 0.0:
            return
        delay = min(
            self.backoff_cap_s,
            self.backoff_base_s * 2.0 ** (attempt.attempt - 2),
        )
        if delay > 0.0:
            time.sleep(delay)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.processes)
        return self._pool

    def _shutdown_pool(self, cancel: bool, wait_workers: bool = True) -> None:
        """Drop the pool.  ``wait_workers=False`` skips joining them —
        used on deadline teardowns, where a hung worker must not be
        allowed to block the requeue of everyone else's tasks."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait_workers, cancel_futures=cancel)
            self._pool = None


__all__ = ["ExecutionReport", "ResilientExecutor", "TaskSpec"]
