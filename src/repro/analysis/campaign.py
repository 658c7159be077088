"""Monte-Carlo failure-rate campaigns.

The Table 2 solver is *analytic*: it converts the Eq. 5 bit-error law
into per-transaction failure probabilities through binomial tails.
This module validates those semantics *empirically*: run the real
simulated platform many times at a voltage where failures are frequent
enough to count, classify every outcome (correct / silently wrong /
crashed / unrecoverable), and compare the measured failure rates with
the analytic prediction.

This is the experiment a reviewer would ask for: does the executable
system actually fail the way the failure model says it does?

Telemetry: :func:`run_campaign` opens a ``campaign.run`` span and emits
one unsampled ``campaign.outcome`` trace record per run, so summing the
``injected`` / ``corrected`` / ``rollbacks`` fields of a trace exactly
reproduces the :class:`CampaignResult` totals — serial or fanned out.
Each worker executes under its own scoped metrics registry; the
snapshots travel back with the outcome tuples and merge exactly into
the caller's registry, so layer-level counters (``faults.*``,
``platform.*``) survive the process-pool boundary.

Fault-free runs are answered from one *golden run* per campaign point
(:class:`GoldenRun`): near threshold most runs see no fault, and a run
is fault-free exactly when each fault model's first geometric gap
covers the accesses that model samples in the fault-free run.  The
task checks that gap per seed and simulates only the runs it fails.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.access import AccessErrorModel
from repro.core.errors import validate_vdd
from repro.core.multibit import prob_at_least
from repro.mitigation import SCHEME_RUNNERS
from repro.obs import MetricsSnapshot, active_metrics, active_tracer, names, scoped_metrics
from repro.obs.profile import active_profiler
from repro.resilience import ChaosPolicy, ResilientExecutor, TaskSpec
from repro.workloads.streaming import StreamingWorkload


class EmptyCampaignError(ValueError):
    """A rate was requested from a campaign that has no runs."""

    def __init__(self, statistic: str, scheme: str, vdd: float) -> None:
        super().__init__(
            f"cannot compute {statistic}: campaign for scheme "
            f"{scheme!r} at vdd={vdd:.3f} V has no runs"
        )
        self.statistic = statistic
        self.scheme = scheme
        self.vdd = vdd


@dataclass
class CampaignResult:
    """Outcome statistics of one (scheme, voltage) campaign.

    ``quarantined`` counts runs the resilient executor retired after
    exhausting their retry budget; they are excluded from ``runs`` and
    every rate.  ``resilience`` carries the raw
    :class:`~repro.resilience.ExecutionReport` (retries, requeues,
    checkpoints, …) for inspection; it is excluded from equality so a
    perturbed-but-recovered campaign still compares bit-identical to an
    unperturbed one.
    """

    scheme: str
    vdd: float
    runs: int = 0
    correct: int = 0
    silent_corruption: int = 0
    detected_failure: int = 0
    total_injected_bits: int = 0
    total_corrected: int = 0
    total_rollbacks: int = 0
    failures_by_kind: dict = field(default_factory=dict)
    quarantined: int = 0
    resilience: object = field(default=None, compare=False, repr=False)

    @property
    def failure_rate(self) -> float:
        """Fraction of runs that did not produce correct output."""
        if self.runs == 0:
            raise EmptyCampaignError("failure_rate", self.scheme, self.vdd)
        return 1.0 - self.correct / self.runs

    @property
    def silent_rate(self) -> float:
        """Fraction of runs that completed with wrong output —
        the failure mode mitigation must drive to zero."""
        if self.runs == 0:
            raise EmptyCampaignError("silent_rate", self.scheme, self.vdd)
        return self.silent_corruption / self.runs


def _run_stats(outcome, golden) -> tuple:
    """Picklable statistics of one seeded run's outcome."""
    return (
        sum(outcome.sim.injected_bits.values()),
        outcome.sim.corrected_words,
        outcome.sim.rollbacks,
        outcome.output_matches(golden),
        outcome.completed,
        outcome.failure,
    )


@dataclass(frozen=True)
class GoldenRun:
    """The fault-free run of one campaign point, shared by its seeds.

    ``stats`` (:func:`_run_stats`) and ``snapshot`` (its metrics) are
    what every fault-free seed's run yields.  ``accesses`` holds, per
    memory of :func:`_faulty_memories`, how many accesses the run
    samples a fault mask for: its reads, plus its writes when
    ``fault_on_write`` is set.
    """

    stats: tuple
    snapshot: MetricsSnapshot
    accesses: tuple[int, ...]


def _faulty_memories(platform) -> list:
    """The platform's memories that carry a fault model, in a fixed order."""
    return [
        memory
        for memory in (platform.im, platform.sp, platform.pm)
        if memory is not None and memory.faults is not None
    ]


def _fault_free(runner, vdd: float, golden_run: GoldenRun) -> bool:
    """Whether ``runner``'s run at ``vdd`` sees no fault at all.

    Builds the seed's platform and reads each fault model's
    ``clean_run_length()``: the same first ``geometric(p_any)`` draw
    the run makes at that memory's first access.  The run stays on the
    golden path exactly while every gap covers the accesses the golden
    run samples there.  A memory the golden run never samples draws
    nothing.
    """
    platform = runner.build_platform(vdd)
    return all(
        accesses == 0 or memory.faults.clean_run_length() >= accesses
        for memory, accesses in zip(
            _faulty_memories(platform), golden_run.accesses
        )
    )


def _campaign_run_one(args) -> tuple:
    """Execute a task's seeds one run at a time.

    Module-level so :class:`ProcessPoolExecutor` can ship it to worker
    processes; each run is fully determined by its own seed, so results
    are identical whether runs execute serially or fanned out.  Returns
    the per-seed statistics plus the snapshot of the private metrics
    registry the runs executed under (exact cross-process metric
    merging).  Every seed block runs here, whatever its width.

    With a :class:`GoldenRun` (the last argument), a seed whose run
    :func:`_fault_free` proves fault-free takes the golden statistics
    and merges the golden snapshot instead of simulating; every other
    seed runs through ``runner.run`` as usual.
    """
    (
        runner_cls, workload, golden, access_model,
        vdd, frequency, first_seed, count, runner_kwargs, golden_run,
    ) = args
    per_seed = []
    with scoped_metrics() as registry:
        for seed in range(first_seed, first_seed + count):
            runner = runner_cls(access_model, seed=seed, **runner_kwargs)
            if golden_run is not None and _fault_free(
                runner, vdd, golden_run
            ):
                per_seed.append(golden_run.stats)
                registry.merge(golden_run.snapshot)
            else:
                outcome = runner.run(workload, vdd=vdd, frequency=frequency)
                per_seed.append(_run_stats(outcome, golden))
    return per_seed, registry.snapshot()


# Kept under its old name because the benchmark's tracer
# (``perfbench/tracing.py``) wraps it by name; it goes when the tracer
# drops that target.
_campaign_run_lane_block = _campaign_run_one


#: Golden runs one process keeps (:func:`_golden_run`); the least
#: recently used goes first.
GOLDEN_RUNS_KEPT = 64

_golden_runs: OrderedDict = OrderedDict()
_golden_runs_lock = threading.Lock()


def _golden_run(
    runner_cls, workload, golden, access_model, vdd, frequency,
    runner_kwargs,
) -> GoldenRun | None:
    """The campaign point's :class:`GoldenRun`, or None to simulate all.

    The golden run is the same runner at the same ``vdd`` with the
    access model's onset moved to ``vdd``, so ``p_bit`` is exactly 0.
    It is computed once per process and point and kept in a bounded
    LRU memo.  None when a seed's run may differ from it, or must be
    seen:

    * ``runner_cls`` is not one of :data:`SCHEME_RUNNERS`, the
      controllers whose fault-free runs the differential tests prove
      deterministic;
    * the engine profiler is on: its per-run tallies count every run;
    * ``vdd`` is 0, where no onset can sit;
    * the fault-free run does not complete: its failure trace records
      belong to each run.
    """
    if (
        runner_cls not in SCHEME_RUNNERS.values()
        or active_profiler().enabled
        or vdd <= 0.0
    ):
        return None
    from repro.store.keys import scheme_campaign_key

    # Keyed like the point's store row; every seed shares the run, so
    # the seed range is fixed.
    key = runner_cls, scheme_campaign_key(
        runner_cls.name, workload, golden, access_model, vdd, frequency,
        runs=1, seed_base=0, runner_kwargs=runner_kwargs,
    ).provenance_json
    with _golden_runs_lock:
        run = _golden_runs.get(key)
        if run is not None:
            _golden_runs.move_to_end(key)
            return run
    runner = runner_cls(
        dataclasses.replace(access_model, v_onset=vdd), **runner_kwargs
    )
    with scoped_metrics() as registry:
        outcome = runner.run(workload, vdd=vdd, frequency=frequency)
    if not outcome.completed:
        return None
    run = GoldenRun(
        stats=_run_stats(outcome, golden),
        snapshot=registry.snapshot(),
        accesses=tuple(
            memory.counters.reads
            + (memory.counters.writes if memory.fault_on_write else 0)
            for memory in _faulty_memories(runner.last_platform)
        ),
    )
    with _golden_runs_lock:
        _golden_runs[key] = run
        while len(_golden_runs) > GOLDEN_RUNS_KEPT:
            _golden_runs.popitem(last=False)
    return run


def _encode_outcome(outcome) -> dict:
    """JSON-safe store form of one campaign task's result."""
    per_seed, snapshot = outcome
    return {
        "runs": [
            {
                "injected": int(injected),
                "corrected": int(corrected),
                "rollbacks": int(rollbacks),
                "matches": bool(matches),
                "completed": bool(completed),
                "failure": failure,
            }
            for (
                injected, corrected, rollbacks, matches, completed, failure,
            ) in per_seed
        ],
        "metrics": snapshot.as_dict(),
    }


def _decode_outcome(data: dict) -> tuple:
    """Inverse of :func:`_encode_outcome` (exact round-trip)."""
    return (
        [
            (
                int(run["injected"]),
                int(run["corrected"]),
                int(run["rollbacks"]),
                bool(run["matches"]),
                bool(run["completed"]),
                run["failure"],
            )
            for run in data["runs"]
        ],
        MetricsSnapshot.from_dict(data["metrics"]),
    )


def run_campaign(
    runner_cls,
    workload: StreamingWorkload,
    golden: list[int],
    access_model: AccessErrorModel,
    vdd: float,
    frequency: float = 290e3,
    runs: int = 20,
    seed_base: int = 100,
    processes: int | None = None,
    max_retries: int = 3,
    task_timeout: float | None = None,
    chaos: ChaosPolicy | None = None,
    lanes: int = 1,
    progress=None,
    store=None,
    **runner_kwargs,
) -> CampaignResult:
    """Run ``runs`` independent seeded executions and classify them.

    With ``processes`` > 1 the runs fan out across a process pool; per
    run seeding keeps the classification identical to the serial path.

    ``lanes`` is the number of seeds per task: the seed axis is sharded
    into consecutive blocks of that width *before* the fan-out, one
    executor task (and, with ``store``, one task row) per block.  A
    block runs its seeds one after another through the runner's own
    ``run`` (the fast lane on stock platforms), and answers the seeds
    that see no fault from the point's golden run (exactly, see
    :class:`GoldenRun`), so the classification, the per-run
    ``campaign.outcome`` trace records and the merged metrics are
    identical to ``lanes=1``; only the task granularity
    changes (a quarantined block retires all of its member runs).
    ``lanes`` is therefore an execution knob of the campaign, not
    provenance: it is not part of the campaign's store key.

    Execution is resilient (:class:`~repro.resilience.ResilientExecutor`):
    worker death, per-task deadline overruns (``task_timeout`` seconds)
    and in-task exceptions retry up to ``max_retries`` times with
    deterministic backoff before the run is quarantined.  ``chaos``
    injects harness faults for testing.

    ``progress`` attaches a live observer with the
    :class:`~repro.obs.report.CampaignProgress` hook surface; the
    caller owns it and closes it.

    ``store`` (a :class:`~repro.store.ResultStore`) content-addresses
    the whole campaign by its provenance
    (:func:`repro.store.keys.scheme_campaign_key`): a warm probe
    returns the decoded :class:`CampaignResult` without touching an
    engine (``resilience`` is ``None`` on a served result — that is
    how callers tell warm from fresh), a miss computes cold, publishes,
    and returns the fresh result.  Identical concurrent misses in one
    process collapse onto a single computation (in-flight
    deduplication).  On a miss every task (a block of ``lanes`` seeds)
    is itself a store row (:func:`repro.store.keys.campaign_task_key`),
    published as it completes, so a killed or partly quarantined
    campaign resumes from its completed tasks when rerun against the
    same store — the resumed :class:`CampaignResult` is bit-identical to
    an uninterrupted one, and an extended campaign (more ``runs``)
    reuses the blocks it shares with an earlier one.  Execution knobs
    (``processes``, ``lanes``, retries, timeouts, chaos, progress) are
    not part of the campaign key — results are bit-exact across all of
    them, so a campaign stored at one task width answers every other.
    """
    vdd = validate_vdd(vdd, "run_campaign")
    if runs <= 0:
        raise ValueError("runs must be positive")
    if lanes < 1:
        raise ValueError("lanes must be positive")
    execute = dict(
        frequency=frequency, runs=runs, seed_base=seed_base,
        processes=processes, max_retries=max_retries,
        task_timeout=task_timeout, chaos=chaos, lanes=lanes,
        progress=progress, runner_kwargs=runner_kwargs,
    )
    if store is not None:
        from repro.store.pipeline import (
            campaign_point_key,
            decode_campaign_result,
            encode_campaign_result,
        )

        key = campaign_point_key(
            runner_cls, workload, golden, access_model,
            vdd=vdd, frequency=frequency, runs=runs, seed_base=seed_base,
            runner_kwargs=runner_kwargs,
        )
        fresh = []

        def compute():
            result = _execute_campaign(
                runner_cls, workload, golden, access_model, vdd,
                store=store, campaign_key=key, **execute,
            )
            fresh.append(result)
            # Quarantined campaigns are environment-shaped (retry
            # budgets, worker death), not provenance-shaped; never
            # serve one as the canonical answer for this key.  Their
            # completed runs are already stored as task rows.
            if result.quarantined:
                return None
            return encode_campaign_result(result)

        payload, cached = store.fetch_or_compute(key, compute)
        if not cached:
            return fresh[0]
        result = decode_campaign_result(payload)
        # Warm answers skip the engines, so layer counters and per-run
        # trace points do not reappear; the campaign totals do,
        # computed or served alike.
        _publish_campaign_metrics(result)
        return result
    return _execute_campaign(
        runner_cls, workload, golden, access_model, vdd, **execute
    )


def _execute_campaign(
    runner_cls, workload, golden, access_model, vdd, *, frequency, runs,
    seed_base, processes, max_retries, task_timeout, chaos, lanes,
    progress, runner_kwargs, store=None, campaign_key=None,
) -> CampaignResult:
    """Fan a campaign's runs out through the resilient executor.

    Every task carries the point's :func:`_golden_run`.  With
    ``store``, each task carries the
    :func:`~repro.store.keys.campaign_task_key` derived from
    ``campaign_key``, so the executor resumes stored runs and publishes
    fresh ones.
    """
    blocks = [
        (seed_base + start, min(lanes, runs - start))
        for start in range(0, runs, lanes)
    ]
    store_keys: list = [None] * len(blocks)
    if store is not None:
        from repro.store.keys import campaign_task_key

        store_keys = [
            campaign_task_key(campaign_key, first_seed, count)
            for first_seed, count in blocks
        ]
    golden_run = _golden_run(
        runner_cls, workload, golden, access_model, vdd, frequency,
        runner_kwargs,
    )
    tasks = [
        TaskSpec(
            key=(
                f"lanes-{first_seed}-{count}" if lanes > 1
                else f"run-{first_seed}"
            ),
            args=(
                (
                    runner_cls, workload, golden, access_model, vdd,
                    frequency, first_seed, count, runner_kwargs, golden_run,
                ),
            ),
            store_key=store_key,
        )
        for (first_seed, count), store_key in zip(blocks, store_keys)
    ]
    executor = ResilientExecutor(
        _campaign_run_one,
        processes=processes,
        max_retries=max_retries,
        task_timeout=task_timeout,
        chaos=chaos,
        encode=_encode_outcome,
        decode=_decode_outcome,
    )
    tracer = active_tracer()
    metrics = active_metrics()
    with tracer.span(
        names.SPAN_CAMPAIGN_RUN,
        scheme=runner_cls.name,
        vdd=vdd,
        runs=runs,
        processes=processes or 1,
        seed_base=seed_base,
        lanes=lanes,
    ):
        report = executor.run(
            tasks,
            run_id=f"campaign-{runner_cls.name}-vdd{vdd:.3f}",
            store=store,
            progress=progress,
        )
        result = CampaignResult(scheme=runner_cls.name, vdd=vdd)
        result.resilience = report
        for (first_seed, count), task in zip(blocks, tasks):
            outcome = report.results.get(task.key)
            if outcome is None:
                result.quarantined += count
                continue
            per_seed, snapshot = outcome
            metrics.merge(snapshot)
            for seed, (
                injected, corrected, rollbacks, matches, completed, failure,
            ) in enumerate(per_seed, first_seed):
                result.runs += 1
                result.total_injected_bits += injected
                result.total_corrected += corrected
                result.total_rollbacks += rollbacks
                if matches:
                    result.correct += 1
                    classification = "correct"
                elif completed:
                    result.silent_corruption += 1
                    classification = "silent-corruption"
                else:
                    result.detected_failure += 1
                    classification = "detected-failure"
                    kind = failure or "unknown"
                    result.failures_by_kind[kind] = (
                        result.failures_by_kind.get(kind, 0) + 1
                    )
                tracer.point(
                    names.POINT_CAMPAIGN_OUTCOME,
                    scheme=result.scheme,
                    vdd=result.vdd,
                    run=seed - seed_base,
                    seed=seed,
                    injected=injected,
                    corrected=corrected,
                    rollbacks=rollbacks,
                    classification=classification,
                    failure=failure,
                )
        _publish_campaign_metrics(result)
    return result


def _publish_campaign_metrics(result: CampaignResult) -> None:
    """Add a campaign's totals to the active ``campaign.*`` counters."""
    metrics = active_metrics()
    metrics.counter(names.CAMPAIGN_RUNS).inc(result.runs)
    metrics.counter(names.CAMPAIGN_CORRECT).inc(result.correct)
    metrics.counter(names.CAMPAIGN_SILENT_CORRUPTION).inc(
        result.silent_corruption
    )
    metrics.counter(names.CAMPAIGN_DETECTED_FAILURE).inc(
        result.detected_failure
    )
    metrics.counter(names.CAMPAIGN_INJECTED_BITS).inc(
        result.total_injected_bits
    )
    metrics.counter(names.CAMPAIGN_CORRECTED_WORDS).inc(result.total_corrected)
    metrics.counter(names.CAMPAIGN_ROLLBACKS).inc(result.total_rollbacks)
    if result.quarantined:
        metrics.counter(names.CAMPAIGN_QUARANTINED_RUNS).inc(
            result.quarantined
        )


def expected_run_failure_probability(
    access_model: AccessErrorModel,
    vdd: float,
    word_bits: int,
    fail_threshold: int,
    transactions: int,
) -> float:
    """Analytic prediction of the per-run failure probability.

    A run of ``transactions`` word accesses fails if any access sees at
    least ``fail_threshold`` simultaneous bit errors — the exact
    semantics the Table 2 solver prices at FIT 1e-15; here evaluated at
    countable rates.
    """
    if transactions <= 0:
        raise ValueError("transactions must be positive")
    p_bit = access_model.bit_error_probability(vdd)
    p_word = prob_at_least(word_bits, fail_threshold, p_bit)
    if p_word >= 1.0:
        return 1.0
    return -math.expm1(transactions * math.log1p(-p_word))
