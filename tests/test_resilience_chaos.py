"""Chaos suite: campaigns under injected harness faults.

The contract: a campaign with injected worker kills, task exceptions
and deadline overruns must complete (or resume from the result store)
with a ``CampaignResult`` bit-identical to an unperturbed run at the
same seed, with retry / requeue / checkpoint counts visible in
``repro.obs`` metrics.  Every test here perturbs a
real campaign (:func:`run_campaign` over the live SECDED platform, or
:meth:`BatchCampaign.retention_failure_curve`) through a
:class:`ChaosPolicy` and compares against the unperturbed truth.
"""

import numpy as np
import pytest

from repro import obs
from repro.analysis.batch import BatchCampaign
from repro.analysis.campaign import run_campaign
from repro.core.access import (
    ACCESS_CELL_BASED_40NM_TYPICAL,
    ACCESS_COMMERCIAL_40NM,
)
from repro.core.retention import RETENTION_COMMERCIAL_40NM
from repro.mitigation import SecdedRunner
from repro.resilience import ChaosPolicy, ResilientExecutor, TaskSpec
from repro.store import ResultStore
from repro.workloads.fft import build_fft_program


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_metrics()
    obs.disable_tracing()
    yield
    obs.disable_metrics()
    obs.disable_tracing()


@pytest.fixture(scope="module")
def fft_fixture():
    program = build_fft_program(64)
    golden = program.expected_output(list(program.data_words[:64]))
    return program, golden


def _campaign_kwargs(program, golden):
    return dict(
        workload=program.workload,
        golden=golden,
        access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
        vdd=0.40,
        runs=4,
        seed_base=100,
        macro_style="cell-based",
    )


def _assert_identical(perturbed, baseline):
    """CampaignResult equality (the resilience report is compare=False)."""
    assert perturbed == baseline
    assert perturbed.failures_by_kind == baseline.failures_by_kind


class TestCampaignChaos:
    def test_worker_kill_and_task_exception_recover(self, fft_fixture):
        """Killed worker + raising task: retried, then bit-identical."""
        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        baseline = run_campaign(SecdedRunner, **kwargs)
        chaos = ChaosPolicy(
            kill=[("run-101", 1)],
            raise_in_task=[("run-102", 1)],
        )
        perturbed = run_campaign(
            SecdedRunner, processes=2, chaos=chaos, **kwargs
        )
        _assert_identical(perturbed, baseline)
        report = perturbed.resilience
        assert report.retries >= 2  # the killed and the raising run
        assert report.pool_breaks >= 1
        assert report.quarantined == {}

    def test_deadline_overrun_recovers(self, fft_fixture):
        """A delayed task blows its deadline, retries, and the result
        is still bit-identical (the overrun attempt is discarded)."""
        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        baseline = run_campaign(SecdedRunner, **kwargs)
        chaos = ChaosPolicy(delay={("run-100", 1): 1.0})
        perturbed = run_campaign(
            SecdedRunner, task_timeout=0.75, chaos=chaos, **kwargs
        )
        _assert_identical(perturbed, baseline)
        assert perturbed.resilience.deadline_overruns >= 1
        assert perturbed.resilience.retries >= 1

    def test_retry_counts_visible_in_obs_metrics(self, fft_fixture):
        program, golden = fft_fixture
        registry = obs.enable_metrics()
        chaos = ChaosPolicy(raise_in_task=[("run-101", 1)])
        run_campaign(
            SecdedRunner, chaos=chaos,
            **_campaign_kwargs(program, golden),
        )
        counters = registry.snapshot().counters
        assert counters["resilience.tasks"] == 4
        assert counters["resilience.tasks_completed"] == 4
        assert counters["resilience.retries"] == 1
        assert counters["resilience.task_failures"] == 1
        assert counters["campaign.runs"] == 4

    def test_journal_resume_is_bit_identical(self, fft_fixture, tmp_path):
        """Half the campaign checkpointed to the store, then resumed to
        the exact same CampaignResult — with the resumed half never
        re-executed."""
        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        baseline = run_campaign(SecdedRunner, **kwargs)
        store = ResultStore(tmp_path / "campaign.sqlite")
        registry = obs.enable_metrics()
        half = dict(kwargs, runs=2)
        run_campaign(SecdedRunner, store=store, **half)
        assert registry.snapshot().counters["resilience.checkpoints"] == 2
        resumed = run_campaign(SecdedRunner, store=store, **kwargs)
        _assert_identical(resumed, baseline)
        assert resumed.resilience.resumed == 2
        assert resumed.resilience.executed == 2
        counters = registry.snapshot().counters
        assert counters["resilience.resumed_tasks"] == 2
        assert counters["resilience.checkpoints"] == 4

    def test_heartbeat_survives_kill_and_resume(self, fft_fixture, tmp_path):
        """The NDJSON heartbeat stays readable across a worker kill and
        a store resume: each campaign invocation emits a ``start``
        record (with the resumed head start pre-counted) and per-task
        records that drive the ETA, and a torn final line — the
        abnormal-exit case — never hides the complete records."""
        from repro.obs.report import CampaignProgress, read_ndjson

        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        baseline = run_campaign(SecdedRunner, **kwargs)
        store = ResultStore(tmp_path / "campaign.sqlite")
        first_beat = tmp_path / "hb_first.ndjson"
        resume_beat = tmp_path / "hb_resume.ndjson"

        half = dict(kwargs, runs=2)
        progress = CampaignProgress(heartbeat=first_beat)
        try:
            run_campaign(SecdedRunner, store=store, progress=progress, **half)
        finally:
            progress.close()
        first = read_ndjson(first_beat)
        assert first[0]["kind"] == "start"
        assert first[0]["total"] == 2
        assert first[0]["done"] == 0
        assert first[-1]["done"] == 2

        # Resume under chaos: a killed worker must not corrupt either
        # the store or the heartbeat stream.
        chaos = ChaosPolicy(kill=[("run-102", 1)])
        progress = CampaignProgress(heartbeat=resume_beat)
        try:
            resumed = run_campaign(
                SecdedRunner, store=store, progress=progress,
                processes=2, chaos=chaos, **kwargs,
            )
        finally:
            progress.close()
        _assert_identical(resumed, baseline)
        assert resumed.resilience.resumed == 2

        records = read_ndjson(resume_beat)
        assert records[0]["kind"] == "start"
        assert records[0]["total"] == 4
        assert records[0]["done"] == 2  # resumed head start pre-counted
        assert records[0]["resumed"] == 2
        tasks = [r for r in records if r["kind"] == "task"]
        assert [r["done"] for r in tasks] == [3, 4]
        assert all(r["eta_s"] >= 0.0 for r in tasks)
        assert records[-1]["done"] == 4

        # Torn tail (SIGKILL mid-write): complete records still read.
        with open(resume_beat, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "task", "done"')
        assert read_ndjson(resume_beat) == records

    def test_poison_run_quarantined_not_fatal(self, fft_fixture):
        """A run that fails every attempt is excluded and counted, and
        the campaign still completes with the surviving runs."""
        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        chaos = ChaosPolicy(
            raise_in_task=[("run-101", 1), ("run-101", 2)],
        )
        result = run_campaign(
            SecdedRunner, max_retries=1, chaos=chaos, **kwargs
        )
        assert result.quarantined == 1
        assert result.runs == 3
        assert result.resilience.quarantined == {"run-101": "ChaosError"}

    def test_quarantined_run_resumes_from_store(self, fft_fixture, tmp_path):
        """A quarantined run stays out of the store while its siblings
        land there; a clean rerun executes only the missing run and
        matches the unperturbed campaign."""
        program, golden = fft_fixture
        kwargs = _campaign_kwargs(program, golden)
        baseline = run_campaign(SecdedRunner, **kwargs)
        store = ResultStore(tmp_path / "campaign.sqlite")
        chaos = ChaosPolicy(raise_in_task=[("run-101", 1)])
        poisoned = run_campaign(
            SecdedRunner, store=store, max_retries=0, chaos=chaos, **kwargs
        )
        assert poisoned.quarantined == 1
        rerun = run_campaign(SecdedRunner, store=store, **kwargs)
        _assert_identical(rerun, baseline)
        assert rerun.resilience.resumed == 3
        assert rerun.resilience.executed == 1


def _echo(x):
    return x


class TestSerialDegradation:
    def test_repeatedly_broken_pool_degrades_to_serial(self):
        """Three pool breaks exceed max_pool_breaks=2: the executor
        abandons the pool, finishes serially and still completes."""
        chaos = ChaosPolicy(kill=[("k0", 1), ("k0", 2), ("k0", 3)])
        registry = obs.enable_metrics()
        executor = ResilientExecutor(
            _echo, processes=2, max_retries=3,
            backoff_base_s=0.0, max_pool_breaks=2, chaos=chaos,
        )
        tasks = [TaskSpec(key=f"k{i}", args=(i,)) for i in range(4)]
        report = executor.run(tasks, run_id="degrade")
        assert report.complete
        assert report.result_list() == [0, 1, 2, 3]
        assert report.pool_breaks == 3
        assert report.degraded_to_serial
        counters = registry.snapshot().counters
        assert counters["resilience.pool_breaks"] == 3
        assert counters["resilience.serial_degradations"] == 1
        # Serial chaos-kill attempt 3 degrades to an exception, so the
        # poison task needed its 4th attempt; bystanders were requeued
        # at their original attempt number and never quarantined.
        assert report.quarantined == {}


class TestBatchChaos:
    VOLTS = np.linspace(0.4, 1.0, 9)

    def _curve(self, **overrides):
        params = dict(n_dies=4, words=64, bits=32)
        params.update(overrides)
        campaign = BatchCampaign(
            seed=2014, processes=params.pop("processes", None)
        )
        return campaign.retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            **params,
        )

    def test_killed_die_worker_recovers_bit_identical(self):
        baseline = self._curve()
        perturbed = self._curve(
            processes=2, chaos=ChaosPolicy(kill=[("die-1", 1)])
        )
        np.testing.assert_array_equal(perturbed, baseline)

    def test_journal_resume_matches_fresh_run(self, tmp_path):
        store = ResultStore(tmp_path / "dies.sqlite")
        baseline = self._curve()
        first = self._curve(store=store)
        np.testing.assert_array_equal(first, baseline)
        resumed = self._curve(store=store)
        np.testing.assert_array_equal(resumed, baseline)

    def test_completed_dies_survive_a_quarantine(self, tmp_path):
        """The curve raises on a quarantined die, but the dies that
        completed are already in the store: the rerun executes only
        the lost die and reproduces the unperturbed curve."""
        store = ResultStore(tmp_path / "dies.sqlite")
        baseline = self._curve()
        chaos = ChaosPolicy(raise_in_task=[("die-3", 1)])
        with pytest.raises(RuntimeError, match="die-3"):
            self._curve(store=store, max_retries=0, chaos=chaos)
        stored = [entry["provenance"]["die_index"] for entry in store.entries()]
        assert sorted(stored) == [0, 1, 2]
        registry = obs.enable_metrics()
        rerun = self._curve(store=store)
        np.testing.assert_array_equal(rerun, baseline)
        counters = registry.snapshot().counters
        assert counters["resilience.resumed_tasks"] == 3
        assert counters["resilience.tasks_completed"] == 1
        assert store.entries()[-1]["provenance"]["die_index"] == 3

    def test_quarantined_die_raises_instead_of_skewing(self):
        chaos = ChaosPolicy(raise_in_task=[("die-0", 1)])
        with pytest.raises(RuntimeError, match="die-0"):
            self._curve(max_retries=0, chaos=chaos)
