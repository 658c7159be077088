"""Durability surface of ``repro serve``: journal, claims, client.

Covers the crash-safety building blocks in isolation (NDJSON job
journal replay, torn-tail tolerance, cross-process fingerprint
claims) and their integration (a restarted server resumes incomplete
jobs warm from the store; two servers replaying the same journal
never double-run a job), plus the deterministic retry behavior of
:class:`~repro.serve.client.ServeClient` against a scripted
transport.  The full subprocess ``kill -9`` exercise lives in
``tests/test_serve_chaos.py``.
"""

import http.client
import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.mitigation import SecdedRunner
from repro.obs.report import read_ndjson
from repro.serve import (
    JobFailedError,
    ServeClient,
    ServeClientError,
    ServerThread,
    ServerUnavailableError,
    normalize_spec,
    spec_fingerprint,
)
from repro.serve.durability import (
    JobClaims,
    JobJournal,
    JobJournalError,
    replay_jobs,
)
from repro.store import (
    ResultStore,
    encode_campaign_result,
    scheme_failure_grid,
)
from repro.workloads.fft import build_fft_program

SPEC = {"scheme": "secded", "vdds": [0.44, 0.46], "runs": 2, "seed": 100}
DEADLINE_S = 120.0


def _request(url, payload=None):
    data = None
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait(base_url, job_id, states=("done",)):
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        status, body = _request(f"{base_url}/status/{job_id}")
        assert status == 200
        if body["state"] in states or body["state"] == "failed":
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {DEADLINE_S}s")


def _grid_into(store, spec=SPEC):
    """Run the spec's grid directly into ``store`` (no server)."""
    spec = normalize_spec(dict(spec))
    program = build_fft_program(spec["fft"])
    golden = program.expected_output(list(program.data_words[: spec["fft"]]))
    grid = scheme_failure_grid(
        SecdedRunner, program.workload, golden,
        ACCESS_CELL_BASED_40NM_TYPICAL, spec["vdds"],
        store=store,
        frequency=spec["frequency"], runs=spec["runs"],
        seed_base=spec["seed"], lanes=spec["lanes"],
        macro_style=spec["macro_style"],
    )
    return [encode_campaign_result(result) for result in grid.results]


def _write_incomplete_job(journal_path, spec=SPEC, job_id="job-0007-recoverme"):
    """Journal a submitted+started job with no terminal record.

    This is exactly what a SIGKILLed server leaves behind.
    """
    normalized = normalize_spec(dict(spec))
    fingerprint = spec_fingerprint(normalized)
    with JobJournal(journal_path) as journal:
        journal.record_submitted(
            job_id, fingerprint, normalized, len(normalized["vdds"])
        )
        journal.record_started(job_id)
    return job_id, fingerprint


class TestJobJournal:
    def test_replay_roundtrips_every_transition(self, tmp_path):
        path = tmp_path / "jobs.ndjson"
        with JobJournal(path) as journal:
            journal.record_submitted("job-1", "fp-1", {"scheme": "secded"}, 2)
            journal.record_started("job-1")
            journal.record_point("job-1", 1, 2)
            journal.record_done("job-1", hits=1, executed_points=1)
            journal.record_submitted("job-2", "fp-2", {"scheme": "none"}, 1)
            journal.record_started("job-2")
            journal.record_failed("job-2", "boom")
            journal.record_submitted("job-3", "fp-3", {"scheme": "ocean"}, 3)
            journal.record_started("job-3")
            journal.record_point("job-3", 2, 3)
            journal.record_submitted("job-4", "fp-4", {"scheme": "secded"}, 1)
            journal.record_started("job-4")
            journal.record_timed_out("job-4", 5.0)
            journal.record_drain(1, False)

        jobs = replay_jobs(path)
        assert set(jobs) == {"job-1", "job-2", "job-3", "job-4"}
        assert jobs["job-1"].state == "done"
        assert (jobs["job-1"].hits, jobs["job-1"].executed_points) == (1, 1)
        assert not jobs["job-1"].incomplete
        assert jobs["job-2"].state == "failed"
        assert jobs["job-2"].error == "boom"
        assert jobs["job-3"].state == "running"
        assert jobs["job-3"].incomplete
        assert (jobs["job-3"].points_done, jobs["job-3"].points_total) == (2, 3)
        assert jobs["job-4"].state == "timed-out"
        assert "5.0" in jobs["job-4"].error

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay_jobs(tmp_path / "absent.ndjson") == {}

    def test_torn_tail_drops_only_the_torn_record(self, tmp_path):
        path = tmp_path / "jobs.ndjson"
        with JobJournal(path) as journal:
            journal.record_submitted("job-1", "fp-1", {"scheme": "secded"}, 2)
            journal.record_started("job-1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"done","job":"job-1","hi')  # torn write

        jobs = replay_jobs(path)
        assert jobs["job-1"].state == "running"  # done record was torn off
        assert jobs["job-1"].incomplete

    def test_records_for_torn_off_submissions_are_skipped(self, tmp_path):
        path = tmp_path / "jobs.ndjson"
        with JobJournal(path) as journal:
            journal.record_started("ghost")  # its submitted line was lost
            journal.record_point("ghost", 1, 2)
        assert replay_jobs(path) == {}

    def test_headerless_file_is_refused(self, tmp_path):
        path = tmp_path / "jobs.ndjson"
        path.write_text('{"kind":"started","job":"job-1"}\n', encoding="utf-8")
        with pytest.raises(JobJournalError):
            replay_jobs(path)

    def test_reopen_appends_without_a_second_header(self, tmp_path):
        path = tmp_path / "jobs.ndjson"
        JobJournal(path).close()
        JobJournal(path).close()
        records = read_ndjson(path)
        assert [r["kind"] for r in records] == ["header"]


class TestJobClaims:
    def test_claim_race_has_one_winner_until_release(self, tmp_path):
        journal = tmp_path / "jobs.ndjson"
        first = JobClaims.for_journal(journal)
        second = JobClaims.for_journal(journal)
        assert first.claim("fp-1") is True
        assert second.claim("fp-1") is False  # owner (this pid) is alive
        # release() is a no-op for claims an instance does not hold.
        second.release("fp-1")
        assert second.claim("fp-1") is False
        first.release("fp-1")
        assert second.claim("fp-1") is True
        second.release_all()
        assert first.claim("fp-1") is True

    def test_dead_owner_claim_is_stolen(self, tmp_path):
        journal = tmp_path / "jobs.ndjson"
        claims = JobClaims.for_journal(journal)
        claims.directory.mkdir(parents=True, exist_ok=True)
        # A claim owned by a PID that no longer exists — the kill -9
        # aftermath.  A freshly reaped child gives a real, dead PID.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (claims.directory / "fp-dead").write_text(
            str(child.pid), encoding="utf-8"
        )
        assert claims.claim("fp-dead") is True

    def test_unreadable_claim_is_stolen(self, tmp_path):
        journal = tmp_path / "jobs.ndjson"
        claims = JobClaims.for_journal(journal)
        claims.directory.mkdir(parents=True, exist_ok=True)
        (claims.directory / "fp-torn").write_text("", encoding="utf-8")
        assert claims.claim("fp-torn") is True


class TestJournalRecovery:
    def test_unclean_drain_requeues_and_restart_reruns(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        journal = tmp_path / "jobs.ndjson"
        hold = threading.Event()  # pin the job running, then pull the plug

        with ServerThread(
            store, journal=journal, chaos_hold=hold, drain=False
        ) as handle:
            status, submitted = _request(handle.url + "/submit", payload=SPEC)
            assert status == 202
            job_id = submitted["job"]
            _wait(handle.url, job_id, states=("running",))
            server = handle.server
        # drain=False abandoned the held job: the journal has no
        # terminal record for it, which is the recovery contract.
        assert server._last_drain_clean is False
        replayed = replay_jobs(journal)
        assert replayed[job_id].incomplete

        # A restarted server on the same journal + store re-runs it to
        # completion under the same job id.
        with ServerThread(store, journal=journal) as handle:
            recovered = _wait(handle.url, job_id)
            assert recovered["state"] == "done"
            assert recovered["recovered"] is True
            status, result = _request(f"{handle.url}/result/{job_id}")
            assert status == 200
            _, stats = _request(handle.url + "/stats")
            assert stats["recovered_jobs"] == 1
            assert stats["journal"]["path"] == str(journal)
        assert len(result["results"]) == len(SPEC["vdds"])
        assert replay_jobs(journal)[job_id].state == "done"

    def test_stats_counts_jobs_by_state_and_stats_the_journal(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "s.sqlite")
        journal = tmp_path / "jobs.ndjson"
        with ServerThread(store, journal=journal) as handle:
            status, submitted = _request(handle.url + "/submit", payload=SPEC)
            assert status == 202
            assert _wait(handle.url, submitted["job"])["state"] == "done"
            _, stats = _request(handle.url + "/stats")
        assert stats["jobs"] == {"done": 1}
        assert set(stats["journal"]) == {"path", "exists", "alive", "age_s"}
        assert stats["journal"]["alive"] is True

    def test_recovered_job_resumes_warm_from_the_store(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        # The store already holds every point (the killed server got
        # that far); the journal says the job never finished.
        reference = _grid_into(ResultStore(store_path))
        job_id, _ = _write_incomplete_job(journal)

        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            done = _wait(handle.url, job_id)
            assert done["state"] == "done"
            assert done["recovered"] is True
            # Warm resume: every point served from the store, none
            # re-executed.
            assert done["hits"] == len(SPEC["vdds"])
            assert done["executed_points"] == 0
            status, result = _request(f"{handle.url}/result/{job_id}")
            assert status == 200
            _, stats = _request(handle.url + "/stats")
            assert stats["recovered_jobs"] == 1
            assert stats["store"]["hits"] >= len(SPEC["vdds"])
        # Bit-identical to the original (pre-crash) computation.
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_recovered_lanes16_job_matches_a_lanes1_grid(self, tmp_path):
        """A job journaled with ``lanes=16`` recovers under its id and
        computes the same bytes as an uninterrupted ``lanes=1`` grid."""
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        job_id, _ = _write_incomplete_job(journal, spec={**SPEC, "lanes": 16})

        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            done = _wait(handle.url, job_id)
            assert (done["state"], done["recovered"]) == ("done", True)
            assert done["executed_points"] == len(SPEC["vdds"])
            status, result = _request(f"{handle.url}/result/{job_id}")
            assert status == 200
        reference = _grid_into(ResultStore(tmp_path / "reference.sqlite"))
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_a_spec_journaled_with_processes_recovers(self, tmp_path):
        """Specs journaled while ``processes`` was part of the normalized
        spec still carry it; recovery ignores it and runs the grid to
        the same bytes."""
        journal = tmp_path / "jobs.ndjson"
        spec = {**normalize_spec(dict(SPEC)), "processes": 2}
        job_id = "job-0007-withprocesses"
        with JobJournal(journal) as handle:
            handle.record_submitted(
                job_id, spec_fingerprint(spec), spec, len(spec["vdds"])
            )
            handle.record_started(job_id)

        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store, journal=journal) as server:
            done = _wait(server.url, job_id)
            assert (done["state"], done["recovered"]) == ("done", True)
            status, result = _request(f"{server.url}/result/{job_id}")
            assert status == 200
        reference = _grid_into(ResultStore(tmp_path / "reference.sqlite"))
        assert result["results"] == reference

    def test_done_jobs_rehydrate_results_from_the_store(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        _grid_into(ResultStore(store_path))
        normalized = normalize_spec(dict(SPEC))
        with JobJournal(journal) as handle:
            handle.record_submitted(
                "job-0001-done", spec_fingerprint(normalized), normalized, 2
            )
            handle.record_started("job-0001-done")
            handle.record_done("job-0001-done", hits=2, executed_points=0)

        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            # Terminal on replay: nothing to recover or re-run ...
            _, stats = _request(handle.url + "/stats")
            assert stats["recovered_jobs"] == 0
            assert stats["jobs"] == {"done": 1}
            # ... and /result answers from the store, read back at start.
            status, result = _request(handle.url + "/result/job-0001-done")
            assert status == 200
            assert len(result["results"]) == len(SPEC["vdds"])
            # The done fingerprint still absorbs resubmissions.
            status, joined = _request(handle.url + "/submit", payload=SPEC)
            assert (status, joined["deduplicated"]) == (202, True)

    def _finish_then_evict(self, tmp_path):
        """A journaled server answers SPEC; then ``gc(0)`` empties the
        store behind the journal's ``done`` record."""
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            _, submitted = _request(handle.url + "/submit", payload=SPEC)
            assert _wait(handle.url, submitted["job"])["state"] == "done"
        ResultStore(store_path).gc(0)
        return store_path, journal, submitted["job"]

    def test_done_job_whose_answer_was_evicted_fails_on_restart(
        self, tmp_path
    ):
        store_path, journal, job_id = self._finish_then_evict(tmp_path)
        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            status, lost = _request(f"{handle.url}/result/{job_id}")
            assert (status, lost["state"]) == (500, "failed")
            assert "no longer in the store" in lost["error"]
            # The fingerprint went with the answer: a fresh job.
            status, resubmitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert (status, resubmitted["deduplicated"]) == (202, False)
            assert resubmitted["job"] != job_id
            assert _wait(handle.url, resubmitted["job"])["state"] == "done"
            status, result = _request(
                f"{handle.url}/result/{resubmitted['job']}"
            )
            assert status == 200
            status, curve = _request(
                handle.url
                + "/curve?scheme=secded&vdds=0.44,0.46&runs=2&seed=100"
            )
            assert (status, curve["warm"]) == (200, True)
        reference = _grid_into(ResultStore(tmp_path / "reference.sqlite"))
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_a_failed_record_after_done_wins_on_replay(self, tmp_path):
        store_path, journal, job_id = self._finish_then_evict(tmp_path)
        with ServerThread(ResultStore(store_path), journal=journal):
            pass  # the restart finds the answer gone and journals it
        replayed = replay_jobs(journal)[job_id]
        assert (replayed.state, replayed.incomplete) == ("failed", False)

        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            assert job_id not in handle.server._by_fingerprint.values()
            status, resubmitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert (status, resubmitted["deduplicated"]) == (202, False)
            assert _wait(handle.url, resubmitted["job"])["state"] == "done"
        kinds = [
            record["kind"]
            for record in read_ndjson(journal)
            if record.get("job") == job_id
        ]
        assert kinds == ["submitted", "started", "point", "point", "done",
                         "failed"]

    def test_a_timed_out_jobs_reason_survives_a_restart(self, tmp_path):
        """The journal keeps the watchdog's own reason: a progress
        stall replays as a stall, not as a deadline."""
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        hold = threading.Event()  # never released: the job stalls
        with ServerThread(
            ResultStore(store_path), journal=journal,
            progress_stale_s=0.2, chaos_hold=hold,
        ) as handle:
            _, submitted = _request(handle.url + "/submit", payload=SPEC)
            live = _wait(handle.url, submitted["job"], states=("timed-out",))
            assert live["error"] == "progress-stall: exceeded 0.2s"
        assert replay_jobs(journal)[submitted["job"]].error == live["error"]

        with ServerThread(ResultStore(store_path), journal=journal) as handle:
            status, body = _request(
                f"{handle.url}/status/{submitted['job']}"
            )
            assert (status, body["state"]) == (200, "timed-out")
            assert body["error"] == "progress-stall: exceeded 0.2s"

    def test_a_timed_out_record_without_a_reason_replays_the_budget(
        self, tmp_path
    ):
        path = tmp_path / "jobs.ndjson"
        with JobJournal(path) as journal:
            journal.record_submitted("job-1", "fp-1", {"scheme": "none"}, 1)
            journal.record_timed_out("job-1", 0.2)
        assert replay_jobs(path)["job-1"].error == "deadline exceeded (0.2s)"

    def test_a_live_servers_job_is_not_recovered_by_a_sibling(
        self, tmp_path
    ):
        """Claims are taken on submit, not only on recovery: a second
        server on the same journal (and store file) leaves a job that a
        live server is running to it."""
        store_path = tmp_path / "s.sqlite"
        journal = tmp_path / "jobs.ndjson"
        spec = {**SPEC, "vdds": [0.44]}
        hold = threading.Event()
        with ServerThread(
            ResultStore(store_path), journal=journal, chaos_hold=hold
        ) as owner:
            _, submitted = _request(owner.url + "/submit", payload=spec)
            job_id = submitted["job"]
            _wait(owner.url, job_id, states=("running",))
            sibling_store = ResultStore(store_path)
            try:
                with ServerThread(
                    sibling_store, journal=journal, drain=False
                ) as sibling:
                    _, seen = _request(f"{sibling.url}/status/{job_id}")
                    assert seen["recovered"] is False
                    _, stats = _request(sibling.url + "/stats")
                    assert stats["recovered_jobs"] == 0
            finally:
                hold.set()
            assert _wait(owner.url, job_id)["state"] == "done"
            _, stats = _request(owner.url + "/stats")
        # The owner computed every row; the sibling computed none.
        assert stats["store"]["puts"] == stats["store"]["rows"]
        assert sibling_store.stats()["puts"] == 0

    def test_two_servers_on_one_journal_never_double_run(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        journal = tmp_path / "jobs.ndjson"
        job_id, fingerprint = _write_incomplete_job(journal)
        hold = threading.Event()

        with ServerThread(
            store, journal=journal, chaos_hold=hold
        ) as winner:
            # The winner claimed the fingerprint and is (held) running.
            _wait(winner.url, job_id, states=("running",))
            assert (JobClaims.for_journal(journal).directory / fingerprint).exists()

            with ServerThread(
                store, journal=journal, drain=False
            ) as loser:
                # The loser replays the same journal but loses the
                # claim race: the job stays visible, unrun.
                status, seen = _request(f"{loser.url}/status/{job_id}")
                assert status == 200
                assert seen["recovered"] is False
                _, stats = _request(loser.url + "/stats")
                assert stats["recovered_jobs"] == 0

                hold.set()
                done = _wait(winner.url, job_id)
                assert done["state"] == "done"
                _, stats = _request(winner.url + "/stats")
                assert stats["recovered_jobs"] == 1
                # The loser never executed anything into the store.
                assert stats["store"]["puts"] == stats["store"]["rows"]
        kinds = [entry["kind"] for entry in store.entries()]
        assert kinds.count("scheme-campaign") == len(SPEC["vdds"])


class _ScriptedTransport:
    """Deterministic fake transport for ServeClient tests.

    Each scripted step is either an exception to raise or a
    ``(status, payload, headers)`` triple to return.
    """

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, data, timeout_s):
        self.calls.append((url, data))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        status, payload, headers = step
        return status, json.dumps(payload).encode("utf-8"), headers


class TestServeClient:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        sleeps = []
        transport = _ScriptedTransport(
            [urllib.error.URLError("down")] * 5
        )
        client = ServeClient(
            "http://test",
            max_retries=4,
            backoff_base_s=0.1,
            backoff_cap_s=0.4,
            sleep=sleeps.append,
            transport=transport,
        )
        assert [client.backoff_s(n) for n in range(5)] == [
            0.1, 0.2, 0.4, 0.4, 0.4
        ]
        with pytest.raises(ServerUnavailableError):
            client.healthz()
        # Five attempts, four sleeps: none after the last attempt.
        assert sleeps == [0.1, 0.2, 0.4, 0.4]
        assert len(transport.calls) == 5

    @pytest.mark.parametrize("answer, expected_sleeps", [
        ((429, {"error": "at capacity"}, {"retry-after": "0.05"}),
         [0.05, 0.05]),
        ((503, {"error": "restarting"}, {}), [0.1, 0.2]),
    ], ids=["429", "5xx"])
    def test_no_sleep_after_the_last_submit_attempt(
        self, answer, expected_sleeps
    ):
        sleeps = []
        transport = _ScriptedTransport([answer] * 3)
        client = ServeClient(
            "http://test", max_retries=2, sleep=sleeps.append,
            transport=transport,
        )
        with pytest.raises(ServerUnavailableError, match="after 3 attempts"):
            client.submit(SPEC)
        assert len(transport.calls) == 3
        assert sleeps == expected_sleeps

    def test_http_protocol_errors_are_retried_like_transport_failures(self):
        sleeps = []
        transport = _ScriptedTransport(
            [
                http.client.BadStatusLine("garbage"),
                (200, {"ok": True, "jobs": 0}, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=sleeps.append, transport=transport
        )
        assert client.healthz()["ok"] is True
        assert sleeps == [0.1]

    def test_transient_failure_then_success(self):
        sleeps = []
        transport = _ScriptedTransport(
            [
                urllib.error.URLError("refused"),
                ConnectionResetError("reset"),
                (200, {"ok": True, "jobs": 0}, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=sleeps.append, transport=transport
        )
        assert client.healthz()["ok"] is True
        assert sleeps == [0.1, 0.2]

    def test_429_sleeps_for_retry_after_then_retries(self):
        sleeps = []
        accepted = {"job": "job-1", "state": "queued", "deduplicated": False}
        transport = _ScriptedTransport(
            [
                (429, {"error": "at capacity"}, {"retry-after": "0.05"}),
                (202, accepted, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=sleeps.append, transport=transport
        )
        submitted = client.submit(SPEC)
        assert submitted["job"] == "job-1"
        assert sleeps == [0.05]
        # The client knows the idempotency key before the wire does.
        assert submitted["fingerprint"] == spec_fingerprint(
            normalize_spec(dict(SPEC))
        )

    def test_retry_after_is_capped_by_backoff_cap(self):
        sleeps = []
        transport = _ScriptedTransport(
            [
                (429, {"error": "at capacity"}, {"retry-after": "999"}),
                (202, {"job": "job-1", "state": "queued"}, {}),
            ]
        )
        client = ServeClient(
            "http://test",
            backoff_cap_s=0.3,
            sleep=sleeps.append,
            transport=transport,
        )
        client.submit(SPEC)
        assert sleeps == [0.3]

    def test_5xx_is_retried_on_submit_but_not_on_reads(self):
        sleeps = []
        transport = _ScriptedTransport(
            [
                (500, {"error": "restarting"}, {}),
                (202, {"job": "job-1", "state": "queued"}, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=sleeps.append, transport=transport
        )
        assert client.submit(SPEC)["job"] == "job-1"
        assert sleeps == [0.1]

        read_transport = _ScriptedTransport(
            [(500, {"error": "job failed"}, {})]
        )
        reader = ServeClient(
            "http://test", sleep=sleeps.append, transport=read_transport
        )
        assert reader.result("job-1") == (500, {"error": "job failed"})
        assert len(read_transport.calls) == 1  # no retry burned

    def test_4xx_is_immediately_fatal(self):
        transport = _ScriptedTransport(
            [(400, {"error": "spec needs 'vdd' or 'vdds'"}, {})]
        )
        client = ServeClient(
            "http://test", sleep=lambda _s: None, transport=transport
        )
        with pytest.raises(ServeClientError, match="answered 400"):
            client.submit(SPEC)
        assert len(transport.calls) == 1

    def test_wait_polls_to_done_and_fetches_result(self):
        running = {"job": "job-1", "state": "running"}
        done = {"job": "job-1", "state": "done"}
        payload = {"job": "job-1", "state": "done", "results": [{"vdd": 0.44}]}
        transport = _ScriptedTransport(
            [
                (200, running, {}),
                (200, done, {}),
                (200, payload, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=lambda _s: None, transport=transport
        )
        assert client.wait("job-1", poll_s=0.0)["results"] == [{"vdd": 0.44}]

    def test_wait_raises_on_failed_and_timed_out_jobs(self):
        for state in ("failed", "timed-out"):
            transport = _ScriptedTransport(
                [(200, {"job": "job-1", "state": state, "error": "x"}, {})]
            )
            client = ServeClient(
                "http://test", sleep=lambda _s: None, transport=transport
            )
            with pytest.raises(JobFailedError, match=state):
                client.wait("job-1")

    def test_wait_raises_when_result_finds_the_job_failed(self):
        """``/status`` said done, then a restarted server found the
        answer gone: ``/result`` answers 500 with state failed."""
        lost = {"job": "job-1", "state": "failed", "error": "evicted"}
        transport = _ScriptedTransport(
            [
                (200, {"job": "job-1", "state": "done"}, {}),
                (500, lost, {}),
            ]
        )
        client = ServeClient(
            "http://test", sleep=lambda _s: None, transport=transport
        )
        with pytest.raises(JobFailedError, match="failed") as raised:
            client.wait("job-1")
        assert raised.value.status == lost

    def test_wait_deadline_uses_injected_clock(self):
        ticks = iter(range(100))
        transport = _ScriptedTransport(
            [(200, {"job": "job-1", "state": "running"}, {})] * 10
        )
        client = ServeClient(
            "http://test", sleep=lambda _s: None, transport=transport
        )
        with pytest.raises(ServeClientError, match="still 'running'"):
            client.wait(
                "job-1", poll_s=0.0, deadline_s=3,
                clock=lambda: next(ticks),
            )
