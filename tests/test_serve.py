"""Campaign job server: endpoints, dedup, chaos kill + warm resume.

Uses :class:`repro.serve.ServerThread` to stand the asyncio server up
in-process and plain ``urllib`` as the client — the same surface the
``repro serve`` CLI exposes.  The chaos test is the serving pipeline's
core resilience claim: killing a worker mid-campaign loses no stored
points, and a resubmission serves the completed prefix warm while
executing only the remainder, bit-identically to a fresh cold run.

PR 9 additions: malformed-HTTP hardening (400/413), admission control
(429 + Retry-After), watchdog deadlines (timed-out + fingerprint
eviction), graceful drain on exit, and configurable ServerThread
startup/shutdown budgets.
"""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.analysis.campaign as campaign
from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.mitigation import SecdedRunner
from repro.serve import (
    ServerThread,
    normalize_spec,
    replay_jobs,
    spec_fingerprint,
)
from repro.serve.cli import submit_main
from repro.serve.client import ServeClient
from repro.serve.server import CampaignJobServer
from repro.store import (
    ResultStore,
    encode_campaign_result,
    scheme_failure_grid,
)
from repro.workloads.fft import build_fft_program

SPEC = {"scheme": "secded", "vdds": [0.44, 0.46], "runs": 2, "seed": 100}
DEADLINE_S = 120.0


def _request(url, payload=None):
    """GET (or POST ``payload`` as JSON); returns (status, body dict)."""
    status, body, _ = _request_full(url, payload)
    return status, body


def _request_full(url, payload=None):
    """Like :func:`_request` but also returns the response headers."""
    data = None
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _raw_request(handle, data):
    """Send raw bytes on a fresh socket; returns (status, body dict).

    Bypasses urllib so the tests can send requests urllib refuses to
    produce (garbage request lines, bogus Content-Length headers).
    """
    address = (handle.server.host, handle.server.port)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split()[1])
    return status, json.loads(body)


def _wait(base_url, job_id, states=("done",)):
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        status, body = _request(f"{base_url}/status/{job_id}")
        assert status == 200
        if body["state"] in states or body["state"] == "failed":
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {DEADLINE_S}s")


def _reference_results(tmp_path, spec=SPEC):
    """Cold-run the spec against a fresh store, no server involved."""
    spec = normalize_spec(dict(spec))
    program = build_fft_program(spec["fft"])
    golden = program.expected_output(
        list(program.data_words[: spec["fft"]])
    )
    grid = scheme_failure_grid(
        SecdedRunner, program.workload, golden,
        ACCESS_CELL_BASED_40NM_TYPICAL, spec["vdds"],
        store=ResultStore(tmp_path / "reference.sqlite"),
        frequency=spec["frequency"], runs=spec["runs"],
        seed_base=spec["seed"], lanes=spec["lanes"],
        macro_style=spec["macro_style"],
    )
    return [encode_campaign_result(result) for result in grid.results]


class TestSpec:
    def test_normalize_defaults_and_vdd_promotion(self):
        spec = normalize_spec({"scheme": "secded", "vdd": 0.5})
        assert spec["vdds"] == [0.5]
        assert spec["runs"] == 20
        assert spec["seed"] == 100
        assert spec["lanes"] == 1
        assert spec["fft"] == 64

    def test_fingerprint_ignores_execution_knobs(self):
        """A served grid runs serially in its worker thread, so a
        client's ``processes`` is dropped from the normalized spec."""
        spec_a = normalize_spec(dict(SPEC))
        spec_b = normalize_spec({**SPEC, "processes": 4})
        assert "processes" not in spec_b
        assert spec_b == spec_a
        assert spec_fingerprint(spec_a) == spec_fingerprint(spec_b)
        spec_c = normalize_spec({**SPEC, "runs": 3})
        assert spec_fingerprint(spec_c) != spec_fingerprint(spec_a)

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -5, "seed must be non-negative"),
        ("vdds", [0.44, -0.1], "supply voltage"),
        ("vdds", [0.44, float("nan")], "supply voltage"),
        ("vdd", "nan", "supply voltage"),
        ("frequency", 0, "frequency must be finite and positive"),
        ("frequency", -290e3, "frequency must be finite and positive"),
        ("frequency", float("inf"), "frequency must be finite"),
        ("frequency", float("nan"), "frequency must be finite"),
        ("macro_style", "foo", "unknown macro_style"),
        # A field of the wrong type is a ValueError (400), never a
        # TypeError (500) or a silent truncation.
        ("runs", None, "runs must be an integer"),
        ("runs", 2.7, "runs must be an integer"),
        ("runs", True, "runs must be an integer"),
        ("seed", 1.0, "seed must be an integer"),
        ("lanes", "two", "lanes must be an integer"),
        ("fft", [64], "fft must be an integer"),
        ("frequency", None, "frequency must be a number"),
        ("vdds", 5, "vdds must be a list"),
        ("vdds", "0.44", "vdds must be a list"),
        ("vdd", None, "vdd must be a number"),
        ("vdd", True, "vdd must be a number"),
        ("scheme", ["secded"], "scheme must be a string"),
        ("macro_style", None, "macro_style must be a string"),
    ])
    def test_normalize_rejects_fields_a_job_would_fail_on(
        self, field, value, message
    ):
        spec = {**SPEC, field: value}
        if field == "vdd":
            del spec["vdds"]
        with pytest.raises(ValueError, match=message):
            normalize_spec(spec)

    def test_normalize_reads_query_string_spellings(self):
        """``/curve`` hands over its fields as strings: each parses to
        the value, and the fingerprint, its JSON form has."""
        spelled = normalize_spec({
            "scheme": "secded", "vdds": ["0.44", "0.46"], "runs": "2",
            "seed": "100", "lanes": "1", "fft": "64",
            "frequency": "290000.0", "macro_style": "cell-based",
        })
        assert spelled == normalize_spec(dict(SPEC))
        assert spec_fingerprint(spelled) == spec_fingerprint(
            normalize_spec(dict(SPEC))
        )

    def test_normalize_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            normalize_spec({"scheme": "parity", "vdd": 0.5})

    def test_normalize_rejects_zero_lanes(self):
        with pytest.raises(ValueError, match="lanes must be positive"):
            normalize_spec({**SPEC, "lanes": 0})

    @pytest.mark.parametrize("scheme, fft", [
        ("secded", 0), ("secded", 3), ("secded", 48), ("none", 2),
        ("secded", 2048), ("none", 262144), ("ocean", 1024),
    ])
    def test_normalize_rejects_ffts_the_platform_cannot_run(
        self, scheme, fft
    ):
        """A power of two >= 4 whose samples and twiddles fit the stock
        scratchpad, and for OCEAN also its checkpoint buffer."""
        with pytest.raises(ValueError, match="fft"):
            normalize_spec({**SPEC, "scheme": scheme, "fft": fft})

    @pytest.mark.parametrize("scheme, fft", [
        ("none", 4), ("secded", 1024), ("none", 1024), ("ocean", 512),
    ])
    def test_normalize_accepts_the_largest_runnable_ffts(self, scheme, fft):
        assert normalize_spec({**SPEC, "scheme": scheme, "fft": fft})[
            "fft"
        ] == fft

    def test_lanes16_fingerprint_is_pinned(self):
        """Journals written with ``lanes`` keep deduplicating and
        replaying only while this literal holds."""
        spec = normalize_spec({
            "scheme": "ocean", "vdds": [0.26, 0.29], "runs": 16,
            "seed": 1234, "lanes": 16, "fft": 64,
        })
        assert spec_fingerprint(spec) == (
            "a8654638e9001ad236b5153f18d64fb383707a1319e0823a82b756672dc3b8f4"
        )


class TestEndpoints:
    def test_submit_status_result_and_warm_curve(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, health = _request(handle.url + "/healthz")
            assert (status, health["ok"]) == (200, True)

            status, submitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert status == 202
            assert submitted["deduplicated"] is False
            job_id = submitted["job"]

            done = _wait(handle.url, job_id)
            assert done["state"] == "done"
            assert done["error"] is None
            assert done["points_done"] == len(SPEC["vdds"])
            assert done["hits"] == 0
            assert done["executed_points"] == len(SPEC["vdds"])
            assert done["tasks_done"] == done["tasks_total"] > 0

            status, result = _request(f"{handle.url}/result/{job_id}")
            assert status == 200
            results = result["results"]
            assert len(results) == len(SPEC["vdds"])

            # The whole curve is now cached: /curve answers warm, with
            # byte-identical payloads, without starting a job.
            status, curve = _request(
                handle.url
                + "/curve?scheme=secded&vdds=0.44,0.46&runs=2&seed=100"
            )
            assert status == 200
            assert curve["warm"] is True
            assert curve["results"] == results

            status, stats = _request(handle.url + "/stats")
            assert status == 200
            assert stats["jobs"]["done"] == 1
        assert results == _reference_results(tmp_path)

    def test_cold_curve_submits_a_job(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, body = _request(
                handle.url
                + "/curve?scheme=secded&vdd=0.44&runs=2&seed=100"
            )
            assert status == 202
            assert body["warm"] is False
            done = _wait(handle.url, body["job"])
            assert done["state"] == "done"

    def test_curve_answers_the_campaign_asked_for(self, tmp_path):
        """``/curve`` reads every provenance field, and the client sends
        them all: a non-default frequency or macro style is a campaign
        of its own, not the default one's warm answer."""
        spec = {"scheme": "secded", "vdd": 0.44, "runs": 2, "fft": 16}
        asked = {"frequency": 1.96e6, "macro_style": "commercial"}
        with ServerThread(ResultStore(tmp_path / "s.sqlite")) as handle:
            client = ServeClient(handle.url)
            status, body = client.curve(**spec)
            assert status == 202
            assert _wait(handle.url, body["job"])["state"] == "done"
            status, body = client.curve(**spec, **asked)
            assert (status, body["warm"]) == (202, False)
            assert {name: body["spec"][name] for name in asked} == asked
            assert _wait(handle.url, body["job"])["state"] == "done"
            status, body = _request(
                handle.url + "/curve?scheme=secded&vdd=0.44&runs=2&fft=16"
                "&frequency=1960000&macro_style=commercial"
            )
            assert (status, body["warm"]) == (200, True)
            assert {name: body["spec"][name] for name in asked} == asked

    def test_malformed_spec_fields_are_400(self, tmp_path):
        """A field of the wrong type is the client's error (400), at
        ``/submit`` and at ``/curve``, not a server error (500)."""
        with ServerThread(ResultStore(tmp_path / "s.sqlite")) as handle:
            for payload in (
                {"vdd": 0.44, "runs": None},
                {"vdds": 5},
                {"vdd": 0.44, "frequency": None},
                {"vdd": 0.44, "runs": 2.7},
            ):
                status, body = _request(
                    handle.url + "/submit", payload=payload
                )
                assert status == 400, (payload, body)
            for query in (
                "vdd=0.44&runs=2.7", "vdd=0.44&frequency=fast", "vdd=low",
            ):
                status, body = _request(f"{handle.url}/curve?{query}")
                assert status == 400, (query, body)
            status, stats = _request(handle.url + "/stats")
            assert stats["jobs"] == {}

    def test_golden_output_is_computed_once_per_fft(
        self, tmp_path, monkeypatch
    ):
        """Cold and warm curves reuse the one golden output the process
        computed for each FFT size."""
        from repro.workloads.fft import FftProgram, fft_program_and_golden

        # Earlier tests may have filled the process-wide memo.
        fft_program_and_golden.cache_clear()
        computed = []
        expected_output = FftProgram.expected_output

        def counted(self, input_words):
            computed.append(self.n)
            return expected_output(self, input_words)

        monkeypatch.setattr(FftProgram, "expected_output", counted)
        with ServerThread(ResultStore(tmp_path / "s.sqlite")) as handle:
            for fft in (16, 16, 32, 16, 32):
                status, body = _request(
                    handle.url + "/curve?scheme=secded&vdd=0.44&runs=1"
                    f"&seed=100&fft={fft}"
                )
                if not body["warm"]:
                    assert _wait(handle.url, body["job"])["state"] == "done"
        assert sorted(computed) == [16, 32]

    def test_unrunnable_fft_is_refused_before_any_build(
        self, tmp_path, monkeypatch
    ):
        """``/curve`` and ``/submit`` answer 400 for an FFT the stock
        platform cannot hold, without building it or journaling a job."""
        import repro.workloads.fft as fft_module

        def no_build(n, input_words=None):
            raise AssertionError(f"built an unrunnable {n}-point FFT")

        monkeypatch.setattr(fft_module, "build_fft_program", no_build)
        fft_module.fft_program_and_golden.cache_clear()
        journal = tmp_path / "jobs.ndjson"
        with ServerThread(
            ResultStore(tmp_path / "s.sqlite"), journal=journal
        ) as handle:
            status, body = _request(
                handle.url + "/curve?scheme=secded&vdd=0.44&fft=262144"
            )
            assert status == 400
            assert "largest fft is 1024" in body["error"]
            for spec in (
                {**SPEC, "fft": 2048},
                {**SPEC, "fft": 96},
                {**SPEC, "scheme": "ocean", "fft": 1024},
            ):
                status, body = _request(handle.url + "/submit", payload=spec)
                assert status == 400, spec
                assert "fft" in body["error"]
            assert _request(handle.url + "/healthz")[1]["jobs"] == 0
        assert replay_jobs(journal) == {}

    def test_specs_a_job_would_fail_on_are_refused(self, tmp_path):
        """A negative seed, a negative or NaN vdd, a frequency that is
        not finite and positive, or a macro style the energy model does
        not know answers 400 at ``/submit`` and ``/curve``, before a
        job, a journal record or a claim exists."""
        journal = tmp_path / "jobs.ndjson"
        with ServerThread(
            ResultStore(tmp_path / "s.sqlite"), journal=journal
        ) as handle:
            for spec in (
                {**SPEC, "seed": -5},
                {**SPEC, "vdds": [0.44, -0.1]},
                {**SPEC, "vdds": [0.44, float("nan")]},
                {**SPEC, "frequency": 0},
                {**SPEC, "frequency": -1.0},
                {**SPEC, "macro_style": "foo"},
            ):
                status, body = _request(handle.url + "/submit", payload=spec)
                assert status == 400, (spec, body)
            for query in ("vdd=0.44&seed=-5", "vdds=0.44,-0.1", "vdd=nan"):
                status, body = _request(
                    f"{handle.url}/curve?scheme=secded&{query}"
                )
                assert status == 400, (query, body)
            assert _request(handle.url + "/healthz")[1]["jobs"] == 0
        assert replay_jobs(journal) == {}
        claims = journal.with_name(journal.name + ".claims")
        assert not claims.exists() or not any(claims.iterdir())

    def test_a_clients_processes_field_starts_no_process_pool(
        self, tmp_path, monkeypatch
    ):
        """The server's ``workers`` threads are its concurrency: a
        spec's ``processes`` never reaches a process pool."""
        import repro.resilience.executor as executor

        pools = []

        def no_pool(*args, **kwargs):
            pools.append(kwargs)
            raise RuntimeError("a served job started a process pool")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        with ServerThread(ResultStore(tmp_path / "s.sqlite")) as handle:
            status, body = _request(
                handle.url + "/submit", payload={**SPEC, "processes": 4}
            )
            assert status == 202
            done = _wait(handle.url, body["job"])
            assert (done["state"], done["error"]) == ("done", None)
        assert pools == []

    def test_unknown_routes_and_methods(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            assert _request(handle.url + "/nope")[0] == 404
            assert _request(f"{handle.url}/status/none")[0] == 404
            assert _request(handle.url + "/curve", payload={})[0] == 405
            assert _request(
                handle.url + "/submit", payload={"scheme": "bogus"}
            )[0] == 400

    def test_lanes16_grid_runs_without_a_lane_block(self, tmp_path):
        """``lanes`` only sizes tasks: a ``lanes=16`` grid answers
        byte-identically to ``lanes=1``."""
        spec = {**SPEC, "runs": 5}
        with ServerThread(ResultStore(tmp_path / "s.sqlite")) as handle:
            status, submitted = _request(
                handle.url + "/submit", payload={**spec, "lanes": 16}
            )
            assert status == 202
            done = _wait(handle.url, submitted["job"])
            assert (done["state"], done["error"]) == ("done", None)
            status, result = _request(
                f"{handle.url}/result/{submitted['job']}"
            )
            assert status == 200
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            _reference_results(tmp_path, spec=spec), sort_keys=True
        )


class TestDedup:
    def test_concurrent_identical_submits_share_one_job(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            responses = []
            barrier = threading.Barrier(3)

            def submit():
                barrier.wait()
                responses.append(
                    _request(handle.url + "/submit", payload=SPEC)
                )

            threads = [
                threading.Thread(target=submit) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert [status for status, _ in responses] == [202, 202, 202]
            job_ids = {body["job"] for _, body in responses}
            assert len(job_ids) == 1  # one execution for three clients
            deduplicated = [
                body["deduplicated"] for _, body in responses
            ]
            assert sorted(deduplicated) == [False, True, True]

            done = _wait(handle.url, job_ids.pop())
            assert done["state"] == "done"
            _, stats = _request(handle.url + "/stats")
            assert stats["jobs"] == {"done": 1}


class TestChaos:
    def test_killed_worker_resumes_warm_and_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")

        # Phase 1: the worker dies after completing (and storing) the
        # first point.
        with ServerThread(store, fail_after_points=1) as handle:
            status, submitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert status == 202
            failed = _wait(handle.url, submitted["job"])
            assert failed["state"] == "failed"
            assert "chaos" in failed["error"]
            status, _ = _request(
                f"{handle.url}/result/{submitted['job']}"
            )
            assert status == 500
        # The completed point survived the kill.
        kinds = [entry["kind"] for entry in store.entries()]
        assert kinds.count("scheme-campaign") == 1

        # Phase 2: a healthy server on the same store accepts the
        # resubmission (failed jobs do not pin the fingerprint), serves
        # the stored point warm and executes only the remainder.
        with ServerThread(store) as handle:
            status, resubmitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert status == 202
            assert resubmitted["deduplicated"] is False
            done = _wait(handle.url, resubmitted["job"])
            assert done["state"] == "done"
            assert done["hits"] == 1
            assert done["executed_points"] == len(SPEC["vdds"]) - 1
            status, result = _request(
                f"{handle.url}/result/{resubmitted['job']}"
            )
            assert status == 200

        # Bit-identity with a cold run on a fresh store.
        assert result["results"] == _reference_results(tmp_path)


class TestSettle:
    def test_quarantined_grid_fails_and_a_resubmit_recomputes(
        self, tmp_path, monkeypatch, capsys
    ):
        """A grid whose runs were quarantined has no stored answer: the
        job settles ``failed`` (``repro submit`` exits 1), is journaled
        so, and gives up its fingerprint to a resubmit."""
        def broken(*args, **kwargs):
            raise RuntimeError("chaos: campaign worker fault")

        monkeypatch.setattr(campaign, "_campaign_run_one", broken)
        journal = tmp_path / "jobs.ndjson"
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store, journal=journal) as handle:
            code = submit_main([
                "--url", handle.url, "--vdds", "0.44,0.46",
                "--runs", "2", "--seed", "100",
            ])
            failed = json.loads(capsys.readouterr().out)
            assert code == 1
            assert (failed["state"], failed["error"]) == (
                "failed", "quarantined runs: 0.440 V 2/2, 0.460 V 2/2"
            )

            monkeypatch.undo()  # the fault is gone
            status, resubmitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert (status, resubmitted["deduplicated"]) == (202, False)
            assert resubmitted["job"] != failed["job"]
            assert _wait(handle.url, resubmitted["job"])["state"] == "done"
            status, result = _request(
                f"{handle.url}/result/{resubmitted['job']}"
            )
            assert status == 200
        assert replay_jobs(journal)[failed["job"]].state == "failed"
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            _reference_results(tmp_path), sort_keys=True
        )


class TestSubmitCli:
    @pytest.mark.parametrize("flags, message", [
        (["--vdd", "0.44", "--seed", "-1"], "seed must be non-negative"),
        (["--vdds", "0.44,low"], "vdd must be a number, got 'low'"),
        (["--vdd", "0.44", "--runs", "0"], "runs must be positive"),
    ], ids=["seed", "vdds", "runs"])
    def test_invalid_spec_is_refused_before_sending(self, flags, message):
        """One ``repro submit:`` line and a non-zero exit, from the
        same validator the server applies, before any request."""
        with pytest.raises(SystemExit) as refused:
            submit_main(["--url", "http://127.0.0.1:9", *flags])
        assert str(refused.value) == f"repro submit: {message}"

    @staticmethod
    def _transport(monkeypatch, answer):
        """Route the client's requests to ``answer(url, data)``; returns
        the list of requested URLs."""
        requested = []

        def transport(url, data, timeout_s):
            requested.append(url)
            return answer(url, data)

        monkeypatch.setattr(
            ServeClient, "_urllib_transport", staticmethod(transport)
        )
        return requested

    @pytest.mark.parametrize("flags, message", [
        (["--max-retries", "-1"], "max_retries must be non-negative, got -1"),
        (["--deadline", "0"], "deadline must be positive, got 0"),
        (["--deadline", "-2"], "deadline must be positive, got -2"),
        (["--deadline", "nan"], "deadline must be positive, got nan"),
    ], ids=["retries", "deadline-zero", "deadline-negative", "deadline-nan"])
    def test_bad_retry_budget_or_deadline_is_refused_before_any_request(
        self, flags, message, monkeypatch
    ):
        requested = self._transport(monkeypatch, answer=None)
        with pytest.raises(SystemExit) as refused:
            submit_main(["--url", "http://127.0.0.1:9", "--vdd", "0.44",
                         *flags])
        assert str(refused.value) == f"repro submit: {message}"
        assert requested == []

    def test_client_rejects_a_negative_retry_budget(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            ServeClient("http://127.0.0.1:9", max_retries=-1)

    @pytest.mark.parametrize("wait", [True, False], ids=["wait", "no-wait"])
    def test_unreachable_server_is_one_line_exit(self, wait, monkeypatch):
        """Every attempt of the budget is made, then one ``repro
        submit:`` line and exit 1 — no traceback."""
        def refuse(url, data):
            raise urllib.error.URLError("connection refused")

        requested = self._transport(monkeypatch, refuse)
        flags = [] if wait else ["--no-wait"]
        with pytest.raises(SystemExit) as refused:
            submit_main(["--url", "http://127.0.0.1:9", "--vdd", "0.44",
                         "--max-retries", "1", *flags])
        assert str(refused.value) == (
            "repro submit: http://127.0.0.1:9/submit unreachable after "
            "2 attempts"
        )
        assert requested == ["http://127.0.0.1:9/submit"] * 2

    def test_elapsed_deadline_is_one_line_exit(self, monkeypatch):
        def answer(url, data):
            if url.endswith("/submit"):
                return 202, b'{"job": "j1", "state": "queued"}', {}
            return 200, b'{"job": "j1", "state": "running"}', {}

        self._transport(monkeypatch, answer)
        with pytest.raises(SystemExit) as refused:
            submit_main(["--url", "http://127.0.0.1:9", "--vdd", "0.44",
                         "--deadline", "0.05"])
        assert str(refused.value) == (
            "repro submit: job j1 still 'running' after 0.05s"
        )


class TestHardening:
    """Malformed-HTTP requests get specific 4xx answers, never a hang."""

    def test_garbage_request_line_is_400(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, body = _raw_request(handle, b"\x01garbage\r\n")
            assert status == 400
            assert "malformed request line" in body["error"]
            status, body = _raw_request(
                handle, b"GET /healthz NOTHTTP\r\n\r\n"
            )
            assert status == 400
            # The connection-level rejection must not wedge the server.
            assert _request(handle.url + "/healthz")[0] == 200

    def test_post_without_content_length_is_413(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, body = _raw_request(
                handle, b"POST /submit HTTP/1.1\r\n\r\n"
            )
            assert status == 413
            assert "Content-Length" in body["error"]

    def test_invalid_content_length_is_400(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            for raw in (b"abc", b"-5"):
                status, body = _raw_request(
                    handle,
                    b"POST /submit HTTP/1.1\r\n"
                    b"Content-Length: " + raw + b"\r\n\r\n",
                )
                assert status == 400
                assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_before_reading_it(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store, max_body_bytes=64) as handle:
            status, body = _raw_request(
                handle,
                b"POST /submit HTTP/1.1\r\n"
                b"Content-Length: 100\r\n\r\n",
            )
            assert status == 413
            assert "64-byte cap" in body["error"]

    def test_truncated_body_is_400(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, body = _raw_request(
                handle,
                b"POST /submit HTTP/1.1\r\n"
                b"Content-Length: 50\r\n\r\n"
                b"short",
            )
            assert status == 400
            assert "truncated" in body["error"]

    def test_invalid_json_body_is_400(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, body = _raw_request(
                handle,
                b"POST /submit HTTP/1.1\r\n"
                b"Content-Length: 3\r\n\r\n"
                b"xyz",
            )
            assert status == 400
            assert "invalid JSON" in body["error"]


class TestAdmission:
    def test_overflow_is_shed_with_retry_after(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        hold = threading.Event()
        other = {**SPEC, "seed": 101}
        with ServerThread(
            store,
            workers=1,
            max_inflight_jobs=1,
            chaos_hold=hold,
            retry_after_s=2.5,
        ) as handle:
            status, first = _request(handle.url + "/submit", payload=SPEC)
            assert status == 202

            # Capacity reached: a *different* spec is shed with the
            # standard backpressure contract (429 + Retry-After).
            status, body, headers = _request_full(
                handle.url + "/submit", payload=other
            )
            assert status == 429
            assert headers["Retry-After"] == "2.5"
            assert body["retry_after_s"] == 2.5
            assert body["queued"] + body["running"] == 1

            # An *identical* spec still joins the live job — dedup
            # outranks admission control, as a retrying client relies on.
            status, joined = _request(handle.url + "/submit", payload=SPEC)
            assert (status, joined["deduplicated"]) == (202, True)
            assert joined["job"] == first["job"]

            _, stats = _request(handle.url + "/stats")
            assert stats["admission"]["max_inflight_jobs"] == 1

            hold.set()
            assert _wait(handle.url, first["job"])["state"] == "done"

            # Capacity freed: the previously shed spec is now accepted.
            status, retried = _request(handle.url + "/submit", payload=other)
            assert (status, retried["deduplicated"]) == (202, False)
            assert _wait(handle.url, retried["job"])["state"] == "done"


class TestWatchdog:
    def test_deadline_times_out_job_and_evicts_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        hold = threading.Event()  # never-released: the job is stuck
        with ServerThread(
            store, job_deadline_s=0.1, chaos_hold=hold
        ) as handle:
            status, submitted = _request(handle.url + "/submit", payload=SPEC)
            assert status == 202
            stuck = _wait(handle.url, submitted["job"], states=("timed-out",))
            assert stuck["state"] == "timed-out"
            assert "deadline" in stuck["error"]

            status, _ = _request(f"{handle.url}/result/{submitted['job']}")
            assert status == 500

            _, stats = _request(handle.url + "/stats")
            assert stats["jobs"]["timed-out"] == 1
            assert stats["watchdog"]["job_deadline_s"] == 0.1

            # The fingerprint was evicted, so a resubmission gets a
            # fresh job instead of joining the corpse.  Widen the
            # deadline first so the watchdog spares the fresh job.
            handle.server.job_deadline_s = 60.0
            status, resubmitted = _request(
                handle.url + "/submit", payload=SPEC
            )
            assert (status, resubmitted["deduplicated"]) == (202, False)
            assert resubmitted["job"] != submitted["job"]

            hold.set()  # release the fresh job; it completes normally
            assert _wait(handle.url, resubmitted["job"])["state"] == "done"


class TestDrain:
    def test_exit_drains_in_flight_jobs_and_quiesces_pool(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with ServerThread(store) as handle:
            status, submitted = _request(handle.url + "/submit", payload=SPEC)
            assert status == 202
            server = handle.server
        # Exiting the context drained: the in-flight job ran to
        # completion (stop() no longer abandons workers) ...
        job = server._jobs[submitted["job"]]
        assert job.state == "done"
        assert job.results is not None
        assert server._last_drain_clean is True
        assert server._drains == 1
        # ... and the worker pool + event loop + watchdog are quiesced.
        lingering = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-serve") and thread.is_alive()
        ]
        assert lingering == []


class TestServerThreadTimeouts:
    def test_startup_timeout_is_configurable_and_descriptive(
        self, tmp_path, monkeypatch
    ):
        async def hang(self):
            await asyncio.sleep(60)

        monkeypatch.setattr(CampaignJobServer, "start", hang)
        store = ResultStore(tmp_path / "s.sqlite")
        with pytest.raises(RuntimeError, match="did not start within 0.2s"):
            ServerThread(store, startup_timeout_s=0.2).__enter__()
