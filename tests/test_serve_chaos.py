"""Process-level chaos: SIGKILL a live ``repro serve``, restart, resume.

The acceptance exercise for the durability tentpole, run against real
processes (``python -m repro serve``) rather than in-process server
threads:

1. start a journaled server, submit a multi-point grid through
   :class:`~repro.serve.client.ServeClient`;
2. ``SIGKILL`` the server after at least one point has reached the
   store (mid-job, no drain, no flush);
3. restart the server on the same store + journal and assert it
   replays the journal, re-claims the job under the *same job id*,
   resumes warm (the pre-kill points are store hits), and completes
   with results byte-identical to an uninterrupted cold run;
4. ``SIGTERM`` drains cleanly (exit 0, ``clean=True``).

The kill runs at ``lanes`` 1 and 16 (the benchmark's ``serve`` client
sends 16); both must match the same uninterrupted ``lanes=1`` grid.

Slower than the in-process suites (two server processes plus a
reference grid) but the only place the kill crosses a real process
boundary.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.mitigation import SecdedRunner
from repro.obs.report import read_ndjson
from repro.serve import JobFailedError, ServeClient, normalize_spec
from repro.store import (
    ResultStore,
    encode_campaign_result,
    scheme_failure_grid,
)
from repro.workloads.fft import build_fft_program

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: Four points at runs=10 (~2s of work): long enough that the kill in
#: the middle reliably lands while points are still outstanding.
SPEC = {
    "scheme": "secded",
    "vdds": [0.42, 0.44, 0.46, 0.48],
    "runs": 10,
    "seed": 100,
}
DEADLINE_S = 120.0


def _server_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_server(store_path, journal_path):
    """Start ``repro serve`` on an ephemeral port; returns (proc, url, line)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store_path),
            "--journal", str(journal_path),
            "--port", "0",
            "--workers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_server_env(),
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (http://[\d.]+:\d+)", line)
    if not match:
        proc.kill()
        proc.wait()
        raise AssertionError(f"server did not announce itself: {line!r}")
    return proc, match.group(1), line


def _await_first_stored_point(store_path, deadline_s=DEADLINE_S):
    """Block until the store sidecar holds >= 1 complete grid point.

    Every run of a point is also stored (a ``campaign-task`` row), so
    the wait is for the first ``scheme-campaign`` record, not the
    first line.
    """
    sidecar = Path(str(store_path) + ".ndjson")
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if any(
            record.get("kind") == "scheme-campaign"
            for record in read_ndjson(sidecar)
        ):
            return
        time.sleep(0.02)
    raise AssertionError(f"no point reached {sidecar} in {deadline_s}s")


def _reference_results(tmp_path):
    """The ``lanes=1`` grid, cold, straight into a fresh store — no
    server."""
    spec = normalize_spec(dict(SPEC))
    program = build_fft_program(spec["fft"])
    golden = program.expected_output(list(program.data_words[: spec["fft"]]))
    grid = scheme_failure_grid(
        SecdedRunner, program.workload, golden,
        ACCESS_CELL_BASED_40NM_TYPICAL, spec["vdds"],
        store=ResultStore(tmp_path / "reference.sqlite"),
        frequency=spec["frequency"], runs=spec["runs"],
        seed_base=spec["seed"], lanes=spec["lanes"],
        macro_style=spec["macro_style"],
    )
    return [encode_campaign_result(result) for result in grid.results]


class TestServeChaos:
    @pytest.mark.parametrize("lanes", [1, 16])
    def test_sigkill_midjob_then_restart_completes_bit_identical(
        self, tmp_path, lanes
    ):
        spec = {**SPEC, "lanes": lanes}
        store_path = tmp_path / "chaos.sqlite"
        journal_path = tmp_path / "jobs.ndjson"

        # Phase 1: submit, let >= 1 point land, then kill -9.
        proc, url, _ = _spawn_server(store_path, journal_path)
        try:
            submitted = ServeClient(url).submit(spec)
            assert submitted["deduplicated"] is False
            job_id = submitted["job"]
            _await_first_stored_point(store_path)
        finally:
            proc.kill()  # SIGKILL: no drain, no journal close, no flush
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        # Phase 2: a restarted server replays the journal and resumes
        # the job — same id, warm from the store.
        proc, url, banner = _spawn_server(store_path, journal_path)
        try:
            assert "1 jobs recovered" in banner
            client = ServeClient(url)
            try:
                result = client.wait(
                    job_id, poll_s=0.1, deadline_s=DEADLINE_S
                )
            except JobFailedError as error:  # pragma: no cover - diagnostics
                raise AssertionError(
                    f"recovered job settled badly: {error.status}"
                ) from error
            assert result["state"] == "done"
            assert result["recovered"] is True
            # Warm resume: the pre-kill point(s) came from the store.
            assert result["hits"] >= 1
            assert result["hits"] + result["executed_points"] == len(
                SPEC["vdds"]
            )

            stats = client.stats()
            assert stats["recovered_jobs"] == 1
            assert stats["store"]["hits"] >= 1

            # Resubmitting after recovery joins the completed job.
            joined = client.submit(spec)
            assert joined["deduplicated"] is True
            assert joined["job"] == job_id

            # /curve is now all-warm.
            status, curve = client.curve(**spec)
            assert (status, curve["warm"]) == (200, True)
        finally:
            proc.terminate()
            output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "drained (clean=True" in output

        # The recovered run is byte-identical to an uninterrupted one.
        reference = _reference_results(tmp_path)
        assert json.dumps(result["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert json.dumps(curve["results"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_sigterm_drains_cleanly(self, tmp_path):
        proc, url, _ = _spawn_server(
            tmp_path / "s.sqlite", tmp_path / "jobs.ndjson"
        )
        try:
            assert ServeClient(url).healthz()["ok"] is True
        finally:
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "drained (clean=True, abandoned=0)" in output

    def test_sigterm_drains_promptly_while_a_client_connection_is_idle(
        self, tmp_path
    ):
        """The client keeps its connection open after ``/healthz``;
        the drain closes it instead of waiting for it."""
        proc, url, _ = _spawn_server(
            tmp_path / "s.sqlite", tmp_path / "jobs.ndjson"
        )
        with ServeClient(url) as client:
            try:
                assert client.healthz()["ok"] is True
                assert client._connection.sock is not None  # kept alive
            finally:
                started = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                output, _ = proc.communicate(timeout=60)
            elapsed = time.monotonic() - started
        assert proc.returncode == 0
        assert "drained (clean=True, abandoned=0)" in output
        assert elapsed < 10.0
