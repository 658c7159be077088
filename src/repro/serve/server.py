"""Crash-safe campaign job server (stdlib asyncio + HTTP).

``repro serve`` turns the repository's Monte-Carlo exhibits into a
compute-once, serve-many endpoint: clients submit (scheme × voltage)
grid requests, the server fans them out to a worker pool that drives
:func:`repro.store.pipeline.scheme_failure_grid` through a shared
:class:`~repro.store.ResultStore`, and repeated or concurrent
identical requests are answered warm — either straight from the store
(``/curve``) or by joining the already-running job (submit-level
deduplication keyed by the request's provenance fingerprint).

The server survives the same fault class it simulates:

* **Durable job journal** — every job-state transition is appended to
  an NDJSON journal (:mod:`repro.serve.durability`).  A server killed
  with ``SIGKILL`` replays the journal on restart, reconstructs its
  job table, and resumes incomplete jobs — warm, because completed
  points already live in the store.  A cross-process claim, taken when
  a job is queued (on submit and on recovery), keeps a second server
  on the same journal from re-running a job whose owner is alive.
* **One end path, one answer path** — every job settles ``done``,
  ``failed`` or ``timed-out`` in :meth:`CampaignJobServer._finish`, and
  every answer (fresh, journal-recovered or ``/curve``) is read from
  the store by :meth:`CampaignJobServer._probe_all`.  A job is ``done``
  exactly when the store holds its every point: a grid with
  quarantined runs, or a recovered job whose points were evicted,
  settles ``failed`` and gives up its fingerprint to a resubmit.
* **Watchdog** — per-job deadlines and a progress-staleness probe move
  stuck jobs to ``timed-out``, evict their fingerprint so resubmits
  get a fresh job, and cooperatively cancel the worker at the next
  point boundary.
* **Admission control** — bounded queue depth and in-flight job count
  (429 + ``Retry-After``), a request-body size cap (413), and
  malformed-request hardening (400) in the HTTP layer.
* **Graceful drain** — ``stop()`` closes the listener, waits (bounded)
  for in-flight jobs, flushes the journal and trace sinks, and only
  then shuts the pool down; a drain that times out abandons cleanly
  (the journal knows, so the next start recovers).

The HTTP layer is deliberately tiny: ``asyncio.start_server`` plus a
hand-rolled request-line/header parser — no third-party dependencies,
one JSON response per connection (``Connection: close``).  Blocking
campaign work never runs on the event loop; jobs execute on a
``ThreadPoolExecutor`` and publish progress through the PR 7
:class:`~repro.obs.report.CampaignProgress` hooks, so ``/status``
streams done/total per point while a grid is running.

Endpoints
---------
``POST /submit``      JSON spec → ``{job, state}`` (``deduplicated``
                      true when an identical job was already live)
``GET /status/<job>`` live progress (state, point/task counters)
``GET /result/<job>`` 200 with results when done, 202 while running
``GET /curve?...``    all-warm answers immediately from the store,
                      otherwise submits a job and returns 202
``GET /healthz``      liveness probe
``GET /stats``        store + job-table + durability counters
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from operator import index
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import validate_vdd
from repro.mitigation import SCHEME_RUNNERS
from repro.obs import active_metrics, active_tracer, names
from repro.obs.report import JournalLiveness
from repro.serve.durability import (
    _PROVENANCE_FIELDS,
    Job,
    JobClaims,
    JobJournal,
    replay_jobs,
)
from repro.soc.energy_model import check_macro_style
from repro.store.keys import fingerprint_payload
from repro.store.pipeline import (
    campaign_point_key,
    decode_campaign_result,
    encode_campaign_result,
    scheme_failure_grid,
)
from repro.workloads.fft import check_fft_fits

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_MAX_HEADERS = 100

_LOST_ANSWER = "results no longer in the store (evicted?); resubmit"


class RequestError(Exception):
    """A request the HTTP layer rejects with a specific status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _JobCancelled(Exception):
    """Raised inside a worker when its job was cancelled externally."""


def _integer(name: str, value: Any) -> int:
    """``value`` as an int: an integer, or one spelled in a query string."""
    if not isinstance(value, bool):
        try:
            return int(value) if isinstance(value, str) else index(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(name: str, value: Any) -> float:
    """``value`` as a float: a real number, or one spelled in a query
    string."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _text(name: str, value: Any) -> str:
    """``value`` if it is a string."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{name} must be a string, got {value!r}")


def normalize_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalize a job spec.

    Accepts either ``vdd`` (one point) or ``vdds`` (a grid); fills the
    CLI campaign exhibit's defaults so a spec and its equivalent CLI
    invocation share provenance.  Every field a job would fail on is
    refused here with :class:`ValueError`, before a job exists: a
    value of the wrong type (a count that is not an integer, a vdd or
    frequency that is not a number), or out of range.  Strings that
    spell a value are accepted, since ``/curve`` reads its fields from
    a query string.  Fields it does not know (such as ``processes``: a
    served grid runs serially in its worker thread) are dropped.
    """
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    scheme = _text("scheme", spec.get("scheme", "secded"))
    if scheme not in SCHEME_RUNNERS:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{tuple(SCHEME_RUNNERS)}"
        )
    if "vdds" in spec:
        vdds = spec["vdds"]
        if not isinstance(vdds, (list, tuple)):
            raise ValueError(f"vdds must be a list, got {vdds!r}")
    elif "vdd" in spec:
        vdds = [spec["vdd"]]
    else:
        raise ValueError("spec needs 'vdd' or 'vdds'")
    if not vdds:
        raise ValueError("'vdds' must not be empty")
    normalized = {
        "scheme": scheme,
        "vdds": [
            validate_vdd(_number("vdd", vdd), "spec vdds") for vdd in vdds
        ],
        "runs": _integer("runs", spec.get("runs", 20)),
        "seed": _integer("seed", spec.get("seed", 100)),
        "lanes": _integer("lanes", spec.get("lanes", 1)),
        "fft": _integer("fft", spec.get("fft", 64)),
        "frequency": _number("frequency", spec.get("frequency", 290e3)),
        "macro_style": check_macro_style(
            _text("macro_style", spec.get("macro_style", "cell-based"))
        ),
    }
    if normalized["runs"] <= 0:
        raise ValueError("runs must be positive")
    if normalized["seed"] < 0:
        raise ValueError("seed must be non-negative")
    if normalized["lanes"] < 1:
        raise ValueError("lanes must be positive")
    if not 0.0 < normalized["frequency"] < math.inf:
        raise ValueError("frequency must be finite and positive")
    check_fft_fits(
        normalized["fft"], scheme, SCHEME_RUNNERS[scheme].data_words()
    )
    return normalized


def spec_fingerprint(spec: Dict[str, Any]) -> str:
    """Submit-level dedup key: the provenance fields of a spec."""
    payload = {name: spec[name] for name in _PROVENANCE_FIELDS}
    payload["kind"] = "serve-grid"
    return fingerprint_payload(payload)


class CampaignJobServer:
    """Asyncio HTTP front end over a store-backed campaign worker pool.

    Parameters beyond PR 8's:

    journal:
        Path of the durable job journal.  With a journal, every queued
        job is claimed (:class:`~repro.serve.durability.JobClaims`),
        and ``start()`` replays prior transitions, rebuilds the job
        table, and requeues the incomplete jobs it can claim.
    job_deadline_s / progress_stale_s:
        Watchdog knobs: wall-clock budget per running job, and the
        maximum silence between progress updates, before a job is
        moved to ``timed-out`` and its fingerprint evicted.
    max_inflight_jobs / max_queue_depth:
        Admission control: cap on queued+running jobs, and on queued
        jobs alone.  Overflow is answered 429 with ``Retry-After:
        retry_after_s``.
    max_body_bytes:
        Request bodies above this (or POSTs without Content-Length)
        are rejected 413 before any body byte is read.
    drain_deadline_s:
        ``stop(drain=True)`` waits at most this long for in-flight
        jobs before abandoning them to the journal.

    ``fail_after_points`` is a chaos hook for the test suite: the
    worker raises after that many grid points complete, simulating a
    serve worker dying mid-campaign.  ``chaos_hold`` is a second hook:
    workers block on the event at job start, so tests can pin a job
    in the running state deterministically.
    """

    def __init__(
        self,
        store: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        journal: Optional[Any] = None,
        job_deadline_s: Optional[float] = None,
        progress_stale_s: Optional[float] = None,
        max_inflight_jobs: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        max_body_bytes: int = 1 << 20,
        retry_after_s: float = 1.0,
        drain_deadline_s: float = 30.0,
        watchdog_interval_s: float = 0.25,
        fail_after_points: Optional[int] = None,
        chaos_hold: Optional[threading.Event] = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.workers = workers
        self.journal_path = journal
        self.job_deadline_s = job_deadline_s
        self.progress_stale_s = progress_stale_s
        self.max_inflight_jobs = max_inflight_jobs
        self.max_queue_depth = max_queue_depth
        self.max_body_bytes = max_body_bytes
        self.retry_after_s = retry_after_s
        self.drain_deadline_s = drain_deadline_s
        self.watchdog_interval_s = watchdog_interval_s
        self.fail_after_points = fail_after_points
        self.chaos_hold = chaos_hold
        self._jobs: Dict[str, Job] = {}
        self._by_fingerprint: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._journal: Optional[JobJournal] = None
        self._claims: Optional[JobClaims] = None
        self._recovered_jobs = 0
        self._drains = 0
        self._last_drain_clean: Optional[bool] = None
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: Optional[threading.Thread] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.journal_path is not None:
            self._claims = JobClaims.for_journal(self.journal_path)
            recovered = replay_jobs(self.journal_path)
            self._journal = JobJournal(self.journal_path)
            self._recover(recovered)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if (
            self.job_deadline_s is not None
            or self.progress_stale_s is not None
        ):
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    def _recover(self, jobs: Dict[str, Job]) -> None:
        """Adopt a replayed journal's jobs into the job table.

        Done jobs read their answer back from the store, and settle
        ``failed`` when it is gone; failed and timed-out jobs stay
        evicted.  Incomplete jobs are requeued iff this server wins
        the cross-process fingerprint claim — a live sibling that
        submitted or recovered the job keeps it.
        """
        assert self._claims is not None
        for job in jobs.values():
            try:
                seq = int(job.id.split("-")[1])
            except (IndexError, ValueError):
                seq = 0
            # The watchdog thread may already be running from an
            # earlier start(); every job-table touch takes the lock.
            with self._lock:
                self._seq = max(self._seq, seq)
                self._jobs[job.id] = job
                if job.state == "done":
                    self._by_fingerprint[job.fingerprint] = job.id
            if job.state == "done":
                job.results = self._probe_all(job.spec)
                if job.results is None:
                    self._finish(job, "failed", _LOST_ANSWER)
                continue
            if not job.incomplete or not self._claims.claim(job.fingerprint):
                # Failed or timed out, or a live sibling server owns
                # it: keep it visible, but do not run it (and do not
                # let it absorb resubmissions).
                continue
            job.state = "queued"
            job.recovered = True
            job.points_done = 0
            with self._lock:
                self._by_fingerprint[job.fingerprint] = job.id
                self._recovered_jobs += 1
            active_metrics().counter(names.SERVE_JOBS_RECOVERED).inc()
            active_tracer().point(
                names.POINT_SERVE_JOB_RECOVERED,
                job=job.id,
                fingerprint=job.fingerprint,
            )
            asyncio.get_running_loop().run_in_executor(
                self._pool, self._run_job, job
            )

    async def stop(self, drain: bool = True) -> Dict[str, Any]:
        """Close the listener, drain in-flight jobs, flush, shut down.

        Returns a drain summary (``clean`` is False when the bounded
        drain deadline expired with jobs still in flight — those jobs
        stay incomplete in the journal and recover on the next start).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped:
            return {"clean": True, "abandoned": 0, "drained": True}
        loop = asyncio.get_running_loop()
        summary = await loop.run_in_executor(None, self._drain, drain)
        self._stopped = True
        return summary

    def _in_flight(self) -> List[Job]:
        with self._lock:
            return [job for job in self._jobs.values() if job.incomplete]

    def _drain(self, drain: bool) -> Dict[str, Any]:
        deadline = time.monotonic() + (
            self.drain_deadline_s if drain else 0.0
        )
        while self._in_flight() and time.monotonic() < deadline:
            time.sleep(0.02)
        leftover = self._in_flight()
        clean = not leftover
        self._watchdog_stop.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=5)
            self._watchdog_thread = None
        if clean:
            self._pool.shutdown(wait=True)
        else:
            # Abandon: cancel cooperatively and drop queued futures.
            # The journal holds no terminal record for these jobs, so
            # the next start() recovers them.
            for job in leftover:
                job.cancelled.set()
            self._pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            self._drains += 1
            self._last_drain_clean = clean
        active_metrics().counter(names.SERVE_DRAINS).inc()
        tracer = active_tracer()
        tracer.point(
            names.POINT_SERVE_DRAIN,
            in_flight=len(leftover),
            clean=clean,
        )
        tracer.flush()
        if self._journal is not None:
            self._journal.record_drain(len(leftover), clean)
            self._journal.close()
        if self._claims is not None:
            self._claims.release_all()
        return {"clean": clean, "abandoned": len(leftover), "drained": drain}

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            self.watchdog_sweep()

    def watchdog_sweep(self) -> List[str]:
        """One deadline/staleness pass; returns the job ids timed out."""
        now = time.monotonic()
        with self._lock:
            running = [
                job
                for job in self._jobs.values()
                if job.state == "running" and job.started_at is not None
            ]
        timed_out = []
        for job in running:
            overdue = (
                self.job_deadline_s is not None
                and now - job.started_at > self.job_deadline_s
            )
            last_progress = job.last_progress_at or job.started_at
            stalled = (
                self.progress_stale_s is not None
                and now - last_progress > self.progress_stale_s
            )
            if not overdue and not stalled:
                continue
            reason = "deadline" if overdue else "progress-stall"
            if self._time_out(job, reason):
                timed_out.append(job.id)
        return timed_out

    def _time_out(self, job: Job, reason: str) -> bool:
        budget = (
            self.job_deadline_s
            if reason == "deadline"
            else self.progress_stale_s
        )
        if not self._finish(
            job,
            "timed-out",
            f"{reason}: exceeded {budget:g}s",
            deadline_s=float(budget or 0.0),
        ):
            return False
        job.cancelled.set()
        active_metrics().counter(names.SERVE_DEADLINE_KILLS).inc()
        active_tracer().point(
            names.POINT_SERVE_JOB_TIMED_OUT,
            job=job.id,
            reason=reason,
        )
        return True

    def _finish(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        deadline_s: float = 0.0,
    ) -> bool:
        """The one end path: settle ``job`` done, failed or timed-out.

        Journals the terminal record, evicts the fingerprint of a job
        that cannot answer and releases the claim.  A job settles at
        most once, except that a ``done`` job with no answer (recovered
        from the journal, its points evicted) may become ``failed``.
        ``deadline_s`` is the budget a timed-out job overran.  Returns
        whether this call settled the job.
        """
        with self._lock:
            lost_answer = (
                job.state == "done" and job.results is None
                and state == "failed"
            )
            if not job.incomplete and not lost_answer:
                return False
            job.state = state
            job.error = error
            if (
                state != "done"
                and self._by_fingerprint.get(job.fingerprint) == job.id
            ):
                del self._by_fingerprint[job.fingerprint]
        if state == "failed":
            active_metrics().counter(names.SERVE_ERRORS).inc()
            active_tracer().point(
                names.POINT_SERVE_JOB_FAILED, job=job.id, error=error
            )
        if self._journal is not None:
            if state == "done":
                self._journal.record_done(
                    job.id, job.hits, job.executed_points
                )
            elif state == "failed":
                self._journal.record_failed(job.id, str(error))
            else:
                self._journal.record_timed_out(
                    job.id, deadline_s, str(error)
                )
        if self._claims is not None:
            self._claims.release(job.fingerprint)
        return True

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one request; None on an empty connection.

        Raises :class:`RequestError` (not a generic 500) on malformed
        request lines (400), unbounded or oversized bodies (413), and
        truncated reads (400) — the hardening surface for clients that
        are buggy, hostile, or mid-crash.
        """
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise RequestError(400, "request line too long") from None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise RequestError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        if not method.isalpha():
            raise RequestError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise RequestError(400, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise RequestError(400, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name.strip():
                raise RequestError(400, f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length")
        if raw_length is None:
            if method == "POST":
                raise RequestError(
                    413,
                    "POST requires Content-Length "
                    f"(max {self.max_body_bytes} bytes)",
                )
            length = 0
        else:
            try:
                length = int(raw_length)
            except ValueError:
                raise RequestError(
                    400, f"invalid Content-Length: {raw_length!r}"
                ) from None
            if length < 0:
                raise RequestError(
                    400, f"invalid Content-Length: {raw_length!r}"
                )
            if length > self.max_body_bytes:
                raise RequestError(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte cap",
                )
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise RequestError(400, "truncated request body") from None
        return method, target, body

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        status, payload = 500, {"error": "internal error"}
        headers: Dict[str, str] = {}
        try:
            request = await self._read_request(reader)
            if request is None:
                writer.close()
                return
            method, target, body = request
            active_metrics().counter(names.SERVE_REQUESTS).inc()
            result = await self._route(method, target, body)
            if len(result) == 3:
                status, payload, headers = result  # type: ignore[misc]
            else:
                status, payload = result  # type: ignore[misc]
        except RequestError as exc:
            active_metrics().counter(names.SERVE_REJECTED_REQUESTS).inc()
            status, payload = exc.status, {"error": exc.message}
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive surface
            active_metrics().counter(names.SERVE_ERRORS).inc()
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + data)
            await writer.drain()
        finally:
            writer.close()

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[Any, ...]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            with self._lock:
                job_count = len(self._jobs)
            return 200, {"ok": True, "jobs": job_count}
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path == "/submit" and method == "POST":
            try:
                spec = json.loads(body.decode("utf-8") or "{}")
            except json.JSONDecodeError as exc:
                raise RequestError(400, f"invalid JSON body: {exc}") from None
            return self._submit(normalize_spec(spec))
        if path.startswith("/status/") and method == "GET":
            return self._status(path[len("/status/"):])
        if path.startswith("/result/") and method == "GET":
            return self._result(path[len("/result/"):])
        if path == "/curve" and method == "GET":
            return self._curve(parse_qs(url.query))
        if path in ("/submit", "/curve") or path.startswith(
            ("/status/", "/result/")
        ):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint: {path}"}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _admission_overflow(self) -> Optional[Dict[str, int]]:
        """Queue/in-flight census when at capacity, else None."""
        queued = running = 0
        for job in self._jobs.values():
            if job.state == "queued":
                queued += 1
            elif job.state == "running":
                running += 1
        over_inflight = (
            self.max_inflight_jobs is not None
            and queued + running >= self.max_inflight_jobs
        )
        over_queue = (
            self.max_queue_depth is not None
            and queued >= self.max_queue_depth
        )
        if over_inflight or over_queue:
            return {"queued": queued, "running": running}
        return None

    def _submit(self, spec: Dict[str, Any]) -> Tuple[Any, ...]:
        fingerprint = spec_fingerprint(spec)
        with self._lock:
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                # Only a job that can still answer keeps its
                # fingerprint (``_finish`` evicts the rest).
                active_metrics().counter(names.SERVE_JOBS_DEDUPED).inc()
                status = self._jobs[existing_id].status()
                status["deduplicated"] = True
                return 202, status
            census = self._admission_overflow()
            if census is not None:
                active_metrics().counter(names.SERVE_SHEDS).inc()
                return (
                    429,
                    {
                        "error": "server at capacity; retry later",
                        "retry_after_s": self.retry_after_s,
                        **census,
                    },
                    {"Retry-After": f"{self.retry_after_s:g}"},
                )
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:04d}-{fingerprint[:12]}",
                fingerprint=fingerprint,
                spec=spec,
                points_total=len(spec["vdds"]),
            )
            self._jobs[job.id] = job
            self._by_fingerprint[fingerprint] = job.id
        active_metrics().counter(names.SERVE_JOBS).inc()
        if self._journal is not None:
            self._journal.record_submitted(
                job.id, fingerprint, spec, len(spec["vdds"])
            )
        if self._claims is not None:
            # A sibling replaying the journal leaves a claimed job to
            # us; a claim the sibling holds does not stop the submit.
            self._claims.claim(fingerprint)
        asyncio.get_running_loop().run_in_executor(
            self._pool, self._run_job, job
        )
        status = job.status()
        status["deduplicated"] = False
        return 202, status

    def _status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": f"no such job: {job_id}"}
        return 200, job.status()

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": f"no such job: {job_id}"}
        status = job.status()
        if job.incomplete:
            return 202, status
        if job.state != "done":
            return 500, status
        status["results"] = job.results
        return 200, status

    def _curve(
        self, query: Dict[str, List[str]]
    ) -> Tuple[Any, ...]:
        """The spec's fields from the query string, as ``/submit`` reads
        them from a JSON body (``vdds`` comma-separated)."""
        spec: Dict[str, Any] = {
            name: query[name][0]
            for name in ("vdd", *_PROVENANCE_FIELDS)
            if name in query
        }
        if "vdds" in spec:
            spec["vdds"] = [v for v in spec["vdds"].split(",") if v]
        spec = normalize_spec(spec)
        warm = self._probe_all(spec)
        if warm is not None:
            active_metrics().counter(names.SERVE_WARM_POINTS).inc(
                len(warm)
            )
            return 200, {
                "warm": True,
                "spec": {
                    name: spec[name] for name in _PROVENANCE_FIELDS
                },
                "results": warm,
            }
        result = self._submit(spec)
        result[1]["warm"] = False
        return result

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _plan(self, spec: Dict[str, Any]) -> Tuple[Any, Any, Any, Any]:
        from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
        from repro.workloads.fft import fft_program_and_golden

        runner_cls = SCHEME_RUNNERS[spec["scheme"]]
        program, golden = fft_program_and_golden(spec["fft"])
        return (
            runner_cls,
            program.workload,
            golden,
            ACCESS_CELL_BASED_40NM_TYPICAL,
        )

    def _probe_all(
        self, spec: Dict[str, Any], plan: Optional[Tuple[Any, ...]] = None
    ) -> Optional[List[Dict[str, Any]]]:
        """All-points-warm probe; None unless every point is cached.

        Every answer is read here; ``plan`` reuses the caller's
        :meth:`_plan`.
        """
        runner_cls, workload, golden, access_model = plan or self._plan(spec)
        results = []
        for vdd in spec["vdds"]:
            key = campaign_point_key(
                runner_cls, workload, golden, access_model,
                vdd=vdd, frequency=spec["frequency"], runs=spec["runs"],
                seed_base=spec["seed"],
                runner_kwargs={"macro_style": spec["macro_style"]},
            )
            payload = self.store.get(key)
            if payload is None:
                return None
            # Round-trip through the codec so a corrupt payload is a
            # loud error here rather than a wrong answer downstream.
            results.append(
                encode_campaign_result(decode_campaign_result(payload))
            )
        return results

    def _hold_for_chaos(self, job: Job) -> None:
        """Block at job start while the test suite holds the gate."""
        if self.chaos_hold is None:
            return
        while not self.chaos_hold.is_set():
            if job.cancelled.is_set():
                raise _JobCancelled()
            self.chaos_hold.wait(0.02)

    def _run_job(self, job: Job) -> None:
        from repro.obs.report import CampaignProgress

        if job.cancelled.is_set():
            return
        job.state = "running"
        job.started_at = time.monotonic()
        spec = job.spec
        tracer = active_tracer()
        if self._journal is not None:
            self._journal.record_started(job.id)
        try:
            self._hold_for_chaos(job)
            plan = self._plan(spec)
            runner_cls, workload, golden, access_model = plan

            def on_point(index: int, total: int, result: Any) -> None:
                job.points_done = index + 1
                job.points_total = total
                job.last_progress_at = time.monotonic()
                if self._journal is not None:
                    self._journal.record_point(
                        job.id, job.points_done, total
                    )
                if job.cancelled.is_set():
                    raise _JobCancelled()
                if (
                    self.fail_after_points is not None
                    and job.points_done >= self.fail_after_points
                ):
                    raise RuntimeError(
                        "chaos: serve worker killed mid-campaign "
                        f"after {job.points_done} points"
                    )

            def progress_factory(index: int, total: int) -> Any:
                def on_update(progress: Any) -> None:
                    job.tasks_done = progress.done
                    job.tasks_total = progress.total
                    job.last_progress_at = time.monotonic()

                return CampaignProgress(on_update=on_update)

            with tracer.span(
                names.SPAN_SERVE_JOB,
                job=job.id,
                scheme=spec["scheme"],
                points=len(spec["vdds"]),
            ):
                grid = scheme_failure_grid(
                    runner_cls,
                    workload,
                    golden,
                    access_model,
                    spec["vdds"],
                    store=self.store,
                    frequency=spec["frequency"],
                    runs=spec["runs"],
                    seed_base=spec["seed"],
                    lanes=spec["lanes"],
                    macro_style=spec["macro_style"],
                    on_point=on_point,
                    progress_factory=progress_factory,
                )
            job.hits = grid.hits
            job.executed_points = grid.executed_points
            active_metrics().counter(names.SERVE_WARM_POINTS).inc(
                grid.hits
            )
            active_metrics().counter(names.SERVE_EXECUTED_POINTS).inc(
                grid.executed_points
            )
            # Answer from the store, like a recovered job: a point it
            # does not hold (a quarantined campaign is never published)
            # leaves the job unable to answer.
            job.results = self._probe_all(spec, plan)
            quarantined = ", ".join(
                f"{result.vdd:.3f} V {result.quarantined}/{spec['runs']}"
                for result in grid.results
                if result.quarantined
            )
            if job.results is not None:
                self._finish(job, "done")
            elif quarantined:
                self._finish(job, "failed", f"quarantined runs: {quarantined}")
            else:
                self._finish(job, "failed", _LOST_ANSWER)
        except _JobCancelled:
            # Timed out (already settled) or cancelled by an unclean
            # drain: a drained job reverts to queued, so a journal
            # replay on the next start re-runs it.
            with self._lock:
                requeued = job.state == "running"
                if requeued:
                    job.state = "queued"
            if requeued:
                tracer.point(
                    names.POINT_SERVE_JOB_REQUEUED,
                    job=job.id,
                    fingerprint=job.fingerprint,
                    points_done=job.points_done,
                )
        except Exception as exc:
            self._finish(job, "failed", f"{type(exc).__name__}: {exc}")

    def _stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            recovered_jobs = self._recovered_jobs
            drains = self._drains
        stats: Dict[str, Any] = {
            "jobs": states,
            "store": self.store.stats(),
            "workers": self.workers,
            "recovered_jobs": recovered_jobs,
            "drains": drains,
            "admission": {
                "max_inflight_jobs": self.max_inflight_jobs,
                "max_queue_depth": self.max_queue_depth,
                "max_body_bytes": self.max_body_bytes,
            },
            "watchdog": {
                "job_deadline_s": self.job_deadline_s,
                "progress_stale_s": self.progress_stale_s,
            },
        }
        if self.journal_path is not None:
            liveness = JournalLiveness(
                self.journal_path,
                stale_after_s=self.progress_stale_s
                or self.job_deadline_s
                or 60.0,
            )
            stats["journal"] = {
                "path": str(self.journal_path),
                **liveness.probe(),
            }
        return stats


class ServerThread:
    """Run a :class:`CampaignJobServer` on a background event loop.

    The test suite's (and docs') way to stand a server up in-process::

        with ServerThread(store) as handle:
            urllib.request.urlopen(handle.url + "/healthz")

    Keyword arguments other than the three below go to
    :class:`CampaignJobServer`.  ``startup_timeout_s`` /
    ``shutdown_timeout_s`` bound how long entering and leaving the
    context may take; a startup that blows the budget raises a
    descriptive error instead of a bare ``TimeoutError``.  Exit
    performs a graceful drain unless ``drain`` is false.
    """

    def __init__(
        self,
        store: Any,
        *,
        startup_timeout_s: float = 10.0,
        shutdown_timeout_s: float = 30.0,
        drain: bool = True,
        **server_kwargs: Any,
    ) -> None:
        self.store = store
        self.startup_timeout_s = startup_timeout_s
        self.shutdown_timeout_s = shutdown_timeout_s
        self.drain = drain
        self.server_kwargs = server_kwargs

    def __enter__(self) -> "ServerThread":
        self.server = CampaignJobServer(self.store, **self.server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        )
        try:
            future.result(timeout=self.startup_timeout_s)
        except FutureTimeoutError:
            future.cancel()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            raise RuntimeError(
                f"repro serve: server did not start within "
                f"{self.startup_timeout_s:g}s (host={self.server.host}, "
                f"port={self.server.port}); raise startup_timeout_s or "
                f"check that the address is bindable"
            ) from None
        except Exception:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=self.drain), self._loop
        )
        try:
            future.result(timeout=self.shutdown_timeout_s)
        except FutureTimeoutError:
            raise RuntimeError(
                f"repro serve: shutdown did not finish within "
                f"{self.shutdown_timeout_s:g}s; in-flight jobs "
                f"{[job.id for job in self.server._in_flight()]} "
                f"did not drain"
            ) from None
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=self.shutdown_timeout_s)

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"


__all__ = [
    "CampaignJobServer",
    "Job",
    "RequestError",
    "ServerThread",
    "normalize_spec",
    "spec_fingerprint",
]
