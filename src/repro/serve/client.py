"""Retrying HTTP client for the campaign job server.

:class:`ServeClient` is the supported way to talk to ``repro serve``
from scripts and the ``repro submit`` CLI.  It holds one persistent
HTTP/1.1 connection to the server (a warm ``/curve`` answer or a
``/status`` poll is one request on it) and layers three behaviors over
it that every caller would otherwise reimplement:

* **Deterministic capped exponential backoff** — transient transport
  failures (connection refused mid-restart, a dropped socket, a 5xx)
  retry with ``backoff_base_s * 2**attempt`` capped at
  ``backoff_cap_s``, sleeping only between attempts.  No jitter: the
  schedule is reproducible, which keeps client behavior out of the
  nondeterminism budget.
* **Load-shedding cooperation** — a 429 sleeps for the server's
  ``Retry-After`` hint (capped the same way) instead of the
  exponential schedule, then retries.
* **Idempotent resubmission** — ``/submit`` is keyed server-side by
  the spec's provenance fingerprint, so retrying a submit whose
  response was lost can never double-run a job: the retry joins the
  live job (``deduplicated: true``) or, after a server restart, the
  journal-recovered one.  :meth:`ServeClient.submit` normalizes the
  spec locally and attaches the fingerprint it expects, making the
  idempotency key visible to callers.

``wait()`` polls ``/status`` until the job settles, then fetches
``/result``; a job that settles ``failed`` or ``timed-out`` raises
:class:`JobFailedError` with the server's error string — also when
``/status`` said ``done`` but ``/result`` found the answer gone.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import quote, urlsplit

from repro.obs import active_metrics, names
from repro.serve.durability import _PROVENANCE_FIELDS
from repro.serve.server import normalize_spec, spec_fingerprint

#: How a kept-alive connection the server has closed fails its next
#: request (``RemoteDisconnected`` is a ``ConnectionResetError``).
_CLOSED_BY_PEER = (ConnectionResetError, BrokenPipeError)


class ServeClientError(RuntimeError):
    """Base class for client-side serve failures."""


class ServerUnavailableError(ServeClientError):
    """The server stayed unreachable through the whole retry budget."""


class JobFailedError(ServeClientError):
    """The submitted job settled in a failed or timed-out state."""

    def __init__(self, status: Dict[str, Any]) -> None:
        super().__init__(
            f"job {status.get('job')} settled "
            f"{status.get('state')!r}: {status.get('error')}"
        )
        self.status = status


class ServeClient:
    """HTTP client with deterministic retries and idempotent submits.

    The client holds one ``http.client`` connection to ``base_url``,
    opened by the first request and kept open across requests; a lock
    lets threads share the client, one request at a time.  It connects
    directly, with no HTTP proxy.  ``close()``, leaving a ``with``
    block, or dropping the client closes the connection; a request
    after ``close()`` opens a new one.  When the server has closed a
    connection the client reused, the request is sent once more, at
    once, on a fresh connection (every endpoint is idempotent); that
    costs no retry and no sleep.

    Each request makes one attempt plus up to ``max_retries`` retries
    (a negative budget raises ``ValueError``).  ``sleep`` and
    ``transport`` are injectable for tests: ``transport``
    takes ``(url, data_bytes_or_None, timeout_s)`` and returns
    ``(http_status, response_bytes, headers_dict)``, raising
    ``OSError`` (such as ``urllib.error.URLError``) or
    ``http.client.HTTPException`` on transport failure.
    """

    def __init__(
        self,
        base_url: str,
        max_retries: int = 5,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        timeout_s: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        transport: Optional[
            Callable[
                [str, Optional[bytes], float],
                Tuple[int, bytes, Dict[str, str]],
            ]
        ] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        self.base_url = base_url.rstrip("/")
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self._sleep = sleep
        self._transport = transport or self._http_transport
        split = urlsplit(self.base_url)
        connection_class = (
            http.client.HTTPSConnection
            if split.scheme == "https"
            else http.client.HTTPConnection
        )
        self._connection = connection_class(
            split.hostname or "", split.port, timeout=timeout_s
        )
        self._lock = threading.Lock()
        weakref.finalize(self, self._connection.close)

    def close(self) -> None:
        """Close the held connection (idempotent)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport + retry core
    # ------------------------------------------------------------------
    def _http_transport(
        self, url: str, data: Optional[bytes], timeout_s: float
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """``url`` on the held connection, which was opened with the
        client's ``timeout_s``."""
        split = urlsplit(url)
        target = f"{split.path}?{split.query}" if split.query else split.path
        with self._lock:
            reused = self._connection.sock is not None
            try:
                return self._exchange(target, data)
            except _CLOSED_BY_PEER:
                if not reused:
                    raise
            # The server closed the connection while it sat idle (say,
            # it restarted): send the request once more on a fresh one.
            return self._exchange(target, data)

    def _exchange(
        self, target: str, data: Optional[bytes]
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One request and its response; a failure closes the
        connection, so the next request opens a fresh one."""
        connection = self._connection
        try:
            if data is None:
                connection.request("GET", target)
            else:
                connection.request(
                    "POST", target, body=data,
                    headers={"Content-Type": "application/json"},
                )
            response = connection.getresponse()
            body = response.read()
        except BaseException:
            connection.close()
            raise
        headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, body, headers

    def backoff_s(self, attempt: int) -> float:
        """Deterministic capped exponential schedule (attempt >= 0)."""
        return min(
            self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt)
        )

    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One logical request with the full retry budget applied.

        Retries transport failures and 5xx responses on the backoff
        schedule and 429 on the server's ``Retry-After`` hint, sleeping
        only before a retry; 4xx responses other than 429 are the
        caller's problem and return immediately.
        """
        url = self.base_url + path
        data = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        last_error: Optional[BaseException] = None
        delay = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                active_metrics().counter(
                    names.SERVE_CLIENT_RETRIES
                ).inc()
                self._sleep(delay)
            try:
                status, body, headers = self._transport(
                    url, data, self.timeout_s
                )
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                delay = self.backoff_s(attempt)
                continue
            if status == 429:
                retry_after = headers.get("retry-after")
                try:
                    hint = float(retry_after) if retry_after else None
                except ValueError:
                    hint = None
                if hint is None:
                    hint = self.backoff_s(attempt)
                delay = min(hint, self.backoff_cap_s)
                last_error = ServerUnavailableError(
                    f"{url} kept shedding load (429)"
                )
                continue
            if status >= 500 and path == "/submit":
                # A 5xx on submit is safe to retry: the fingerprint
                # makes resubmission idempotent.  5xx on reads is a
                # real answer (e.g. /result of a failed job).
                last_error = ServerUnavailableError(
                    f"{url} answered {status}"
                )
                delay = self.backoff_s(attempt)
                continue
            try:
                decoded = json.loads(body) if body else {}
            except json.JSONDecodeError as exc:
                raise ServeClientError(
                    f"{url} answered {status} with undecodable body"
                ) from exc
            return status, decoded
        raise ServerUnavailableError(
            f"{url} unreachable after {self.max_retries + 1} attempts"
        ) from last_error

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("/healthz")[1]

    def stats(self) -> Dict[str, Any]:
        return self._request("/stats")[1]

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job spec; returns the server's job status.

        The spec is normalized locally so the idempotency fingerprint
        the server will compute is known before the request leaves —
        it is attached to the returned status as ``fingerprint``.
        """
        normalized = normalize_spec(dict(spec))
        fingerprint = spec_fingerprint(normalized)
        status, body = self._request("/submit", payload=normalized)
        if status not in (200, 202):
            raise ServeClientError(
                f"/submit answered {status}: {body.get('error')}"
            )
        body.setdefault("fingerprint", fingerprint)
        return body

    def status(self, job_id: str) -> Dict[str, Any]:
        status, body = self._request(f"/status/{job_id}")
        if status != 200:
            raise ServeClientError(
                f"/status/{job_id} answered {status}: {body.get('error')}"
            )
        return body

    def result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        return self._request(f"/result/{job_id}")

    def wait(
        self,
        job_id: str,
        poll_s: float = 0.2,
        deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> Dict[str, Any]:
        """Poll until the job settles; returns the full result payload.

        Raises :class:`JobFailedError` when the job settles failed or
        timed-out (on ``/status`` or on ``/result``), and
        :class:`ServeClientError` when ``deadline_s`` elapses first.
        """
        deadline = (
            clock() + deadline_s if deadline_s is not None else None
        )
        while True:
            status = self.status(job_id)
            state = status.get("state")
            if state == "done":
                code, body = self.result(job_id)
                if code == 200:
                    return body
                if body.get("state") in ("failed", "timed-out"):
                    # A restarted server found the answer gone.
                    raise JobFailedError(body)
                raise ServeClientError(
                    f"/result/{job_id} answered {code}: "
                    f"{body.get('error')}"
                )
            if state in ("failed", "timed-out"):
                raise JobFailedError(status)
            if deadline is not None and clock() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {state!r} after "
                    f"{deadline_s:g}s"
                )
            self._sleep(poll_s)

    def submit_and_wait(
        self,
        spec: Dict[str, Any],
        poll_s: float = 0.2,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit (idempotently) and wait for the result in one call."""
        submitted = self.submit(spec)
        return self.wait(
            submitted["job"], poll_s=poll_s, deadline_s=deadline_s
        )

    def curve(self, **spec: Any) -> Tuple[int, Dict[str, Any]]:
        """Query ``/curve`` (all-warm fast path or 202 job submit).

        The query carries every provenance field of the normalized
        spec, so the server answers the campaign that was asked for.
        """
        normalized = normalize_spec(dict(spec))
        normalized["vdds"] = ",".join(map(repr, normalized["vdds"]))
        query = "&".join(
            f"{name}={quote(str(normalized[name]), safe=',')}"
            for name in _PROVENANCE_FIELDS
        )
        return self._request("/curve?" + query)


__all__ = [
    "JobFailedError",
    "ServeClient",
    "ServeClientError",
    "ServerUnavailableError",
]
