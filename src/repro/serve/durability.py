"""Job records, durable job journal and cross-process claims.

The job server's in-memory job table is a cache, not the truth: every
job-state transition (submitted → started → point progress → done /
failed / timed-out) is appended to an NDJSON **job journal**, and
:func:`replay_jobs` rebuilds the server's own :class:`Job` records from
it.  A server killed with ``SIGKILL`` therefore reconstructs its job
table on restart and resumes incomplete jobs — warm, because the
completed points (and the completed runs of a half-finished point)
already live in the content-addressed store.  The journal holds the
job table, not completed work: that record is the store.  A ``done``
job is only as good as the store behind it, so a ``failed`` record may
follow a ``done`` one (a restarted server found the answer gone);
replay keeps the last terminal record.

The file has *multiple* writers across restarts — and, transiently,
across concurrently restarted servers — so it appends through the
shared :class:`~repro.obs.trace.NdjsonFileSink`, which writes each
record with one ``write()`` on an append-mode handle (POSIX
``O_APPEND`` keeps whole-line appends from interleaving) and flushes it.
Replay reads through the shared :func:`~repro.obs.report.read_ndjson`,
which drops a half-written final line (the transition simply
re-derives on the next replay).

Two claims keep work from running twice, and both must exist.  The
store's in-process point claim
(:meth:`~repro.store.ResultStore.fetch_or_compute`) collapses
concurrent computations of one point, but :mod:`repro.store` must stay
identity-free (rule ``REP103`` forbids ``os.getpid`` there), so it
cannot cross a process.  :class:`JobClaims` claims a whole job across
processes by exclusively creating ``<journal>.claims/<fingerprint>``
holding the owner's PID, which tells an owner killed with ``SIGKILL``
(its claim is stolen, so a crash never wedges a fingerprint) from a
live one (which keeps its job when a second server replays the
journal).  A server claims a job when it queues it, on submit and on
recovery, and releases the claim when the job settles or the server
drains; a submit whose claim a live sibling holds still runs.
"""

from __future__ import annotations

import errno
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.report import read_ndjson
from repro.obs.trace import NdjsonFileSink

PathLike = Union[str, "os.PathLike[str]"]

JOB_JOURNAL_VERSION = 1

#: Job states that need no further work on replay.
TERMINAL_STATES = frozenset({"done", "failed", "timed-out"})


class JobJournalError(RuntimeError):
    """A job journal file could not be used."""


#: Fields of a normalized spec that determine the answer bit-for-bit:
#: provenance only, the same rule as the store keys (REP103).  ``lanes``
#: stays even though the store keys dropped it, so job journals written
#: with it keep replaying and deduplicating as before.  A journaled spec
#: may carry more (older specs held ``processes``); nothing reads it.
_PROVENANCE_FIELDS = (
    "scheme", "vdds", "runs", "seed", "lanes", "fft", "frequency",
    "macro_style",
)


@dataclass
class Job:
    """One grid request's lifecycle: a row of the server's job table."""

    id: str
    fingerprint: str
    spec: Dict[str, Any]
    state: str = "queued"
    points_done: int = 0
    points_total: int = 0
    tasks_done: int = 0
    tasks_total: int = 0
    hits: int = 0
    executed_points: int = 0
    error: Optional[str] = None
    results: Optional[List[Dict[str, Any]]] = None
    recovered: bool = False
    started_at: Optional[float] = None
    last_progress_at: Optional[float] = None
    cancelled: threading.Event = field(default_factory=threading.Event)

    @property
    def incomplete(self) -> bool:
        """True while the job still owes work."""
        return self.state not in TERMINAL_STATES

    def status(self) -> Dict[str, Any]:
        return {
            "job": self.id,
            "state": self.state,
            "spec": {
                name: self.spec[name] for name in _PROVENANCE_FIELDS
            },
            "points_done": self.points_done,
            "points_total": self.points_total,
            "tasks_done": self.tasks_done,
            "tasks_total": self.tasks_total,
            "hits": self.hits,
            "executed_points": self.executed_points,
            "recovered": self.recovered,
            "error": self.error,
        }


class JobJournal:
    """Append-only NDJSON record of every job-state transition.

    Thread-safe: the server appends from the event loop (submissions)
    and from worker threads (progress and completion) concurrently.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        existed = self.path.exists() and self.path.stat().st_size > 0
        self._sink = NdjsonFileSink(self.path, flush_each=True)
        if not existed:
            self._append(
                {"kind": "header", "version": JOB_JOURNAL_VERSION}
            )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._sink.emit(record)

    def record_submitted(
        self,
        job_id: str,
        fingerprint: str,
        spec: Dict[str, Any],
        points_total: int,
    ) -> None:
        self._append(
            {
                "kind": "submitted",
                "job": job_id,
                "fingerprint": fingerprint,
                "spec": spec,
                "points_total": points_total,
            }
        )

    def record_started(self, job_id: str) -> None:
        self._append({"kind": "started", "job": job_id})

    def record_point(self, job_id: str, done: int, total: int) -> None:
        self._append(
            {"kind": "point", "job": job_id, "done": done, "total": total}
        )

    def record_done(
        self, job_id: str, hits: int, executed_points: int
    ) -> None:
        self._append(
            {
                "kind": "done",
                "job": job_id,
                "hits": hits,
                "executed_points": executed_points,
            }
        )

    def record_failed(self, job_id: str, error: str) -> None:
        self._append({"kind": "failed", "job": job_id, "error": error})

    def record_timed_out(
        self, job_id: str, deadline_s: float, error: Optional[str] = None
    ) -> None:
        """Journal a watchdog kill: the overrun budget and its reason."""
        self._append(
            {
                "kind": "timed-out",
                "job": job_id,
                "deadline_s": deadline_s,
                "error": error,
            }
        )

    def record_drain(self, in_flight: int, clean: bool) -> None:
        self._append(
            {"kind": "drain", "in_flight": in_flight, "clean": clean}
        )

    def close(self) -> None:
        with self._lock:
            self._sink.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def replay_jobs(path: PathLike) -> Dict[str, Job]:
    """Reconstruct the job table from a journal (id → job, in order).

    A missing or empty file replays to an empty table.  Torn final
    lines are dropped by the shared NDJSON reader; records referencing
    jobs whose ``submitted`` line was lost to a tear are skipped (the
    spec is gone, so the job cannot be re-run anyway).
    """
    jobs: Dict[str, Job] = {}
    records = read_ndjson(path)
    if not records:
        return jobs
    if records[0].get("kind") != "header":
        raise JobJournalError(
            f"job journal {path} has no header record; refusing to replay"
        )
    for record in records[1:]:
        kind = record.get("kind")
        job_id = record.get("job")
        if not isinstance(job_id, str):
            continue
        if kind == "submitted":
            spec = record.get("spec")
            fingerprint = record.get("fingerprint")
            if not isinstance(spec, dict) or not isinstance(
                fingerprint, str
            ):
                continue
            jobs[job_id] = Job(
                id=job_id,
                fingerprint=fingerprint,
                spec=spec,
                points_total=int(record.get("points_total", 0)),
            )
            continue
        job = jobs.get(job_id)
        if job is None:
            continue
        if kind == "started":
            job.state = "running"
        elif kind == "point":
            job.points_done = int(record.get("done", job.points_done))
            job.points_total = int(record.get("total", job.points_total))
        elif kind == "done":
            job.state = "done"
            job.points_done = job.points_total
            job.hits = int(record.get("hits", 0))
            job.executed_points = int(record.get("executed_points", 0))
            job.error = None
        elif kind == "failed":
            job.state = "failed"
            job.error = str(record.get("error", ""))
        elif kind == "timed-out":
            job.state = "timed-out"
            # Records written before the reason was journaled carry
            # only the budget.
            job.error = str(
                record.get("error")
                or f"deadline exceeded ({record.get('deadline_s')}s)"
            )
    return jobs


@dataclass
class JobClaims:
    """Cross-process per-fingerprint run claims next to the journal.

    ``claim`` exclusively creates ``<dir>/<fingerprint>`` containing
    the claimant's PID.  Losing the race means another live server
    owns the job; a claim owned by a dead process (``kill -9``) is
    stolen.
    """

    directory: Path
    _held: set = field(default_factory=set)
    #: Guards ``_held`` — claim/release run on the event loop, worker
    #: threads (job completion), and the drain thread concurrently.
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def for_journal(cls, journal_path: PathLike) -> "JobClaims":
        path = Path(journal_path)
        return cls(path.with_name(path.name + ".claims"))

    def _claim_path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint

    def claim(self, fingerprint: str) -> bool:
        """Try to become the runner for ``fingerprint``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._claim_path(fingerprint)
        for _ in range(2):  # second pass: retry after stealing a stale claim
            try:
                fd = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                if not self._stale(path):
                    return False
                # The owner is dead; steal the claim and race for the
                # re-create.  At most one stealer wins the O_EXCL.
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            with self._lock:
                self._held.add(fingerprint)
            return True
        return False

    @staticmethod
    def _stale(path: Path) -> bool:
        """True when the claim's owning process no longer exists."""
        try:
            pid = int(path.read_text(encoding="utf-8").strip() or "0")
        except (OSError, ValueError):
            # Unreadable or torn claim file: treat as stale.
            return True
        if pid <= 0:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - exists, not ours
            return False
        return False

    def release(self, fingerprint: str) -> None:
        """Drop a claim this instance holds (no-op otherwise)."""
        with self._lock:
            if fingerprint not in self._held:
                return
            self._held.discard(fingerprint)
        try:
            os.unlink(self._claim_path(fingerprint))
        except FileNotFoundError:
            pass

    def release_all(self) -> None:
        with self._lock:
            held = list(self._held)
        for fingerprint in held:
            self.release(fingerprint)


__all__ = [
    "JOB_JOURNAL_VERSION",
    "TERMINAL_STATES",
    "Job",
    "JobClaims",
    "JobJournal",
    "JobJournalError",
    "replay_jobs",
]
