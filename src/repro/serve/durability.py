"""Durable job journal and cross-process claims for ``repro serve``.

The job server's in-memory job table is a cache, not the truth: every
job-state transition (submitted → started → point progress → done /
failed / timed-out) is appended to an NDJSON **job journal**, so a
server killed with ``SIGKILL`` reconstructs its job table on restart
by replaying the file and resumes incomplete jobs — warm, because the
completed points (and the completed runs of a half-finished point)
already live in the content-addressed store.  The journal holds the
job table, not completed work: that record is the store.

The file has *multiple* writers across restarts — and, transiently,
across concurrently restarted servers — so it appends through the
shared :class:`~repro.obs.trace.NdjsonFileSink`, which writes each
record with one ``write()`` on an append-mode handle (POSIX
``O_APPEND`` keeps whole-line appends from interleaving) and flushes it.
Replay reads through the shared :func:`~repro.obs.report.read_ndjson`,
which drops a half-written final line (the transition simply
re-derives on the next replay).

:class:`JobClaims` mirrors the store's in-flight dedup across
*processes*: before a restarted server re-runs a journaled job it must
claim the job's provenance fingerprint by exclusively creating
``<journal>.claims/<fingerprint>``.  A second server replaying the
same journal loses the ``O_EXCL`` race and leaves the job to the
winner.  Claim files carry the owning PID; a claim whose owner is dead
(the ``kill -9`` case) is stolen, so a crash never wedges a
fingerprint.
"""

from __future__ import annotations

import errno
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.report import read_ndjson
from repro.obs.trace import NdjsonFileSink

PathLike = Union[str, "os.PathLike[str]"]

JOB_JOURNAL_VERSION = 1

#: Job states that need no further work on replay.
TERMINAL_STATES = frozenset({"done", "failed", "timed-out"})


class JobJournalError(RuntimeError):
    """A job journal file could not be used."""


@dataclass
class JournaledJob:
    """One job's state as reconstructed from the journal."""

    id: str
    fingerprint: str
    spec: Dict[str, Any]
    state: str = "queued"
    points_done: int = 0
    points_total: int = 0
    hits: int = 0
    executed_points: int = 0
    error: Optional[str] = None

    @property
    def incomplete(self) -> bool:
        """True when the job still owes work after a replay."""
        return self.state not in TERMINAL_STATES


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

    def record_timed_out(self, job_id: str, deadline_s: float) -> None:
        self._append(
            {
                "kind": "timed-out",
                "job": job_id,
                "deadline_s": deadline_s,
            }
        )

    def record_drain(self, in_flight: int, clean: bool) -> None:
        self._append(
            {"kind": "drain", "in_flight": in_flight, "clean": clean}
        )

    def flush(self) -> None:
        with self._lock:
            self._sink.flush()

    def close(self) -> None:
        with self._lock:
            self._sink.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def replay_jobs(path: PathLike) -> Dict[str, JournaledJob]:
    """Reconstruct the job table from a journal (id → job, in order).

    A missing or empty file replays to an empty table.  Torn final
    lines are dropped by the shared NDJSON reader; records referencing
    jobs whose ``submitted`` line was lost to a tear are skipped (the
    spec is gone, so the job cannot be re-run anyway).
    """
    jobs: Dict[str, JournaledJob] = {}
    records = read_ndjson(path)
    if not records:
        return jobs
    if records[0].get("kind") != "header":
        raise JobJournalError(
            f"job journal {path} has no header record; refusing to replay"
        )
    for record in records[1:]:
        kind = record.get("kind")
        if kind == "drain":
            continue
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
            jobs[job_id] = JournaledJob(
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
            job.error = (
                f"deadline exceeded ({record.get('deadline_s')}s)"
            )
    return jobs


@dataclass
class JobClaims:
    """Cross-process per-fingerprint run claims next to the journal.

    ``claim`` exclusively creates ``<dir>/<fingerprint>`` containing
    the claimant's PID.  Losing the race means another live server
    owns the job; a claim owned by a dead process (``kill -9``) is
    stolen.  Claims are advisory and scoped to job *execution* — the
    store's own in-flight dedup still guards individual points.
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
    "JobClaims",
    "JobJournal",
    "JobJournalError",
    "JournaledJob",
    "replay_jobs",
]
