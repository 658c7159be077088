"""Append-safe content-addressed result store.

SQLite (stdlib ``sqlite3``) holds one row per campaign point, keyed by
the point's provenance fingerprint (:mod:`repro.store.keys`).  Three
layers of safety sit on top of the database file:

* **NDJSON sidecar** — every ``put`` also appends the full record to
  ``<store>.ndjson`` through the sanctioned
  :class:`~repro.obs.trace.NdjsonFileSink` serializer.  The sidecar is
  the recovery source *and* the portable interchange format
  (:meth:`ResultStore.export_ndjson` / :meth:`import_ndjson`); its
  reader tolerates a torn final line, so a crash mid-append loses at
  most the record being written.
* **Torn-write recovery on open** — if the SQLite file fails its
  integrity probe (truncated or corrupted by a torn write), the broken
  file is set aside as ``<store>.corrupt`` and the store is rebuilt
  from the sidecar.  A missing database next to a non-empty sidecar
  rebuilds the same way.
* **Probe-time verification** — every database hit re-fingerprints the
  stored provenance; a mismatch means the row is lying about its key,
  so it is deleted and reported as a miss (``store.corrupt_entries``).

An in-process LRU front cache short-circuits repeated probes without
touching SQLite.  Behind it, each thread keeps one SQLite connection
per store, reused only while the store path still names the file it
was opened on: every operation compares the path's ``st_dev`` and
``st_ino`` with the opened file's, so a sibling's torn-write recovery
or an outside ``os.replace`` is seen by the next operation.  A
connection holds no transaction or lock between operations (every
write commits; an exception closes it, which rolls back whatever it
left open), so concurrent writers — threads, or processes sharing one
store file — still serialize through SQLite's own locking.  A thread's
connection closes when the thread ends or the store is dropped.  The
journal mode and ``synchronous`` level are SQLite's defaults
(rollback journal, ``FULL``), so an acknowledged ``put`` is durable.
Process-pool workers never touch a store: the executor probes and
publishes from the parent, so no connection is used across a ``fork``.

The store is deliberately clock-free and identity-free: no wall-clock,
PID, hostname or OS entropy anywhere (rule ``REP103``), so ``gc`` is
insertion-order based (keep the newest N rows), not age-based.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import active_metrics, active_tracer, names
from repro.obs.report import read_ndjson
from repro.obs.trace import NdjsonFileSink
from repro.store.keys import PointKey, canonical_json, fingerprint_payload

PathLike = Union[str, "os.PathLike[str]"]

#: Store file layout version (table shape + record fields).
STORE_SCHEMA = 1

_CREATE = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    provenance TEXT NOT NULL,
    payload TEXT NOT NULL,
    schema INTEGER NOT NULL
)
"""

#: Stat keys mirror the registered ``store.*`` counter family.
_STAT_KEYS = tuple(sorted(names.STORE_METRIC_FIELDS))


class ResultStore:
    """Content-addressed campaign result store with an LRU front cache."""

    def __init__(
        self,
        path: PathLike,
        lru_capacity: int = 1024,
    ) -> None:
        self.path = Path(path)
        self.sidecar_path = self.path.with_name(self.path.name + ".ndjson")
        if lru_capacity < 0:
            raise ValueError("lru_capacity must be non-negative")
        self.lru_capacity = int(lru_capacity)
        self._lru: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: Dict[str, threading.Event] = {}
        self._stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        # Per thread: ``link``, the thread's :class:`_Link` to the file.
        self._local = threading.local()
        self._open()

    # ------------------------------------------------------------------
    # Lifecycle / recovery
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """The calling thread's connection, for one operation.

        It is reopened when the path no longer names the file it was
        opened on.  The identity is read before connecting, so a file
        swapped in between costs one more reconnect, never a stale
        read.  An exception closes the connection, which discards any
        transaction the operation left open, with its locks.
        """
        identity = _file_identity(self.path)
        local = self._local
        link = getattr(local, "link", None)
        if link is None or identity is None or identity != link.identity:
            if link is not None:
                link.conn.close()
            link = local.link = _Link(
                sqlite3.connect(
                    str(self.path), timeout=30.0, check_same_thread=False
                ),
                identity,
            )
        try:
            yield link.conn
        except BaseException:
            local.link = None
            link.conn.close()
            raise

    def _open(self) -> None:
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        try:
            with self._connection() as conn:
                conn.execute(_CREATE)
                row = conn.execute("SELECT COUNT(*) FROM results").fetchone()
                conn.commit()
        except sqlite3.DatabaseError:
            self._recover("sqlite-corrupt")
            return
        rows = int(row[0])
        if not existed or rows == 0:
            # Database lost (or freshly created) next to an existing
            # sidecar: rebuild silently from the append log.
            if self.sidecar_path.exists():
                imported = self._import_records(
                    read_ndjson(self.sidecar_path), append_sidecar=False
                )
                if imported:
                    self._count("recoveries")
                    active_tracer().point(
                        names.POINT_STORE_RECOVERY,
                        reason="sidecar-rebuild",
                        recovered=imported,
                        path=str(self.path),
                    )

    def _recover(self, reason: str) -> None:
        """Set the broken database aside and rebuild from the sidecar."""
        corrupt = self.path.with_name(self.path.name + ".corrupt")
        if self.path.exists():
            os.replace(self.path, corrupt)
        with self._connection() as conn:
            conn.execute(_CREATE)
            conn.commit()
        recovered = self._import_records(
            read_ndjson(self.sidecar_path), append_sidecar=False
        )
        self._count("recoveries")
        active_tracer().point(
            names.POINT_STORE_RECOVERY,
            reason=reason,
            recovered=recovered,
            path=str(self.path),
        )

    # ------------------------------------------------------------------
    # Core probe / publish
    # ------------------------------------------------------------------
    def get(self, key: PointKey) -> Optional[Dict[str, Any]]:
        """Return the stored payload for ``key``, or ``None`` on miss."""
        fingerprint = key.fingerprint()
        with self._lock:
            payload = self._lru.get(fingerprint)
            if payload is not None:
                self._lru.move_to_end(fingerprint)
                self._count("hits", "front_hits")
                return payload
        with self._connection() as conn:
            row = conn.execute(
                "SELECT provenance, payload FROM results "
                "WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                self._count("misses")
                return None
            provenance = json.loads(row[0])
            if fingerprint_payload(provenance) != fingerprint:
                # The row's provenance no longer hashes to its key:
                # the entry is corrupt.  Drop it and report a miss.
                conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                )
                conn.commit()
                self._count("corrupt_entries", "misses")
                return None
            payload = json.loads(row[1])
        assert isinstance(payload, dict)
        with self._lock:
            self._lru_insert(fingerprint, payload)
        self._count("hits")
        return payload

    def put(self, key: PointKey, payload: Dict[str, Any]) -> str:
        """Publish ``payload`` under ``key``; returns the fingerprint."""
        fingerprint = key.fingerprint()
        provenance = key.provenance()
        record = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "kind": key.kind,
            "provenance": provenance,
            "payload": payload,
        }
        with self._connection() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, kind, provenance, payload, schema) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    key.kind,
                    canonical_json(provenance),
                    canonical_json(payload),
                    STORE_SCHEMA,
                ),
            )
            conn.commit()
        sink = NdjsonFileSink(self.sidecar_path, flush_each=True)
        try:
            sink.emit(record)
        finally:
            sink.close()
        with self._lock:
            self._lru_insert(fingerprint, payload)
        self._count("puts")
        return fingerprint

    def _lru_insert(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        if self.lru_capacity == 0:
            return
        self._lru[fingerprint] = payload
        self._lru.move_to_end(fingerprint)
        while len(self._lru) > self.lru_capacity:
            self._lru.popitem(last=False)
            self._count("evictions")

    # ------------------------------------------------------------------
    # In-flight deduplication
    # ------------------------------------------------------------------
    def fetch_or_compute(
        self,
        key: PointKey,
        compute: Callable[[], Optional[Dict[str, Any]]],
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Return ``(payload, was_cached)``, computing at most once.

        Identical concurrent calls in one process collapse onto a
        single computation: the first caller claims the key, computes
        and publishes; the rest block on its in-flight event and
        re-probe.  ``compute`` may return ``None`` to publish nothing
        (this caller then gets ``(None, False)``); if it does, or if
        the owner fails, one waiter takes over.
        """
        fingerprint = key.fingerprint()
        while True:
            payload = self.get(key)
            if payload is not None:
                return payload, True
            with self._lock:
                event = self._inflight.get(fingerprint)
                if event is None:
                    event = self._inflight[fingerprint] = threading.Event()
                    break
            self._count("inflight_waits")
            event.wait()
        try:
            payload = compute()
            if payload is not None:
                self.put(key, payload)
        finally:
            with self._lock:
                del self._inflight[fingerprint]
            event.set()
        return payload, False

    # ------------------------------------------------------------------
    # Import / export / maintenance
    # ------------------------------------------------------------------
    def export_ndjson(self, path: PathLike) -> int:
        """Write every row (insertion order) to ``path``; returns count."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT fingerprint, kind, provenance, payload, schema "
                "FROM results ORDER BY rowid"
            ).fetchall()
        # Truncate, then append through the sanctioned serializer.
        open(path, "w", encoding="utf-8").close()
        sink = NdjsonFileSink(path, flush_each=False)
        try:
            for fingerprint, kind, provenance, payload, schema in rows:
                sink.emit(
                    {
                        "schema": int(schema),
                        "fingerprint": fingerprint,
                        "kind": kind,
                        "provenance": json.loads(provenance),
                        "payload": json.loads(payload),
                    }
                )
        finally:
            sink.close()
        self._count("exported", n=len(rows))
        return len(rows)

    def import_ndjson(self, path: PathLike) -> int:
        """Merge records from an NDJSON export; returns imported count.

        Records whose stored fingerprint does not match their
        provenance are skipped (and counted as corrupt), so a tampered
        or torn export can never poison the store.
        """
        return self._import_records(read_ndjson(path), append_sidecar=True)

    def _import_records(
        self, records: List[Dict[str, Any]], append_sidecar: bool
    ) -> int:
        imported = 0
        for record in records:
            provenance = record.get("provenance")
            payload = record.get("payload")
            fingerprint = record.get("fingerprint")
            kind = record.get("kind")
            if (
                not isinstance(provenance, dict)
                or not isinstance(payload, dict)
                or not isinstance(fingerprint, str)
                or not isinstance(kind, str)
            ):
                self._count("corrupt_entries")
                continue
            if fingerprint_payload(provenance) != fingerprint:
                self._count("corrupt_entries")
                continue
            key = PointKey(kind=kind, provenance_json=canonical_json(provenance))
            if append_sidecar:
                self.put(key, payload)
            else:
                with self._connection() as conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO results "
                        "(fingerprint, kind, provenance, payload, schema) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (
                            fingerprint,
                            kind,
                            canonical_json(provenance),
                            canonical_json(payload),
                            int(record.get("schema", STORE_SCHEMA)),
                        ),
                    )
                    conn.commit()
            imported += 1
        if append_sidecar:
            self._count("imported", n=imported)
        return imported

    def entries(self) -> List[Dict[str, Any]]:
        """Row summaries in insertion order (``repro cache ls``)."""
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT fingerprint, kind, provenance FROM results "
                "ORDER BY rowid"
            ).fetchall()
        return [
            {
                "fingerprint": fingerprint,
                "kind": kind,
                "provenance": json.loads(provenance),
            }
            for fingerprint, kind, provenance in rows
        ]

    def __len__(self) -> int:
        with self._connection() as conn:
            row = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def gc(self, keep: int) -> int:
        """Keep the newest ``keep`` rows (insertion order), drop the rest.

        Clock-free by design: eviction is by insertion recency, not
        age, so the store never needs a timestamp.  The sidecar is
        rewritten to match the surviving rows.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        with self._connection() as conn:
            removed_rows = conn.execute(
                "SELECT fingerprint FROM results ORDER BY rowid DESC "
                "LIMIT -1 OFFSET ?",
                (keep,),
            ).fetchall()
            conn.executemany(
                "DELETE FROM results WHERE fingerprint = ?",
                removed_rows,
            )
            conn.commit()
        removed = len(removed_rows)
        with self._lock:
            for (fingerprint,) in removed_rows:
                self._lru.pop(fingerprint, None)
        self.export_ndjson(self.sidecar_path)
        self._count("gc_removed", n=removed)
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cumulative operation counters plus the current row count."""
        with self._lock:
            snapshot = dict(self._stats)
            front_cache_entries = len(self._lru)
        snapshot["rows"] = len(self)
        snapshot["front_cache_entries"] = front_cache_entries
        return snapshot

    def _count(self, *stats: str, n: int = 1) -> None:
        """Add ``n`` to each of ``stats`` and to its ``store.*`` counter."""
        if n == 0:
            return
        metrics = active_metrics()
        with self._lock:
            for stat in stats:
                self._stats[stat] += n
                metrics.counter(names.store_metric(stat)).inc(n)


class _Link:
    """One thread's connection to a store, and the file it opened.

    The connection closes when its link is dropped: when the store
    replaces it, when its thread ends, or when the store goes.  A
    ``sqlite3`` connection sits in a reference cycle (its statement
    cache), so it would otherwise stay open until the cyclic collector
    ran.  Only the owning thread uses the connection, but the thread
    that drops the store may close it, hence ``check_same_thread=False``.
    """

    __slots__ = ("conn", "identity")

    def __init__(
        self, conn: sqlite3.Connection, identity: Optional[Tuple[int, int]]
    ) -> None:
        self.conn = conn
        self.identity = identity

    def __del__(self) -> None:
        self.conn.close()


def _file_identity(path: Path) -> Optional[Tuple[int, int]]:
    """``(st_dev, st_ino)`` of the file ``path`` names; None if missing."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        return None
    return status.st_dev, status.st_ino


__all__ = ["STORE_SCHEMA", "ResultStore"]
