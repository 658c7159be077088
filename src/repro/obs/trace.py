"""Span-based structured tracing with NDJSON sinks.

Three record kinds, one JSON object per line:

* ``span_start`` / ``span_end`` — a timed, nestable region opened with
  :meth:`Tracer.span`; the end record carries the measured duration
  and, if the body raised, the exception type.
* ``point`` — a structured record (:meth:`Tracer.point`); campaign
  outcome records use this so their counters sum exactly.
* ``event`` — a hot-path record (:meth:`Tracer.event`);
  fault-injection sites use this.  It carries the same fields as a
  point under its own kind, so a reader can tell per-access records
  from per-run ones.

The default active tracer is a :class:`NullTracer` whose ``span``
returns one shared no-op context manager — tracing that is off costs
an attribute call, not an object.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Protocol, Union


class TraceSink(Protocol):
    """Anything that accepts trace records.

    ``flush()`` pushes buffered records to durable storage without
    closing — called on abnormal exits (KeyboardInterrupt, pool worker
    death) so a torn trace file keeps every record emitted before the
    cut, which :func:`repro.obs.report.read_ndjson` then reads back.
    """

    def emit(self, record: dict[str, Any]) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class InMemorySink:
    """Collects event dicts in a list (tests, programmatic readers)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.events.append(record)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def ndjson_line(record: dict[str, Any]) -> str:
    """One record as a compact JSON line, newline included."""
    return json.dumps(record, separators=(",", ":")) + "\n"


class NdjsonFileSink:
    """Appends one JSON line per record to a file.

    The one NDJSON writer: traces, heartbeats, the store sidecar and
    the serve job journal all append through it.
    Each record is serialized first and written with a single
    ``write()``, so on an append-mode handle a record of any size lands
    in one system call and cannot interleave with another process's
    append (``json.dump`` would stream it in 8 KiB fragments).

    With ``flush_each=True`` every record is flushed as it is written
    (heartbeat files that external watchers tail, multi-writer logs);
    otherwise records ride the stdio buffer until
    :meth:`flush`/:meth:`close`.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        flush_each: bool = False,
    ) -> None:
        self.path = path
        self._flush_each = flush_each
        self._file = open(path, "a", encoding="utf-8")

    def emit(self, record: dict[str, Any]) -> None:
        self._file.write(ndjson_line(record))
        if self._flush_each:
            self._file.flush()

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


class StderrSink:
    """Writes NDJSON lines to stderr (ad-hoc debugging)."""

    def emit(self, record: dict[str, Any]) -> None:
        sys.stderr.write(ndjson_line(record))

    def flush(self) -> None:
        sys.stderr.flush()

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class _Span:
    """Context manager for one traced region."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = tracer._current_span_id()
        self._start = tracer.clock()
        tracer._emit(
            {
                "kind": "span_start",
                "name": name,
                "span": self.span_id,
                "parent": self.parent_id,
                "t": self._start,
                **attrs,
            }
        )

    def __enter__(self) -> "_Span":
        self._tracer._push(self.span_id)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._tracer._pop()
        end = self._tracer.clock()
        record: dict[str, Any] = {
            "kind": "span_end",
            "name": self.name,
            "span": self.span_id,
            "t": end,
            "dur_s": end - self._start,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._tracer._emit(record)
        return False


class _OpenSpans(threading.local):
    """The ids of one thread's open spans, innermost last."""

    def __init__(self) -> None:
        self.ids: list[int] = []


class Tracer:
    """Emits structured records to one sink.

    Each thread nests its spans on a stack of its own, so a span's
    ``parent`` is the innermost span open on the same thread; span ids
    are unique across threads.

    Parameters
    ----------
    sink:
        Any object with ``emit(dict)`` / ``close()``.
    clock:
        Timestamp source (seconds); injectable for tests.
    """

    def __init__(
        self,
        sink: TraceSink,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self._ids = itertools.count(1)
        self._open = _OpenSpans()

    enabled: bool = True

    # -- internals ------------------------------------------------------
    def _next_id(self) -> int:
        return next(self._ids)

    def _current_span_id(self) -> int | None:
        ids = self._open.ids
        return ids[-1] if ids else None

    def _push(self, span_id: int) -> None:
        self._open.ids.append(span_id)

    def _pop(self) -> None:
        self._open.ids.pop()

    def _emit(self, record: dict[str, Any]) -> None:
        self.sink.emit(record)

    # -- public API -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a timed, nestable region (use as a context manager)."""
        return _Span(self, name, attrs)

    def point(self, name: str, **attrs: Any) -> None:
        """Emit one structured record."""
        self._record("point", name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one hot-path record (kind ``event``)."""
        self._record("event", name, attrs)

    def _record(self, kind: str, name: str, attrs: dict[str, Any]) -> None:
        self._emit(
            {
                "kind": kind,
                "name": name,
                "span": self._current_span_id(),
                "t": self.clock(),
                **attrs,
            }
        )

    def flush(self) -> None:
        """Push buffered records durable without closing the sink.

        Tolerates legacy sinks that predate ``TraceSink.flush``.
        """
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        self.sink.close()


# ----------------------------------------------------------------------
# No-op tracer (the cheap default)
# ----------------------------------------------------------------------
class _NullSpan:
    __slots__ = ()
    name: None = None
    span_id: None = None
    parent_id: None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer; ``span`` returns one shared context."""

    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def point(self, name: str, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

# ----------------------------------------------------------------------
# Active-tracer plumbing
# ----------------------------------------------------------------------
_active: Tracer | NullTracer = NULL_TRACER


def active_tracer() -> Tracer | NullTracer:
    """The tracer instrumented library code currently emits to."""
    return _active


def enable_tracing(
    sink_or_path: Union[TraceSink, str, "os.PathLike[str]"],
    clock: Callable[[], float] = time.perf_counter,
) -> Tracer:
    """Install (and return) a live tracer.

    ``sink_or_path`` may be a sink object or a filesystem path, in
    which case an :class:`NdjsonFileSink` is opened on it.
    """
    global _active
    sink: TraceSink = (
        NdjsonFileSink(sink_or_path)
        if isinstance(sink_or_path, (str, os.PathLike))
        else sink_or_path
    )
    _active = Tracer(sink, clock=clock)
    return _active


def disable_tracing() -> None:
    """Close the active tracer's sink and restore the no-op default."""
    global _active
    if _active is not NULL_TRACER:
        _active.close()
    _active = NULL_TRACER
