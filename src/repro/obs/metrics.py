"""Metrics registry: counters and categorical histograms.

Design constraints, in priority order:

1. **Disabled is free.**  The default active registry is a
   :class:`NullMetrics` whose instruments are shared no-op singletons;
   an instrumented hot path pays two attribute calls and nothing else.
   Instrumentation in this codebase therefore sits on *rare* paths
   (a fault actually fired, a batch call completed) — never inside a
   per-access inner loop.
2. **Snapshots are plain data.**  :meth:`MetricsRegistry.snapshot`
   returns a :class:`MetricsSnapshot` of dicts of ints/floats — it
   pickles across :class:`concurrent.futures.ProcessPoolExecutor`
   boundaries, and :meth:`MetricsRegistry.merge` recombines worker
   snapshots *exactly* (integer addition per counter and per histogram
   key), so a fanned-out campaign reports the same totals as a serial
   one.
3. **Thread-safe.**  All mutators take the registry lock; these are
   rare-path updates, so the lock cost is irrelevant.

The module-level *active registry* is what instrumented library code
writes to::

    from repro.obs import active_metrics
    active_metrics().counter("faults.injected_bits").inc(3)

It defaults to the no-op registry; :func:`enable_metrics` swaps in a
real one, and :func:`scoped_metrics` swaps one in for a ``with`` block
on the calling thread (used by process-pool workers to capture their
own snapshot).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """Monotonic integer counter."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Histogram:
    """Categorical histogram: counts per string key.

    Covers the profiler's opcode/PC histograms (keys are opcode names
    or formatted PCs) and any other labelled tally.  Merging adds
    counts per key.
    """

    __slots__ = ("_lock", "buckets")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.buckets: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.buckets[key] = self.buckets.get(key, 0) + n


# ----------------------------------------------------------------------
# Snapshot (plain, picklable)
# ----------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """Frozen, picklable view of a registry's state."""

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain nested-dict form, ready for ``json.dumps``."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: dict(sorted(buckets.items()))
                for name, buckets in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict` (modulo key ordering).

        Lets a snapshot round-trip through JSON — the result store
        checkpoints worker snapshots this way, so a resumed campaign
        merges the *original* run's layer counters exactly.  Keys it
        does not know are ignored: rows written while snapshots also
        held ``gauges`` and ``timers`` still decode.
        """
        return cls(
            counters={
                str(name): int(value)
                for name, value in data.get("counters", {}).items()
            },
            histograms={
                str(name): {
                    str(key): int(n) for key, n in buckets.items()
                }
                for name, buckets in data.get("histograms", {}).items()
            },
        )


def format_snapshot(snapshot: MetricsSnapshot) -> str:
    """Human-readable multi-line rendering of a snapshot."""
    lines: list[str] = []
    for name, value in sorted(snapshot.counters.items()):
        lines.append(f"{name} = {value}")
    for name, buckets in sorted(snapshot.histograms.items()):
        top = sorted(buckets.items(), key=lambda kv: -kv[1])[:8]
        rendered = ", ".join(f"{k}:{v}" for k, v in top)
        more = len(buckets) - len(top)
        suffix = f" (+{more} more)" if more > 0 else ""
        lines.append(f"{name}: {rendered}{suffix}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Thread-safe named-instrument registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    def _get(
        self,
        table: dict[str, _T],
        name: str,
        factory: Callable[[threading.Lock], _T],
    ) -> _T:
        # Caller holds self._lock: lookup and insert are one atomic
        # step, so two threads asking for the same name always share
        # one instrument.
        instrument = table.get(name)
        if instrument is None:
            instrument = table.setdefault(name, factory(self._lock))
        return instrument

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._get(self._counters, name, Counter)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._get(self._histograms, name, Histogram)

    # ------------------------------------------------------------------
    # Snapshot / merge / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters={
                    name: c.value for name, c in self._counters.items()
                },
                histograms={
                    name: dict(h.buckets)
                    for name, h in self._histograms.items()
                },
            )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry, exactly."""
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, buckets in snapshot.histograms.items():
            histogram = self.histogram(name)
            for key, n in buckets.items():
                histogram.add(key, n)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# No-op registry (the cheap default)
# ----------------------------------------------------------------------
class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    buckets: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """Do-nothing registry; every instrument is a shared singleton."""

    enabled: bool = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge(self, snapshot: MetricsSnapshot) -> None:
        pass

    def reset(self) -> None:
        pass


NULL_METRICS = NullMetrics()

# ----------------------------------------------------------------------
# Active-registry plumbing
# ----------------------------------------------------------------------
_active: MetricsRegistry | NullMetrics = NULL_METRICS


class _ThreadScope(threading.local):
    """The registry :func:`scoped_metrics` installed on each thread.

    The class default keeps :func:`active_metrics` a plain attribute
    read on threads that never entered a scope: ``getattr`` with a
    default raises and catches inside, about 0.8 µs a call.
    """

    registry: MetricsRegistry | None = None


_scope = _ThreadScope()


def active_metrics() -> MetricsRegistry | NullMetrics:
    """The registry instrumented library code currently writes to: the
    calling thread's :func:`scoped_metrics` registry, else the
    process-wide one."""
    scoped = _scope.registry
    return _active if scoped is None else scoped


def enable_metrics(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Install (and return) a live registry as the active one."""
    global _active
    if registry is None:
        registry = MetricsRegistry()
    _active = registry
    return registry


def disable_metrics() -> None:
    """Restore the no-op default."""
    global _active
    _active = NULL_METRICS


@contextmanager
def scoped_metrics(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the calling thread's active one for the block.

    Process-pool workers wrap their unit of work in this so the
    instrumented layers below them write into a private registry whose
    snapshot travels back to the parent for an exact merge.  The swap
    is per thread: while a server's job thread runs a campaign under
    its own registry, the request threads keep writing to the
    process-wide one, so the snapshot holds that unit of work alone.
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = _scope.registry
    _scope.registry = registry
    try:
        yield registry
    finally:
        _scope.registry = previous
