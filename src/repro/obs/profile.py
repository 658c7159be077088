"""Deterministic, sampling-free engine profiler — the one profiler.

All three execution engines — the scalar interpreter (``Cpu.run``), the
clean-burst :class:`~repro.soc.fastlane.FastLaneEngine` and the
lockstep :class:`~repro.soc.simd.LaneBlock` — carry instrumentation
that routes through the module-level *active profiler*, mirroring the
``active_metrics()`` / ``active_tracer()`` pattern:

* **One loop per engine.**  Each engine reads ``active_profiler()``
  once per run/burst/service and keeps its per-PC opcode tally in a
  local that is ``None`` when the profiler is off, so a disabled
  profiler costs one ``is not None`` test per instruction in the same
  loop that runs profiled — there is no separate profiled copy.
* **Enabled is bit-exactness-neutral.**  Recording methods only read
  already-committed architectural tallies (instruction/cycle deltas,
  opcode and PC counts accumulated in engine locals) and write them
  through :func:`~repro.obs.metrics.active_metrics` using the pinned
  names in :mod:`repro.obs.names` — no RNG draws, no port traffic, no
  wall-clock reads.  The differential fuzzers run with profiling on to
  prove outcomes, fault statistics and RNG positions stay
  bit-identical.
* **Sampling-free.**  Every committed instruction is tallied (in plain
  engine locals, published once per run/burst/service), so opcode
  mixes, PC histograms and lane histograms are exact, not estimates.

Because the numbers land in the ordinary metrics registry, profiler
output inherits everything metrics already do: picklable snapshots,
exact cross-process merging of pool-worker shards, and JSON round-trips
through the result store's campaign-task rows.

What the instruments mean:

* ``profile.fast_path.*`` — instructions/cycles committed by a burst
  (fast lane) or vector commit (SIMD).
* ``profile.slow_path.*`` — instructions/cycles executed by the
  faithful reference interpreter: fast-lane/SIMD slow steps, and the
  whole run when the scalar engine is selected.
* ``profile.opcode`` / ``profile.pc`` — exact opcode mix and per-PC
  execution counts (labels ``0x0000``-style) of scalar-engine runs plus
  all fast-path committed instructions (slow-step opcodes are not
  decoded twice, so the rare replayed instruction is counted in
  residency but not in these two histograms).
* ``profile.fastlane.*`` / ``profile.writeback.*`` /
  ``profile.settlement.*`` — burst-length histogram, encoded
  write-back and fault-settlement costs.
* ``profile.simd.*`` — per-service-round lane telemetry: occupancy of
  the min-PC group, mask density (occupancy / active lanes, decile
  buckets), divergence (distinct PCs) and reconvergence depth
  (``max(pc) - min(pc)``, power-of-two buckets).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs import names
from repro.obs.metrics import active_metrics

#: Engine-kind labels for the ``profile.engine`` histogram.
ENGINE_SCALAR = "scalar"
ENGINE_FAST_LANE = "fastlane"
ENGINE_SIMD = "simd"


def pow2_bucket(n: int) -> str:
    """Power-of-two histogram bucket label for a non-negative count.

    ``0`` and ``1`` get their own buckets; larger values land in
    ``"2-3"``, ``"4-7"``, ``"8-15"``, ... so histograms over widely
    varying counts (burst lengths, reconvergence depths) stay readable.
    """
    if n <= 1:
        return "0" if n <= 0 else "1"
    low = 1 << (n.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


def ratio_bucket(part: int, whole: int) -> str:
    """Decile bucket label for ``part / whole`` (mask density)."""
    if whole <= 0:
        return "0-10%"
    decile = min(9, (10 * part) // whole)
    return f"{10 * decile}-{10 * (decile + 1)}%"


class EngineProfiler:
    """Records engine-level cost breakdowns into the active metrics.

    All methods are *rare-path*: engines call them once per run, burst,
    settlement or service — never per instruction — with tallies they
    accumulated in plain locals.
    """

    enabled: bool = True

    def record_engine(self, kind: str) -> None:
        """Attribute one platform run to its execution engine."""
        active_metrics().histogram(names.PROFILE_ENGINE).add(kind)

    def record_opcodes(self, opcodes: Mapping[str, int]) -> None:
        """Fold a mnemonic -> count tally into the opcode mix."""
        histogram = active_metrics().histogram(names.PROFILE_OPCODE)
        for mnemonic, count in opcodes.items():
            histogram.add(mnemonic, count)

    def record_pcs(self, pcs: Mapping[int, int]) -> None:
        """Fold a pc -> executed-count tally into ``profile.pc``."""
        histogram = active_metrics().histogram(names.PROFILE_PC)
        for pc, count in pcs.items():
            histogram.add(f"{pc:#06x}", count)

    def record_burst(self, instructions: int, cycles: int) -> None:
        """One fast-lane burst's committed instructions and cycles.

        Zero-length bursts are recorded too: their ``"0"`` bucket in
        the burst-length histogram is the direct measure of slow-path
        pressure (every one of them forced a reference step).
        """
        metrics = active_metrics()
        metrics.counter(names.PROFILE_BURSTS).inc()
        if instructions:
            metrics.counter(names.PROFILE_FAST_INSTRUCTIONS).inc(
                instructions
            )
            metrics.counter(names.PROFILE_FAST_CYCLES).inc(cycles)
        metrics.histogram(names.PROFILE_BURST_LENGTH).add(
            pow2_bucket(instructions)
        )

    def record_slow_path(self, instructions: int, cycles: int) -> None:
        """Reference-interpreter residency (slow steps, scalar runs)."""
        if instructions == 0 and cycles == 0:
            return
        metrics = active_metrics()
        metrics.counter(names.PROFILE_SLOW_INSTRUCTIONS).inc(instructions)
        metrics.counter(names.PROFILE_SLOW_CYCLES).inc(cycles)

    def record_settlement(self, reads: int, writes: int) -> None:
        """One bulk fault-settlement (gap consumption + counters)."""
        metrics = active_metrics()
        metrics.counter(names.PROFILE_SETTLEMENTS).inc()
        if reads:
            metrics.counter(names.PROFILE_SETTLED_READS).inc(reads)
        if writes:
            metrics.counter(names.PROFILE_SETTLED_WRITES).inc(writes)

    def record_writeback(self, words: int, batched: bool) -> None:
        """One encoded write-back of dirty burst/vector stores."""
        metrics = active_metrics()
        metrics.counter(names.PROFILE_WRITEBACK_WORDS).inc(words)
        if batched:
            metrics.counter(names.PROFILE_WRITEBACK_BATCHES).inc()

    def record_simd_service(
        self,
        rounds: int,
        vector_instructions: int,
        occupancy: Mapping[str, int],
        density: Mapping[str, int],
        divergence: Mapping[str, int],
        depth: Mapping[str, int],
        vector_cycles: int = 0,
    ) -> None:
        """One SIMD service's accumulated per-round lane telemetry.

        ``vector_cycles`` counts the base cycles of vector-committed
        instructions; taken-branch bubble cycles land in the lanes'
        architectural counters but not here.
        """
        metrics = active_metrics()
        metrics.counter(names.PROFILE_SIMD_ROUNDS).inc(rounds)
        if vector_instructions:
            metrics.counter(names.PROFILE_FAST_INSTRUCTIONS).inc(
                vector_instructions
            )
        if vector_cycles:
            metrics.counter(names.PROFILE_FAST_CYCLES).inc(vector_cycles)
        for table_name, table in (
            (names.PROFILE_LANE_OCCUPANCY, occupancy),
            (names.PROFILE_MASK_DENSITY, density),
            (names.PROFILE_DIVERGENCE, divergence),
            (names.PROFILE_RECONVERGENCE_DEPTH, depth),
        ):
            histogram = metrics.histogram(table_name)
            for bucket, count in table.items():
                histogram.add(bucket, count)


class NullEngineProfiler:
    """Do-nothing profiler — the free default."""

    enabled: bool = False

    def record_engine(self, kind: str) -> None:
        pass

    def record_opcodes(self, opcodes: Mapping[str, int]) -> None:
        pass

    def record_pcs(self, pcs: Mapping[int, int]) -> None:
        pass

    def record_burst(self, instructions: int, cycles: int) -> None:
        pass

    def record_slow_path(self, instructions: int, cycles: int) -> None:
        pass

    def record_settlement(self, reads: int, writes: int) -> None:
        pass

    def record_writeback(self, words: int, batched: bool) -> None:
        pass

    def record_simd_service(
        self,
        rounds: int,
        vector_instructions: int,
        occupancy: Mapping[str, int],
        density: Mapping[str, int],
        divergence: Mapping[str, int],
        depth: Mapping[str, int],
        vector_cycles: int = 0,
    ) -> None:
        pass


NULL_PROFILER = NullEngineProfiler()

_active: EngineProfiler | NullEngineProfiler = NULL_PROFILER


def active_profiler() -> EngineProfiler | NullEngineProfiler:
    """The profiler engine instrumentation currently reports to."""
    return _active


def enable_profiling(
    profiler: EngineProfiler | None = None,
) -> EngineProfiler:
    """Install (and return) a live profiler as the active one.

    The profiler writes through :func:`active_metrics`, so enable a
    metrics registry too (or nothing is retained).
    """
    global _active
    if profiler is None:
        profiler = EngineProfiler()
    _active = profiler
    return profiler


def disable_profiling() -> None:
    """Restore the no-op default."""
    global _active
    _active = NULL_PROFILER


@contextmanager
def scoped_profiling(
    profiler: EngineProfiler | None = None,
) -> Iterator[EngineProfiler]:
    """Swap a live profiler in for the block, restoring on exit."""
    global _active
    if profiler is None:
        profiler = EngineProfiler()
    previous = _active
    _active = profiler
    try:
        yield profiler
    finally:
        _active = previous


__all__ = [
    "ENGINE_FAST_LANE",
    "ENGINE_SCALAR",
    "ENGINE_SIMD",
    "EngineProfiler",
    "NULL_PROFILER",
    "NullEngineProfiler",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "pow2_bucket",
    "ratio_bucket",
    "scoped_profiling",
]
