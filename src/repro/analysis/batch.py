"""Array-oriented Monte-Carlo campaign runner.

The paper's headline exhibits are statistical sweeps: Figure 5 counts
access errors per voltage point and Figure 4 aggregates retention
failures over nine dies.  This module drives both batch-first (the
platform failure-rate campaigns live in
:mod:`repro.analysis.campaign`):

* whole voltage grids are evaluated per vectorized call (the per-point
  Bernoulli matrices are drawn in chunks and counted by numpy);
* every grid point / die derives its own child RNG stream from one
  master seed, so campaigns are reproducible *and* parallelizable;
* dies optionally fan out across a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Each vectorized kernel has a scalar reference (the pre-batch per-access
loop) consuming the identical RNG stream, so batch results are
*bit-exact* against the scalar paths under fixed seeds — the perf
harness in ``benchmarks/perf/`` asserts exactly that before it times
anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.access import AccessErrorModel
from repro.core.retention import RetentionModel
from repro.memdev.array import MemoryArray
from repro.obs import MetricsSnapshot, active_metrics, active_tracer, names, scoped_metrics
from repro.resilience import ChaosPolicy, ResilientExecutor, TaskSpec


@dataclass(frozen=True)
class AccessBerGrid:
    """One Figure-5-style sweep: error counts over a voltage grid."""

    voltages: np.ndarray
    errors: np.ndarray
    accesses: int
    bits: int

    @property
    def bits_per_point(self) -> int:
        return self.accesses * self.bits

    @property
    def bit_error_rates(self) -> np.ndarray:
        return self.errors / float(self.bits_per_point)


def _die_failure_counts(args) -> tuple:
    """Per-die worker: failing-bit counts over the voltage grid.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.
    Returns ``(counts, metrics_snapshot)``; the snapshot carries the
    worker's instrumented-layer counters back for an exact merge.
    """
    retention, access_model, words, bits, child_seed, voltages = args
    with scoped_metrics() as registry:
        array = MemoryArray(
            words, bits, retention, access_model,
            rng=np.random.default_rng(child_seed),
        )
        vmin = np.sort(array.retention_vmin_map().ravel())
        counts = vmin.size - np.searchsorted(vmin, voltages, side="right")
        registry.counter(names.BATCH_DIE_CELLS).inc(words * bits)
    return counts, registry.snapshot()


def _encode_die(outcome) -> dict:
    """JSON-safe store form of one :func:`_die_failure_counts` tuple."""
    counts, snapshot = outcome
    return {
        "counts": [int(n) for n in np.asarray(counts).ravel()],
        "metrics": snapshot.as_dict(),
    }


def _decode_die(data: dict) -> tuple:
    """Inverse of :func:`_encode_die` (exact integer round-trip)."""
    return (
        np.asarray(data["counts"], dtype=np.int64),
        MetricsSnapshot.from_dict(data["metrics"]),
    )


class BatchCampaign:
    """Vectorized campaign driver with per-point child RNG streams.

    Parameters
    ----------
    seed:
        Master seed.  Every voltage point and every die derives an
        independent child stream from ``(seed, index)``, which makes
        grid evaluation order-independent — a prerequisite for process
        fan-out.  ``None`` draws a fresh master seed from the OS.
    processes:
        When > 1, per-die work fans out across a process pool.
    """

    def __init__(
        self,
        seed: int | None = None,
        processes: int | None = None,
    ) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % (2**63)  # repro: noqa[REP101] seed=None asks for a fresh master seed; it is recorded on self.seed for replay
        self.seed = int(seed)
        self.processes = processes

    def _point_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, index))

    # ------------------------------------------------------------------
    # Figure 5: access-error campaigns
    # ------------------------------------------------------------------
    #: Row block of the Bernoulli matrices, in doubles.
    CHUNK_DOUBLES = 1 << 20

    def _count_point_errors(
        self,
        access_model: AccessErrorModel,
        vdd: float,
        accesses: int,
        bits: int,
        index: int,
    ) -> int:
        """Error count of one grid point (chunked Bernoulli draws).

        The child stream ``default_rng((seed, index))`` draws its
        doubles in C order, so the count is independent of the chunk
        split — which is why chunking is not part of the point's cache
        key.
        """
        p_bit = access_model.bit_error_probability(vdd)
        if p_bit == 0.0:
            return 0
        rng = self._point_rng(index)
        chunk = max(1, self.CHUNK_DOUBLES // bits)
        errors = 0
        done = 0
        while done < accesses:
            rows = min(chunk, accesses - done)
            errors += int(np.count_nonzero(rng.random((rows, bits)) < p_bit))
            done += rows
        return errors

    def access_ber_grid(
        self,
        access_model: AccessErrorModel,
        voltages: np.ndarray,
        accesses: int,
        bits: int = 32,
        store=None,
    ) -> AccessBerGrid:
        """Quasi-static RW shmoo over a whole voltage grid, vectorized.

        With ``store`` (a :class:`~repro.store.ResultStore`) each grid
        point is content-addressed by
        :func:`repro.store.keys.fig5_point_keys`; warm points are served
        from the store, misses execute the chunked Bernoulli loop and
        publish their count, and the assembled grid is bit-identical to
        a cold run for any mix of cached and fresh points (the stored
        value *is* the exact integer error count).
        """
        voltages = np.asarray(voltages, dtype=float)
        errors = np.zeros(voltages.shape, dtype=np.int64)
        keys = None
        if store is not None:
            from repro.store.keys import fig5_point_keys

            keys = fig5_point_keys(
                access_model, accesses, bits, self.seed,
                enumerate(voltages.tolist()),
            )
        with active_tracer().span(
            names.SPAN_BATCH_ACCESS_BER_GRID,
            points=int(voltages.size),
            accesses=accesses,
            bits=bits,
            seed=self.seed,
        ):
            for i, vdd in enumerate(voltages):
                if keys is not None:
                    payload, _cached = store.fetch_or_compute(
                        keys[i],
                        lambda i=i, vdd=vdd: {
                            "errors": self._count_point_errors(
                                access_model, float(vdd), accesses, bits, i
                            )
                        },
                    )
                    errors[i] = int(payload["errors"])
                else:
                    errors[i] = self._count_point_errors(
                        access_model, float(vdd), accesses, bits, i
                    )
        metrics = active_metrics()
        metrics.counter(names.BATCH_GRID_POINTS).inc(int(voltages.size))
        metrics.counter(names.BATCH_GRID_ACCESSES).inc(
            int(voltages.size) * accesses
        )
        metrics.counter(names.BATCH_GRID_ERRORS).inc(int(errors.sum()))
        return AccessBerGrid(
            voltages=voltages, errors=errors, accesses=accesses, bits=bits
        )

    def access_ber_grid_scalar(
        self,
        access_model: AccessErrorModel,
        voltages: np.ndarray,
        accesses: int,
        bits: int = 32,
    ) -> AccessBerGrid:
        """Per-access reference loop of :meth:`access_ber_grid`.

        Consumes the identical child RNG streams one access at a time;
        bit-exact with the vectorized grid under the same seed.  Kept
        as the correctness oracle and the scalar baseline of the perf
        harness.
        """
        voltages = np.asarray(voltages, dtype=float)
        errors = np.zeros(voltages.shape, dtype=np.int64)
        for i, vdd in enumerate(voltages):
            p_bit = access_model.bit_error_probability(float(vdd))
            if p_bit == 0.0:
                continue
            rng = self._point_rng(i)
            for _ in range(accesses):
                errors[i] += int(np.count_nonzero(rng.random(bits) < p_bit))
        return AccessBerGrid(
            voltages=voltages, errors=errors, accesses=accesses, bits=bits
        )

    # ------------------------------------------------------------------
    # Figure 4: multi-die retention campaigns
    # ------------------------------------------------------------------
    def retention_failure_curve(
        self,
        base_retention: RetentionModel,
        access_model: AccessErrorModel,
        voltages: np.ndarray,
        n_dies: int = 9,
        words: int = 1024,
        bits: int = 32,
        die_sigma_v: float = 0.015,
        max_retries: int = 3,
        task_timeout: float | None = None,
        chaos: ChaosPolicy | None = None,
        store=None,
    ) -> np.ndarray:
        """Cumulative retention-failure probability over ``voltages``.

        Reproduces :meth:`repro.memdev.die.DiePopulation` bit-exactly
        for the same master seed (identical offset and per-die stream
        derivation), but builds the dies independently so they can fan
        out across a process pool.

        Per-die execution is resilient: worker death, deadlines
        (``task_timeout``) and exceptions retry up to ``max_retries``
        times.  A die quarantined after exhausting its retries raises
        ``RuntimeError`` rather than silently skewing the population
        curve.

        With ``store`` each die is content-addressed by
        :func:`repro.store.keys.retention_die_key`: the executor skips
        stored dies (their payload — counts plus metrics snapshot — is
        decoded from the store) and publishes each fresh die as it
        lands, so even a run that raises on a quarantined die leaves
        its completed dies behind for the next run.  The assembled
        curve and the merged metrics are bit-identical to a cold run
        for any cached/fresh mix.
        """
        voltages = np.asarray(voltages, dtype=float)
        master = np.random.default_rng(self.seed)
        offsets = master.normal(0.0, die_sigma_v, size=n_dies)
        die_args = [
            (
                base_retention.shifted(float(offset)),
                access_model,
                words,
                bits,
                int(master.integers(2**63)),
                voltages,
            )
            for offset in offsets
        ]
        die_keys: list = [None] * n_dies
        if store is not None:
            from repro.store.keys import retention_die_key

            die_keys = [
                retention_die_key(
                    base_retention, access_model, words, bits, self.seed,
                    n_dies, die_sigma_v, die_index, voltages,
                )
                for die_index in range(n_dies)
            ]
        tasks = [
            TaskSpec(key=f"die-{die_index}", args=(args,), store_key=key)
            for die_index, (args, key) in enumerate(zip(die_args, die_keys))
        ]
        executor = ResilientExecutor(
            _die_failure_counts,
            processes=self.processes,
            max_retries=max_retries,
            task_timeout=task_timeout,
            chaos=chaos,
            encode=_encode_die,
            decode=_decode_die,
        )
        tracer = active_tracer()
        metrics = active_metrics()
        with tracer.span(
            names.SPAN_BATCH_RETENTION_FAILURE_CURVE,
            dies=n_dies,
            words=words,
            bits=bits,
            points=int(voltages.size),
            processes=self.processes or 1,
            seed=self.seed,
        ):
            report = executor.run(
                tasks, run_id=f"retention-curve-{self.seed}", store=store
            )
            if report.quarantined:
                raise RuntimeError(
                    "retention_failure_curve lost dies to quarantine: "
                    + ", ".join(
                        f"{key} ({reason})"
                        for key, reason in sorted(report.quarantined.items())
                    )
                )
            counts = []
            for die_index in range(n_dies):
                die_counts, snapshot = report.results[f"die-{die_index}"]
                counts.append(die_counts)
                metrics.merge(snapshot)
                tracer.point(
                    names.POINT_BATCH_DIE_COUNTS,
                    die=die_index,
                    worst_point_failures=int(die_counts.max()),
                )
        metrics.counter(names.BATCH_DIES).inc(n_dies)
        total_bits = n_dies * words * bits
        return np.sum(counts, axis=0) / float(total_bits)
