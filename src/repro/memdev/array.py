"""Monte-Carlo memory array — the unit under (virtual) test.

One :class:`MemoryArray` is one physical memory instance on one die.
At construction every cell draws its minimal retention voltage from the
population model (plus an optional systematic across-die gradient, which
is what makes the Figure 3 maps show regional structure rather than
pure salt-and-pepper).  The array then supports the two measurements of
Section IV:

* **retention test** — which bits lose data at a given standby voltage
  (Figure 3 spatial map, Figure 4 cumulative statistics);
* **access test** — voltage-dependent random read/write bit-error
  counts per the Eq. 5 power law (Figure 5).

An array stores no data: the SoC simulator's memories are
:class:`repro.soc.memory.FaultyMemory` macros, whose fault engine
(:class:`repro.soc.faults.VoltageFaultModel`) flips the stored words.

The access test's chunked Bernoulli count (:func:`count_bit_errors`)
and its per-access oracle (:func:`count_bit_errors_scalar`) are shared
with :class:`repro.analysis.batch.BatchCampaign`'s Figure 5 grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import validate_vdd
from repro.core.access import AccessErrorModel
from repro.core.retention import RetentionModel
from repro.obs import active_metrics, names

#: Row block of the chunked Bernoulli counts, in doubles; bounds the
#: matrix held in memory to a few megabytes regardless of ``accesses``.
BER_CHUNK_DOUBLES = 1 << 20


def count_bit_errors(
    rng: np.random.Generator, p_bit: float, accesses: int, bits: int
) -> int:
    """Bit errors among ``accesses`` words of ``bits`` cells, each cell
    failing with probability ``p_bit``.

    Draws the per-access, per-bit Bernoulli matrix in row chunks of at
    most :data:`BER_CHUNK_DOUBLES` doubles and counts it with numpy.
    Bit-exact with :func:`count_bit_errors_scalar` from the same
    generator state, and independent of the chunk split, because numpy
    fills uniform draws sequentially in C order.
    """
    chunk = max(1, BER_CHUNK_DOUBLES // bits)
    errors = 0
    done = 0
    while done < accesses:
        rows = min(chunk, accesses - done)
        errors += int(np.count_nonzero(rng.random((rows, bits)) < p_bit))
        done += rows
    return errors


def count_bit_errors_scalar(
    rng: np.random.Generator, p_bit: float, accesses: int, bits: int
) -> int:
    """Per-access reference loop of :func:`count_bit_errors`.

    The bit-exactness oracle of the vectorized count and the scalar
    baseline of the perf harness: consumes the same stream one access
    at a time.
    """
    errors = 0
    for _ in range(accesses):
        errors += int(np.count_nonzero(rng.random(bits) < p_bit))
    return errors


@dataclass(frozen=True)
class RetentionTestResult:
    """Outcome of one retention shmoo point."""

    vdd: float
    failing_bits: int
    total_bits: int

    @property
    def bit_error_rate(self) -> float:
        return self.failing_bits / self.total_bits


class MemoryArray:
    """One memory instance with per-cell variability.

    Parameters
    ----------
    words / bits:
        Logical organisation (e.g. 1024 x 32 for the Table 1 macro).
    retention_model:
        Population model the per-cell retention voltages are drawn from.
    access_model:
        Eq. 5 model behind the access test.
    rng:
        Random generator; supply a seeded one for reproducibility.
    gradient_v:
        Peak-to-peak systematic retention-voltage gradient across the
        array in volts (lithographic / stress systematics); gives the
        Figure 3 maps their spatial structure.
    """

    def __init__(
        self,
        words: int,
        bits: int,
        retention_model: RetentionModel,
        access_model: AccessErrorModel,
        rng: np.random.Generator | None = None,
        gradient_v: float = 0.02,
    ) -> None:
        if words <= 0 or bits <= 0:
            raise ValueError("words and bits must be positive")
        self.words = words
        self.bits = bits
        self.retention_model = retention_model
        self.access_model = access_model
        self.rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[REP101] each unseeded array is a fresh die; reproducible studies pass a seeded rng explicitly
        self.gradient_v = gradient_v

        random_part = retention_model.sample_cell_voltages(
            words * bits, self.rng
        ).reshape(words, bits)
        self._vmin = random_part + self._systematic_component()
        np.clip(self._vmin, 0.0, None, out=self._vmin)

    def _systematic_component(self) -> np.ndarray:
        """Smooth across-array retention-voltage systematic (bowl +
        tilt), zero-mean, peak-to-peak ``gradient_v``."""
        if self.gradient_v == 0.0:
            return np.zeros((self.words, self.bits))
        y = np.linspace(-1.0, 1.0, self.words)[:, None]
        x = np.linspace(-1.0, 1.0, self.bits)[None, :]
        tilt_y, tilt_x, bowl = self.rng.uniform(-1.0, 1.0, size=3)
        surface = tilt_y * y + tilt_x * x + bowl * (x * x + y * y - 1.0)
        span = surface.max() - surface.min()
        if span == 0.0:
            return np.zeros((self.words, self.bits))
        surface = (surface - surface.mean()) / span
        return surface * self.gradient_v

    # ------------------------------------------------------------------
    # Retention measurement (Figures 3 and 4)
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        return self.words * self.bits

    def retention_vmin_map(self) -> np.ndarray:
        """Return the (words x bits) map of per-cell retention voltages.

        This is exactly what Figure 3 plots (colour = minimal retention
        voltage per memory location)."""
        return self._vmin.copy()

    def retention_failures(self, vdd: float) -> np.ndarray:
        """Return the boolean (words x bits) map of cells failing at
        ``vdd`` during standby."""
        vdd = validate_vdd(vdd, "MemoryArray.retention_failures")
        return self._vmin > vdd

    def retention_test(self, vdd: float) -> RetentionTestResult:
        """Count failing bits at one standby voltage (one shmoo point)."""
        failures = int(self.retention_failures(vdd).sum())
        metrics = active_metrics()
        metrics.counter(names.MEMDEV_RETENTION_TESTS).inc()
        metrics.counter(names.MEMDEV_RETENTION_FAILING_BITS).inc(failures)
        return RetentionTestResult(
            vdd=vdd, failing_bits=failures, total_bits=self.total_bits
        )

    def measured_retention_vmin(self) -> float:
        """Return the instance's retention voltage as Table 1 reports
        it: the voltage where the first bit fails."""
        return float(self._vmin.max())

    # ------------------------------------------------------------------
    # Access-error measurement (Figure 5)
    # ------------------------------------------------------------------
    def measure_access_ber(
        self, vdd: float, accesses: int
    ) -> tuple[int, int]:
        """Run ``accesses`` word accesses; return (bit errors, bits).

        The quasi-static tester of Section IV: write a word, read it
        back, count differing bits.  Vectorized through
        :func:`count_bit_errors`; bit-exact with
        :meth:`measure_access_ber_scalar` under the same RNG state.
        """
        if accesses <= 0:
            raise ValueError("accesses must be positive")
        p_bit = self.access_model.bit_error_probability(vdd)
        if p_bit == 0.0:
            return 0, accesses * self.bits
        errors = count_bit_errors(self.rng, p_bit, accesses, self.bits)
        # Batch-granular telemetry: one registry touch per shmoo point.
        metrics = active_metrics()
        metrics.counter(names.MEMDEV_BER_ACCESSES).inc(accesses)
        metrics.counter(names.MEMDEV_BER_ERRORS).inc(errors)
        return errors, accesses * self.bits

    def measure_access_ber_scalar(
        self, vdd: float, accesses: int
    ) -> tuple[int, int]:
        """Reference per-access loop of :meth:`measure_access_ber`
        (:func:`count_bit_errors_scalar`), publishing no telemetry."""
        if accesses <= 0:
            raise ValueError("accesses must be positive")
        p_bit = self.access_model.bit_error_probability(vdd)
        if p_bit == 0.0:
            return 0, accesses * self.bits
        errors = count_bit_errors_scalar(self.rng, p_bit, accesses, self.bits)
        return errors, accesses * self.bits

    def measure_access_ber_grid(
        self, voltages: np.ndarray, accesses: int
    ) -> np.ndarray:
        """Run the quasi-static tester over a whole voltage grid.

        Returns the measured bit-error rate per voltage — one
        Figure 5 curve in a single call.
        """
        voltages = np.asarray(voltages, dtype=float)
        rates = np.empty(voltages.shape, dtype=float)
        for i, vdd in enumerate(voltages):
            errors, bits = self.measure_access_ber(float(vdd), accesses)
            rates[i] = errors / bits
        return rates
