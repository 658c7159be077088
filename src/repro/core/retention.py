"""Retention bit-error rate versus supply voltage (Figure 4).

During standby the memory only has to *hold* its contents; the paper's
first measurement campaign lowers the supply until individual bits flip
and records, per cell, the minimal retention voltage.  Under the
Gaussian noise-margin model each cell's retention voltage is itself
Gaussian, so the population-level bit-error rate is a normal CDF in
voltage.  This module expresses the retention behaviour directly in
voltage space, which is the natural parameterisation for:

* the cumulative failure curves of Figure 4 (BER vs V_DD),
* the "first failing bit" retention voltages of Table 1,
* per-cell retention-voltage maps (Figure 3) via sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import validate_vdd
from repro.core.noise_margin import NoiseMarginModel, phi, phi_inv


@dataclass(frozen=True)
class RetentionModel:
    """Gaussian retention-voltage population.

    Attributes
    ----------
    v_mean:
        Mean of the per-cell minimal retention voltage, in volts.
    v_sigma:
        Standard deviation of the per-cell retention voltage, in volts.
        Equal to ``sigma / c0`` of the underlying noise-margin model
        (the paper's Eq. 3 exchange rate).
    """

    v_mean: float
    v_sigma: float

    def __post_init__(self) -> None:
        if self.v_sigma <= 0.0:
            raise ValueError(f"v_sigma must be positive, got {self.v_sigma}")

    @classmethod
    def from_noise_margin(cls, model: NoiseMarginModel) -> "RetentionModel":
        """Derive the retention-voltage population from Eq. 2 constants."""
        return cls(
            v_mean=-model.c1 / model.c0,
            v_sigma=model.sigma / model.c0,
        )

    def to_noise_margin(self, c0: float = 1.0) -> NoiseMarginModel:
        """Return the equivalent Eq. 2 model for a chosen gauge ``c0``."""
        return NoiseMarginModel(
            c0=c0, c1=-self.v_mean * c0, sigma=self.v_sigma * c0
        )

    # ------------------------------------------------------------------
    # Population statistics
    # ------------------------------------------------------------------
    def bit_error_probability(self, vdd: float) -> float:
        """Return the fraction of cells that cannot retain at ``vdd``."""
        vdd = validate_vdd(vdd, "RetentionModel.bit_error_probability")
        return phi((self.v_mean - vdd) / self.v_sigma)

    def vdd_for_bit_error(self, p_target: float) -> float:
        """Return the supply where the retention BER equals ``p_target``."""
        if not 0.0 < p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {p_target}")
        return self.v_mean - phi_inv(p_target) * self.v_sigma

    def first_failure_voltage(self, total_bits: int) -> float:
        """Return the expected retention voltage of the *worst* bit.

        Table 1 reports the measured "retention V" of each memory as
        the voltage where the first of its bits drops; for ``n`` cells
        that is (to first order) the ``1 - 1/n`` quantile of the
        per-cell retention-voltage distribution.
        """
        if total_bits <= 0:
            raise ValueError("total_bits must be positive")
        if total_bits == 1:
            return self.v_mean
        z = phi_inv(1.0 / float(total_bits))
        return self.v_mean - z * self.v_sigma  # z < 0, so above the mean

    def expected_failures(self, vdd: float, total_bits: int) -> float:
        """Return the expected number of failing bits at ``vdd``."""
        return self.bit_error_probability(vdd) * float(total_bits)

    # ------------------------------------------------------------------
    # Sampling (feeds the Figure 3 spatial maps)
    # ------------------------------------------------------------------
    def sample_cell_voltages(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw per-cell minimal retention voltages, clipped at zero."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return np.clip(
            rng.normal(self.v_mean, self.v_sigma, size=count), 0.0, None
        )

    def shifted(self, delta_v: float) -> "RetentionModel":
        """Return a copy with the whole population shifted by ``delta_v``.

        Die-to-die (global) process variation moves every cell of a die
        together; the 9-die campaign of Figure 4 is modelled as shifted
        copies of one base model.
        """
        return RetentionModel(
            v_mean=self.v_mean + delta_v, v_sigma=self.v_sigma
        )

    def at_temperature(
        self,
        temperature_c: float,
        reference_c: float = 25.0,
        tc_v_per_c: float = 4e-4,
    ) -> "RetentionModel":
        """Return the population at another junction temperature.

        Hold stability degrades with temperature (leakage through the
        access device rises, static noise margin shrinks), so the whole
        retention-voltage population moves up by roughly
        ``tc_v_per_c`` volts per degree — a first-order model of the
        measured behaviour the paper's 25 C numbers are quoted at.
        """
        if tc_v_per_c < 0.0:
            raise ValueError("tc_v_per_c must be non-negative")
        return self.shifted(tc_v_per_c * (temperature_c - reference_c))

    # ------------------------------------------------------------------
    # Calibration from measurements
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls, voltages: np.ndarray, bit_error_rates: np.ndarray
    ) -> "RetentionModel":
        """Fit from (voltage, BER) pairs via the probit line."""
        nm = NoiseMarginModel.fit(voltages, bit_error_rates, c0=1.0)
        return cls.from_noise_margin(nm)


#: Synthetic calibration of the commercial 40 nm memory IP's retention
#: population: first bit of a 32 kbit instance fails near 0.85 V
#: (Table 1, measured), and the BER knee sits near the mid-0.4 V range.
RETENTION_COMMERCIAL_40NM = RetentionModel(v_mean=0.45, v_sigma=0.099)

#: Synthetic calibration of the imec cell-based 40 nm memory: first bit
#: of 32 kbit fails near 0.32 V (Table 1, measured).
RETENTION_CELL_BASED_40NM = RetentionModel(v_mean=0.20, v_sigma=0.0297)

#: Cell-based 65 nm memory of Andersson et al. [13]: retention 0.25 V.
RETENTION_CELL_BASED_65NM = RetentionModel(v_mean=0.14, v_sigma=0.0272)
