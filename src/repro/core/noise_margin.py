"""Gaussian noise-margin model (paper Eq. 2-4).

Every bit cell has a noise margin that shrinks with supply voltage and
varies from cell to cell because of local mismatch.  The paper models
it linearly (Eq. 2, after [14]):

    NM = c0 * V_DD + c1 + c2 * x,     x ~ N(0, 1)

A cell fails once its noise margin reaches zero, so the bit-failure
probability at a given supply is a Gaussian tail, which is the paper's
Eq. 4 once the constants are regrouped.  A direct corollary (Eq. 3) is
that trading supply voltage against mismatch sigma is linear:

    dV_DD / dsigma = c2 / c0 = const.

This module implements the model, its calibration from (voltage, BER)
measurement pairs, and the conversion to/from the d0..d2 form the
paper prints in Eq. 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.core.errors import validate_vdd


def phi(z: float) -> float:
    """Standard normal CDF, accurate deep in the lower tail (erfc)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def phi_inv(p: float) -> float:
    """Inverse standard normal CDF for ``p`` in (0, 1)."""
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class NoiseMarginModel:
    """Linear-in-voltage Gaussian noise-margin model.

    Attributes
    ----------
    c0:
        Noise-margin gain with supply voltage, in volts of NM per volt
        of V_DD (positive: raising the supply restores margin).
    c1:
        Noise-margin offset in volts (typically negative: at V_DD = 0
        there is no margin).
    sigma:
        Standard deviation of the per-cell noise margin in volts
        (the paper's ``c2' * sigma`` collapsed into one constant).
    """

    c0: float
    c1: float
    sigma: float

    def __post_init__(self) -> None:
        if self.c0 <= 0.0:
            raise ValueError(f"c0 must be positive, got {self.c0}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    # ------------------------------------------------------------------
    # Eq. 2: the margin itself
    # ------------------------------------------------------------------
    def mean_margin(self, vdd: float) -> float:
        """Return the mean noise margin in volts at supply ``vdd``."""
        vdd = validate_vdd(vdd, "NoiseMarginModel.mean_margin")
        return self.c0 * vdd + self.c1

    def margin_of_cell(self, vdd: float, x: float) -> float:
        """Return the margin of the cell whose mismatch deviate is ``x``."""
        return self.mean_margin(vdd) + self.sigma * x

    # ------------------------------------------------------------------
    # Eq. 3: voltage / sigma exchange rate
    # ------------------------------------------------------------------
    @property
    def dvdd_per_sigma(self) -> float:
        """Volts of extra supply needed per sigma of extra variability.

        The paper's Eq. 3 constant ``c2'/c0``: fixing the failure level,
        a process with one more sigma of NM spread needs this much more
        supply voltage.
        """
        return self.sigma / self.c0

    # ------------------------------------------------------------------
    # Eq. 4: failure probability
    # ------------------------------------------------------------------
    def bit_error_probability(self, vdd: float) -> float:
        """Return the probability that a cell's margin is exhausted.

        P(NM <= 0) at supply ``vdd`` — the paper's Eq. 4.
        """
        vdd = validate_vdd(vdd, "NoiseMarginModel.bit_error_probability")
        return phi(-self.mean_margin(vdd) / self.sigma)

    def vdd_for_bit_error(self, p_target: float) -> float:
        """Return the supply at which the bit-error probability is
        ``p_target`` (inverse of :meth:`bit_error_probability`)."""
        if not 0.0 < p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {p_target}")
        z = phi_inv(p_target)
        # -mean/sigma = z  =>  mean = -z*sigma  =>  vdd = (-z*sigma - c1)/c0
        return (-z * self.sigma - self.c1) / self.c0

    def failing_cell_quantile(self, vdd: float) -> float:
        """Return the mismatch deviate of the marginal cell at ``vdd``.

        Cells with x below this value fail; the returned value is the
        "limiting standard deviation sigma" the paper reads off
        Figure 4.
        """
        return -self.mean_margin(vdd) / self.sigma

    # ------------------------------------------------------------------
    # Per-cell retention voltage (used by the Figure 3 spatial maps)
    # ------------------------------------------------------------------
    def cell_minimum_voltage(self, x: float) -> float:
        """Return the lowest supply at which the cell with deviate ``x``
        still holds its margin (NM = 0 crossing), clipped at zero."""
        return max(0.0, -(self.c1 + self.sigma * x) / self.c0)

    # ------------------------------------------------------------------
    # The paper's printed parameterisation (Eq. 4 with d0..d2)
    # ------------------------------------------------------------------
    def to_paper_form(self) -> tuple[float, float, float]:
        """Return (d0, d1, d2) such that

            p = 0.5 * (1 + erf((V/d0 - d1) / sqrt(2 * d2**2)))

        matches :meth:`bit_error_probability`.  The slope is negative
        (errors fall with voltage), which Eq. 4 absorbs into d0 < 0.
        """
        d0 = -self.sigma / self.c0
        d1 = self.c1 / self.sigma
        d2 = 1.0
        return (d0, d1, d2)

    @classmethod
    def from_paper_form(
        cls, d0: float, d1: float, d2: float, c0: float = 1.0
    ) -> "NoiseMarginModel":
        """Build a model from the paper's (d0, d1, d2).

        The (c0, c1, sigma) triple is only determined up to a common
        scale by Eq. 4, so a reference ``c0`` fixes the gauge.
        """
        if d0 >= 0.0:
            raise ValueError("d0 must be negative for errors to fall with V")
        sigma = -d0 * c0 * abs(d2)
        c1 = d1 * sigma / abs(d2)
        return cls(c0=c0, c1=c1, sigma=sigma)

    # ------------------------------------------------------------------
    # Calibration from measurements
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        voltages: np.ndarray,
        bit_error_rates: np.ndarray,
        c0: float = 1.0,
    ) -> "NoiseMarginModel":
        """Fit the model to (voltage, BER) measurement pairs.

        The Gaussian model is linear in probit space:
        ``Phi^-1(p) = -(c0*V + c1)/sigma``; an ordinary least-squares
        line through ``(V, Phi^-1(p))`` recovers the constants.  Points
        with BER of exactly 0 or 1 carry no probit information and are
        dropped.  ``c0`` fixes the gauge as in :meth:`from_paper_form`.
        """
        voltages = np.asarray(voltages, dtype=float)
        rates = np.asarray(bit_error_rates, dtype=float)
        if voltages.shape != rates.shape:
            raise ValueError("voltages and bit_error_rates must align")
        mask = (rates > 0.0) & (rates < 1.0)
        if mask.sum() < 2:
            raise ValueError("need at least two BER points strictly in (0,1)")
        v = voltages[mask]
        z = np.array([phi_inv(float(p)) for p in rates[mask]])
        slope, intercept = np.polyfit(v, z, 1)
        if slope >= 0.0:
            raise ValueError(
                "BER does not decrease with voltage; data inconsistent "
                "with a retention-style noise-margin model"
            )
        sigma = -c0 / slope
        c1 = -intercept * sigma
        return cls(c0=c0, c1=c1, sigma=sigma)

    @classmethod
    def fit_counts(
        cls,
        voltages: np.ndarray,
        failing_bits: np.ndarray,
        total_bits: int,
        c0: float = 1.0,
    ) -> "NoiseMarginModel":
        """Fit from raw fail counts, as produced by a die measurement."""
        if total_bits <= 0:
            raise ValueError("total_bits must be positive")
        rates = np.asarray(failing_bits, dtype=float) / float(total_bits)
        return cls.fit(np.asarray(voltages, dtype=float), rates, c0=c0)
