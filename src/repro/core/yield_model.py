"""Yield versus operating voltage across a die population.

Section IV: "In both cases measuring actual silicon reveals the margin
that can be exploited...  Apparently, the minimal voltage will change
over lifetime of a product requiring a monitoring and control loop."

A vendor must pick ONE voltage for ALL parts (plus lifetime margin); a
monitored system runs each part at its own minimum.  This module
quantifies the difference: given the die-to-die spread of the minimum
operating voltage, it computes parametric yield at any fixed supply,
the voltage needed for a yield target, and the average power left on
the table by static worst-case operation — the quantitative case for
the paper's monitoring-and-control loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import validate_vdd
from repro.core.noise_margin import phi, phi_inv


@dataclass(frozen=True)
class VminPopulation:
    """Gaussian die-to-die distribution of the minimum supply voltage.

    ``v_mean``/``v_sigma`` describe the per-die minimum operating
    voltage (from the access model at the FIT target, shifted by each
    die's global corner) in volts.
    """

    v_mean: float
    v_sigma: float

    def __post_init__(self) -> None:
        if self.v_sigma <= 0.0:
            raise ValueError(f"v_sigma must be positive, got {self.v_sigma}")

    @classmethod
    def from_samples(cls, vmins: np.ndarray) -> "VminPopulation":
        """Fit from measured per-die minimum voltages."""
        vmins = np.asarray(vmins, dtype=float)
        if vmins.size < 2:
            raise ValueError("need at least two die measurements")
        return cls(
            v_mean=float(vmins.mean()),
            v_sigma=float(vmins.std(ddof=1)),
        )

    # ------------------------------------------------------------------
    # Yield
    # ------------------------------------------------------------------
    def yield_at(self, vdd: float) -> float:
        """Fraction of dies whose minimum voltage is at or below ``vdd``."""
        vdd = validate_vdd(vdd, "VminPopulation.yield_at")
        return phi((vdd - self.v_mean) / self.v_sigma)

    def voltage_for_yield(self, target: float) -> float:
        """Supply needed so that ``target`` of dies work (the vendor's
        rating problem)."""
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        return self.v_mean + phi_inv(target) * self.v_sigma

    # ------------------------------------------------------------------
    # The adaptive-voltage dividend
    # ------------------------------------------------------------------
    def static_voltage(
        self, target_yield: float = 0.9999, guardband_v: float = 0.05
    ) -> float:
        """Voltage a static (unmonitored) product must ship at:
        yield-target quantile plus a lifetime guardband."""
        if guardband_v < 0.0:
            raise ValueError("guardband_v must be non-negative")
        return self.voltage_for_yield(target_yield) + guardband_v

    def mean_adaptive_voltage(self, margin_v: float = 0.02) -> float:
        """Average supply of monitored parts, each running ``margin_v``
        above its own minimum."""
        if margin_v < 0.0:
            raise ValueError("margin_v must be non-negative")
        return self.v_mean + margin_v

    def adaptive_power_dividend(
        self,
        target_yield: float = 0.9999,
        guardband_v: float = 0.05,
        margin_v: float = 0.02,
    ) -> float:
        """Average dynamic-power ratio static / adaptive (CV^2).

        E[(V_static / V_die)^2] over the population, evaluated with the
        second moment of the per-die adaptive voltage.
        """
        v_static = self.static_voltage(target_yield, guardband_v)
        mean_adaptive = self.mean_adaptive_voltage(margin_v)
        second_moment = mean_adaptive**2 + self.v_sigma**2
        return v_static**2 / second_moment


def population_from_access_spread(
    v_onset_mean: float, die_sigma_v: float, fit_margin_v: float = 0.0
) -> VminPopulation:
    """Build a Vmin population from the die-to-die onset spread.

    Each die's minimum operating voltage is its access-error onset
    (die-shifted) minus/plus the FIT solver's offset; to first order the
    population is the onset distribution translated by a constant, so
    only ``die_sigma_v`` and the mean matter.
    """
    if die_sigma_v <= 0.0:
        raise ValueError("die_sigma_v must be positive")
    return VminPopulation(
        v_mean=v_onset_mean + fit_margin_v, v_sigma=die_sigma_v
    )
