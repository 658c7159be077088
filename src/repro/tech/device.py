"""EKV-style MOSFET drive-current model.

The paper's Section VI compares planar 40 nm devices with 14 nm finFET
and 10 nm multi-gate devices in the near-threshold regime, where neither
the classic quadratic (strong inversion) nor the pure exponential
(sub-threshold) current law holds on its own.  The EKV interpolation

    I_D = I_spec * ln(1 + exp(v_ov / (2 * n * U_T)))**2

is smooth across the whole inversion range: it reduces to the
exponential law deep in sub-threshold and to the square law in strong
inversion.  That behaviour is exactly what near-threshold delay and
leakage modelling needs, so it is the single current expression used by
every higher layer (delay, leakage, memory timing).

:func:`drive_current` evaluates it at one bias point;
:func:`drive_currents` is its array form over threshold offsets, for
Monte-Carlo mismatch samples, with the scalar function as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: Boltzmann constant expressed in eV/K so that ``k*T`` is directly a voltage.
BOLTZMANN_EV = 8.617333262e-5

_LN10 = math.log(10.0)


def thermal_voltage(temperature_c: float = 25.0) -> float:
    """Return the thermal voltage U_T = k*T/q in volts.

    ``temperature_c`` is the junction temperature in degrees Celsius;
    the paper's measurements are quoted at 25 C (Table 1).
    """
    return BOLTZMANN_EV * (temperature_c + 273.15)


@dataclass(frozen=True)
class DeviceParameters:
    """Compact parameter set for one transistor flavour of a node.

    Attributes
    ----------
    vth:
        Threshold voltage in volts (TT corner, 25 C).
    subthreshold_slope_mv:
        Sub-threshold swing in mV/decade at 25 C.  Planar 40 nm LP is
        around 90 mV/dec; finFETs approach the 60 mV/dec ideal, which is
        the paper's main argument for finFET NTC (Section VI).
    i_spec_ua_per_um:
        Specific current in microamperes per micron of effective width:
        the drive current when the overdrive equals zero (V_GS = V_th).
    dibl_mv_per_v:
        Drain-induced barrier lowering in mV of threshold shift per volt
        of V_DS.  Drives the leakage increase with supply voltage.
    avt_mv_um:
        Pelgrom threshold-mismatch coefficient in mV*um: the standard
        deviation of the V_th difference of a matched pair of 1 um x 1 um
        devices.  Section VI stresses that keeping A_vt under control is
        what makes finFET NTC memories viable.
    """

    vth: float
    subthreshold_slope_mv: float
    i_spec_ua_per_um: float
    dibl_mv_per_v: float
    avt_mv_um: float

    def __post_init__(self) -> None:
        if not self.vth > 0.0:
            raise ValueError(f"vth must be positive, got {self.vth}")
        min_slope = 1000.0 * thermal_voltage(25.0) * _LN10
        if self.subthreshold_slope_mv < min_slope:
            raise ValueError(
                "subthreshold slope cannot beat the thermionic limit "
                f"({min_slope:.1f} mV/dec at 25 C), got "
                f"{self.subthreshold_slope_mv}"
            )
        if self.i_spec_ua_per_um <= 0.0:
            raise ValueError("i_spec_ua_per_um must be positive")
        if self.dibl_mv_per_v < 0.0:
            raise ValueError("dibl_mv_per_v must be non-negative")
        if self.avt_mv_um <= 0.0:
            raise ValueError("avt_mv_um must be positive")

    def slope_factor(self) -> float:
        """Return the sub-threshold slope factor n (dimensionless).

        Defined through SS = n * U_T * ln(10) at the 25 C reference the
        ``subthreshold_slope_mv`` figure is quoted at.  n itself is a
        capacitive divider (1 + C_dep/C_ox) and essentially temperature
        independent; temperature enters the current laws through U_T,
        which is what produces the near-threshold temperature-inversion
        behaviour.
        """
        return self.subthreshold_slope_mv / (
            1000.0 * thermal_voltage(25.0) * _LN10
        )

    def with_vth_shift(self, delta_vth: float) -> "DeviceParameters":
        """Return a copy with the threshold shifted by ``delta_vth`` volts.

        Used both for PVT corners (global shift) and for per-device
        Monte-Carlo mismatch samples (local shift).
        """
        return replace(self, vth=self.vth + delta_vth)


def inversion_coefficient(
    device: DeviceParameters,
    vgs: float,
    vds: float | None = None,
    temperature_c: float = 25.0,
) -> float:
    """Return the EKV inversion coefficient IC = I_D / I_spec.

    IC < 0.1 is weak inversion, 0.1..10 the moderate (near-threshold)
    region the paper operates in, and IC > 10 strong inversion.
    """
    if vds is None:
        vds = vgs
    n = device.slope_factor()
    ut = thermal_voltage(temperature_c)
    overdrive = vgs - device.vth + 1e-3 * device.dibl_mv_per_v * vds
    x = overdrive / (2.0 * n * ut)
    # log1p(exp(x)) computed stably for large positive x.
    if x > 40.0:
        soft = x
    else:
        soft = math.log1p(math.exp(x))
    return soft * soft


def drive_current(
    device: DeviceParameters,
    vgs: float,
    vds: float | None = None,
    width_um: float = 1.0,
    temperature_c: float = 25.0,
) -> float:
    """Return the drain current in amperes for the given bias point.

    ``vgs`` and ``vds`` are in volts; ``vds`` defaults to ``vgs`` which
    is the switching condition of a CMOS gate at the start of a
    transition.  The current scales linearly with ``width_um``.
    """
    if width_um <= 0.0:
        raise ValueError(f"width_um must be positive, got {width_um}")
    ic = inversion_coefficient(device, vgs, vds, temperature_c)
    return ic * device.i_spec_ua_per_um * 1e-6 * width_um


def drive_currents(
    device: DeviceParameters,
    vth_shifts: np.ndarray,
    vgs: float,
    vds: float | None = None,
    width_um: float = 1.0,
    temperature_c: float = 25.0,
) -> np.ndarray:
    """Array form of :func:`drive_current` over threshold offsets.

    Entry ``i`` is ``drive_current(device.with_vth_shift(vth_shifts[i]),
    vgs, vds, width_um, temperature_c)``, computed in the same order of
    operations, so the two agree to the rounding of numpy's ``exp`` and
    ``log1p``.  A shifted threshold that is not positive raises the
    ``ValueError`` :meth:`DeviceParameters.with_vth_shift` would.
    """
    if width_um <= 0.0:
        raise ValueError(f"width_um must be positive, got {width_um}")
    if vds is None:
        vds = vgs
    vth = device.vth + np.asarray(vth_shifts, dtype=float)
    bad = ~(vth > 0.0)
    if bad.any():
        raise ValueError(
            f"vth must be positive, got {float(vth[bad.argmax()])}"
        )
    n = device.slope_factor()
    ut = thermal_voltage(temperature_c)
    overdrive = vgs - vth + 1e-3 * device.dibl_mv_per_v * vds
    x = overdrive / (2.0 * n * ut)
    # The scalar law's x > 40 branch; the clip keeps exp from overflowing
    # in the lanes that branch discards.
    soft = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
    return soft * soft * device.i_spec_ua_per_um * 1e-6 * width_um
