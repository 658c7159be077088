"""Logic delay versus supply voltage.

The inverter delay is modelled as the time the switching device needs
to move the load charge:

    t_inv = k * C_load * V_DD / I_on(V_DD)

with I_on from the EKV drive-current model, so the delay grows
polynomially above threshold and exponentially below — the behaviour
Figure 10 plots for the 14 nm and 10 nm devices.  The Monte-Carlo
variant resamples the device threshold per trial and returns the mean
and sigma of the delay distribution, reproducing both series of the
figure (mean delay and sigma spread).  It evaluates every trial in one
array expression (:func:`inverter_delays`); the scalar
:func:`inverter_delay` is that expression's oracle.

The same delay model also provides the *performance floor* of the
mitigation study: Table 2's 1.96 MHz row forces OCEAN up from 0.33 V to
0.44 V purely because the logic cannot meet frequency any lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import validate_vdd
from repro.tech.device import drive_current, drive_currents
from repro.tech.mismatch import sigma_vth
from repro.tech.node import TechnologyNode

#: Dimensionless delay fit factor (Elmore-style 0.69 plus margin for the
#: short-circuit and slope contributions of a real FO4 stage).
_DELAY_FIT = 0.9

#: Effective load of a fanout-of-4 inverter stage, in microns of gate
#: width per micron of driver width (4x gate plus local wire).
_FO4_LOAD_FACTOR = 5.0

#: Driver width in microns used for the representative inverter.
_DRIVER_WIDTH_UM = 1.0


def _switching_vdd(vdd: float) -> float:
    """``vdd`` validated for a gate that must switch (both delay forms)."""
    vdd = validate_vdd(vdd, context="inverter_delay")
    if vdd == 0.0:
        raise ValueError("vdd must be positive: a 0 V inverter never switches")
    return vdd


def _fo4_delay(node: TechnologyNode, vdd: float, nmos_current, pmos_current):
    """FO4 delay from the two drive currents (floats or arrays alike)."""
    load_ff = node.gate_cap_ff_per_um * _FO4_LOAD_FACTOR * _DRIVER_WIDTH_UM
    # NMOS and PMOS alternate in a logic chain; use the slower average.
    i_on = 2.0 / (1.0 / nmos_current + 1.0 / pmos_current)
    return _DELAY_FIT * load_ff * 1e-15 * vdd / i_on


def _no_drive(vth_shift: float, vdd: float) -> ValueError:
    """A threshold offset whose drive current underflows (to 0, or so
    close that its reciprocal overflows): the delay is unbounded."""
    return ValueError(
        f"vth shift {float(vth_shift)!r} V leaves no drive current at "
        f"{vdd!r} V"
    )


def inverter_delay(
    node: TechnologyNode,
    vdd: float,
    temperature_c: float = 25.0,
    vth_shift: float = 0.0,
) -> float:
    """Return the FO4 inverter delay in seconds at supply ``vdd``.

    ``vth_shift`` adds a local threshold offset (in volts) to the
    switching device, which is how Monte-Carlo mismatch enters.  An
    offset that leaves a threshold at or below 0 V, or no drive
    current, raises ``ValueError``.
    """
    vdd = _switching_vdd(vdd)
    nmos, pmos = (
        drive_current(
            device.with_vth_shift(vth_shift), vdd, vdd,
            width_um=_DRIVER_WIDTH_UM, temperature_c=temperature_c,
        )
        for device in (node.nmos, node.pmos)
    )
    try:
        return _fo4_delay(node, vdd, nmos, pmos)
    except ZeroDivisionError:
        raise _no_drive(vth_shift, vdd) from None


def inverter_delays(
    node: TechnologyNode,
    vdd: float,
    vth_shifts: np.ndarray,
    temperature_c: float = 25.0,
) -> np.ndarray:
    """Array form of :func:`inverter_delay` over threshold offsets.

    Entry ``i`` is ``inverter_delay(node, vdd, temperature_c,
    vth_shift=vth_shifts[i])`` to the rounding of numpy's ``exp``; the
    scalar function is the oracle.  A non-physical offset raises the
    scalar's ``ValueError`` instead of returning ``inf`` or ``nan``.
    """
    vdd = _switching_vdd(vdd)
    shifts = np.asarray(vth_shifts, dtype=float)
    nmos, pmos = (
        drive_currents(
            device, shifts, vdd, vdd,
            width_um=_DRIVER_WIDTH_UM, temperature_c=temperature_c,
        )
        for device in (node.nmos, node.pmos)
    )
    with np.errstate(divide="ignore", over="ignore"):
        delays = _fo4_delay(node, vdd, nmos, pmos)
    unbounded = ~np.isfinite(delays)
    if unbounded.any():
        raise _no_drive(float(shifts[unbounded.argmax()]), vdd)
    return delays


@dataclass(frozen=True)
class InverterDelayResult:
    """Monte-Carlo inverter-delay statistics at one supply point."""

    vdd: float
    mean: float
    sigma: float
    samples: int

    @property
    def sigma_over_mean(self) -> float:
        """Relative spread; Figure 10's second message is that this
        shrinks from 14 nm to 10 nm."""
        return self.sigma / self.mean


def monte_carlo_inverter_delay(
    node: TechnologyNode,
    vdd: float,
    samples: int = 2000,
    temperature_c: float = 25.0,
    rng: np.random.Generator | None = None,
    width_um: float = 0.2,
    length_um: float = 0.04,
) -> InverterDelayResult:
    """Return mean and sigma of the inverter delay under local mismatch.

    ``width_um`` / ``length_um`` set the mismatch area of the sampled
    device (minimum-size logic devices by default, which is the
    pessimistic case the paper cares about).  The threshold offsets are
    one ``rng.normal`` draw of ``samples`` values, all evaluated by one
    :func:`inverter_delays` call.
    """
    if samples <= 1:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[REP101] mismatch sweeps are exploratory; callers pass a seeded rng for reproducible figures
    sigma = sigma_vth(node.nmos.avt_mv_um, width_um, length_um)
    shifts = rng.normal(0.0, sigma, size=samples)
    delays = inverter_delays(node, vdd, shifts, temperature_c)
    return InverterDelayResult(
        vdd=vdd,
        mean=float(delays.mean()),
        sigma=float(delays.std(ddof=1)),
        samples=samples,
    )


def logic_max_frequency(
    node: TechnologyNode,
    vdd: float,
    temperature_c: float = 25.0,
    guardband_sigma: float = 3.0,
    width_um: float = 0.2,
    length_um: float = 0.04,
) -> float:
    """Return the maximum clock frequency in hertz at supply ``vdd``.

    The critical path is ``node.logic_depth`` FO4 stages; a
    ``guardband_sigma``-sigma mismatch penalty is applied analytically
    (slowing the device by that many sigmas of V_th) so the returned
    frequency is a yield-aware number, matching the paper's use of
    worst-case timing for the voltage floor.
    """
    sigma = sigma_vth(node.nmos.avt_mv_um, width_um, length_um)
    slow = inverter_delay(
        node, vdd, temperature_c, vth_shift=guardband_sigma * sigma
    )
    period = node.logic_depth * slow
    return 1.0 / period


def minimum_voltage_for_frequency(
    node: TechnologyNode,
    frequency_hz: float,
    temperature_c: float = 25.0,
    vdd_low: float = 0.15,
    vdd_high: float = 1.4,
    tolerance: float = 1e-4,
) -> float:
    """Return the lowest supply at which the logic meets ``frequency_hz``.

    Bisects ``logic_max_frequency`` (monotonic in V_DD).  Raises
    ``ValueError`` if the frequency is unreachable even at ``vdd_high``.
    """
    if frequency_hz <= 0.0:
        raise ValueError("frequency_hz must be positive")
    if logic_max_frequency(node, vdd_high, temperature_c) < frequency_hz:
        raise ValueError(
            f"{frequency_hz:.3g} Hz unreachable at {vdd_high} V on {node.name}"
        )
    if logic_max_frequency(node, vdd_low, temperature_c) >= frequency_hz:
        return vdd_low
    low, high = vdd_low, vdd_high
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if logic_max_frequency(node, mid, temperature_c) >= frequency_hz:
            high = mid
        else:
            low = mid
    return high


def delay_scaling_factor(
    fast: TechnologyNode, slow: TechnologyNode, vdd: float
) -> float:
    """Return how much faster ``fast`` is than ``slow`` at equal ``vdd``.

    Section VI quotes a 2x speed-up from 14 nm to 10 nm; this helper
    exposes that ratio: values > 1 mean ``fast`` wins.
    """
    return inverter_delay(slow, vdd) / inverter_delay(fast, vdd)


def _self_check() -> None:
    """Sanity anchor used by tests: delay must rise steeply near V_th."""
    from repro.tech.node import NODE_40NM_LP

    near = inverter_delay(NODE_40NM_LP, 0.45)
    nominal = inverter_delay(NODE_40NM_LP, 1.1)
    if not near > 10.0 * nominal:
        raise AssertionError(
            f"near-threshold delay {near:.3g}s should dwarf nominal "
            f"{nominal:.3g}s"
        )


if __name__ == "__main__":  # pragma: no cover - manual smoke run
    _self_check()
    print("delay model self-check passed")
