"""Figure 10's Monte Carlo on its array path, against the scalar oracle.

``monte_carlo_inverter_delay`` draws its threshold offsets once and
evaluates them all through ``inverter_delays`` (built on the EKV law's
array form, ``drive_currents``).  The scalar ``inverter_delay`` and
``drive_current`` stay as the per-sample oracle: the two paths must
agree sample by sample, draw the same random numbers, and refuse the
same inputs with the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tech.delay as delay
from repro.core.errors import InvalidVoltageError
from repro.tech.delay import (
    inverter_delay,
    inverter_delays,
    monte_carlo_inverter_delay,
)
from repro.tech.device import drive_current, drive_currents
from repro.tech.mismatch import sigma_vth
from repro.tech.node import NODE_10NM_MG, NODE_14NM_FINFET, NODE_40NM_LP

#: Largest relative difference allowed between the two paths.  They
#: share every operation but numpy's ``exp``/``log1p``, which may round
#: the last bit differently from ``math``'s.
REL = 1e-12

NODES = (NODE_40NM_LP, NODE_14NM_FINFET, NODE_10NM_MG)

#: Mismatch areas (width, length in um): the default minimum-size logic
#: device, smaller and larger ones.
GEOMETRIES = ((0.2, 0.04), (0.08, 0.02), (0.1, 0.03), (0.5, 0.05), (1.0, 0.1))


def _draws(node, seed, samples, width_um, length_um):
    """The offsets ``monte_carlo_inverter_delay`` draws from ``seed``."""
    sigma = sigma_vth(node.nmos.avt_mv_um, width_um, length_um)
    return np.random.default_rng(seed).normal(0.0, sigma, size=samples)


def _scalar_delays(node, vdd, temperature_c, shifts):
    """The oracle: one scalar ``inverter_delay`` call per offset."""
    return np.array([
        inverter_delay(node, vdd, temperature_c, vth_shift=float(shift))
        for shift in shifts
    ])


@given(
    node=st.sampled_from(NODES),
    vdd=st.floats(0.15, 1.3),
    temperature_c=st.floats(-20.0, 125.0),
    samples=st.integers(2, 500),
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_monte_carlo_matches_a_scalar_loop_on_the_same_draws(
    node, vdd, temperature_c, samples, geometry, seed
):
    width_um, length_um = geometry
    shifts = _draws(node, seed, samples, width_um, length_um)

    def monte_carlo():
        return monte_carlo_inverter_delay(
            node, vdd, samples, temperature_c,
            rng=np.random.default_rng(seed),
            width_um=width_um, length_um=length_um,
        )

    try:
        oracle = _scalar_delays(node, vdd, temperature_c, shifts)
    except ValueError:
        # A draw the scalar path refuses: the array path refuses it too.
        with pytest.raises(ValueError):
            monte_carlo()
        return
    result = monte_carlo()
    assert result.samples == samples
    assert result.mean == pytest.approx(oracle.mean(), rel=REL, abs=0.0)
    assert result.sigma == pytest.approx(
        oracle.std(ddof=1), rel=REL, abs=0.0
    )
    np.testing.assert_allclose(
        inverter_delays(node, vdd, shifts, temperature_c), oracle,
        rtol=REL, atol=0.0,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vgs", [0.05, 0.6, 3.0, 100.0])
def test_drive_currents_match_the_scalar_law_in_both_branches(vgs):
    """Weak to strong inversion, including the ``x > 40`` branch, whose
    discarded ``exp`` lanes must not overflow."""
    device = NODE_14NM_FINFET.nmos
    shifts = np.linspace(-0.3, 0.3, 41)
    scalar = [
        drive_current(
            device.with_vth_shift(float(shift)), vgs,
            width_um=0.5, temperature_c=85.0,
        )
        for shift in shifts
    ]
    np.testing.assert_allclose(
        drive_currents(device, shifts, vgs, width_um=0.5, temperature_c=85.0),
        scalar, rtol=REL, atol=0.0,
    )


@pytest.mark.parametrize("samples", [2, 37, 1500])
def test_one_normal_draw_per_call(samples):
    """The generator ends where one ``normal(size=samples)`` leaves it,
    so Fig. 10's points keep sharing one random sequence."""
    rng = np.random.default_rng(11)
    monte_carlo_inverter_delay(NODE_10NM_MG, 0.4, samples, rng=rng)
    reference = np.random.default_rng(11)
    reference.normal(size=samples)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_supply_is_validated_once_per_call(monkeypatch):
    calls = []
    validate_vdd = delay.validate_vdd

    def counted(vdd, context="vdd"):
        calls.append(vdd)
        return validate_vdd(vdd, context)

    monkeypatch.setattr(delay, "validate_vdd", counted)
    monte_carlo_inverter_delay(
        NODE_14NM_FINFET, 0.5, 500, rng=np.random.default_rng(0)
    )
    assert calls == [0.5]


class TestSameErrorsOnBothPaths:
    @pytest.mark.parametrize("vdd, error", [
        (0.0, ValueError),
        (-0.1, InvalidVoltageError),
        (float("nan"), InvalidVoltageError),
    ])
    def test_supplies_no_gate_can_switch_at(self, vdd, error):
        with pytest.raises(error) as scalar:
            inverter_delay(NODE_14NM_FINFET, vdd)
        with pytest.raises(error) as array:
            inverter_delays(NODE_14NM_FINFET, vdd, [0.0, 0.01])
        with pytest.raises(error) as monte_carlo:
            monte_carlo_inverter_delay(
                NODE_14NM_FINFET, vdd, 10, rng=np.random.default_rng(0)
            )
        assert str(scalar.value) == str(array.value) == str(monte_carlo.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift", [
        -1.0,           # threshold below 0 V
        float("nan"),
        -float("inf"),
        28.0,           # a subnormal current: its reciprocal overflows
        60.0,           # a current that underflows to 0
        float("inf"),
    ])
    def test_non_physical_offsets(self, shift):
        """Each path names the offending offset in the same words, and
        neither answers ``inf``, ``nan`` or a ``ZeroDivisionError``."""
        with pytest.raises(ValueError) as scalar:
            inverter_delay(NODE_40NM_LP, 0.6, vth_shift=shift)
        with pytest.raises(ValueError) as array:
            inverter_delays(NODE_40NM_LP, 0.6, [0.0, shift, 0.01])
        assert str(scalar.value) == str(array.value)

    @pytest.mark.filterwarnings("error")
    def test_a_sampled_device_too_small_to_switch(self):
        """A 1e-6 um square device draws thresholds hundreds of volts
        off; the scalar loop and the Monte Carlo both refuse them."""
        shifts = _draws(NODE_40NM_LP, 0, 100, 1e-6, 1e-6)
        with pytest.raises(ValueError):
            _scalar_delays(NODE_40NM_LP, 0.6, 25.0, shifts)
        with pytest.raises(ValueError):
            monte_carlo_inverter_delay(
                NODE_40NM_LP, 0.6, 100, rng=np.random.default_rng(0),
                width_um=1e-6, length_um=1e-6,
            )
