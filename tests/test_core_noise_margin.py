"""Unit tests for the Eq. 2-4 noise-margin model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.noise_margin import NoiseMarginModel, phi, phi_inv


@pytest.fixture
def model():
    # NM = 1.0*V - 0.3 +/- 0.05: mean retention voltage 0.3 V.
    return NoiseMarginModel(c0=1.0, c1=-0.3, sigma=0.05)


class TestConstruction:
    def test_rejects_non_positive_c0(self):
        with pytest.raises(ValueError):
            NoiseMarginModel(c0=0.0, c1=-0.3, sigma=0.05)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            NoiseMarginModel(c0=1.0, c1=-0.3, sigma=0.0)


class TestEquation2(object):
    def test_mean_margin_linear_in_vdd(self, model):
        assert model.mean_margin(0.5) == pytest.approx(0.2)
        assert model.mean_margin(1.0) == pytest.approx(0.7)

    def test_cell_margin_includes_mismatch(self, model):
        assert model.margin_of_cell(0.5, x=2.0) == pytest.approx(0.3)
        assert model.margin_of_cell(0.5, x=-2.0) == pytest.approx(0.1)


class TestEquation3:
    def test_dvdd_per_sigma_is_constant(self, model):
        """Eq. 3: the voltage/sigma exchange rate is sigma/c0."""
        assert model.dvdd_per_sigma == pytest.approx(0.05)

    def test_exchange_rate_moves_failure_point(self, model):
        """One extra sigma of variability costs dvdd_per_sigma volts at
        any fixed failure probability."""
        wider = NoiseMarginModel(c0=1.0, c1=-0.3, sigma=0.06)
        for p in (1e-9, 1e-6, 1e-3):
            dv = wider.vdd_for_bit_error(p) - model.vdd_for_bit_error(p)
            z = -model.failing_cell_quantile(model.vdd_for_bit_error(p))
            assert dv == pytest.approx(0.01 * z, rel=1e-6)


class TestEquation4:
    def test_half_failure_at_mean_retention_voltage(self, model):
        assert model.bit_error_probability(0.3) == pytest.approx(0.5)

    def test_monotone_decreasing_in_vdd(self, model):
        probs = [model.bit_error_probability(v) for v in (0.2, 0.3, 0.4, 0.5)]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_deep_tail_accuracy(self, model):
        """At mean + 8 sigma the error probability is ~6e-16; a naive
        1 - cdf formulation would round it to zero."""
        p = model.bit_error_probability(0.3 + 8 * 0.05)
        assert 1e-16 < p < 1e-15

    def test_rejects_negative_vdd(self, model):
        with pytest.raises(ValueError):
            model.bit_error_probability(-0.1)

    def test_inverse_round_trip(self, model):
        for p in (1e-12, 1e-6, 1e-2, 0.4):
            v = model.vdd_for_bit_error(p)
            assert model.bit_error_probability(v) == pytest.approx(p, rel=1e-6)

    def test_inverse_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.vdd_for_bit_error(0.0)
        with pytest.raises(ValueError):
            model.vdd_for_bit_error(1.0)

    @given(vdd=st.floats(min_value=0.0, max_value=1.3))
    @settings(max_examples=50, deadline=None)
    def test_probability_in_unit_interval(self, vdd):
        model = NoiseMarginModel(c0=1.0, c1=-0.3, sigma=0.05)
        assert 0.0 <= model.bit_error_probability(vdd) <= 1.0


class TestStandardNormal:
    """The stdlib pair behind Eq. 2-4 against scipy's erfc/erfcinv."""

    def test_phi_matches_scipy_erfc(self):
        from scipy import special

        z = np.linspace(-30.0, 30.0, 12001)
        expected = 0.5 * special.erfc(-z / np.sqrt(2.0))
        got = np.array([phi(float(v)) for v in z])
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_phi_inv_matches_scipy_erfcinv(self):
        from scipy import special

        p = np.concatenate([
            np.logspace(-300.0, np.log10(0.5), 6001),
            np.linspace(0.001, 0.999, 999),
            1.0 - np.logspace(-12.0, np.log10(0.5), 2001),
        ])
        expected = -special.erfcinv(2.0 * p) * np.sqrt(2.0)
        got = np.array([phi_inv(float(q)) for q in p])
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


class TestCellMinimumVoltage:
    def test_typical_cell(self, model):
        assert model.cell_minimum_voltage(0.0) == pytest.approx(0.3)

    def test_weak_cell_needs_more_voltage(self, model):
        assert model.cell_minimum_voltage(-3.0) == pytest.approx(0.45)

    def test_strong_cell_clipped_at_zero(self, model):
        assert model.cell_minimum_voltage(+10.0) == 0.0


class TestPaperForm:
    def test_round_trip(self, model):
        d0, d1, d2 = model.to_paper_form()
        rebuilt = NoiseMarginModel.from_paper_form(d0, d1, d2, c0=model.c0)
        for v in (0.2, 0.3, 0.4):
            assert rebuilt.bit_error_probability(v) == pytest.approx(
                model.bit_error_probability(v), rel=1e-9
            )

    def test_d0_negative(self, model):
        d0, _, _ = model.to_paper_form()
        assert d0 < 0.0

    def test_from_paper_form_rejects_positive_d0(self):
        with pytest.raises(ValueError):
            NoiseMarginModel.from_paper_form(0.05, -6.0, 1.0)


class TestFitting:
    def test_recovers_known_model(self, model):
        voltages = np.linspace(0.15, 0.45, 13)
        rates = np.array(
            [model.bit_error_probability(float(v)) for v in voltages]
        )
        fitted = NoiseMarginModel.fit(voltages, rates, c0=model.c0)
        assert fitted.c1 == pytest.approx(model.c1, rel=1e-6)
        assert fitted.sigma == pytest.approx(model.sigma, rel=1e-6)

    def test_fit_with_noise_is_close(self, model):
        rng = np.random.default_rng(5)
        voltages = np.linspace(0.15, 0.45, 25)
        rates = np.array(
            [model.bit_error_probability(float(v)) for v in voltages]
        )
        noisy = np.clip(rates * rng.lognormal(0.0, 0.1, rates.shape), 0, 1)
        fitted = NoiseMarginModel.fit(voltages, noisy, c0=model.c0)
        assert fitted.sigma == pytest.approx(model.sigma, rel=0.25)

    def test_fit_counts(self, model):
        total = 65536
        voltages = np.linspace(0.2, 0.4, 9)
        counts = np.array(
            [
                round(model.bit_error_probability(float(v)) * total)
                for v in voltages
            ]
        )
        fitted = NoiseMarginModel.fit_counts(voltages, counts, total)
        assert fitted.sigma == pytest.approx(model.sigma, rel=0.1)

    def test_rejects_degenerate_data(self):
        with pytest.raises(ValueError):
            NoiseMarginModel.fit(
                np.array([0.2, 0.3, 0.4]), np.array([0.0, 0.0, 1.0])
            )

    def test_rejects_increasing_ber(self):
        with pytest.raises(ValueError, match="decrease"):
            NoiseMarginModel.fit(
                np.array([0.2, 0.3, 0.4]), np.array([1e-6, 1e-4, 1e-2])
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            NoiseMarginModel.fit(np.array([0.2, 0.3]), np.array([0.1]))
