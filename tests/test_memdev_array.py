"""Tests for the Monte-Carlo memory array (Figure 3 substrate)."""

import numpy as np
import pytest

from repro.core.access import AccessErrorModel
from repro.core.retention import RetentionModel
from repro.memdev.array import MemoryArray


@pytest.fixture
def retention():
    return RetentionModel(v_mean=0.3, v_sigma=0.03)


@pytest.fixture
def access():
    return AccessErrorModel(amplitude=4.5, exponent=7.4, v_onset=0.555)


@pytest.fixture
def array(retention, access):
    return MemoryArray(
        128, 32, retention, access, rng=np.random.default_rng(42)
    )


class TestConstruction:
    def test_rejects_bad_shape(self, retention, access):
        with pytest.raises(ValueError):
            MemoryArray(0, 32, retention, access)

    def test_vmin_map_shape(self, array):
        assert array.retention_vmin_map().shape == (128, 32)

    def test_vmin_map_is_copy(self, array):
        array.retention_vmin_map()[0, 0] = 99.0
        assert array.retention_vmin_map()[0, 0] != 99.0

    def test_reproducible_with_seed(self, retention, access):
        a = MemoryArray(64, 32, retention, access, rng=np.random.default_rng(7))
        b = MemoryArray(64, 32, retention, access, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(
            a.retention_vmin_map(), b.retention_vmin_map()
        )

    def test_population_statistics(self, retention, access):
        array = MemoryArray(
            512, 64, retention, access, rng=np.random.default_rng(0)
        )
        vmin = array.retention_vmin_map()
        assert vmin.mean() == pytest.approx(0.3, abs=0.01)
        # Systematic gradient adds a little variance on top.
        assert vmin.std() == pytest.approx(0.03, rel=0.25)

    def test_zero_gradient_matches_pure_population(self, retention, access):
        array = MemoryArray(
            512, 64, retention, access,
            rng=np.random.default_rng(1), gradient_v=0.0,
        )
        assert array.retention_vmin_map().std() == pytest.approx(
            0.03, rel=0.05
        )

    def test_gradient_adds_spatial_structure(self, retention, access):
        """Neighbouring rows must correlate when a gradient is present:
        the Figure 3 maps show regional, not salt-and-pepper, failures."""
        array = MemoryArray(
            256, 32, retention, access,
            rng=np.random.default_rng(3), gradient_v=0.15,
        )
        vmin = array.retention_vmin_map()
        row_means = vmin.mean(axis=1)
        adjacent = np.corrcoef(row_means[:-1], row_means[1:])[0, 1]
        assert adjacent > 0.5


class TestRetentionTest:
    def test_all_fail_at_zero_volts(self, array):
        result = array.retention_test(0.0)
        assert result.failing_bits == array.total_bits

    def test_none_fail_far_above_population(self, array):
        assert array.retention_test(0.6).failing_bits == 0

    def test_monotone_in_voltage(self, array):
        counts = [
            array.retention_test(v).failing_bits
            for v in (0.2, 0.26, 0.3, 0.34, 0.4)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_measured_vmin_is_worst_cell(self, array):
        vmin = array.measured_retention_vmin()
        assert array.retention_test(vmin).failing_bits == 0
        assert array.retention_test(vmin - 0.005).failing_bits >= 1

    def test_rejects_negative_voltage(self, array):
        with pytest.raises(ValueError):
            array.retention_test(-0.1)


class TestAccessInjection:
    def test_no_flips_above_onset(self, array):
        state = array.rng.bit_generator.state
        assert array.measure_access_ber(0.6, accesses=100) == (0, 100 * 32)
        assert array.rng.bit_generator.state == state  # nothing drawn

    def test_flip_rate_matches_model(self, retention):
        access = AccessErrorModel(amplitude=4.5, exponent=7.4, v_onset=0.555)
        array = MemoryArray(
            64, 32, retention, access, rng=np.random.default_rng(11)
        )
        vdd = 0.40
        p_bit = access.bit_error_probability(vdd)
        errors, bits = array.measure_access_ber(vdd, accesses=30_000)
        measured = errors / bits
        assert measured == pytest.approx(p_bit, rel=0.15)

    def test_rejects_bad_access_count(self, array):
        with pytest.raises(ValueError):
            array.measure_access_ber(0.4, accesses=0)
