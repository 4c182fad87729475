import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from cstj_sim.dynamics import TargetState
from cstj_sim.sensing import (
    Measurement,
    SensingParams,
    collect,
    detection_prob,
    fold_inclination,
    measurement_fn,
    sample_clutter,
    sample_measurement,
    wrap_azimuth,
)

DEFAULTS = SensingParams(
    p_d_max=0.99,
    eta_per_m=0.02,
    r0_m=2.0,
    sigma_theta_rad=math.pi / 50,
    sigma_phi_rad=math.pi / 50,
    sigma_rho0_m=2.0,
    beta_rho=0.05,
    clutter_rate=15.0,
    rho_max_m=100.0 * math.sqrt(3.0),
)


def _at(position) -> TargetState:
    return TargetState(position, [0.0, 0.0, 0.0])


def _noise_free(clutter_rate=0.0) -> SensingParams:
    # degenerate-noise variants keep tiny sigmas (zero is invalid by contract)
    return SensingParams(0.99, 0.02, 2.0, 1e-12, 1e-12, 1e-12, 0.0, clutter_rate, DEFAULTS.rho_max_m)


def _scalar_and_array_forms(fn, angles):
    """Bytes of ``fn`` applied to each angle as a float, and to all of them as one array."""
    scalars = [fn(float(a)) for a in angles]
    assert all(type(v) is float for v in scalars)
    return np.array(scalars).tobytes(), fn(np.array(angles, dtype=float)).tobytes()


class TestAngleForms:
    """Floats take Python's ``%``, arrays ``np.mod``; both must give the same bits."""

    ODD_PI = [k * math.pi for k in range(-201, 202, 2)]
    EDGES = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, *ODD_PI]
    EDGES += [float(np.nextafter(a, b)) for a in EDGES for b in (-math.inf, math.inf)]

    @pytest.mark.parametrize("fn", [wrap_azimuth, fold_inclination])
    def test_edges_agree_bit_for_bit(self, fn):
        scalar, array = _scalar_and_array_forms(fn, self.EDGES)
        assert scalar == array

    @pytest.mark.parametrize("fn", [wrap_azimuth, fold_inclination])
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_any_finite_angle_agrees_bit_for_bit(self, fn, angles):
        scalar, array = _scalar_and_array_forms(fn, angles)
        assert scalar == array

    def test_ranges(self):
        assert wrap_azimuth(-math.pi) == math.pi
        assert wrap_azimuth(3.0 * math.pi) == math.pi
        assert fold_inclination(-0.5) == 0.5
        assert fold_inclination(math.pi + 0.5) == pytest.approx(math.pi - 0.5)


class TestDetectionProb:
    def test_inside_full_detection_radius(self):
        assert detection_prob(_at([1.0, 0, 0]), [0, 0, 0], DEFAULTS) == 0.99

    def test_boundary_continuity(self):
        just_in = detection_prob(_at([1.9999999, 0, 0]), [0, 0, 0], DEFAULTS)
        at_r0 = detection_prob(_at([2.0, 0, 0]), [0, 0, 0], DEFAULTS)
        assert at_r0 == DEFAULTS.p_d_max
        assert just_in == pytest.approx(at_r0, abs=1e-6)

    def test_cutoff_distance(self):
        cutoff = DEFAULTS.r0_m + DEFAULTS.p_d_max / DEFAULTS.eta_per_m  # 51.5 m
        assert cutoff == pytest.approx(51.5)
        assert detection_prob(_at([cutoff, 0, 0]), [0, 0, 0], DEFAULTS) == 0.0

    def test_non_increasing_in_distance(self):
        distances = np.linspace(0.1, 80.0, 200)
        probs = [detection_prob(_at([d, 0, 0]), [0, 0, 0], DEFAULTS) for d in distances]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestMeasurementFn:
    def test_directly_above(self):
        m = measurement_fn(_at([0.0, 0.0, 5.0]), [0, 0, 0])
        assert (m.range_m, m.inclination_rad) == (5.0, 0.0)

    def test_diagonal_in_plane(self):
        m = measurement_fn(_at([1.0, 1.0, 0.0]), [0, 0, 0])
        assert m.range_m == pytest.approx(math.sqrt(2))
        assert m.azimuth_rad == pytest.approx(math.pi / 4)
        assert m.inclination_rad == pytest.approx(math.pi / 2)

    def test_directly_below(self):
        assert measurement_fn(_at([0, 0, -5.0]), [0, 0, 0]).inclination_rad == pytest.approx(math.pi)

    def test_coincident_raises(self):
        with pytest.raises(ValueError, match="coincident"):
            measurement_fn(_at([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])

    def test_round_trip_to_cartesian(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            delta = rng.uniform(-80, 80, 3)
            if np.linalg.norm(delta) < 1e-6:
                continue
            m = measurement_fn(_at(delta), [0, 0, 0])
            back = m.range_m * np.array(
                [
                    math.sin(m.inclination_rad) * math.cos(m.azimuth_rad),
                    math.sin(m.inclination_rad) * math.sin(m.azimuth_rad),
                    math.cos(m.inclination_rad),
                ]
            )
            np.testing.assert_allclose(back, delta, rtol=1e-9, atol=1e-9)


class TestSampleMeasurement:
    def test_zero_noise_equals_truth(self):
        rng = np.random.default_rng(0)
        truth = measurement_fn(_at([3.0, 4.0, 5.0]), [0, 0, 0])
        sampled = sample_measurement(_at([3.0, 4.0, 5.0]), [0, 0, 0], _noise_free(), rng)
        assert sampled.range_m == pytest.approx(truth.range_m, abs=1e-9)
        assert sampled.azimuth_rad == pytest.approx(truth.azimuth_rad, abs=1e-9)

    def test_range_noise_scales_with_distance(self):
        rng = np.random.default_rng(11)
        target = _at([10.0, 0.0, 0.0])
        n = 100_000
        residuals = np.array(
            [sample_measurement(target, [0, 0, 0], DEFAULTS, rng).range_m - 10.0 for _ in range(n)]
        )
        expected = DEFAULTS.sigma_rho0_m + DEFAULTS.beta_rho * 10.0  # 2.5 m
        assert residuals.std() == pytest.approx(expected, rel=0.02)

    def test_azimuth_residual_unbiased(self):
        rng = np.random.default_rng(12)
        target = _at([10.0, 10.0, 0.0])
        truth = measurement_fn(target, [0, 0, 0]).azimuth_rad
        n = 100_000
        residuals = np.array(
            [
                wrap_azimuth(sample_measurement(target, [0, 0, 0], DEFAULTS, rng).azimuth_rad - truth)
                for _ in range(n)
            ]
        )
        std_err = DEFAULTS.sigma_theta_rad / math.sqrt(n)
        assert abs(residuals.mean()) < 3 * std_err


class TestClutter:
    def test_zero_rate_always_empty(self):
        rng = np.random.default_rng(1)
        silent = SensingParams(0.99, 0.02, 2.0, 0.1, 0.1, 0.1, 0.0, 0.0, 10.0)
        assert all(len(sample_clutter(silent, rng)) == 0 for _ in range(100))

    def test_mean_count_near_rate(self):
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.array([len(sample_clutter(DEFAULTS, rng)) for _ in range(n)])
        assert counts.mean() == pytest.approx(15.0, rel=0.01)

    def test_samples_inside_measurement_space(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            for m in sample_clutter(DEFAULTS, rng):
                assert 0.0 <= m.range_m <= DEFAULTS.rho_max_m
                assert -math.pi < m.azimuth_rad <= math.pi
                assert 0.0 <= m.inclination_rad <= math.pi

    def test_coordinates_uniform(self):
        rng = np.random.default_rng(9)
        samples = []
        while len(samples) < 10_000:
            samples.extend(sample_clutter(DEFAULTS, rng))
        rho = np.array([m.range_m for m in samples]) / DEFAULTS.rho_max_m
        azimuth = (np.array([m.azimuth_rad for m in samples]) + math.pi) / (2 * math.pi)
        inclination = np.array([m.inclination_rad for m in samples]) / math.pi
        for coords in (rho, azimuth, inclination):
            assert stats.kstest(coords[:10_000], "uniform").pvalue > 0.01


class TestCollect:
    def test_certain_detection_no_clutter(self):
        rng = np.random.default_rng(4)
        certain = SensingParams(1.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 0.0, DEFAULTS.rho_max_m)
        for _ in range(50):
            assert len(collect(_at([5.0, 0, 0]), [0, 0, 0], certain, rng)) == 1

    def test_no_detection_no_clutter(self):
        rng = np.random.default_rng(4)
        blind = SensingParams(0.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 0.0, DEFAULTS.rho_max_m)
        for _ in range(50):
            assert collect(_at([5.0, 0, 0]), [0, 0, 0], blind, rng) == []

    def test_mean_cardinality(self):
        rng = np.random.default_rng(6)
        certain = SensingParams(1.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, DEFAULTS.rho_max_m)
        n = 100_000
        sizes = np.array([len(collect(_at([5.0, 0, 0]), [0, 0, 0], certain, rng)) for _ in range(n)])
        assert sizes.mean() == pytest.approx(16.0, rel=0.01)

    def test_empty_set_probability(self):
        rng = np.random.default_rng(8)
        p = SensingParams(0.6, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 1.5, DEFAULTS.rho_max_m)
        n = 50_000
        empties = sum(
            1 for _ in range(n) if len(collect(_at([5.0, 0, 0]), [0, 0, 0], p, rng)) == 0
        )
        expected = (1 - 0.6) * math.exp(-1.5)
        std_err = math.sqrt(expected * (1 - expected) / n)
        assert abs(empties / n - expected) < 3 * std_err


class TestMeasurementType:
    def test_azimuth_wraps_on_construction(self):
        assert Measurement(1.0, 3 * math.pi / 2, 0.5).azimuth_rad == pytest.approx(-math.pi / 2)
        assert Measurement(1.0, -math.pi, 0.5).azimuth_rad == pytest.approx(math.pi)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Measurement(-0.1, 0.0, 0.5)

    def test_inclination_bounds_enforced(self):
        with pytest.raises(ValueError, match="inclination"):
            Measurement(1.0, 0.0, 3.5)
