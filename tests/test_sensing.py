import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from cstj_sim.dynamics import norm
from cstj_sim.sensing import (
    SensingParams,
    collect,
    detection_prob_at_distance,
    fold_inclination,
    sample_clutter,
    sample_measurement,
    spherical_coords,
    wrap_azimuth,
    wrap_difference,
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


def _at(position) -> np.ndarray:
    """The drone's float (3,) position, as ``collect`` takes it."""
    return np.array(position, dtype=float)


def _detection_prob(offset):
    """The detection probability at the ``norm`` of a sensor-to-drone offset, as the package computes it."""
    return detection_prob_at_distance(norm(np.array(offset, dtype=float)), DEFAULTS)


def _noise_free(clutter_rate=0.0) -> SensingParams:
    # degenerate-noise variants keep tiny sigmas (zero is invalid by contract)
    return SensingParams(0.99, 0.02, 2.0, 1e-12, 1e-12, 1e-12, 0.0, clutter_rate, DEFAULTS.rho_max_m)


def _scalar_and_array_forms(fn, angles):
    """Bytes of ``fn`` applied to each angle as a float, and to all of them as one array."""
    scalars = [fn(float(a)) for a in angles]
    assert all(type(v) is float for v in scalars)
    return np.array(scalars).tobytes(), fn(np.array(angles, dtype=float)).tobytes()


class TestAngleForms:
    """One expression takes Python's ``%`` on a float and ``np.remainder`` on an array.

    Both must give the same bits, on numpy scalars and 0-d arrays too.
    """

    ODD_PI = [k * math.pi for k in range(-201, 202, 2)]
    EDGES = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, *ODD_PI]
    EDGES += [float(np.nextafter(a, b)) for a in EDGES for b in (-math.inf, math.inf)]

    @pytest.mark.parametrize("fn", [wrap_azimuth, fold_inclination])
    def test_edges_agree_bit_for_bit(self, fn):
        scalar, array = _scalar_and_array_forms(fn, self.EDGES)
        assert scalar == array

    @pytest.mark.parametrize("fn", [wrap_azimuth, fold_inclination])
    @pytest.mark.parametrize("form", [np.float64, np.array], ids=["float64", "0-d array"])
    def test_numpy_scalar_edges_agree_bit_for_bit(self, fn, form):
        scalar, _ = _scalar_and_array_forms(fn, self.EDGES)
        assert np.array([fn(form(a)) for a in self.EDGES]).tobytes() == scalar

    @pytest.mark.parametrize("fn", [wrap_azimuth, fold_inclination])
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_any_finite_angle_agrees_bit_for_bit(self, fn, angles):
        scalar, array = _scalar_and_array_forms(fn, angles)
        assert scalar == array

    def test_wrap_difference_matches_wrap_azimuth(self):
        # measurement azimuths lie in (-pi, pi], particle azimuths in [-pi, pi]
        rng = np.random.default_rng(13)
        # pi - 2**-50 (exact): its difference from 0 puts y = pi - d at the largest double below 2 pi
        edges = np.array([-math.pi, -1e-300, -0.0, 0.0, 1e-300, math.pi - 2.0**-50, math.pi])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, -edges)])
        angles = np.clip(np.concatenate([near, rng.uniform(-math.pi, math.pi, 600)]), -math.pi, math.pi)
        diffs = (angles[:, None] - angles[None, :]).ravel()
        # the shift's edges of y = pi - d: just below 2 pi, 2 pi, 3 pi, -pi;
        # y is never -0.0 (pi - pi is +0.0), so d = +-0.0 and d = pi stand for the zeros
        y_edges = {np.nextafter(2.0 * math.pi, 0.0), 2.0 * math.pi, 3.0 * math.pi, -math.pi, 0.0, math.pi}
        assert y_edges <= set(np.subtract(math.pi, diffs).tolist())
        assert {np.float64(-0.0).tobytes(), np.float64(math.pi).tobytes()} <= {d.tobytes() for d in diffs}
        expected = wrap_azimuth(diffs)
        # bytes, so that -0.0 and +0.0 differ
        np.testing.assert_array_equal(wrap_difference(diffs).view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(diffs, (angles[:, None] - angles[None, :]).ravel())

    def test_ranges(self):
        assert wrap_azimuth(-math.pi) == math.pi
        assert wrap_azimuth(3.0 * math.pi) == math.pi
        assert fold_inclination(-0.5) == 0.5
        assert fold_inclination(math.pi + 0.5) == pytest.approx(math.pi - 0.5)


def _piecewise_detection_prob(distance, p: SensingParams):
    """The detection curve as a ``where`` over r0, the package's earlier form, kept verbatim as a referee."""
    decayed = np.maximum(0.0, p.p_d_max - p.eta_per_m * (distance - p.r0_m))
    return np.where(distance < p.r0_m, p.p_d_max, decayed)


class TestDetectionProb:
    @pytest.mark.parametrize(
        "p",
        [
            DEFAULTS,
            dataclasses.replace(DEFAULTS, eta_per_m=0.0),
            dataclasses.replace(DEFAULTS, p_d_max=0.0),
            dataclasses.replace(DEFAULTS, p_d_max=1.0),
        ],
        ids=["defaults", "eta_0", "p_d_max_0", "p_d_max_1"],
    )
    def test_matches_piecewise_form_bit_for_bit(self, p):
        r0 = p.r0_m
        edge = r0 + p.p_d_max / p.eta_per_m if p.eta_per_m else math.inf  # where the decay reaches 0
        distances = [0.0, np.nextafter(r0, 0.0), r0, np.nextafter(r0, math.inf), 1e300, math.inf, math.nan]
        distances += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
        # an infinite distance times eta = 0 is NaN, in both forms
        with np.errstate(invalid="ignore"):
            for d in distances:
                got = detection_prob_at_distance(float(d), p)
                assert type(got) is np.float64
                assert got.tobytes() == _piecewise_detection_prob(float(d), p).tobytes()
            got = detection_prob_at_distance(np.array(distances), p)
            assert got.tobytes() == _piecewise_detection_prob(np.array(distances), p).tobytes()

    def test_inside_full_detection_radius(self):
        assert _detection_prob([1.0, 0, 0]) == 0.99

    def test_boundary_continuity(self):
        just_in = _detection_prob([1.9999999, 0, 0])
        at_r0 = _detection_prob([2.0, 0, 0])
        assert at_r0 == DEFAULTS.p_d_max
        assert just_in == pytest.approx(at_r0, abs=1e-6)

    def test_cutoff_distance(self):
        cutoff = DEFAULTS.r0_m + DEFAULTS.p_d_max / DEFAULTS.eta_per_m  # 51.5 m
        assert cutoff == pytest.approx(51.5)
        assert _detection_prob([cutoff, 0, 0]) == 0.0

    def test_non_increasing_in_distance(self):
        distances = np.linspace(0.1, 80.0, 200)
        probs = [_detection_prob([d, 0, 0]) for d in distances]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def _observe(offset):
    """Noise-free (range, azimuth, inclination) of a drone at ``offset`` from the sensor."""
    return spherical_coords(np.asarray(offset, dtype=float))


class TestMeasurementFn:
    """The measurement function: ``spherical_coords`` of the sensor-to-drone offset."""

    def test_directly_above(self):
        rho, _, inclination = _observe([0.0, 0.0, 5.0])
        assert (rho, inclination) == (5.0, 0.0)

    def test_diagonal_in_plane(self):
        rho, azimuth, inclination = _observe([1.0, 1.0, 0.0])
        assert rho == pytest.approx(math.sqrt(2))
        assert azimuth == pytest.approx(math.pi / 4)
        assert inclination == pytest.approx(math.pi / 2)

    def test_directly_below(self):
        assert _observe([0, 0, -5.0])[2] == pytest.approx(math.pi)

    def test_coincident_raises(self):
        with pytest.raises(ValueError, match="coincident"):
            sample_measurement(_observe(np.zeros(3)), DEFAULTS, np.random.default_rng(0))
        # collect reaches it only through a detection
        certain = dataclasses.replace(DEFAULTS, p_d_max=1.0, clutter_rate=0.0)
        with pytest.raises(ValueError, match="coincident"):
            collect(_at([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0], certain, np.random.default_rng(0))
        blind = dataclasses.replace(DEFAULTS, p_d_max=0.0, clutter_rate=0.0)
        assert collect(_at([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0], blind, np.random.default_rng(0)).shape == (0, 3)

    def test_round_trip_to_cartesian(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            delta = rng.uniform(-80, 80, 3)
            if np.linalg.norm(delta) < 1e-6:
                continue
            rho, azimuth, inclination = _observe(delta)
            back = rho * np.array(
                [
                    math.sin(inclination) * math.cos(azimuth),
                    math.sin(inclination) * math.sin(azimuth),
                    math.cos(inclination),
                ]
            )
            np.testing.assert_allclose(back, delta, rtol=1e-9, atol=1e-9)


class TestSampleMeasurement:
    def test_zero_noise_equals_truth(self):
        rng = np.random.default_rng(0)
        truth = _observe([3.0, 4.0, 5.0])
        sampled = sample_measurement(_observe([3.0, 4.0, 5.0]), _noise_free(), rng)
        assert all(type(v) is float for v in sampled)
        assert sampled[0] == pytest.approx(truth[0], abs=1e-9)
        assert sampled[1] == pytest.approx(truth[1], abs=1e-9)

    def test_range_noise_scales_with_distance(self):
        rng = np.random.default_rng(11)
        target = _at([10.0, 0.0, 0.0])
        n = 100_000
        residuals = np.array(
            [sample_measurement(_observe(target), DEFAULTS, rng)[0] - 10.0 for _ in range(n)]
        )
        expected = DEFAULTS.sigma_rho0_m + DEFAULTS.beta_rho * 10.0  # 2.5 m
        assert residuals.std() == pytest.approx(expected, rel=0.02)

    def test_azimuth_residual_unbiased(self):
        rng = np.random.default_rng(12)
        target = _at([10.0, 10.0, 0.0])
        truth = _observe(target)[1]
        n = 100_000
        residuals = np.array(
            [
                wrap_azimuth(sample_measurement(_observe(target), DEFAULTS, rng)[1] - truth)
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
            for rho, azimuth, inclination in sample_clutter(DEFAULTS, rng):
                assert 0.0 <= rho <= DEFAULTS.rho_max_m
                assert -math.pi < azimuth <= math.pi
                assert 0.0 <= inclination <= math.pi

    def test_coordinates_uniform(self):
        rng = np.random.default_rng(9)
        samples = []
        while len(samples) < 10_000:
            samples.extend(sample_clutter(DEFAULTS, rng))
        samples = np.array(samples)
        rho = samples[:, 0] / DEFAULTS.rho_max_m
        azimuth = (samples[:, 1] + math.pi) / (2 * math.pi)
        inclination = samples[:, 2] / math.pi
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
            assert collect(_at([5.0, 0, 0]), [0, 0, 0], blind, rng).shape == (0, 3)

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


class TestCollectDrawOrder:
    """``collect`` keeps the bytes and the draws of the per-return objects it replaced.

    The digests are the sha256 of eight successive sets, each as the bytes
    of its (n, 3) float64 array, taken from the earlier implementation that
    built one object per return and stacked them; the last value is the
    generator's next ``random()`` after the eight sets, so the number and
    order of draws must match too. The drone sits at azimuth -pi (a -0.0
    offset), where the noise-free azimuth is wrapped to pi before noise.
    """

    CASES = {
        "certain_with_clutter": (
            SensingParams(1.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, DEFAULTS.rho_max_m),
            [-5.0, -0.0, 1.0], 21, [15, 7, 19, 21, 23, 12, 16, 10],
            "6835062351bc4c3eae6dcbf04217d3c74b2a9b14d5c2886b9e1dfc9e92dab2d7", 0.19894049952101078,
        ),
        "blind_with_clutter": (
            SensingParams(0.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, DEFAULTS.rho_max_m),
            [-5.0, -0.0, 1.0], 22, [11, 16, 17, 12, 15, 18, 11, 10],
            "503d3ed61861e6a1067128e6489f012cd1e8693137ccb0a91e2afdeb6b09cf79", 0.3342490664554314,
        ),
        "clutter_free": (
            dataclasses.replace(DEFAULTS, clutter_rate=0.0),
            [20.0, -20.0, 10.0], 23, [0, 0, 1, 1, 1, 1, 0, 0],
            "3d3047d6cae206968d3e275889b172842c2cb55f632f1799ccb9962d8efecc1d", 0.018217355778746724,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_and_next_draw_pinned(self, name):
        p, position, seed, sizes, digest, next_draw = self.CASES[name]
        rng = np.random.default_rng(seed)
        sha = hashlib.sha256()
        got_sizes = []
        for _ in range(8):
            rows = collect(_at(position), [0.0, 0.0, 0.0], p, rng)
            assert rows.dtype == np.float64 and rows.shape == (len(rows), 3)
            sha.update(rows.tobytes())
            got_sizes.append(len(rows))
        assert got_sizes == sizes
        assert sha.hexdigest() == digest
        assert rng.random() == next_draw
