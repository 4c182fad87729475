import dataclasses
import math

import numpy as np
import pytest

from cstj_sim import estimation
from cstj_sim.dynamics import MotionModel, TargetState, norm, step_target
from cstj_sim.estimation import (
    _EXP_ZERO_BELOW,
    Estimate,
    ParticleSet,
    _exp_live,
    _log_set_likelihood,
    _sum_rows,
    _systematic_resample,
    ci_fuse,
    eap,
    effective_sample_size,
    init_particles,
    predict,
    predicted_state,
    update,
)
from cstj_sim.sensing import (
    SensingParams,
    collect,
    detection_prob_at_distance,
    sample_measurement,
    spherical_coords,
    wrap_azimuth,
)
import likelihood_referee
from oracles import likelihood_by_hypotheses, noise_gain, transition_matrix

MODEL = MotionModel(1.0, (2.0, 2.0, 2.0))
SENSING = SensingParams(
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


def _random_measurements(rng, count):
    """(count, 3) uniform returns, drawn row by row."""
    rows = [
        [rng.uniform(0, SENSING.rho_max_m), wrap_azimuth(rng.uniform(-math.pi, math.pi)), rng.uniform(0, math.pi)]
        for _ in range(count)
    ]
    return np.reshape(rows, (count, 3))


class TestParticleSet:
    def test_valid_set_accepted(self):
        ps = ParticleSet(np.zeros((2, 6)), [0.25, 0.75])
        assert len(ps) == 2

    @pytest.mark.parametrize(
        "states,weights,match",
        [
            (np.zeros((2, 5)), [0.5, 0.5], "states"),
            (np.zeros((0, 6)), [], "states"),
            (np.zeros((2, 6)), [1.0], "particle count"),
            (np.zeros((2, 6)), [1.5, -0.5], "nonnegative"),
            (np.zeros((2, 6)), [0.5, 0.6], "sum to one"),
            (np.zeros((2, 6)), [math.nan, math.nan], "sum to one"),
            (np.zeros((2, 6)), [math.nan, 1.0], "sum to one"),
            (np.zeros((2, 6)), [math.inf, 0.0], "sum to one"),
        ],
    )
    def test_invalid_sets_rejected(self, states, weights, match):
        with pytest.raises(ValueError, match=match):
            ParticleSet(states, weights)


class TestInitParticles:
    def test_zero_covariance_collapses(self):
        mean = TargetState([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        ps = init_particles(mean, np.zeros(6), 50, np.random.default_rng(0))
        np.testing.assert_allclose(ps.states, np.tile(mean.as_vector(), (50, 1)))

    def test_uniform_weights(self):
        ps = init_particles(TargetState([0, 0, 0], [0, 0, 0]), np.ones(6), 64, np.random.default_rng(0))
        np.testing.assert_allclose(ps.weights, np.full(64, 1 / 64))

    def test_sample_mean_converges(self):
        mean = TargetState([1.0, -1.0, 2.0], [0.0, 0.5, -0.5])
        ps = init_particles(mean, np.full(6, 2.0), 100_000, np.random.default_rng(1))
        std_err = 2.0 / math.sqrt(100_000)
        assert np.all(np.abs(ps.states.mean(axis=0) - mean.as_vector()) < 3 * std_err)

    @pytest.mark.parametrize("n", [1, 200, 2000])
    def test_draws_are_multivariate_normal_bit_for_bit(self, n):
        # unequal sigmas with zeros: the SVD factor permutes the axes, which mean + z * sigma would not
        mean = TargetState([1.0, -2.0, 3.0], [0.5, 0.0, -0.5])
        for seed in range(10):
            sigma = np.random.default_rng(seed).uniform(0.0, 10.0, 6) * (np.arange(6) % 3 != seed % 3)
            ps = init_particles(mean, sigma, n, np.random.default_rng([n, seed]))
            want = np.random.default_rng([n, seed]).multivariate_normal(mean.as_vector(), np.diag(sigma**2), n)
            assert ps.states.tobytes() == want.tobytes()


class TestPredict:
    def test_noiseless_shift(self):
        model = MotionModel(1.0, (0.0, 0.0, 0.0))
        states = np.array([[0.0, 0, 0, 1.0, 0, 0], [1.0, 1, 1, 0, 2.0, 0]])
        ps = ParticleSet(states, np.array([0.5, 0.5]))
        out = predict(ps, model, np.random.default_rng(0))
        np.testing.assert_allclose(out.states[:, :3], states[:, :3] + states[:, 3:])
        np.testing.assert_allclose(out.states[:, 3:], states[:, 3:])

    def test_weights_preserved(self):
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        ps = ParticleSet(np.zeros((4, 6)), weights)
        out = predict(ps, MODEL, np.random.default_rng(0))
        np.testing.assert_array_equal(out.weights, weights)

    def test_predicted_mean_matches_transition(self):
        rng = np.random.default_rng(2)
        ps = init_particles(TargetState([5.0, 5, 5], [1.0, -1, 0]), np.ones(6), 50_000, rng)
        out = predict(ps, MODEL, rng)
        expected = transition_matrix(MODEL.dt) @ (ps.weights @ ps.states)
        # noise and prior spread both contribute Monte-Carlo error
        assert np.abs(out.weights @ out.states - expected).max() < 0.05

    def test_noise_is_multivariate_normal_bit_for_bit(self):
        # unequal variances with a zero: the SVD factor permutes the axes, which z * sqrt(var) would not
        rng = np.random.default_rng(14)
        model = MotionModel(0.5, (0.5, 2.0, 0.0))
        cov = np.diag(model.accel_var)
        ps = ParticleSet(rng.normal(size=(50, 6)), np.full(50, 1 / 50))
        ours, ref = np.random.default_rng(15), np.random.default_rng(15)
        nu = ref.multivariate_normal(np.zeros(3), cov, size=50)
        expected = ps.states @ transition_matrix(model.dt).T + nu @ noise_gain(model.dt).T
        np.testing.assert_array_equal(predict(ps, model, ours).states, expected)
        assert ours.random() == ref.random()  # the stream advanced alike

        # the drone's own step draws through the same factor
        truth = TargetState.from_vector(ps.states[0])
        for _ in range(5):
            nu = ref.multivariate_normal(np.zeros(3), cov)
            expected = np.concatenate(
                [
                    truth.position + model.dt * truth.velocity + 0.5 * model.dt**2 * nu,
                    truth.velocity + model.dt * nu,
                ]
            )
            truth = step_target(truth, model, ours)
            assert truth.as_vector().tobytes() == expected.tobytes()
        assert ours.random() == ref.random()


class TestPredictedState:
    def test_single_particle(self):
        ps = ParticleSet(np.arange(6.0)[None, :], np.array([1.0]))
        np.testing.assert_allclose(predicted_state(ps).as_vector(), np.arange(6.0))

    def test_two_particle_midpoint(self):
        states = np.stack([np.zeros(6), np.ones(6)])
        ps = ParticleSet(states, np.array([0.5, 0.5]))
        np.testing.assert_allclose(predicted_state(ps).as_vector(), np.full(6, 0.5))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(200, 6))
        weights = rng.random(200)
        weights /= weights.sum()
        ps = ParticleSet(states, weights)
        direct = sum(w * s for w, s in zip(weights, states))
        np.testing.assert_allclose(predicted_state(ps).as_vector(), direct, rtol=1e-12)


class TestLikelihood:
    def test_empty_set(self):
        x = TargetState([10.0, 0, 0], [0, 0, 0])
        p_d = 0.99  # inside full-detection radius is 0.99 only within 11.5 m; here d=10
        expected = (1 - (SENSING.p_d_max - SENSING.eta_per_m * (10 - 2))) * math.exp(-15.0)
        got = np.exp(_log_set_likelihood(x.as_vector()[None, :], np.empty((0, 3)), [0, 0, 0], SENSING))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_blind_sensor_clutter_only(self):
        blind = SensingParams(0.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, SENSING.rho_max_m)
        rng = np.random.default_rng(4)
        measurements = _random_measurements(rng, 3)
        expected = math.exp(-15.0) * (15.0 * blind.clutter_density) ** 3
        x = TargetState([5.0, 0, 0], [0, 0, 0])
        got = np.exp(_log_set_likelihood(x.as_vector()[None, :], measurements, [0, 0, 0], blind))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_hypothesis_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = TargetState(rng.uniform(0, 100, 3), rng.uniform(-2, 2, 3))
            s_pos = rng.uniform(0, 100, 3)
            measurements = _random_measurements(rng, int(rng.integers(0, 5)))
            got = np.exp(_log_set_likelihood(x.as_vector()[None, :], measurements, s_pos, SENSING))[0]
            expected = likelihood_by_hypotheses(measurements, x, s_pos, SENSING)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_positive_whenever_clutter_possible(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = TargetState(rng.uniform(0, 100, 3), [0, 0, 0])
            measurements = _random_measurements(rng, int(rng.integers(0, 4)))
            log_l = _log_set_likelihood(x.as_vector()[None, :], measurements, rng.uniform(0, 100, 3), SENSING)
            assert np.exp(log_l)[0] > 0.0


def _straddle_cut_off(s_pos, meas):
    """Offsets at two adjacent sweep angles that put return 0's log density on either side of the ``exp`` cut-off."""
    rho, az, inc = meas[0]

    def offset(angle):
        return rho * np.array([np.sin(inc) * np.cos(az + angle), np.sin(inc) * np.sin(az + angle), np.cos(inc)])

    def log_density(angle):
        delta = (s_pos + offset(angle))[None, :] - s_pos
        dist = np.sqrt((delta * delta).sum(axis=-1))
        return likelihood_referee._log_measurement_densities(delta, dist, meas[:1], SENSING)[0, 0]

    lo, hi = 0.0, math.pi  # the density falls as the azimuth residual grows
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if log_density(mid) < _EXP_ZERO_BELOW:
            hi = mid
        else:
            lo = mid
    return [offset(lo), offset(hi)]


def _referee_case(n, m, seed):
    """Seeded particles and returns with the layout's edge cases mixed in.

    Most returns and half the particles crowd around one point, so that a
    particle's sum runs over many terms of like size, where the order of
    the additions shows in the last bits. Row 0 sits on the sensor; rows 1
    and 2 lie at azimuth 0 and pi, so that returns at azimuth pi, 0 and -pi
    give residuals of +-pi and -2 pi. The other half of the particles sweep
    the azimuth from the first return's own to the opposite one, which
    drives the log densities through the band below -708 where ``exp``
    gives subnormal results and then zero; rows 3 and 4 sit on either side
    of the cut-off below which the kernel skips ``exp``. Return 3 lies far
    beyond every particle, so its densities are all below the cut-off.
    """
    rng = np.random.default_rng(seed)
    s_pos = rng.uniform(0.0, 100.0, 3)
    center = rng.normal(scale=15.0, size=3)
    meas = np.column_stack(spherical_coords(center + rng.normal(scale=1.0, size=(m, 3))))
    meas[:3, 1] = [math.pi, 0.0, -math.pi][: len(meas)]
    meas[3:4, 0] += 1000.0
    rho, az, inc = meas[0] if m else spherical_coords(center)
    sweep = np.linspace(0.0, math.pi, n)
    offsets = rho * np.column_stack(
        [np.sin(inc) * np.cos(az + sweep), np.sin(inc) * np.sin(az + sweep), np.full(n, np.cos(inc))]
    )
    offsets[n // 2 :] = center + rng.normal(scale=1.5, size=(n - n // 2, 3))
    offsets[: min(n, 3)] = [[0.0, 0.0, 0.0], [7.0, 0.0, 3.0], [-7.0, 0.0, 3.0]][: min(n, 3)]
    if m and n >= 5:
        offsets[3:5] = _straddle_cut_off(s_pos, meas)
    states = np.concatenate([s_pos + offsets, rng.normal(size=(n, 3))], axis=1)
    return states, meas, s_pos


def _detection_edge(s_pos):
    """Adjacent x coordinates, sensor's y and z, whose distances from the sensor give ``p_d > 0`` and ``p_d == 0``."""

    def p_d(x):
        return detection_prob_at_distance(norm(np.array([x, *s_pos[1:]]) - s_pos), SENSING)

    lo, hi = s_pos[0], s_pos[0] + 100.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if p_d(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# detection range of SENSING: p_d falls to 0.0 at 51.5 m
_P_D_ZERO_M = SENSING.r0_m + SENSING.p_d_max / SENSING.eta_per_m
# each cloud layout's distance from the sensor, as a multiple of that range, and spread in m
_LAYOUTS = {"edge": (1.0, 8.0), "beyond": (1.5, 4.0), "inside": (0.6, 3.0), "infinite": (1.0, 8.0)}


def _undetectable_case(layout, m, seed, n=200):
    """A seeded cloud about the range where the detection probability reaches 0.0.

    ``layout`` places it: "edge" straddles that range, and its rows 0-3 sit
    at two adjacent floats on either side of it along x; "beyond" lies
    wholly past it and "inside" wholly within it; "infinite" straddles it,
    with rows 0-3 at an infinite, a NaN and an overflowing position. Return
    0 sits exactly on row 2 (4 outside "edge"), so that particle's
    densities are large; the others lie around random particles.
    """
    rng = np.random.default_rng(seed)
    s_pos = rng.uniform(0.0, 100.0, 3)
    radius, spread = _LAYOUTS[layout]
    directions = rng.normal(size=(n, 3))
    directions /= norm(directions)[:, None]
    positions = s_pos + directions * (radius * _P_D_ZERO_M + rng.normal(scale=spread, size=(n, 1)))
    if layout == "edge":
        lo, hi = _detection_edge(s_pos)
        positions[:4] = s_pos
        positions[:4, 0] = [np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)]
    elif layout == "infinite":
        positions[:4] = [[np.inf, 0.0, 0.0], [-np.inf, np.inf, 1.0], [np.nan, 0.0, 0.0], [1e200, 0.0, 0.0]]
    on = 2 if layout == "edge" else 4
    nearby = positions[rng.integers(4, n, size=m)] + rng.normal(scale=1.0, size=(m, 3))
    meas = np.column_stack(spherical_coords(np.concatenate([positions[on : on + 1], nearby[1:]])[:m] - s_pos))
    return np.concatenate([positions, rng.normal(size=(n, 3))], axis=1), meas, s_pos


class TestMeasurementMajorLikelihood:
    """The measurement-major kernel against the particle-major one it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 200, 2000])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 8, 9, 15, 16, 17, 26, 40, 127, 128, 129, 300])
    def test_matches_particle_major_kernel(self, m, n):
        states, meas, s_pos = _referee_case(n, m, seed=1000 * m + n)
        for sensing in (SENSING, dataclasses.replace(SENSING, clutter_rate=0.0)):
            got = _log_set_likelihood(states, meas, s_pos, sensing)
            expected = likelihood_referee._log_set_likelihood(states, meas, s_pos, sensing)
            assert got.shape == expected.shape == (n,)
            assert got.tobytes() == expected.tobytes()

    def test_cases_reach_the_edges(self):
        states, meas, s_pos = _referee_case(2000, 9, seed=9002)
        delta = states[:, :3] - s_pos
        dist = np.sqrt((delta * delta).sum(axis=-1))
        log_dens = likelihood_referee._log_measurement_densities(delta, dist, meas, SENSING)
        dens = np.exp(log_dens)
        assert dist[0] == 0.0
        assert np.arctan2(delta[1:3, 1], delta[1:3, 0]).tolist() == [0.0, math.pi]
        residuals = meas[None, :3, 1] - np.arctan2(delta[1:3, 1], delta[1:3, 0])[:, None]
        assert {math.pi, -math.pi, -2.0 * math.pi} <= set(residuals.ravel().tolist())
        assert np.any((dens > 0.0) & (dens < np.finfo(float).tiny))
        assert np.any((log_dens < -708.0) & (dens == 0.0))
        # whole particles and whole returns below the cut-off, and elements
        # just on either side of it
        dead = log_dens < _EXP_ZERO_BELOW
        assert np.any(dead.all(axis=1)) and np.any(dead.all(axis=0))
        assert np.any(dead & (log_dens > _EXP_ZERO_BELOW - 1e-9))
        assert np.any(~dead & (log_dens < _EXP_ZERO_BELOW + 1e-9))
        # numpy adds a row of 8 or more terms pairwise; adding the returns
        # one by one gives other bits for some particles of this case
        assert np.any(dens.sum(axis=1) != np.cumsum(dens, axis=1)[:, -1])

    def test_nan_return_gives_nan_where_the_referee_does(self):
        # a NaN density must reach the sum, not be taken for one below the
        # cut-off, and it makes the sum NaN for particles the sensor cannot
        # detect too: 0 * NaN is NaN
        states, meas, s_pos = _referee_case(200, 9, seed=9003)
        states[::3, :3] = s_pos + 1.5 * _P_D_ZERO_M * states[::3, 3:] / norm(states[::3, 3:])[:, None]
        meas[5] = np.nan
        undetectable = detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING) == 0.0
        assert undetectable.sum() == len(states[::3])
        for sensing, returns in ((SENSING, meas), (dataclasses.replace(SENSING, clutter_rate=0.0), meas[5:6])):
            got = _log_set_likelihood(states, returns, s_pos, sensing)
            expected = likelihood_referee._log_set_likelihood(states, returns, s_pos, sensing)
            assert np.isnan(expected[undetectable]).all()
            assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("m", [0, 1, 2, 17])
    def test_particles_beyond_detection_range(self, layout, m):
        states, meas, s_pos = _undetectable_case(layout, m, seed=100 * m + list(_LAYOUTS).index(layout))
        expected = {}
        # the overflowing position's distance is inf, and the infinite
        # positions' range residuals are -inf / inf
        with np.errstate(over="ignore", invalid="ignore"):
            p_d = detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING)
            for lam in (SENSING.clutter_rate, 0.0):
                sensing = dataclasses.replace(SENSING, clutter_rate=lam)
                got = _log_set_likelihood(states, meas, s_pos, sensing)
                expected[lam] = likelihood_referee._log_set_likelihood(states, meas, s_pos, sensing)
                assert got.tobytes() == expected[lam].tobytes()
        detectable = p_d > 0.0
        if layout == "edge":
            assert detectable[:4].tolist() == [True, True, False, False]
            assert 0 < detectable[4:].sum() < len(states) - 4
        elif layout == "infinite":
            assert p_d[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0] and np.isnan(p_d[2])
            # a skip that ignored their NaN sums would give these particles a number
            assert np.isnan(expected[SENSING.clutter_rate][[0, 1, 3]]).all() == (m > 0)
            assert np.isnan(expected[0.0][[0, 1, 3]]).all() == (m == 1)
        else:
            assert detectable.all() if layout == "inside" else not detectable.any()

    def test_undetectable_particles_whose_densities_overflow(self):
        # densities above e**709.78 make S infinite, and 0 * inf is NaN
        states, meas, s_pos = _undetectable_case("beyond", 3, seed=9004)
        narrow = dataclasses.replace(SENSING, sigma_theta_rad=1e-160, sigma_phi_rad=1e-160)
        with np.errstate(over="ignore", invalid="ignore"):
            for sensing in (narrow, dataclasses.replace(narrow, clutter_rate=0.0)):
                returns = meas if sensing.clutter_rate else meas[:1]
                got = _log_set_likelihood(states, returns, s_pos, sensing)
                expected = likelihood_referee._log_set_likelihood(states, returns, s_pos, sensing)
                assert np.isnan(expected[4])
                assert np.array_equal(got, expected, equal_nan=True)

    def test_density_grid_holds_only_detectable_particles(self, monkeypatch):
        # the grid of densities has a column for each particle with p_d > 0 only
        columns = []
        densities = estimation._log_measurement_densities

        def spy(dist, *args):
            columns.append(len(dist))
            return densities(dist, *args)

        monkeypatch.setattr(estimation, "_log_measurement_densities", spy)
        states, meas, s_pos = _undetectable_case("edge", 9, seed=9005)
        detectable = int((detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING) > 0.0).sum())
        assert 50 < detectable < 150
        _log_set_likelihood(states, meas, s_pos, SENSING)
        _log_set_likelihood(states, meas[:1], s_pos, dataclasses.replace(SENSING, clutter_rate=0.0))
        assert columns == [detectable, detectable]


class TestExpCutOff:
    """The numpy in use rounds ``exp`` to exactly 0.0 below the kernel's cut-off."""

    BELOW = np.concatenate(
        [
            [np.nextafter(_EXP_ZERO_BELOW, -np.inf)],
            np.linspace(np.nextafter(_EXP_ZERO_BELOW, -np.inf), -1e4, 200_001),
            [-np.inf],
        ]
    )

    def test_the_boundary_is_real(self):
        assert np.exp(-745.13) > 0.0
        assert np.exp(np.full(17, -745.13)).min() > 0.0

    @pytest.mark.parametrize("start", range(8))
    def test_whole_sweep_at_every_alignment(self, start):
        buffer = np.zeros(start + len(self.BELOW))
        buffer[start:] = self.BELOW
        assert not np.exp(buffer[start:]).any()

    @pytest.mark.parametrize("length", range(1, 18))
    def test_short_arrays_and_tails(self, length):
        # numpy's exp runs SIMD lanes over full vectors and a scalar path on
        # the remainder; short arrays at each offset put every sample in both
        samples = self.BELOW[np.r_[0:8, 8 : len(self.BELOW) : 2001, -1]]
        buffer = np.empty(length + 7)
        for value in samples:
            for start in range(8):
                buffer.fill(value)
                assert not np.exp(buffer[start : start + length]).any()

    def test_exp_live_matches_exp(self):
        rng = np.random.default_rng(14)
        edges = [np.nan, -np.inf, np.inf, 0.0, -708.5, -745.13, _EXP_ZERO_BELOW]
        edges += [np.nextafter(_EXP_ZERO_BELOW, -np.inf), np.nextafter(_EXP_ZERO_BELOW, 0.0)]
        for values in (np.array(edges), rng.uniform(-800.0, 1.0, size=(7, 301))):
            assert _exp_live(values.copy()).tobytes() == np.exp(values).tobytes()


@pytest.mark.parametrize("columns", [1, 3, 200])
def test_sum_rows_matches_numpy_row_sums(columns):
    # numpy's own sum of each contiguous (particle, return) row is the referee
    rng = np.random.default_rng(columns)
    for n in range(1, 300):
        g = np.exp(rng.normal(scale=3.0, size=(n, columns)))
        expected = np.ascontiguousarray(g.T).sum(axis=1)
        assert _sum_rows(g).tobytes() == expected.tobytes()


class TestUpdate:
    def test_constant_likelihood_keeps_weights(self):
        # with eta = 0 the detection probability is flat, so an empty set is uninformative
        flat = SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 2.0, SENSING.rho_max_m)
        rng = np.random.default_rng(7)
        states = rng.normal(size=(100, 6))
        weights = rng.random(100)
        weights /= weights.sum()
        ps = ParticleSet(states, weights)
        out, uninformative = update(ps, np.empty((0, 3)), [0, 0, 0], flat, rng)
        assert not uninformative
        np.testing.assert_allclose(out.weights, weights, rtol=1e-12)

    def test_matches_reweighting_oracle(self):
        rng = np.random.default_rng(8)
        truth = TargetState([20.0, 20.0, 20.0], [0, 0, 0])
        s_pos = np.array([15.0, 15.0, 15.0])
        # noise wide relative to the prior spread keeps the reweighting mild
        wide = SensingParams(0.9, 0.01, 2.0, 0.5, 0.5, 5.0, 0.05, 3.0, SENSING.rho_max_m)
        states = truth.as_vector() + rng.normal(scale=2.0, size=(300, 6))
        weights = np.full(300, 1 / 300)
        measurements = np.array([sample_measurement(spherical_coords(truth.position - s_pos), wide, rng)])
        oracle = weights * np.exp(_log_set_likelihood(states, measurements, s_pos, wide))
        oracle /= oracle.sum()
        assert effective_sample_size(oracle) >= 150  # construction keeps the no-resample branch
        ps = ParticleSet(states, weights)
        out, uninformative = update(ps, measurements, s_pos, wide, rng)
        assert not uninformative
        np.testing.assert_allclose(out.weights @ out.states, oracle @ states, rtol=1e-12)

    def test_underflow_flags_uninformative(self):
        silent = SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 0.0, SENSING.rho_max_m)
        rng = np.random.default_rng(9)
        states = rng.normal(size=(50, 6))
        ps = ParticleSet(states, np.full(50, 1 / 50))
        # two measurements cannot both be explained with the clutter process off
        out, uninformative = update(ps, _random_measurements(rng, 2), [0, 0, 0], silent, rng)
        assert uninformative
        np.testing.assert_array_equal(out.weights, ps.weights)

    def test_weights_normalized_after_updates(self):
        rng = np.random.default_rng(10)
        truth = TargetState([30.0, 30, 30], [0, 0, 0])
        ps = init_particles(truth, (5.0, 5.0, 5.0, 1.0, 1.0, 1.0), 500, rng)
        for _ in range(10):
            ps = predict(ps, MODEL, rng)
            truth = step_target(truth, MODEL, rng)
            measurements = collect(truth, [25.0, 25, 25], SENSING, rng)
            ps, _ = update(ps, measurements, [25.0, 25, 25], SENSING, rng)
            assert abs(ps.weights.sum() - 1.0) <= 1e-9

    def test_resampling_preserves_mean_in_expectation(self):
        rng = np.random.default_rng(11)
        states = rng.normal(size=(200, 6))
        weights = rng.random(200) ** 4  # peaked weights force resampling
        weights /= weights.sum()
        target_mean = weights @ states
        means = []
        spread = states.std(axis=0).max()
        for _ in range(1000):
            ps = ParticleSet(states, weights)
            out, _ = update(ps, np.empty((0, 3)), [0, 0, 0], _flat_sensing(), rng)
            assert np.allclose(out.weights, 1 / 200)  # ESS of peaked weights triggers resample
            means.append(out.weights @ out.states)
        std_err = spread / math.sqrt(1000 * effective_sample_size(weights))
        assert np.abs(np.mean(means, axis=0) - target_mean).max() < 5 * std_err

    def test_degenerate_update_without_returns_resamples_the_cloud(self):
        # an empty set passes no return through the gate, so the mixture gives
        # way before any draw and the cloud alone is resampled systematically
        rng = np.random.default_rng(16)
        near, far = rng.normal(size=(150, 6)) + [5.0, 0, 0, 0, 0, 0], rng.normal(size=(50, 6)) + [200.0, 0, 0, 0, 0, 0]
        ps = ParticleSet(np.concatenate([near, far]), np.full(200, 1 / 200))
        empty = np.empty((0, 3))
        log_w = np.log(ps.weights) + _log_set_likelihood(ps.states, empty, [0, 0, 0], SENSING)
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
        assert effective_sample_size(weights) < 100  # the missed detections near the sensor make it degenerate
        got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        out, uninformative = update(ps, empty, [0, 0, 0], SENSING, got_rng)
        assert not uninformative
        assert out.states.tobytes() == ps.states[_systematic_resample(weights, want_rng, 200)].tobytes()
        assert got_rng.random() == want_rng.random()

    def test_degenerate_update_samples_the_posterior(self):
        # A Gaussian cloud 2 m wide, 5 m from the sensor, with velocity tied
        # to position: the angular likelihood is a few tenths of a metre wide,
        # so the update is degenerate. Two clutter returns sit inside the cloud.
        rng = np.random.default_rng(12)
        s_pos = np.zeros(3)
        center = np.array([4.0, 3.0, 2.0, 1.0, 0.0, -1.0])
        gain = 2.0 * np.eye(6)
        gain[3:, :3] = 0.5 * np.eye(3)
        cov = gain @ gain.T
        truth = TargetState.from_vector(center + [1.5, -1.0, 0.5, 0.0, 0.0, 0.0])
        measurements = [sample_measurement(spherical_coords(truth.position - s_pos), SENSING, rng)]
        for dx, dy, dz in ([-3.0, 2.0, 1.0], [2.0, 3.0, -2.5]):
            x, y, z = center[:3] + [dx, dy, dz]
            rho = math.sqrt(x * x + y * y + z * z)
            measurements.append((rho, wrap_azimuth(math.atan2(y, x)), math.atan2(math.hypot(x, y), z)))
        meas = np.array(measurements)

        # importance-sampling reference from the exact prior; the set
        # likelihood is checked against hypothesis enumeration above
        ref = rng.multivariate_normal(center, cov, size=400_000)
        log_l = _log_set_likelihood(ref, meas, s_pos, SENSING)
        ref_w = np.exp(log_l - log_l.max())
        ref_w /= ref_w.sum()
        posterior_mean = ref_w @ ref

        n, reps = 400, 200
        mixed, plain = [], []
        for _ in range(reps):
            ps = ParticleSet(rng.multivariate_normal(center, cov, size=n), np.full(n, 1 / n))
            log_l = _log_set_likelihood(ps.states, meas, s_pos, SENSING)
            w = np.exp(log_l - log_l.max())
            w /= w.sum()
            assert effective_sample_size(w) < n / 2
            plain.append(ps.states[_systematic_resample(w, rng, n)].mean(axis=0))
            out, uninformative = update(ps, meas, s_pos, SENSING, rng)
            assert not uninformative
            mixed.append(out.weights @ out.states)
        mixed, plain = np.array(mixed), np.array(plain)
        std_err = mixed.std(axis=0) / math.sqrt(reps)
        assert np.all(np.abs(mixed.mean(axis=0) - posterior_mean) < 5 * std_err)
        # the draws around the returns halve the error of resampling the cloud alone
        mse = lambda means: ((means - posterior_mean) ** 2).sum(axis=1).mean()
        assert mse(mixed) < 0.75 * mse(plain)


def _read_only_set(states, weights) -> ParticleSet:
    states, weights = np.array(states, dtype=float), np.array(weights, dtype=float)
    states.setflags(write=False)
    weights.setflags(write=False)
    return ParticleSet(states, weights)


def test_filter_steps_never_write_into_a_set(monkeypatch):
    """``predict`` and ``update`` hand arrays on from set to set, so no step may write into one.

    Every set starts read-only, so any write in place raises. The three
    updates reweight only, resample through the mixture, and underflow.
    """
    rng = np.random.default_rng(13)
    cases = []
    # wide noise against a 2 m cloud keeps the update a plain reweighting
    truth = TargetState([20.0, 20.0, 20.0], [0, 0, 0])
    wide = SensingParams(0.9, 0.01, 2.0, 0.5, 0.5, 5.0, 0.05, 3.0, SENSING.rho_max_m)
    s_pos = np.array([15.0, 15.0, 15.0])
    meas = np.array([sample_measurement(spherical_coords(truth.position - s_pos), wide, rng)])
    states = truth.as_vector() + rng.normal(scale=2.0, size=(300, 6))
    cases.append((_read_only_set(states, np.full(300, 1 / 300)), meas, s_pos, wide))
    # a 2 m cloud 5 m from the sensor against the angular noise: degenerate,
    # with the return inside the cloud's gate
    center = np.array([4.0, 3.0, 2.0, 1.0, 0.0, -1.0])
    truth = TargetState.from_vector(center + [1.0, -0.5, 0.5, 0.0, 0.0, 0.0])
    meas = np.array([sample_measurement(spherical_coords(truth.position), SENSING, rng)])
    states = center + rng.normal(scale=2.0, size=(400, 6))
    cases.append((_read_only_set(states, np.full(400, 1 / 400)), meas, np.zeros(3), SENSING))
    # two returns with the clutter process off: the likelihood underflows
    silent = SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 0.0, SENSING.rho_max_m)
    meas = _random_measurements(rng, 2)
    cases.append((_read_only_set(rng.normal(size=(50, 6)), np.full(50, 1 / 50)), meas, np.zeros(3), silent))

    mixed = []
    mixture_resample = estimation._mixture_resample

    def spy(*args):
        states = mixture_resample(*args)
        mixed.append(states is not None)
        return states

    monkeypatch.setattr(estimation, "_mixture_resample", spy)
    results, flags = [], []
    for ps, meas, s_pos, p in cases:
        predicted = predict(ps, MODEL, rng)
        predicted_state(ps)
        predicted_state(predicted)
        out, uninformative = update(ps, meas, s_pos, p, rng)
        results += [predicted, out]
        flags.append(uninformative)
    fused = ci_fuse([eap(ps) for ps in results])

    assert flags == [False, False, True] and mixed == [True]
    reweighted, silenced = cases[0][0], cases[2][0]
    assert results[0].weights is reweighted.weights and results[1].states is reweighted.states
    assert results[5] is silenced
    assert np.all(np.isfinite(fused.covariance))


def _flat_sensing():
    return SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 2.0, SENSING.rho_max_m)


class TestEap:
    def test_single_particle(self):
        ps = ParticleSet(np.arange(6.0)[None, :], np.array([1.0]))
        est = eap(ps)
        np.testing.assert_allclose(est.mean.as_vector(), np.arange(6.0))
        np.testing.assert_allclose(est.covariance, np.zeros((6, 6)))

    def test_symmetric_pair(self):
        v = np.array([1.0, -2.0, 3.0, 0.5, 0.0, -1.0])
        ps = ParticleSet(np.stack([v, -v]), np.array([0.5, 0.5]))
        est = eap(ps)
        np.testing.assert_allclose(est.mean.as_vector(), np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(est.covariance, np.outer(v, v), rtol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        states = rng.normal(size=(100, 6))
        weights = rng.random(100)
        weights /= weights.sum()
        est = eap(ParticleSet(states, weights))
        mean = sum(w * s for w, s in zip(weights, states))
        cov = sum(w * np.outer(s - mean, s - mean) for w, s in zip(weights, states))
        np.testing.assert_allclose(est.mean.as_vector(), mean, rtol=1e-12)
        np.testing.assert_allclose(est.covariance, cov, rtol=1e-12, atol=1e-12)


def _random_estimate(rng, scale=1.0):
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    cov = basis @ np.diag(rng.uniform(0.5, 5.0, 6) * scale) @ basis.T
    return Estimate(TargetState.from_vector(rng.normal(size=6)), cov)


class TestCiFuse:
    def test_single_estimate_unchanged(self):
        est = _random_estimate(np.random.default_rng(0))
        fused = ci_fuse([est])
        np.testing.assert_array_equal(fused.mean.as_vector(), est.mean.as_vector())
        np.testing.assert_array_equal(fused.covariance, est.covariance)

    def test_identical_pair_is_identity(self):
        est = _random_estimate(np.random.default_rng(1))
        fused = ci_fuse([est, Estimate(est.mean, est.covariance.copy())])
        np.testing.assert_allclose(fused.mean.as_vector(), est.mean.as_vector(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fused.covariance, est.covariance, rtol=1e-9, atol=1e-9)

    def test_trace_never_worse_than_best_input(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = _random_estimate(rng), _random_estimate(rng, scale=2.0)
            fused = ci_fuse([a, b])
            best = min(np.trace(a.covariance), np.trace(b.covariance))
            assert np.trace(fused.covariance) <= best + 1e-9

    def test_matches_dense_weight_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = _random_estimate(rng), _random_estimate(rng)
            fused = ci_fuse([a, b])
            info_a, info_b = np.linalg.inv(a.covariance), np.linalg.inv(b.covariance)
            grid_traces = [
                np.trace(np.linalg.inv(w * info_a + (1 - w) * info_b))
                for w in np.linspace(0.0, 1.0, 1001)
            ]
            assert np.trace(fused.covariance) <= min(grid_traces) + 1e-6 * abs(min(grid_traces))

    def test_convexity_bound_is_psd(self):
        # fused covariance never exceeds the matching convex combination of inputs
        rng = np.random.default_rng(4)
        for _ in range(25):
            a, b = _random_estimate(rng), _random_estimate(rng)
            fused = ci_fuse([a, b])
            info_a, info_b = np.linalg.inv(a.covariance), np.linalg.inv(b.covariance)
            best = None
            for w in np.linspace(0.0, 1.0, 2001):
                tr = np.trace(np.linalg.inv(w * info_a + (1 - w) * info_b))
                if best is None or tr < best[0]:
                    best = (tr, w)
            w = best[1]
            bound = w * a.covariance + (1 - w) * b.covariance
            assert np.linalg.eigvalsh(bound - fused.covariance).min() >= -1e-8

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ci_fuse([])


class TestFilterConsistency:
    def test_station_keeping_rmse(self):
        # clutter off, detection forced certain, four agents kept 10 m from the
        # drone: fused position RMSE over steps 20-50 stays below twice the
        # base range noise in at least 90% of 50 trials
        forced = SensingParams(1.0, 0.0, 2.0, math.pi / 50, math.pi / 50, 2.0, 0.05, 0.0, SENSING.rho_max_m)
        offsets = 10.0 * np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        prior_sigma = np.array([5.0, 5, 5, 1, 1, 1])
        successes = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            truth = TargetState(rng.uniform(20, 80, 3), rng.uniform(-2, 2, 3))
            prior_mean = TargetState.from_vector(truth.as_vector() + rng.normal(size=6) * prior_sigma)
            filters = [
                init_particles(prior_mean, prior_sigma, 2000, rng) for _ in offsets
            ]
            errors = []
            for step in range(1, 51):
                truth = step_target(truth, MODEL, rng)
                estimates = []
                for j, offset in enumerate(offsets):
                    filters[j] = predict(filters[j], MODEL, rng)
                    s_pos = truth.position + offset
                    measurements = collect(truth, s_pos, forced, rng)
                    filters[j], _ = update(filters[j], measurements, s_pos, forced, rng)
                    estimates.append(eap(filters[j]))
                fused = ci_fuse(estimates)
                if step >= 20:
                    errors.append(np.linalg.norm(fused.mean.position - truth.position))
            rmse = math.sqrt(np.mean(np.square(errors)))
            successes += rmse < 2 * forced.sigma_rho0_m
        assert successes >= 45
