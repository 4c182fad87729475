import dataclasses
import functools
import itertools
import math
import operator
import warnings

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
import mixture_referee
from oracles import fast_ci_weights, likelihood_by_hypotheses, noise_gain, transition_matrix

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

    def test_zero_particles_refused(self):
        with pytest.raises(ValueError, match="particle count"):
            init_particles(TargetState([0, 0, 0], [0, 0, 0]), np.ones(6), 0, np.random.default_rng(0))

    def test_uniform_weights(self):
        ps = init_particles(TargetState([0, 0, 0], [0, 0, 0]), np.ones(6), 64, np.random.default_rng(0))
        np.testing.assert_allclose(ps.weights, np.full(64, 1 / 64))

    def test_sample_mean_converges(self):
        mean = TargetState([1.0, -1.0, 2.0], [0.0, 0.5, -0.5])
        ps = init_particles(mean, np.full(6, 2.0), 100_000, np.random.default_rng(1))
        std_err = 2.0 / math.sqrt(100_000)
        assert np.all(np.abs(ps.states.mean(axis=0) - mean.as_vector()) < 3 * std_err)

    @pytest.mark.parametrize("n", [1, 200, 2000])
    def test_draws_are_mean_plus_z_times_sigma_bit_for_bit(self, n):
        # unequal, unsorted sigmas with zeros: each axis takes its own normal, in axis order
        mean = TargetState([1.0, -2.0, 3.0], [0.5, 0.0, -0.5])
        for seed in range(10):
            sigma = np.random.default_rng(seed).uniform(0.0, 10.0, 6) * (np.arange(6) % 3 != seed % 3)
            ours, ref = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
            ps = init_particles(mean, sigma, n, ours)
            want = mean.as_vector() + ref.standard_normal((n, 6)) * sigma
            assert ps.states.tobytes() == want.tobytes()
            assert ours.random() == ref.random()  # the stream advanced alike

    def test_each_axis_has_its_own_variance(self):
        sigma = np.array([0.5, 3.0, 1.0, 2.0, 0.0, 4.0])
        mean = TargetState([1.0, -2.0, 3.0], [0.5, -7.0, -0.5])
        n = 20_000
        states = init_particles(mean, sigma, n, np.random.default_rng(21)).states
        var = sigma**2
        assert np.all(np.abs(states.var(axis=0) - var) <= 4 * var * math.sqrt(2 / n))
        assert np.all(states[:, 4] == -7.0)


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

    def test_noise_is_z_times_sd_bit_for_bit(self):
        # unequal, unsorted variances with a zero: each axis takes its own normal, in axis order
        rng = np.random.default_rng(14)
        model = MotionModel(0.5, (0.5, 2.0, 0.0))
        sd = np.sqrt(model.accel_var)
        ps = ParticleSet(rng.normal(size=(50, 6)), np.full(50, 1 / 50))
        ours, ref = np.random.default_rng(15), np.random.default_rng(15)
        nu = ref.standard_normal((50, 3)) * sd
        expected = ps.states @ transition_matrix(model.dt).T + nu @ noise_gain(model.dt).T
        np.testing.assert_array_equal(predict(ps, model, ours).states, expected)
        assert ours.random() == ref.random()  # the stream advanced alike

        # the drone's own step draws the same way
        truth = TargetState.from_vector(ps.states[0])
        for _ in range(5):
            nu = ref.standard_normal(3) * sd
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
        got = np.exp(_log_set_likelihood(x.as_vector()[None, :], np.empty((0, 3)), np.zeros(3), SENSING))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_blind_sensor_clutter_only(self):
        blind = SensingParams(0.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, SENSING.rho_max_m)
        rng = np.random.default_rng(4)
        measurements = _random_measurements(rng, 3)
        expected = math.exp(-15.0) * (15.0 * blind.clutter_density) ** 3
        x = TargetState([5.0, 0, 0], [0, 0, 0])
        got = np.exp(_log_set_likelihood(x.as_vector()[None, :], measurements, np.zeros(3), blind))[0]
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

    def test_is_the_law_collect_samples(self):
        # E over Z ~ collect(x) of L(Z | x') / L(Z | x) is 1 exactly when the
        # set likelihood is the density collect draws from, detection, noise,
        # clamps and clutter included. x is 14 m from the sensor, 77 degrees
        # from the vertical, where the ratio's variance is small; x' moves
        # 1.5 m in x, or 0.6 m in y or z, about half a noise scale. 20 000
        # sets give standard errors near 0.007 and 0.0045, and the bound is
        # 4 of them; a likelihood with 1.2 times the range or azimuth noise
        # of the sampler reads 3.7 and 13 standard errors off. Clutter
        # scales L(Z | x) and L(Z | x') alike, so two more columns move the
        # clutter rate instead, L(Z | x; 0.8 lambda) / L(Z | x; lambda) and
        # at 1.2 lambda (standard errors near 0.0063 and 0.0069): a scorer
        # with 1.5 times the sampler's rate reads +122 and -503 off.
        rng = np.random.default_rng(14)
        s_pos = np.array([50.0, 50.0, 50.0])
        x = np.array([62.0, 44.0, 53.0, 0.0, 0.0, 0.0])
        shifts = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.6]])
        states = x + np.pad(shifts, ((0, 0), (0, 3)))
        truth = TargetState.from_vector(x)
        rates = [dataclasses.replace(SENSING, clutter_rate=f * SENSING.clutter_rate) for f in (0.8, 1.2)]
        sets = 20_000
        ratios = np.empty((sets, 5))
        for i in range(sets):
            meas = collect(truth, s_pos, SENSING, rng)
            log_l = _log_set_likelihood(states, meas, s_pos, SENSING)
            log_rates = [_log_set_likelihood(states[:1], meas, s_pos, q)[0] for q in rates]
            ratios[i] = np.exp(np.append(log_l[1:], log_rates) - log_l[0])
        std_err = ratios.std(axis=0, ddof=1) / math.sqrt(sets)
        assert np.all(std_err < 0.01)
        assert np.all(np.abs(ratios.mean(axis=0) - 1.0) < 4.0 * std_err)


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


def _folded_log_set_likelihood(states, meas, s_pos, p: SensingParams):
    """The clutter set likelihood from the referee's densities, each particle's returns added one at a time."""
    delta = states[:, :3] - s_pos
    dist = np.sqrt((delta * delta).sum(axis=-1))
    p_d = detection_prob_at_distance(dist, p)
    dens = np.exp(likelihood_referee._log_measurement_densities(delta, dist, meas, p))
    sums = functools.reduce(np.add, dens.T)
    lam = p.clutter_rate
    base = len(meas) * math.log(lam * p.clutter_density) - lam
    return base + likelihood_referee._safe_log((1.0 - p_d) + p_d * sums / (lam * p.clutter_density))


def _with_clutter(lam):
    return dataclasses.replace(SENSING, clutter_rate=lam)


def _no_detection(meas, p: SensingParams):
    """The log likelihood of the set for a particle the sensor cannot detect: every return is clutter."""
    lam = p.clutter_rate
    if lam > 0:
        return len(meas) * math.log(lam * p.clutter_density) - lam
    return 0.0 if len(meas) == 0 else -math.inf


def _assert_no_detection_where_undetectable(got, expected, p_d, meas, p: SensingParams):
    """``got`` has the referee's bytes where ``p_d`` is not 0.0 (NaN included), and no detection's where it is."""
    undetectable = p_d == 0.0
    assert got[~undetectable].tobytes() == expected[~undetectable].tobytes()
    assert got[undetectable].tobytes() == np.full(undetectable.sum(), _no_detection(meas, p)).tobytes()


class TestMeasurementMajorLikelihood:
    """The measurement-major kernel against the particle-major one it replaced.

    The referee sums each particle's contiguous row of densities with
    numpy's ``sum``, which is pairwise from 8 returns on; the package adds
    the returns one at a time. The two agree bit for bit below 8 returns
    and without clutter, where a particle's sum has at most one term.
    """

    @pytest.mark.parametrize("n", [1, 5, 200, 2000])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 8, 9, 15, 16, 17, 26, 40, 127, 128, 129, 300])
    def test_matches_particle_major_kernel(self, m, n):
        states, meas, s_pos = _referee_case(n, m, seed=1000 * m + n)
        clutter_free = dataclasses.replace(SENSING, clutter_rate=0.0)
        got = _log_set_likelihood(states, meas, s_pos, clutter_free)
        assert got.tobytes() == likelihood_referee._log_set_likelihood(states, meas, s_pos, clutter_free).tobytes()
        got = _log_set_likelihood(states, meas, s_pos, SENSING)
        expected = likelihood_referee._log_set_likelihood(states, meas, s_pos, SENSING)
        assert got.shape == expected.shape == (n,)
        if m < 8:
            assert got.tobytes() == expected.tobytes()
        if m:
            assert got.tobytes() == _folded_log_set_likelihood(states, meas, s_pos, SENSING).tobytes()
        if m >= 8:
            # Each computed sum of m non-negative terms lies within (m - 1) u S
            # of the exact S, u = eps / 2, so the two sums differ by at most
            # (m - 1) eps relative. The three roundings between the sum and
            # the log add 3 eps; the log turns that relative difference into
            # an absolute one, and the log and the final add round once each
            # (2 eps). Every log likelihood here is below -1, so the
            # absolute bound is a relative one too.
            assert (expected < -1.0).all()
            np.testing.assert_allclose(got, expected, rtol=(m + 4) * np.finfo(float).eps, atol=0.0)

    def test_lone_detectable_particle_adds_its_returns_in_order(self):
        # one detectable particle makes a one-column grid, which numpy's sum
        # over the leading axis would add pairwise; S must still come from
        # adding the returns one at a time, as in the whole grid
        rng = np.random.default_rng(9006)
        s_pos = rng.uniform(0.0, 100.0, 3)
        directions = rng.normal(size=(200, 3))
        positions = s_pos + 1.5 * _P_D_ZERO_M * directions / norm(directions)[:, None]
        positions[7] = s_pos + [20.0, 5.0, 3.0]
        meas = np.column_stack(spherical_coords(positions[7] + rng.normal(scale=1.0, size=(17, 3)) - s_pos))
        delta = positions - s_pos
        dist = norm(delta)
        p_d = detection_prob_at_distance(dist, SENSING)
        assert (p_d > 0.0).nonzero()[0].tolist() == [7]
        dens = np.exp(likelihood_referee._log_measurement_densities(delta[7:8], dist[7:8], meas, SENSING))[0]
        folded = functools.reduce(np.add, dens)
        assert dens.sum() != folded
        sums = estimation._detectable_density_sums(delta, dist, p_d, meas, SENSING)
        assert sums.tobytes() == np.where(p_d > 0.0, folded, 0.0).tobytes()

    @pytest.mark.parametrize("columns", [2, 3, 2000])
    @pytest.mark.parametrize("m", [0, 8, 17, 40])
    def test_density_sums_add_each_particles_returns_in_order(self, m, columns):
        # a grid of two or more detectable particles is summed over its
        # returns by numpy; each S must still be its particle's returns
        # added one at a time, in the set's order, byte for byte
        rng = np.random.default_rng([9, m, columns])
        s_pos = rng.uniform(0.0, 100.0, 3)
        center = s_pos + [20.0, 5.0, 3.0]
        detectable = center + rng.normal(scale=1.0, size=(columns, 3))
        # detectable, but opposite every return: a column of zero densities
        detectable[2::7] = 2.0 * s_pos - center
        directions = rng.normal(size=(columns // 2 + 1, 3))
        undetectable = s_pos + 1.5 * _P_D_ZERO_M * directions / norm(directions)[:, None]
        positions = np.concatenate([detectable, undetectable])[rng.permutation(columns + len(undetectable))]
        meas = np.column_stack(spherical_coords(center + rng.normal(scale=1.0, size=(m, 3)) - s_pos))
        delta = positions - s_pos
        dist = norm(delta)
        p_d = detection_prob_at_distance(dist, SENSING)
        assert (p_d > 0.0).sum() == columns
        dens = np.exp(likelihood_referee._log_measurement_densities(delta, dist, meas, SENSING))
        folded = [functools.reduce(operator.add, row.tolist(), 0.0) for row in dens]
        expected = np.where(p_d > 0.0, folded, 0.0)
        if m:
            assert (dens[p_d > 0.0] == 0.0).all(axis=1).sum() == len(detectable[2::7])
        if m >= 8:
            # numpy's pairwise sum of a particle's returns gives other bits
            assert np.any(dens[p_d > 0.0].sum(axis=1) != expected[p_d > 0.0])
        sums = estimation._detectable_density_sums(delta, dist, p_d, meas, SENSING)
        assert sums.tobytes() == expected.tobytes()

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

    def test_nan_return_reaches_detectable_particles_only(self):
        # a NaN density must reach the sum, not be taken for one below the
        # cut-off; it makes S NaN for every particle the sensor can detect,
        # while one it cannot detect keeps S = 0.0 and scores no detection
        states, meas, s_pos = _referee_case(200, 9, seed=9003)
        states[::3, :3] = s_pos + 1.5 * _P_D_ZERO_M * states[::3, 3:] / norm(states[::3, 3:])[:, None]
        meas[5] = np.nan
        p_d = detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING)
        assert (p_d == 0.0).sum() == len(states[::3])
        for sensing, returns in ((SENSING, meas), (_with_clutter(0.0), meas[5:6])):
            got = _log_set_likelihood(states, returns, s_pos, sensing)
            expected = likelihood_referee._log_set_likelihood(states, returns, s_pos, sensing)
            assert np.isnan(expected).all()
            _assert_no_detection_where_undetectable(got, expected, p_d, returns, sensing)

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
                expected[lam] = likelihood_referee._log_set_likelihood(states, meas, s_pos, _with_clutter(lam))
        for lam in (SENSING.clutter_rate, 0.0):
            # numpy's default "warn" is an error under the suite's filterwarnings
            with np.errstate(over="ignore" if layout == "infinite" else "warn"):
                got = _log_set_likelihood(states, meas, s_pos, _with_clutter(lam))
            _assert_no_detection_where_undetectable(got, expected[lam], p_d, meas, _with_clutter(lam))
        detectable = p_d > 0.0
        if layout == "edge":
            assert detectable[:4].tolist() == [True, True, False, False]
            assert 0 < detectable[4:].sum() < len(states) - 4
        elif layout == "infinite":
            assert p_d[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0] and np.isnan(p_d[2])
            # the referee's sums for these particles are NaN, which 0 * S
            # would carry; the package gives them S = 0.0 instead
            assert np.isnan(expected[SENSING.clutter_rate][[0, 1, 3]]).all() == (m > 0)
            assert np.isnan(expected[0.0][[0, 1, 3]]).all() == (m == 1)
        else:
            assert detectable.all() if layout == "inside" else not detectable.any()

    def test_undetectable_particles_whose_densities_overflow(self):
        # densities above e**709.78 make the referee's S infinite, and 0 * inf
        # is NaN; no density of an undetectable particle is ever computed
        states, meas, s_pos = _undetectable_case("beyond", 3, seed=9004)
        narrow = dataclasses.replace(SENSING, sigma_theta_rad=1e-160, sigma_phi_rad=1e-160)
        p_d = detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING)
        assert not p_d.any()
        for sensing in (narrow, dataclasses.replace(narrow, clutter_rate=0.0)):
            returns = meas if sensing.clutter_rate else meas[:1]
            with np.errstate(over="ignore", invalid="ignore"):
                expected = likelihood_referee._log_set_likelihood(states, returns, s_pos, sensing)
            assert np.isnan(expected[4])
            got = _log_set_likelihood(states, returns, s_pos, sensing)
            _assert_no_detection_where_undetectable(got, expected, p_d, returns, sensing)

    def test_empty_set_scores_the_missed_detection(self):
        # S is 0.0 for an empty set, so (1 - p_d) + p_d S / K is 1 - p_d exactly
        states, meas, s_pos = _undetectable_case("edge", 0, seed=9007)
        p_d = detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING)
        assert (p_d == 0.0).any() and (p_d > 0.0).any()
        got = _log_set_likelihood(states, meas, s_pos, SENSING)
        assert got.tobytes() == (-SENSING.clutter_rate + np.log(1.0 - p_d)).tobytes()

    def test_density_grid_holds_only_detectable_particles(self, monkeypatch):
        # the grid of densities has a column for each particle with p_d > 0
        # only, whatever the returns and the noise scales
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
        _log_set_likelihood(states, meas[:1], s_pos, _with_clutter(0.0))
        meas[4] = np.nan
        _log_set_likelihood(states, meas, s_pos, SENSING)
        _log_set_likelihood(states, meas[4:5], s_pos, _with_clutter(0.0))
        assert columns == [detectable] * 4
        # the case of the test above, whose densities would overflow
        states, meas, s_pos = _undetectable_case("beyond", 3, seed=9004)
        narrow = dataclasses.replace(SENSING, sigma_theta_rad=1e-160, sigma_phi_rad=1e-160)
        _log_set_likelihood(states, meas, s_pos, narrow)
        _log_set_likelihood(states, meas[:1], s_pos, dataclasses.replace(narrow, clutter_rate=0.0))
        assert columns[4:] == [0, 0]


def _layouts(array):
    """``array`` as given, as an F-ordered copy and as a strided view into a larger array."""
    big = np.full((2 * len(array), array.shape[1] + 1), np.nan)
    big[::2, 1:] = array
    return [array, np.asfortranarray(array), big[::2, 1:]]


def _lone_detectable_case(seed, n=200):
    """A cloud beyond detection range but for row 7, 20 m from the sensor, and returns about that row."""
    rng = np.random.default_rng(seed)
    s_pos = rng.uniform(0.0, 100.0, 3)
    directions = rng.normal(size=(n, 3))
    positions = s_pos + 1.5 * _P_D_ZERO_M * directions / norm(directions)[:, None]
    positions[7] = s_pos + [20.0, 5.0, 3.0]
    meas = np.column_stack(spherical_coords(positions[7] + rng.normal(scale=1.0, size=(9, 3)) - s_pos))
    return np.concatenate([positions, rng.normal(size=(n, 3))], axis=1), meas, s_pos


class TestOffsetLayouts:
    """The likelihood's offsets give the same bytes whatever the memory layout of the states or offsets."""

    @pytest.mark.parametrize("case", ["referee", "edge", "inside", "lone"])
    @pytest.mark.parametrize("lam", [SENSING.clutter_rate, 0.0])
    def test_log_set_likelihood_of_any_state_layout(self, case, lam):
        if case == "referee":
            states, meas, s_pos = _referee_case(200, 9, seed=9010)
        elif case == "lone":
            states, meas, s_pos = _lone_detectable_case(9011)
        else:
            states, meas, s_pos = _undetectable_case(case, 9, seed=9012)
        returns = meas if lam else meas[:1]
        expected = _log_set_likelihood(states, returns, s_pos, _with_clutter(lam))
        layouts = _layouts(states)
        assert states.flags.c_contiguous and not layouts[1].flags.c_contiguous and not layouts[2].flags.c_contiguous
        for layout in layouts[1:]:
            got = _log_set_likelihood(layout, returns, s_pos, _with_clutter(lam))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["all", "some", "one"])
    def test_density_sums_of_any_offset_layout(self, case):
        if case == "one":
            states, meas, s_pos = _lone_detectable_case(9013)
        else:
            states, meas, s_pos = _undetectable_case("inside" if case == "all" else "edge", 17, seed=9014)
        delta = np.ascontiguousarray(states[:, :3] - s_pos)
        dist = norm(delta)
        p_d = detection_prob_at_distance(dist, SENSING)
        detectable = int((p_d > 0.0).sum())
        assert {"all": detectable == len(p_d), "some": 1 < detectable < len(p_d), "one": detectable == 1}[case]
        expected = estimation._detectable_density_sums(delta, dist, p_d, meas, SENSING)
        offsets = [np.ascontiguousarray(delta.T).T, _layouts(delta)[2]]
        assert offsets[0].flags.f_contiguous and not offsets[1].flags.c_contiguous
        for layout in offsets:
            got = estimation._detectable_density_sums(layout, dist, p_d, meas, SENSING)
            assert got.tobytes() == expected.tobytes()


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


class TestUpdate:
    def test_constant_likelihood_keeps_weights(self):
        # with eta = 0 the detection probability is flat, so an empty set is uninformative
        flat = SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 2.0, SENSING.rho_max_m)
        rng = np.random.default_rng(7)
        states = rng.normal(size=(100, 6))
        weights = rng.random(100)
        weights /= weights.sum()
        ps = ParticleSet(states, weights)
        out, uninformative = update(ps, np.empty((0, 3)), np.zeros(3), flat, rng)
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
        out, uninformative = update(ps, _random_measurements(rng, 2), np.zeros(3), silent, rng)
        assert uninformative
        np.testing.assert_array_equal(out.weights, ps.weights)

    def test_nan_return_leaves_an_undetectable_cloud_as_it_was(self):
        # no particle can be detected, so every one scores the no-detection
        # hypothesis, NaN return or not, and the prior weights stand
        states, meas, s_pos = _undetectable_case("beyond", 5, seed=9008)
        assert not detection_prob_at_distance(norm(states[:, :3] - s_pos), SENSING).any()
        meas[2] = np.nan
        ps = ParticleSet(states, np.full(len(states), 1.0 / len(states)))
        out, uninformative = update(ps, meas, s_pos, SENSING, np.random.default_rng(18))
        assert not uninformative
        assert out.states is ps.states
        assert out.weights.tobytes() == ps.weights.tobytes()

    def test_weights_normalized_after_updates(self):
        rng = np.random.default_rng(10)
        truth = TargetState([30.0, 30, 30], [0, 0, 0])
        ps = init_particles(truth, (5.0, 5.0, 5.0, 1.0, 1.0, 1.0), 500, rng)
        sensor = np.array([25.0, 25, 25])
        for _ in range(10):
            ps = predict(ps, MODEL, rng)
            truth = step_target(truth, MODEL, rng)
            measurements = collect(truth, sensor, SENSING, rng)
            ps, _ = update(ps, measurements, sensor, SENSING, rng)
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
            out, _ = update(ps, np.empty((0, 3)), np.zeros(3), _flat_sensing(), rng)
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
        log_w = np.log(ps.weights) + _log_set_likelihood(ps.states, empty, np.zeros(3), SENSING)
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
        assert effective_sample_size(weights) < 100  # the missed detections near the sensor make it degenerate
        got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        out, uninformative = update(ps, empty, np.zeros(3), SENSING, got_rng)
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


# returns about particles of the cloud, which pass the gate; two far ones never do
_GATED = {"none": 0, "one": 1, "many": 9}


def _mixture_case(n, gated, seed):
    """A seeded update of a 2 m cloud 5 m from the sensor, with velocity tied to position.

    The set holds ``_GATED[gated]`` returns drawn about random particles and
    two returns far off, shuffled; the prior weights are random. From 200
    particles on, a return that passes the gate makes the update degenerate.
    """
    rng = np.random.default_rng(seed)
    s_pos = rng.uniform(0.0, 100.0, 3)
    center = np.concatenate([s_pos + [4.0, 3.0, 2.0], rng.normal(size=3)])
    gain = 2.0 * np.eye(6)
    gain[3:, :3] = 0.5 * np.eye(3)
    states = center + rng.normal(size=(n, 6)) @ gain.T
    near = states[rng.integers(n, size=_GATED[gated]), :3] + rng.normal(scale=0.1, size=(_GATED[gated], 3))
    far = s_pos + [[120.0, -40.0, 30.0], [-90.0, 80.0, -20.0]] + rng.normal(size=(2, 3))
    positions = np.concatenate([near, far])[rng.permutation(_GATED[gated] + 2)]
    meas = np.array([sample_measurement(spherical_coords(x - s_pos), SENSING, rng) for x in positions])
    weights = rng.random(n)
    ps = ParticleSet(states, weights / weights.sum())
    log_w = np.log(ps.weights) + _log_set_likelihood(ps.states, meas, s_pos, SENSING)
    return ps, log_w, meas, s_pos


def _singular_case(n):
    """n (a power of two) equally weighted particles whose x and y are equal and +-2**30: an exactly singular fit.

    Every sum and product of the fit is exact in any order: the mean is 0,
    the x, y block is 2**60 in all four entries, and 1e-9 is below half its
    ulp, so the Cholesky factor's second pivot is exactly 0.
    """
    states = np.zeros((n, 6))
    states[:, :2] = np.where(np.arange(n) % 2, 2.0**30, -(2.0**30))[:, None]
    return ParticleSet(states, np.full(n, 1.0 / n))


class TestMixtureReferee:
    """``_mixture_resample`` against its verbatim referee, byte for byte, with the same draws.

    A last-bit change in the balance weights seldom moves a systematic
    draw, so the weights each one is handed (the components' and the final
    ones) must match byte for byte too.
    """

    @staticmethod
    def _assert_matches(monkeypatch, ps, log_w, meas, s_pos):
        handed = {estimation: [], mixture_referee: []}

        def spy(calls):
            def resample(weights, *args):
                calls.append(weights.tobytes())
                return _systematic_resample(weights, *args)

            return resample

        for module, calls in handed.items():
            monkeypatch.setattr(module, "_systematic_resample", spy(calls))
        got_rng, want_rng = np.random.default_rng(19), np.random.default_rng(19)
        got = estimation._mixture_resample(ps, log_w, meas, s_pos, SENSING, got_rng)
        expected = mixture_referee._mixture_resample(ps, log_w, meas, s_pos, SENSING, want_rng)
        if expected is None:
            assert got is None
        else:
            assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()
        assert handed[estimation] == handed[mixture_referee]
        assert got_rng.random() == want_rng.random()
        return got

    @pytest.mark.parametrize("gated", list(_GATED))
    @pytest.mark.parametrize("n", [1, 2, 200, 2000])
    def test_matches_referee(self, monkeypatch, n, gated):
        ps, log_w, meas, s_pos = _mixture_case(n, gated, seed=[n, _GATED[gated]])
        passed = estimation._gated_returns(meas, s_pos, *estimation._moments(ps), SENSING)
        if gated == "none":
            assert passed is None
        else:
            assert len(passed[3]) == 1 if gated == "one" else len(passed[3]) >= 8
        if n >= 200 and gated != "none":
            weights = np.exp(log_w - log_w.max())
            assert effective_sample_size(weights / weights.sum()) < n / 2
        got = self._assert_matches(monkeypatch, ps, log_w, meas, s_pos)
        assert (got is None) == (gated == "none")

    @pytest.mark.parametrize("n", [2, 256, 2048])
    def test_singular_fit_matches_referee(self, monkeypatch, n):
        ps = _singular_case(n)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(estimation._moments(ps)[1] + estimation._COV_JITTER * np.eye(6))
        _, log_w, meas, s_pos = _mixture_case(n, "many", seed=[n, 99])
        assert self._assert_matches(monkeypatch, ps, log_w, meas, s_pos) is None


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


def _cov(rng, cond, scale=1.0):
    """An exactly symmetric 6x6 covariance with eigenvalues spread geometrically over ``cond``."""
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    cov = basis @ np.diag(scale * rng.permutation(np.geomspace(1.0, cond, 6))) @ basis.T
    return 0.5 * (cov + cov.T)


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

    def test_weights_are_the_inverse_traces(self):
        # the information-form sums under the oracle's 1 / tr weights, inputs
        # of traces spread over two decades, each inverted plus 1e-9 I
        rng = np.random.default_rng(2)
        for k in (2, 3, 5, 12):
            estimates = [_random_estimate(rng, scale) for scale in rng.uniform(0.1, 10.0, k)]
            covs = [e.covariance + 1e-9 * np.eye(6) for e in estimates]
            weights = fast_ci_weights(covs)
            infos = [np.linalg.inv(c) for c in covs]
            info = sum(w * i for w, i in zip(weights, infos))
            vec = sum(w * i @ e.mean.as_vector() for w, i, e in zip(weights, infos, estimates))
            fused = ci_fuse(estimates)
            np.testing.assert_allclose(fused.covariance, np.linalg.inv(info), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fused.mean.as_vector(), np.linalg.solve(info, vec), rtol=1e-9, atol=1e-12)

    def test_convexity_bound_is_psd(self):
        # inv(sum w_i I_i) <= sum w_i P_i, whose trace under 1 / tr weights is
        # the harmonic mean of the input traces
        rng = np.random.default_rng(3)
        for k in (2, 4, 12):
            for _ in range(10):
                estimates = [_random_estimate(rng, scale) for scale in rng.uniform(0.1, 10.0, k)]
                covs = [e.covariance for e in estimates]
                fused = ci_fuse(estimates)
                bound = sum(w * c for w, c in zip(fast_ci_weights(covs), covs))
                assert np.linalg.eigvalsh(bound - fused.covariance).min() >= -1e-8
                harmonic = k / sum(1.0 / np.trace(c) for c in covs)
                assert np.trace(fused.covariance) <= harmonic + 6e-8

    def test_input_order_changes_only_rounding(self):
        rng = np.random.default_rng(4)
        estimates = [_random_estimate(rng, scale) for scale in (1.0, 1.0, 1.2, 1.5)]
        want = ci_fuse(estimates)
        for order in itertools.permutations(estimates):
            got = ci_fuse(order)
            np.testing.assert_allclose(got.mean.as_vector(), want.mean.as_vector(), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.covariance, want.covariance, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 7, 12])
    def test_identical_inputs_give_the_input_back(self, k):
        est = _random_estimate(np.random.default_rng(k))
        fused = ci_fuse([Estimate(est.mean, est.covariance.copy()) for _ in range(k)])
        np.testing.assert_allclose(fused.mean.as_vector(), est.mean.as_vector(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fused.covariance, est.covariance, rtol=1e-9, atol=1e-9)

    def test_ill_conditioned_team_fuses_finite(self):
        # twelve inputs, as a 12-agent team gives, with condition numbers up
        # to 1e6 and scales from 1e-3 to 1e3
        rng = np.random.default_rng(8)
        covs = [_cov(rng, 10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(12)]
        estimates = [Estimate(TargetState.from_vector(rng.normal(size=6)), cov) for cov in covs]
        fused = ci_fuse(estimates)
        assert np.isfinite(fused.mean.as_vector()).all() and np.isfinite(fused.covariance).all()

    def test_zero_covariances_get_finite_weights(self):
        # one particle per filter gives every covariance zero: each is
        # weighted by the trace of the 1e-9 I it is inverted as, never 1 / 0
        rng = np.random.default_rng(9)
        zeros = [Estimate(TargetState.from_vector(rng.normal(size=6)), np.zeros((6, 6))) for _ in range(3)]
        full = [_random_estimate(rng) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            all_zero, one_zero = ci_fuse(zeros), ci_fuse([full[0], zeros[0], *full[1:]])
        # equal weights on equal information give the plain mean of the means
        mean = np.mean([e.mean.as_vector() for e in zeros], axis=0)
        np.testing.assert_allclose(all_zero.mean.as_vector(), mean, rtol=1e-12, atol=1e-12)
        # against traces near 10, the zero covariance takes nearly all the weight
        np.testing.assert_allclose(one_zero.mean.as_vector(), zeros[0].mean.as_vector(), atol=1e-6)
        for fused in (all_zero, one_zero):
            assert np.isfinite(fused.mean.as_vector()).all() and np.isfinite(fused.covariance).all()

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
