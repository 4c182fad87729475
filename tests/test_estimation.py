import dataclasses
import math

import numpy as np
import pytest

from cstj_sim.dynamics import MotionModel, TargetState, step_target
from cstj_sim.estimation import (
    Estimate,
    ParticleSet,
    _log_set_likelihood,
    _systematic_resample,
    _wrap_difference,
    ci_fuse,
    eap,
    effective_sample_size,
    init_particles,
    likelihood,
    predict,
    predicted_state,
    update,
)
from cstj_sim.sensing import (
    Measurement,
    SensingParams,
    collect,
    measurement_array,
    sample_measurement,
    spherical_coords,
    wrap_azimuth,
)
import likelihood_referee
from oracles import likelihood_by_hypotheses

MODEL = MotionModel(1.0, np.diag([2.0, 2.0, 2.0]))
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
    return [
        Measurement(
            rng.uniform(0, SENSING.rho_max_m), rng.uniform(-math.pi, math.pi), rng.uniform(0, math.pi)
        )
        for _ in range(count)
    ]


class TestInitParticles:
    def test_zero_covariance_collapses(self):
        mean = TargetState([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        ps = init_particles(mean, np.zeros((6, 6)), 50, np.random.default_rng(0))
        np.testing.assert_allclose(ps.states, np.tile(mean.as_vector(), (50, 1)))

    def test_uniform_weights(self):
        ps = init_particles(TargetState([0, 0, 0], [0, 0, 0]), np.eye(6), 64, np.random.default_rng(0))
        np.testing.assert_allclose(ps.weights, np.full(64, 1 / 64))

    def test_sample_mean_converges(self):
        mean = TargetState([1.0, -1.0, 2.0], [0.0, 0.5, -0.5])
        ps = init_particles(mean, 4.0 * np.eye(6), 100_000, np.random.default_rng(1))
        std_err = 2.0 / math.sqrt(100_000)
        assert np.all(np.abs(ps.states.mean(axis=0) - mean.as_vector()) < 3 * std_err)

    def test_non_psd_rejected(self):
        bad = np.eye(6)
        bad[0, 0] = -1.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            init_particles(TargetState([0, 0, 0], [0, 0, 0]), bad, 10, np.random.default_rng(0))


class TestPredict:
    def test_noiseless_shift(self):
        model = MotionModel(1.0, np.zeros((3, 3)))
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
        ps = init_particles(TargetState([5.0, 5, 5], [1.0, -1, 0]), np.eye(6), 50_000, rng)
        out = predict(ps, MODEL, rng)
        expected = MODEL.transition_matrix() @ (ps.weights @ ps.states)
        # noise and prior spread both contribute Monte-Carlo error
        assert np.abs(out.weights @ out.states - expected).max() < 0.05

    def test_noise_is_multivariate_normal_bit_for_bit(self):
        rng = np.random.default_rng(14)
        gain = rng.normal(size=(3, 3))
        model = MotionModel(0.5, gain @ gain.T)
        ps = ParticleSet(rng.normal(size=(50, 6)), np.full(50, 1 / 50))
        ours, ref = np.random.default_rng(15), np.random.default_rng(15)
        nu = ref.multivariate_normal(np.zeros(3), model.accel_noise_cov, size=50)
        expected = ps.states @ model.transition_matrix().T + nu @ model.noise_gain().T
        np.testing.assert_array_equal(predict(ps, model, ours).states, expected)
        assert ours.random() == ref.random()  # the stream advanced alike


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
        assert likelihood([], x, [0, 0, 0], SENSING) == pytest.approx(expected, rel=1e-12)

    def test_blind_sensor_clutter_only(self):
        blind = SensingParams(0.0, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 15.0, SENSING.rho_max_m)
        rng = np.random.default_rng(4)
        measurements = _random_measurements(rng, 3)
        expected = math.exp(-15.0) * (15.0 * blind.clutter_density) ** 3
        got = likelihood(measurements, TargetState([5.0, 0, 0], [0, 0, 0]), [0, 0, 0], blind)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_hypothesis_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = TargetState(rng.uniform(0, 100, 3), rng.uniform(-2, 2, 3))
            s_pos = rng.uniform(0, 100, 3)
            measurements = _random_measurements(rng, int(rng.integers(0, 5)))
            got = likelihood(measurements, x, s_pos, SENSING)
            expected = likelihood_by_hypotheses(measurements, x, s_pos, SENSING)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_positive_whenever_clutter_possible(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = TargetState(rng.uniform(0, 100, 3), [0, 0, 0])
            measurements = _random_measurements(rng, int(rng.integers(0, 4)))
            assert likelihood(measurements, x, rng.uniform(0, 100, 3), SENSING) > 0.0

    def test_wrap_difference_matches_wrap_azimuth(self):
        # measurement azimuths lie in (-pi, pi], particle azimuths in [-pi, pi]
        rng = np.random.default_rng(13)
        edges = np.array([-math.pi, -1e-300, -0.0, 0.0, 1e-300, math.pi])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, -edges)])
        angles = np.clip(np.concatenate([near, rng.uniform(-math.pi, math.pi, 600)]), -math.pi, math.pi)
        diffs = angles[:, None] - angles[None, :]
        np.testing.assert_array_equal(_wrap_difference(diffs), wrap_azimuth(diffs))


def _referee_case(n, m, seed):
    """Seeded particles and returns with the layout's edge cases mixed in.

    Most returns and half the particles crowd around one point, so that a
    particle's sum runs over many terms of like size, where the order of
    the additions shows in the last bits. Row 0 sits on the sensor; rows 1
    and 2 lie at azimuth 0 and pi, so that returns at azimuth pi, 0 and -pi
    give residuals of +-pi and -2 pi. The other half of the particles sweep
    the azimuth from the first return's own to the opposite one, which
    drives the log densities through the band below -708 where ``exp``
    gives subnormal results and then zero.
    """
    rng = np.random.default_rng(seed)
    s_pos = rng.uniform(0.0, 100.0, 3)
    center = rng.normal(scale=15.0, size=3)
    meas = np.column_stack(spherical_coords(center + rng.normal(scale=1.0, size=(m, 3))))
    meas[:3, 1] = [math.pi, 0.0, -math.pi][: len(meas)]
    rho, az, inc = meas[0] if m else spherical_coords(center)
    sweep = np.linspace(0.0, math.pi, n)
    offsets = rho * np.column_stack(
        [np.sin(inc) * np.cos(az + sweep), np.sin(inc) * np.sin(az + sweep), np.full(n, np.cos(inc))]
    )
    offsets[n // 2 :] = center + rng.normal(scale=1.5, size=(n - n // 2, 3))
    offsets[: min(n, 3)] = [[0.0, 0.0, 0.0], [7.0, 0.0, 3.0], [-7.0, 0.0, 3.0]][: min(n, 3)]
    states = np.concatenate([s_pos + offsets, rng.normal(size=(n, 3))], axis=1)
    return states, meas, s_pos


class TestMeasurementMajorLikelihood:
    """The measurement-major kernel against the particle-major one it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 200, 2000])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 8, 9, 16, 26, 40])
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
        # numpy adds a row of 8 or more terms pairwise; adding the returns
        # one by one gives other bits for some particles of this case
        assert np.any(dens.sum(axis=1) != np.cumsum(dens, axis=1)[:, -1])


class TestUpdate:
    def test_constant_likelihood_keeps_weights(self):
        # with eta = 0 the detection probability is flat, so an empty set is uninformative
        flat = SensingParams(0.5, 0.0, 2.0, 0.1, 0.1, 0.1, 0.0, 2.0, SENSING.rho_max_m)
        rng = np.random.default_rng(7)
        states = rng.normal(size=(100, 6))
        weights = rng.random(100)
        weights /= weights.sum()
        ps = ParticleSet(states, weights)
        out, uninformative = update(ps, [], [0, 0, 0], flat, rng)
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
        measurements = [sample_measurement(truth, s_pos, wide, rng)]
        oracle = np.array(
            [likelihood(measurements, TargetState.from_vector(s), s_pos, wide) for s in states]
        )
        oracle = weights * oracle
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
        ps = init_particles(truth, np.diag([25, 25, 25, 1, 1, 1]), 500, rng)
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
            out, _ = update(ps, [], [0, 0, 0], _flat_sensing(), rng)
            assert np.allclose(out.weights, 1 / 200)  # ESS of peaked weights triggers resample
            means.append(out.weights @ out.states)
        std_err = spread / math.sqrt(1000 * effective_sample_size(weights))
        assert np.abs(np.mean(means, axis=0) - target_mean).max() < 5 * std_err

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
        measurements = [sample_measurement(truth, s_pos, SENSING, rng)]
        for dx, dy, dz in ([-3.0, 2.0, 1.0], [2.0, 3.0, -2.5]):
            x, y, z = center[:3] + [dx, dy, dz]
            rho = math.sqrt(x * x + y * y + z * z)
            measurements.append(Measurement(rho, math.atan2(y, x), math.atan2(math.hypot(x, y), z)))
        meas = measurement_array(measurements)

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
            plain.append(ps.states[_systematic_resample(w, rng)].mean(axis=0))
            out, uninformative = update(ps, measurements, s_pos, SENSING, rng)
            assert not uninformative
            mixed.append(out.weights @ out.states)
        mixed, plain = np.array(mixed), np.array(plain)
        std_err = mixed.std(axis=0) / math.sqrt(reps)
        assert np.all(np.abs(mixed.mean(axis=0) - posterior_mean) < 5 * std_err)
        # the draws around the returns halve the error of resampling the cloud alone
        mse = lambda means: ((means - posterior_mean) ** 2).sum(axis=1).mean()
        assert mse(mixed) < 0.75 * mse(plain)


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
                init_particles(prior_mean, np.diag(prior_sigma**2), 2000, rng) for _ in offsets
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
