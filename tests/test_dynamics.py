import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cstj_sim.dynamics import (
    ActionGrid,
    AgentState,
    MotionModel,
    TargetState,
    enumerate_actions,
    norm,
    step_target,
)
from oracles import enumerate_actions_reference, noise_gain

MODEL = MotionModel(1.0, (2.0, 2.0, 2.0))
GRID = ActionGrid((1.0, 3.0, 5.0), 2, 4)


class TestTargetState:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("component", range(6))
    def test_refuses_a_non_finite_component(self, component, value):
        vec = [1.0, -2.0, 3.0, 0.5, 0.0, -0.5]
        vec[component] = value
        with pytest.raises(ValueError, match="state components must be finite"):
            TargetState(vec[:3], vec[3:])
        with pytest.raises(ValueError, match="state components must be finite"):
            TargetState.from_vector(vec)

    def test_accepts_the_largest_finite_components(self):
        big = np.finfo(float).max
        assert TargetState.from_vector([big, -big, 0.0, -0.0, big, -big]).as_vector()[0] == big


class TestStepTarget:
    def test_noiseless_is_affine(self):
        model = MotionModel(1.0, (0.0, 0.0, 0.0))
        state = TargetState([1.0, 2.0, 3.0], [0.5, -0.5, 1.0])
        out = step_target(state, model, np.random.default_rng(0))
        np.testing.assert_allclose(out.position, [1.5, 1.5, 4.0])
        np.testing.assert_allclose(out.velocity, state.velocity)

    def test_zero_velocity_fixed_point(self):
        model = MotionModel(1.0, (0.0, 0.0, 0.0))
        state = TargetState([4.0, 4.0, 4.0], [0.0, 0.0, 0.0])
        out = step_target(state, model, np.random.default_rng(0))
        np.testing.assert_allclose(out.position, state.position)

    def test_mean_position_matches_noiseless_propagation(self):
        # Monte-Carlo moment check: mean of p + dt v + 0.5 dt^2 nu is p + dt v
        rng = np.random.default_rng(123)
        state = TargetState([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
        n = 100_000
        positions = np.array([step_target(state, MODEL, rng).position for _ in range(n)])
        expected = state.position + MODEL.dt * state.velocity
        std_err = math.sqrt(0.25 * 2.0 / n)
        assert np.all(np.abs(positions.mean(axis=0) - expected) < 3 * std_err)

    def test_noise_covariance_converges(self):
        # unequal, unsorted variances with a zero: each axis keeps its own, in axis order
        model = MotionModel(1.0, (0.5, 2.0, 0.0))
        n = 20_000
        nu = model.accel_noise(np.random.default_rng(7), (n,))
        var = np.array(model.accel_var)
        assert np.all(np.abs(nu.var(axis=0) - var) <= 4 * var * math.sqrt(2 / n))
        assert np.all(nu[:, 2] == 0.0)
        sample_cov = np.cov(model.advance(np.zeros((n, 6)), nu).T, bias=True)
        gain = noise_gain(model.dt)
        expected = gain @ np.diag(var) @ gain.T
        assert np.abs(sample_cov - expected).max() < 0.05 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(), (7,), (2, 5)])
    def test_accel_noise_is_z_times_sd_bit_for_bit(self, shape):
        model = MotionModel(0.5, (0.5, 2.0, 0.0))
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = model.accel_noise(ours, shape)
        assert got.shape == (*shape, 3)
        assert got.tobytes() == (ref.standard_normal((*shape, 3)) * np.sqrt(model.accel_var)).tobytes()
        assert ours.random() == ref.random()

    def test_transition_matrix_composition(self):
        # without noise, a step of 0.5 s then one of 1.5 s is one step of 2 s
        m1, m2, m12 = MotionModel(0.5, (1.0,) * 3), MotionModel(1.5, (1.0,) * 3), MotionModel(2.0, (1.0,) * 3)
        states = np.random.default_rng(8).normal(size=(20, 6))
        still = np.zeros((20, 3))
        np.testing.assert_allclose(m2.advance(m1.advance(states, still), still), m12.advance(states, still))


class TestNorm:
    """``norm`` keeps the bits of the ``np.sqrt((d * d).sum(axis=-1))`` it replaced."""

    @pytest.mark.parametrize("shape", [(3,), (40, 3), (6, 1, 3), (25, 25, 3)])
    def test_matches_sum_of_squares_byte_for_byte(self, shape):
        rng = np.random.default_rng(17)
        # row scales 1e-160..1e160: squares that underflow, and sums that overflow to inf in both forms
        rows = shape[0] if len(shape) > 1 else 1
        points = rng.normal(size=(rows, 3)) * 10.0 ** np.linspace(-160.0, 160.0, rows)[:, None]
        if shape == (25, 25, 3):
            delta = points[:, None] - points[None, :]  # pairwise differences, as the move grid takes them
        else:
            delta = points.reshape(shape)
        with np.errstate(over="ignore", under="ignore"):
            expected = np.sqrt((delta * delta).sum(axis=-1))
            got = norm(delta)
        assert got.shape == expected.shape == shape[:-1]
        assert got.tobytes() == expected.tobytes()
        if rows > 1:
            assert np.isinf(got).any() and (got < 1e-150).any()

    def test_one_vector_matches_its_sum(self):
        rng = np.random.default_rng(18)
        for delta in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(2000, 3)):
            assert norm(delta).tobytes() == np.sqrt((delta * delta).sum()).tobytes()


class TestEnumerateActions:
    def test_expected_count_with_pole_dedupe(self):
        actions = enumerate_actions(AgentState(0, [0.0, 0.0, 0.0]), GRID)
        assert len(actions) == 18  # per radius: 1 up, 4 equatorial, 1 down

    def test_matches_brute_force_enumeration(self):
        # byte for byte, down to radii under the 1e-9 m merge distance and up to 1 km
        pos = np.array([3.0, -2.0, 7.0])
        grids = [GRID, ActionGrid((1e-10,), 3, 4), ActionGrid((5e-10, 1e-9, 2e-9), 4, 3), ActionGrid((1e3,), 7, 8)]
        grids += [ActionGrid((0.5, 1e3, 1e-10), n_phi, n_theta) for n_phi in (1, 2, 5) for n_theta in (1, 3, 6)]
        for grid in grids:
            got = enumerate_actions(AgentState(0, pos), grid)
            assert got.tobytes() == np.array(enumerate_actions_reference(pos, grid)).tobytes()

    def test_pole_offset_ignores_theta(self):
        grid = ActionGrid((1.0,), 2, 4)
        actions = enumerate_actions(AgentState(0, [0.0, 0.0, 0.0]), grid)
        np.testing.assert_allclose(actions[0], [0.0, 0.0, 1.0], atol=1e-9)

    def test_all_offsets_have_radial_norms(self):
        pos = np.array([1.0, 1.0, 1.0])
        actions = enumerate_actions(AgentState(0, pos), GRID)
        norms = np.linalg.norm(actions - pos, axis=1)
        for n in norms:
            assert min(abs(n - r) for r in GRID.radial_steps_m) < 1e-9

    @given(
        st.tuples(
            st.floats(min_value=-1e3, max_value=1e3),
            st.floats(min_value=-1e3, max_value=1e3),
            st.floats(min_value=-1e3, max_value=1e3),
        )
    )
    def test_translation_equivariant(self, shift):
        shift = np.array(shift)
        base = enumerate_actions(AgentState(0, [0.0, 0.0, 0.0]), GRID)
        moved = enumerate_actions(AgentState(0, shift), GRID)
        np.testing.assert_allclose(moved, base + shift, rtol=1e-12, atol=1e-12)

    def test_deterministic_order(self):
        a = enumerate_actions(AgentState(0, [1.0, 2.0, 3.0]), GRID)
        b = enumerate_actions(AgentState(1, [1.0, 2.0, 3.0]), GRID)
        np.testing.assert_array_equal(a, b)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ActionGrid((-1.0,), 2, 4)
        with pytest.raises(ValueError):
            ActionGrid((1.0,), 0, 4)
