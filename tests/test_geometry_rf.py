import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cstj_sim.geometry_rf import (
    AntennaParams,
    RfParams,
    db_to_linear,
    linear_to_db,
    received_power_map,
    sender_sum,
)
from oracles import aggregate_increase_db
import power_referee

RF = RfParams(32.4, 2.5, 6.0206, (None, -10.0, 0.0, 7.0, 10.0), -50.0)
ANT = AntennaParams(100.0, math.radians(80.0))
ORIGIN = np.zeros(3)
# a cone along +x long enough to cover every receiver the path-loss tests use
COVER = AntennaParams(1e7, math.radians(80.0))


def _path_loss_db(distance):
    """Path loss to receivers on the covering cone's axis: 0 dB sent less the power received."""
    rx = np.multiply.outer(distance, [1.0, 0.0, 0.0])
    return -linear_to_db(received_power_map(0.0, ORIGIN, [1.0, 0.0, 0.0], COVER, RF, rx))


def _covered(apex, aim, point):
    """Cone membership as the power map sees it: a receiver outside gets zero power."""
    return bool(received_power_map(0.0, apex, aim, ANT, RF, point) > 0.0)


def _total_db(values_db):
    """The sender-order total of dB contributions, in dB."""
    return float(linear_to_db(sender_sum(db_to_linear(values_db))))


class TestPathLoss:
    @pytest.mark.parametrize(
        "distance,expected",
        [(1.0, 38.4206), (10.0, 63.4206), (100.0, 88.4206)],
    )
    def test_reference_distances(self, distance, expected):
        assert _path_loss_db(distance) == pytest.approx(expected, rel=1e-12)

    @given(
        d1=st.floats(min_value=1e-3, max_value=1e4),
        factor=st.floats(min_value=1.0001, max_value=100.0),
    )
    def test_strictly_increasing_in_distance(self, d1, factor):
        d2 = d1 * factor
        assert _path_loss_db(d1) < _path_loss_db(d2)

    def test_broadcasts_over_receivers(self):
        out = _path_loss_db(np.array([1.0, 10.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(38.4206)


class TestConeContains:
    def test_on_axis_midrange(self):
        aim = np.array([0.0, 0.0, 10.0])
        assert _covered(ORIGIN, aim, [0.0, 0.0, ANT.effective_range_m / 2])

    def test_just_outside_half_angle(self):
        angle = ANT.opening_angle_rad / 2 + 0.01
        point = 10.0 * np.array([math.sin(angle), 0.0, math.cos(angle)])
        assert not _covered(ORIGIN, [0, 0, 10.0], point)

    def test_beyond_effective_range(self):
        assert not _covered(ORIGIN, [0, 0, 10.0], [0, 0, ANT.effective_range_m + 1.0])

    def test_apex_excluded(self):
        assert not _covered(ORIGIN, [0, 0, 10.0], ORIGIN)

    def test_boundary_angle_included(self):
        angle = ANT.opening_angle_rad / 2
        point = 10.0 * np.array([math.sin(angle), 0.0, math.cos(angle)])
        assert _covered(ORIGIN, [0, 0, 10.0], point)

    def test_degenerate_axis_covers_nothing(self):
        points = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
        assert (received_power_map(0.0, ORIGIN, ORIGIN, ANT, RF, points) == 0.0).all()

    def test_rotation_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            apex = rng.uniform(-50, 50, 3)
            aim = apex + rng.uniform(-20, 20, 3)
            point = apex + rng.uniform(-120, 120, 3)
            if np.allclose(aim, apex):
                continue
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(rot) < 0:
                rot[:, 0] *= -1
            before = _covered(apex, aim, point)
            after = _covered(rot @ apex, rot @ aim, rot @ point)
            assert before == after


class TestReceivedPower:
    def test_on_axis_one_metre(self):
        got = received_power_map(10.0, ORIGIN, [0, 0, 10.0], ANT, RF, [0, 0, 1.0])
        assert linear_to_db(got) == pytest.approx(10.0 - 38.4206, rel=1e-12)

    def test_outside_cone_is_absent(self):
        assert received_power_map(10.0, ORIGIN, [0, 0, 10.0], ANT, RF, [0, 0, -5.0]) == 0.0

    def test_off_level_is_absent(self):
        assert RF.levels_db[0] == -np.inf
        assert received_power_map(RF.levels_db[0], ORIGIN, [0, 0, 10.0], ANT, RF, [0, 0, 1.0]) == 0.0

    def test_strictly_decreasing_along_axis(self):
        distances = np.linspace(0.5, ANT.effective_range_m, 40)
        points = np.stack([np.zeros(40), np.zeros(40), distances], axis=1)
        powers = received_power_map(7.0, ORIGIN, [0, 0, 10.0], ANT, RF, points)
        assert (powers > 0.0).all()
        assert (np.diff(powers) < 0).all()


def _edge_cases():
    """Single calls on the cone's edges, each apex at the origin aimed along +z."""
    half = ANT.opening_angle_rad / 2
    return [
        ("apex", 7.0, ORIGIN, [0.0, 0.0, 10.0], ORIGIN),
        ("degenerate_aim", 7.0, ORIGIN, ORIGIN, [[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]]),
        ("cone_surface", 7.0, ORIGIN, [0.0, 0.0, 10.0], 10.0 * np.array([math.sin(half), 0.0, math.cos(half)])),
        ("axial_range_end", 7.0, ORIGIN, [0.0, 0.0, 10.0], [0.0, 0.0, ANT.effective_range_m]),
        ("off_level", RF.levels_db[0], ORIGIN, [0.0, 0.0, 10.0], [0.0, 0.0, 1.0]),
    ]


def _broadcast_cases():
    """The call shapes of ``compute_metrics`` and ``solve_jamming`` on seeded positions."""
    rng = np.random.default_rng(77)
    senders = rng.uniform(0.0, 100.0, (4, 3))
    aims = senders + rng.uniform(-30.0, 30.0, (4, 3))
    candidates = rng.uniform(0.0, 100.0, (25, 3))
    drone = rng.uniform(0.0, 100.0, 3)
    tx_db = np.array([RF.levels_db[0], -10.0, 7.0, 10.0])
    levels = RF.levels_db[np.arange(len(RF.power_levels_db))]
    return [
        # (sender, receiver): teammates (own apex included) and the drone
        ("sender_by_receiver", tx_db, senders, aims, np.vstack([senders, drone])[:, None]),
        # (sender, candidate + teammate), senders as (sender, 1, 3)
        ("sender_by_candidate", tx_db[:, None], senders[:, None], aims[:, None], np.vstack([candidates, senders])),
        # (level, candidate): delivery toward the aim point
        ("level_by_candidate", levels[:, None], candidates, drone, drone),
        # (level, receiver, candidate)
        ("level_by_receiver_by_candidate", levels[:, None, None], candidates, drone, senders[:, None]),
    ]


class TestPowerMapBytes:
    """The power map's bytes on seeded inputs, pinned from the two-pass kernel.

    The digests are the sha256 of each dB output's float64 bytes, taken from
    the implementation that tested the cone in a separate pass before it
    computed the path loss; ``power_referee`` keeps the dB map that
    reproduced them, with NaN as its off level. There, a receiver on the
    cone surface or at the end of the axial range is covered; the apex, a
    degenerate aim and the off level give NaN. The linear map must be
    ``10 ** (dB / 10)`` of those bytes, 0.0 for NaN.
    """

    DIGESTS = {
        "apex": "74999fd28ab18ccca2bee199f260d19764603a3c78353d773d16d215eebe8e19",
        "degenerate_aim": "38942dc703543c2a5d23412f7713dab1eb9a3fecdd6f11a5ba15240df007de5c",
        "cone_surface": "1e5bb2894b77d47446b67d98542f70bb9f0c201e2bac9c0f081620051899fde6",
        "axial_range_end": "65beefacc80daa7753dbd09f063b31544d5691b5652b10edebbb0f0ccfe3aa46",
        "off_level": "74999fd28ab18ccca2bee199f260d19764603a3c78353d773d16d215eebe8e19",
        "sender_by_receiver": "3d4fe270357cb6fc76eef949a5819b8176bf59670f47ebae9337ecef5eb5836f",
        "sender_by_candidate": "81bc4b403ea80ef5f04c7793db85c893677cde137c26e3e63c5790131f18e2d1",
        "level_by_candidate": "7b8f214ac8a2b70302e4e90e9af09433ef6a5fa7554df107d5e9496e83214f29",
        "level_by_receiver_by_candidate": "6f401e22dbebd0ddbd1092a1c6d5c4dbfc52005148483afe5ba47f014a0bbab4",
    }
    SHAPES = {
        "apex": (),
        "degenerate_aim": (3,),
        "cone_surface": (),
        "axial_range_end": (),
        "off_level": (),
        "sender_by_receiver": (5, 4),
        "sender_by_candidate": (4, 29),
        "level_by_candidate": (5, 25),
        "level_by_receiver_by_candidate": (5, 4, 25),
    }

    @pytest.mark.parametrize("case", [*_edge_cases(), *_broadcast_cases()], ids=lambda c: c[0])
    def test_bytes_pinned(self, case):
        name, tx_db, tx_pos, tx_aim, rx_pos = case
        ref = power_referee.received_power_map(np.where(tx_db == -np.inf, np.nan, tx_db), tx_pos, tx_aim, ANT, RF, rx_pos)
        assert ref.dtype == np.float64 and ref.shape == self.SHAPES[name]
        assert hashlib.sha256(ref.tobytes()).hexdigest() == self.DIGESTS[name]
        out = received_power_map(tx_db, tx_pos, tx_aim, ANT, RF, rx_pos)
        assert out.dtype == np.float64 and out.shape == self.SHAPES[name]
        assert out.tobytes() == np.where(np.isnan(ref), 0.0, 10.0 ** (ref / 10.0)).tobytes()


class TestAggregatePower:
    @given(st.floats(min_value=-150.0, max_value=50.0))
    def test_single_contribution_identity(self, x):
        assert _total_db([x]) == pytest.approx(x, abs=1e-9)

    def test_doubling_adds_three_db(self):
        assert _total_db([-30.0, -30.0]) == pytest.approx(-30.0 + 10 * math.log10(2), rel=1e-12)

    def test_empty_is_absent(self):
        total = sender_sum(np.zeros((0, 3)))
        assert total.shape == (3,) and (total == 0.0).all()
        assert sender_sum(np.zeros(0)) == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=20))
    def test_adds_in_sender_order_at_any_count(self, values):
        # numpy's own sum goes pairwise from 8 terms on; this one never does
        total = 0.0
        for v in values:
            total += v
        assert sender_sum(np.array(values)) == total

    @given(st.lists(st.floats(min_value=-120.0, max_value=20.0), min_size=2, max_size=8))
    def test_permutation_invariant(self, values):
        shuffled = list(reversed(values))
        assert _total_db(values) == pytest.approx(_total_db(shuffled), rel=1e-12)

    @given(
        st.lists(st.floats(min_value=-120.0, max_value=20.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.1, max_value=30.0),
    )
    # exact rises of 1.07 and 1.14 ulp: both totals round to the same float
    @example(values=[0.0, 16.0, -119.0, 0.0], idx=2, bump=0.125)
    @example(values=[0.0, 0.0, 2.0, 14.0, 17.0, -116.0], idx=5, bump=0.125)
    def test_monotone_in_each_contribution(self, values, idx, bump):
        idx = idx % len(values)
        bumped = list(values)
        bumped[idx] += bump
        before, after = _total_db(values), _total_db(bumped)
        assert after >= before
        # a rise of about one ulp of the total may round away in float64;
        # anything the exact oracle puts above two ulps must show
        if aggregate_increase_db(values, idx, bumped[idx]) > 2.0 * math.ulp(after):
            assert after > before


class TestRfParams:
    def test_levels_must_start_off(self):
        with pytest.raises(ValueError, match="off"):
            RfParams(32.4, 2.5, 6.0206, (-10.0, 0.0), -50.0)

    def test_levels_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            RfParams(32.4, 2.5, 6.0206, (None, 0.0, 0.0), -50.0)

    def test_antenna_angle_bounds(self):
        with pytest.raises(ValueError):
            AntennaParams(10.0, math.pi)
        with pytest.raises(ValueError):
            AntennaParams(0.0, 1.0)
