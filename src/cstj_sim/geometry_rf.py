"""Directional-antenna cone geometry and the one representation of power.

Positions are float arrays of 3-vectors in metres, as the records hold
them. Transmit levels, losses and limits are given in dB; received power is
linear from the map on. Every antenna illuminates a right circular cone
(height ``effective_range_m``, opening angle ``opening_angle_rad``) steered
along an aim vector; a receiver outside the cone picks up no power at all,
which ``received_power_map`` represents as exactly 0.0, as it does for the
off level (-inf dB). Totals are summed in linear power by ``sender_sum`` and
converted back by ``linear_to_db``; this module alone converts between the
two scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import check_range, float_tuple, norm


@dataclass(frozen=True)
class AntennaParams:
    """Conic transmit lobe: height and full opening angle."""

    effective_range_m: float
    opening_angle_rad: float

    def __post_init__(self):
        check_range("effective_range_m", self.effective_range_m, low=0)
        check_range("opening_angle_rad", self.opening_angle_rad, low=0, high=math.pi)


@dataclass(frozen=True)
class RfParams:
    """Log-distance path-loss constants plus the discrete transmit levels.

    ``power_levels_db[0]`` is the distinguished "off" level (stored as None);
    the remaining entries are transmit powers in dB, strictly increasing.
    """

    near_field_loss_db: float
    path_loss_exponent: float
    attenuation_db: float
    power_levels_db: tuple
    interference_threshold_db: float
    levels_db: np.ndarray = field(init=False, repr=False, compare=False)  # read-only dB by level, -inf for off

    def __post_init__(self):
        check_range("path_loss_exponent", self.path_loss_exponent, low=0)
        levels = tuple(self.power_levels_db)
        if len(levels) < 1 or levels[0] is not None:
            raise ValueError("power_levels_db must start with the 'off' entry")
        for name in ("near_field_loss_db", "attenuation_db", "interference_threshold_db"):
            check_range(name, getattr(self, name))
        on = float_tuple("power_levels_db", levels[1:])  # a second None becomes NaN, which the check refuses
        check_range("power_levels_db", *on)
        if any(b <= a for a, b in zip(on, on[1:])):
            raise ValueError("power_levels_db must be strictly increasing after 'off'")
        object.__setattr__(self, "power_levels_db", (None, *on))
        object.__setattr__(self, "levels_db", np.array([-np.inf, *on]))
        self.levels_db.setflags(write=False)


def received_power_map(tx_power_db: np.ndarray, tx_pos, tx_aim, ant: AntennaParams, rf: RfParams, rx_pos):
    """Received linear power with cone gating; 0.0 where the receiver is uncovered.

    A receiver is covered when its angle off the aim axis is at most half
    the opening angle and its projection on the axis is at most
    ``effective_range_m``. The apex itself is never covered, and an antenna
    whose aim coincides with its own position covers nothing. One offset
    from the transmitter and its norm serve both the cone test and the path
    loss. Transmitter, aim and receiver positions are float (..., 3) arrays,
    over whose leading axes the result broadcasts, and the transmit levels
    ``tx_power_db`` a float array that broadcasts with those axes. The off
    level (-inf dB) gives 0.0 too.
    """
    axis = tx_aim - tx_pos
    axis_norm = norm(axis)
    degenerate = axis_norm == 0.0
    unit = axis / np.where(degenerate, 1.0, axis_norm)[..., None]
    delta = rx_pos - tx_pos
    dist = norm(delta)
    along = (delta * unit).sum(axis=-1)
    cos_half = math.cos(ant.opening_angle_rad / 2.0)
    inside = (dist > 0.0) & (along <= ant.effective_range_m) & (along >= dist * cos_half) & ~degenerate
    safe = np.where(inside, dist, 1.0)
    loss = rf.near_field_loss_db + 10.0 * rf.path_loss_exponent * np.log10(safe) + rf.attenuation_db
    return np.where(inside, db_to_linear(tx_power_db - loss), 0.0)


def db_to_linear(x):
    """Linear power of dB values; -inf dB gives 0.0.

    Always the ``np.power`` ufunc: numpy's scalar ``**`` calls another
    routine, whose last bit can differ (in about one value in twenty on an
    AVX-512 host), so a single receiver would not get the bits it gets
    within an array.
    """
    return np.power(10.0, np.asarray(x, dtype=float) / 10.0)


def linear_to_db(x):
    """``10 log10`` of linear power; 0.0 gives -inf dB."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def sender_sum(linear) -> np.ndarray:
    """Sum over the leading sender axis in sender order, ((p0 + p1) + p2) + ...

    ``ndarray.sum`` reduces a contiguous axis of 8 or more terms pairwise, so
    its bits would depend on the array's shape; accumulating does not. An
    empty sender axis sums to zero.
    """
    if len(linear) == 0:
        return np.zeros(linear.shape[1:])
    return np.add.accumulate(linear, axis=0)[-1]
