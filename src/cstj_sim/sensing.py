"""Probabilistic detection, spherical range measurements, and Poisson clutter.

A sensor at ``s`` observes the drone as (range, azimuth, inclination) with
additive Gaussian noise whose range component grows with distance, detects it
with a distance-decaying probability, and additionally receives a Poisson
number of false alarms spread uniformly over the measurement space.

A measurement set is an (n, 3) float array with one row per return:
range in m, in [0, rho_max]; azimuth in (-pi, pi]; inclination in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TargetState


# the period of both angle maps, as a Python float so that a float angle stays one
_TWO_PI = 2.0 * math.pi


def wrap_azimuth(angle):
    """Wrap angles into (-pi, pi]: a float to a float, a float array to an array.

    ``%`` is Python's on a float and ``np.remainder`` on an array or numpy
    scalar; both compute the same floats (fmod, then one correction toward
    the divisor's sign, signed zeros included).
    """
    return math.pi - (math.pi - angle) % _TWO_PI


def wrap_difference(d):
    """``wrap_azimuth`` of differences of two angles in [-pi, pi], bit for bit.

    On that domain the remainder shifts by at most one period, and the shift
    alone gives the same floats: subtracting 2 pi from a value in
    [2 pi, 3 pi] is exact. Each shift is taken as a 0-or-1 multiple of
    2 pi; a zero shift changes at most the sign of a zero, which the final
    subtraction from pi discards. ``d`` is left as it is.
    """
    y = np.subtract(np.pi, d)
    y -= (y >= 2.0 * np.pi) * (2.0 * np.pi)
    y += (y < 0.0) * (2.0 * np.pi)
    return np.subtract(np.pi, y, out=y)


def fold_inclination(angle):
    """Reflect angles into [0, pi] (mirror at both boundaries); one expression, as in ``wrap_azimuth``."""
    return abs((angle + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True)
class SensingParams:
    """Detection curve, measurement-noise scales, and the clutter process."""

    p_d_max: float
    eta_per_m: float
    r0_m: float
    sigma_theta_rad: float
    sigma_phi_rad: float
    sigma_rho0_m: float
    beta_rho: float
    clutter_rate: float
    rho_max_m: float

    def __post_init__(self):
        if not 0.0 <= self.p_d_max <= 1.0:
            raise ValueError("p_d_max must lie in [0, 1]")
        # each check is written so that NaN and inf fail it
        for name in ("eta_per_m", "r0_m", "beta_rho", "clutter_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("sigma_theta_rad", "sigma_phi_rad", "sigma_rho0_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 < self.rho_max_m < math.inf:
            raise ValueError("rho_max_m must be finite and > 0 (measurement space must have volume)")

    @property
    def clutter_density(self) -> float:
        """Uniform density over range x azimuth x inclination."""
        return 1.0 / (self.rho_max_m * 2.0 * math.pi * math.pi)

    def range_sigma(self, rho):
        """Range-noise standard deviation at range ``rho``: sigma_rho0 + beta rho; broadcasts."""
        return self.sigma_rho0_m + self.beta_rho * rho


def detection_prob_at_distance(distance, p: SensingParams) -> np.ndarray:
    """Detection probability at sensor-target distance, as an array of the distance's shape."""
    d = np.asarray(distance, dtype=float)
    decayed = np.maximum(0.0, p.p_d_max - p.eta_per_m * (d - p.r0_m))
    return np.where(d < p.r0_m, p.p_d_max, decayed)


def detection_prob(x: TargetState, s_pos, p: SensingParams) -> np.ndarray:
    """Detection probability of the drone at ``x`` from each sensor position.

    Broadcasts over a trailing (..., 3) axis of ``s_pos``; a 0-d array for
    one position.
    """
    delta = x.position - np.asarray(s_pos, dtype=float)
    return detection_prob_at_distance(np.sqrt((delta * delta).sum(axis=-1)), p)


def spherical_coords(delta):
    """The measurement function: (range, azimuth, inclination) of offset vectors; broadcasts over (..., 3)."""
    delta = np.asarray(delta, dtype=float)
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    rng = np.sqrt((delta * delta).sum(axis=-1))
    azimuth = np.arctan2(dy, dx)
    inclination = np.arctan2(np.hypot(dx, dy), dz)
    return rng, azimuth, inclination


def sample_measurement(
    x: TargetState, s_pos, p: SensingParams, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Noisy (range, azimuth, inclination) return of the drone, as Python floats.

    The range is clamped into [0, rho_max], the azimuth wrapped and the
    inclination folded into their ranges. Raises where sensor and drone
    coincide, since the angles are undefined there.
    """
    range_m, azimuth, inclination = spherical_coords(x.position - np.asarray(s_pos, dtype=float))
    if range_m == 0.0:
        raise ValueError("coincident sensor and target: angles undefined")
    # arctan2 may give -pi, which the (-pi, pi] convention writes as pi
    range_m, azimuth, inclination = float(range_m), wrap_azimuth(float(azimuth)), float(inclination)
    noisy_range = range_m + p.range_sigma(range_m) * rng.standard_normal()
    noisy_azimuth = azimuth + p.sigma_theta_rad * rng.standard_normal()
    noisy_inclination = inclination + p.sigma_phi_rad * rng.standard_normal()
    return (
        min(max(noisy_range, 0.0), p.rho_max_m),
        wrap_azimuth(noisy_azimuth),
        fold_inclination(noisy_inclination),
    )


def sample_clutter(p: SensingParams, rng: np.random.Generator) -> np.ndarray:
    """Poisson-many false alarms, uniform over the measurement space, as (count, 3) rows."""
    count = int(rng.poisson(p.clutter_rate))
    ranges = rng.uniform(0.0, p.rho_max_m, size=count)
    azimuths = rng.uniform(-math.pi, math.pi, size=count)
    inclinations = rng.uniform(0.0, math.pi, size=count)
    return np.column_stack([ranges, wrap_azimuth(azimuths), inclinations])


def collect(x: TargetState, s_pos, p: SensingParams, rng: np.random.Generator) -> np.ndarray:
    """One step's measurement set: maybe the target return, plus clutter, shuffled.

    Returns an (n, 3) array of (range [m], azimuth in (-pi, pi], inclination
    in [0, pi]) rows. The draws come in a fixed order: the detection draw,
    the target return's noise, the clutter, then the shuffle.
    """
    detected = rng.random() < detection_prob(x, s_pos, p)
    target = [sample_measurement(x, s_pos, p, rng)] if detected else []
    rows = np.concatenate([np.reshape(target, (-1, 3)), sample_clutter(p, rng)])
    return rows[rng.permutation(len(rows))]
