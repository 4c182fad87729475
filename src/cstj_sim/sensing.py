"""Probabilistic detection, spherical range measurements, and Poisson clutter.

A sensor at ``s`` observes the drone as (range, azimuth, inclination) with
additive Gaussian noise whose range component grows with distance, detects it
with a distance-decaying probability, and additionally receives a Poisson
number of false alarms spread uniformly over the measurement space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TargetState


# A float goes through Python's ``%``, which computes the same floats as
# ``np.mod`` (fmod, then one correction toward the divisor's sign, signed
# zeros included) without the round trip through a 0-d array.
_TWO_PI = 2.0 * math.pi


def wrap_azimuth(angle):
    """Wrap angles into (-pi, pi]."""
    if isinstance(angle, float):
        return math.pi - (math.pi - float(angle)) % _TWO_PI
    wrapped = np.pi - np.mod(np.pi - np.asarray(angle, dtype=float), 2.0 * np.pi)
    return float(wrapped) if np.ndim(wrapped) == 0 else wrapped


def fold_inclination(angle):
    """Reflect angles into [0, pi] (mirror at both boundaries)."""
    if isinstance(angle, float):
        return abs((float(angle) + math.pi) % _TWO_PI - math.pi)
    folded = np.abs(np.mod(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi)
    return float(folded) if np.ndim(folded) == 0 else folded


@dataclass
class Measurement:
    """One spherical observation: range [m], azimuth (-pi, pi], inclination [0, pi]."""

    range_m: float
    azimuth_rad: float
    inclination_rad: float

    def __post_init__(self):
        self.range_m = float(self.range_m)
        self.azimuth_rad = wrap_azimuth(float(self.azimuth_rad))
        self.inclination_rad = float(self.inclination_rad)
        if self.range_m < 0:
            raise ValueError("range_m must be >= 0")
        if not 0.0 <= self.inclination_rad <= math.pi:
            raise ValueError("inclination_rad must lie in [0, pi]")


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
        if self.eta_per_m < 0 or self.r0_m < 0 or self.beta_rho < 0 or self.clutter_rate < 0:
            raise ValueError("eta_per_m, r0_m, beta_rho, clutter_rate must be >= 0")
        if self.sigma_theta_rad <= 0 or self.sigma_phi_rad <= 0 or self.sigma_rho0_m <= 0:
            raise ValueError("noise standard deviations must be > 0")
        if not self.rho_max_m > 0:
            raise ValueError("rho_max_m must be > 0 (measurement space must have volume)")

    @property
    def clutter_density(self) -> float:
        """Uniform density over range x azimuth x inclination."""
        return 1.0 / (self.rho_max_m * 2.0 * math.pi * math.pi)


def detection_prob_at_distance(distance, p: SensingParams):
    """Detection probability at sensor-target distance; broadcasts."""
    d = np.asarray(distance, dtype=float)
    decayed = np.maximum(0.0, p.p_d_max - p.eta_per_m * (d - p.r0_m))
    prob = np.where(d < p.r0_m, p.p_d_max, decayed)
    return float(prob) if np.ndim(prob) == 0 else prob


def detection_prob(x: TargetState, s_pos, p: SensingParams) -> float:
    delta = x.position - np.asarray(s_pos, dtype=float)
    return detection_prob_at_distance(np.sqrt((delta * delta).sum()), p)


def spherical_coords(delta):
    """(range, azimuth, inclination) for offset vectors; broadcasts over (..., 3)."""
    delta = np.asarray(delta, dtype=float)
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    rng = np.sqrt((delta * delta).sum(axis=-1))
    azimuth = np.arctan2(dy, dx)
    inclination = np.arctan2(np.hypot(dx, dy), dz)
    return rng, azimuth, inclination


def measurement_fn(x: TargetState, s_pos) -> Measurement:
    """Noise-free spherical observation of the drone from ``s_pos``."""
    delta = x.position - np.asarray(s_pos, dtype=float)
    rng, azimuth, inclination = spherical_coords(delta)
    if rng == 0.0:
        raise ValueError("coincident sensor and target: angles undefined")
    return Measurement(float(rng), float(azimuth), float(inclination))


def sample_measurement(x: TargetState, s_pos, p: SensingParams, rng: np.random.Generator) -> Measurement:
    """Noisy observation; range clamped into [0, rho_max], angles wrapped/folded."""
    base = measurement_fn(x, s_pos)
    sigma_rho = p.sigma_rho0_m + p.beta_rho * base.range_m
    noisy_range = base.range_m + sigma_rho * rng.standard_normal()
    noisy_azimuth = base.azimuth_rad + p.sigma_theta_rad * rng.standard_normal()
    noisy_inclination = base.inclination_rad + p.sigma_phi_rad * rng.standard_normal()
    return Measurement(
        min(max(noisy_range, 0.0), p.rho_max_m),
        wrap_azimuth(noisy_azimuth),
        fold_inclination(noisy_inclination),
    )


def sample_clutter(p: SensingParams, rng: np.random.Generator) -> list[Measurement]:
    """Poisson-many false alarms, uniform over the measurement space."""
    count = int(rng.poisson(p.clutter_rate))
    ranges = rng.uniform(0.0, p.rho_max_m, size=count)
    azimuths = rng.uniform(-math.pi, math.pi, size=count)
    inclinations = rng.uniform(0.0, math.pi, size=count)
    return [Measurement(r, a, i) for r, a, i in zip(ranges, azimuths, inclinations)]


def collect(x: TargetState, s_pos, p: SensingParams, rng: np.random.Generator) -> list[Measurement]:
    """One step's measurement set: maybe the target return, plus clutter, shuffled."""
    items: list[Measurement] = []
    if rng.random() < detection_prob(x, s_pos, p):
        items.append(sample_measurement(x, s_pos, p, rng))
    items.extend(sample_clutter(p, rng))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def measurement_array(measurements) -> np.ndarray:
    """Stack measurements into an (n, 3) array of (range, azimuth, inclination)."""
    if not measurements:
        return np.empty((0, 3))
    return np.array([[m.range_m, m.azimuth_rad, m.inclination_rad] for m in measurements])
