"""Probabilistic detection, spherical range measurements, and Poisson clutter.

A sensor at ``s`` observes the drone as (range, azimuth, inclination) with
additive Gaussian noise whose range component grows with distance, detects it
with a distance-decaying probability, and additionally receives a Poisson
number of false alarms spread uniformly over the measurement space.

A measurement set is an (n, 3) float array with one row per return:
range in m, in [0, rho_max]; azimuth in (-pi, pi]; inclination in [0, pi].
Every range, and every distance the detection curve reads, is
``dynamics.norm`` of a sensor-to-drone offset. Positions and offsets come in
as the float arrays the records hold; nothing here converts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TargetState, check_range, norm


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

    With ``y = pi - d`` in [-pi, 3 pi], the remainder shifts ``y`` by one
    period at most, and ``y - floor(y / 2 pi) * 2 pi`` gives the same floats:
    - the floor is -1, 0 or 1 on that domain. At -1 the shift is the one
      rounded ``y + 2 pi`` the remainder's sign correction makes; at 1 it is
      ``y - 2 pi``, exact on [2 pi, 3 pi], as the remainder's fmod is.
    - ``y / 2 pi`` rounds to 1.0 only when ``y >= 2 pi``: the largest double
      below 2 pi is 2 pi - 2**-50, whose quotient rounds to 1 - 2**-53.
    - A negative ``y`` never gives a zero quotient: a nonzero ``y`` is at
      least 2**-51 in size, since near pi ``pi - d`` is exact and a multiple
      of 2**-51.
    - NaN stays NaN, and -0.0 ends as +0.0; the final subtraction from pi
      discards a zero's sign anyway. +-inf lies outside the domain
      (``arctan2`` output and finite returns).
    The shift is built in one buffer beside ``y``, so the kernel holds one
    temporary the size of ``d``; ``d`` is left as it is.
    """
    y = np.subtract(np.pi, d)
    shift = np.divide(y, _TWO_PI)
    np.floor(shift, out=shift)
    shift *= _TWO_PI
    y -= shift
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
        check_range("p_d_max", self.p_d_max, low=0, high=1, low_in=True, high_in=True)
        for name in ("eta_per_m", "r0_m", "beta_rho", "clutter_rate"):
            check_range(name, getattr(self, name), low=0, low_in=True)
        for name in ("sigma_theta_rad", "sigma_phi_rad", "sigma_rho0_m"):
            check_range(name, getattr(self, name), low=0)
        check_range("rho_max_m", self.rho_max_m, low=0)
        check_range("rho_max_m's clutter density", self.clutter_density, low=0)  # inf or 0 at the float limits

    @property
    def clutter_density(self) -> float:
        """Uniform density over range x azimuth x inclination."""
        return 1.0 / (self.rho_max_m * 2.0 * math.pi * math.pi)

    def range_sigma(self, rho):
        """Range-noise standard deviation at range ``rho``: sigma_rho0 + beta rho; broadcasts."""
        return self.sigma_rho0_m + self.beta_rho * rho


def detection_prob_at_distance(distance, p: SensingParams) -> np.ndarray:
    """Detection probability at sensor-target distance: p_d_max up to r0, then falling linearly to 0.

    ``distance`` is a float array, giving an array of its shape, or a float, giving a numpy float:
    ``dynamics.norm`` of offsets.
    """
    return np.minimum(p.p_d_max, np.maximum(0.0, p.p_d_max - p.eta_per_m * (distance - p.r0_m)))


def spherical_coords(delta: np.ndarray):
    """The measurement function: (range, azimuth, inclination) of a float (..., 3) array of offsets."""
    return norm(delta), *spherical_angles(delta)


def spherical_angles(delta: np.ndarray):
    """The angles of ``spherical_coords``: (azimuth, inclination) of a float (..., 3) array of offsets."""
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    return np.arctan2(dy, dx), np.arctan2(np.hypot(dx, dy), dz)


def sample_measurement(coords, p: SensingParams, rng: np.random.Generator) -> tuple[float, float, float]:
    """Noisy (range, azimuth, inclination) return, as Python floats, of a drone seen at ``coords``.

    ``coords`` is the noise-free ``spherical_coords`` of one sensor-to-drone
    offset. The range is clamped into [0, rho_max], the azimuth wrapped and
    the inclination folded into their ranges. Raises where sensor and drone
    coincide (range 0), since the angles are undefined there.
    """
    range_m, azimuth, inclination = coords
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

    ``s_pos`` is the sensor's float (3,) position. Returns an (n, 3) array
    of (range [m], azimuth in (-pi, pi], inclination in [0, pi]) rows. The
    drone's offset from the sensor and its spherical coordinates are built
    once and serve both the detection draw and the return. The draws come
    in a fixed order: the detection draw, the target return's noise, the
    clutter, then the shuffle.
    """
    coords = spherical_coords(x.position - s_pos)
    detected = rng.random() < detection_prob_at_distance(coords[0], p)
    target = [sample_measurement(coords, p, rng)] if detected else []
    rows = np.concatenate([np.reshape(target, (-1, 3)), sample_clutter(p, rng)])
    return rows[rng.permutation(len(rows))]
