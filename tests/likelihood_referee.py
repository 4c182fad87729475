"""The particle-major set likelihood that preceded the measurement-major
kernel in ``cstj_sim.estimation``, kept verbatim as a bit-for-bit referee.

The package now builds the (particle x return) grid measurement-major. These
functions build it particle-major, (n_particles, n_meas), exactly as the
package did before that change. They sum each particle's row of densities
with numpy's ``sum``, pairwise from 8 returns on, where the package adds the
returns one at a time; ``tests/test_estimation.py`` demands the same bytes
below 8 returns and without clutter, and agreement within the rounding of
those sums from 8 returns on. Do not edit them to follow the package.
"""

import math

import numpy as np

from cstj_sim.sensing import SensingParams, detection_prob_at_distance


def _safe_log(values):
    with np.errstate(divide="ignore"):
        return np.log(values)


def _wrap_difference(d):
    """``sensing.wrap_azimuth`` of differences of two angles in [-pi, pi], bit for bit.

    On that domain ``np.mod`` shifts by at most one period, and the shift
    alone gives the same floats: subtracting 2 pi from a value in
    [2 pi, 3 pi] is exact. It takes a third of the time of ``np.mod``.
    """
    y = np.pi - d
    y = np.where(y >= 2.0 * np.pi, y - 2.0 * np.pi, np.where(y < 0.0, y + 2.0 * np.pi, y))
    return np.pi - y


def _log_measurement_densities(delta, dist, meas, p: SensingParams):
    """(n_particles, n_meas) log Gaussian densities of each measurement.

    ``delta`` holds the particle offsets from the sensor and ``dist`` their
    norms. The azimuth residual is wrapped into (-pi, pi]; the range noise
    scale grows linearly with the particle's distance from the sensor. The
    quadratic form sum((residual / scale) ** 2) is built in place, in that
    order of operations, so it equals the plain expression bit for bit.
    """
    dx, dy, dz = delta[:, 0], delta[:, 1], delta[:, 2]
    azimuth = np.arctan2(dy, dx)
    inclination = np.arctan2(np.hypot(dx, dy), dz)
    sigma_rho = p.sigma_rho0_m + p.beta_rho * dist
    log_norm = (
        np.log(sigma_rho)[:, None]
        + math.log(p.sigma_theta_rad)
        + math.log(p.sigma_phi_rad)
        + 1.5 * math.log(2.0 * math.pi)
    )
    quad = np.subtract(meas[:, 0], dist[:, None])
    quad /= sigma_rho[:, None]
    quad *= quad
    term = _wrap_difference(np.subtract(meas[:, 1], azimuth[:, None]))
    term /= p.sigma_theta_rad
    term *= term
    quad += term
    np.subtract(meas[:, 2], inclination[:, None], out=term)
    term /= p.sigma_phi_rad
    term *= term
    quad += term
    quad *= -0.5
    quad -= log_norm
    return quad


def _log_set_likelihood(states, meas, sensor_pos, p: SensingParams):
    """Log likelihood of the whole measurement set for each state row.

    ``meas`` is the (n_meas, 3) array of the set. Sums a "missed detection,
    all clutter" hypothesis with one hypothesis per measurement being the
    target return, each weighted by the Poisson clutter process; clutter-free
    sensing degenerates to the obvious special cases.
    """
    n_meas = len(meas)
    delta = states[:, :3] - np.asarray(sensor_pos, dtype=float)
    dist = np.sqrt((delta * delta).sum(axis=-1))
    p_d = detection_prob_at_distance(dist, p)
    lam = p.clutter_rate
    if lam > 0:
        base = n_meas * math.log(lam * p.clutter_density) - lam
        if n_meas == 0:
            return base + _safe_log(1.0 - p_d)
        g = _log_measurement_densities(delta, dist, meas, p)
        np.exp(g, out=g)
        return base + _safe_log((1.0 - p_d) + p_d * g.sum(axis=1) / (lam * p.clutter_density))
    if n_meas == 0:
        return _safe_log(1.0 - p_d)
    if n_meas == 1:
        g = _log_measurement_densities(delta, dist, meas, p)
        np.exp(g, out=g)
        return _safe_log(p_d * g[:, 0])
    return np.full(len(states), -np.inf)
