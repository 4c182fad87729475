"""Per-agent SIR particle filter with a clutter-aware measurement-set
likelihood, EAP extraction, and sequential covariance-intersection fusion.

A degenerate update (effective sample size below n/2) resamples from a
defensive mixture: the predicted particles plus draws around each return
that passes a gate against the predicted cloud, all weighted by the balance
heuristic of multiple importance sampling. Without it, a likelihood much
narrower than the prior hands the whole weight to the one tail particle
that happens to sit on a return, often a clutter return; ``update`` gives
the details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MotionModel, TargetState
from .sensing import (
    SensingParams,
    detection_prob_at_distance,
    measurement_array,
)


@dataclass
class ParticleSet:
    """Weighted particle approximation of one agent's filtering density."""

    states: np.ndarray  # (n, 6) rows of position + velocity
    weights: np.ndarray  # (n,), nonnegative, summing to one

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.states.ndim != 2 or self.states.shape[1] != 6 or len(self.states) < 1:
            raise ValueError("states must be an (n, 6) array with n >= 1")
        if self.weights.shape != (len(self.states),):
            raise ValueError("weights must match the particle count")
        if self.weights.min() < 0 or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to one")

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class Estimate:
    """State mean with its 6x6 covariance."""

    mean: TargetState
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float).reshape(6, 6)
        self.covariance = 0.5 * (cov + cov.T)


def init_particles(prior_mean: TargetState, prior_cov, n: int, rng: np.random.Generator) -> ParticleSet:
    """Draw n i.i.d. Gaussian particles with uniform weights."""
    if n < 1:
        raise ValueError("particle count must be >= 1")
    cov = np.asarray(prior_cov, dtype=float).reshape(6, 6)
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() < -1e-9 * max(1.0, abs(eigs.max())):
        raise ValueError("prior covariance is not positive semidefinite")
    states = rng.multivariate_normal(prior_mean.as_vector(), cov, size=n)
    return ParticleSet(states, np.full(n, 1.0 / n))


def predict(ps: ParticleSet, model: MotionModel, rng: np.random.Generator) -> ParticleSet:
    """Propagate every particle through the motion model; weights unchanged.

    The acceleration draws equal ``rng.multivariate_normal(0, cov, n)`` bit
    for bit (the same normals times the same SVD factor) without its
    per-call validity check, which ``MotionModel`` has already made.
    """
    u, s, _ = np.linalg.svd(model.accel_noise_cov)
    nu = rng.standard_normal((len(ps), 3)) @ (u * np.sqrt(s)).T
    states = ps.states @ model.transition_matrix().T + nu @ model.noise_gain().T
    return ParticleSet(states, ps.weights.copy())


def predicted_state(ps: ParticleSet) -> TargetState:
    """Weighted particle mean, used as the expected predicted drone state."""
    return TargetState.from_vector(ps.weights @ ps.states)


def _safe_log(values):
    with np.errstate(divide="ignore"):
        return np.log(values)


def _wrap_difference(d):
    """``sensing.wrap_azimuth`` of differences of two angles in [-pi, pi], bit for bit.

    On that domain ``np.mod`` shifts by at most one period, and the shift
    alone gives the same floats: subtracting 2 pi from a value in
    [2 pi, 3 pi] is exact. Each shift is taken as a 0-or-1 multiple of
    2 pi; a zero shift changes at most the sign of a zero, which the final
    subtraction from pi discards. ``d`` is left as it is.
    """
    y = np.subtract(np.pi, d)
    y -= (y >= 2.0 * np.pi) * (2.0 * np.pi)
    y += (y < 0.0) * (2.0 * np.pi)
    return np.subtract(np.pi, y, out=y)


def _log_measurement_densities(delta, dist, meas, p: SensingParams):
    """(n_meas, n_particles) log Gaussian densities of each measurement.

    ``delta`` holds the particle offsets from the sensor and ``dist`` their
    norms. The azimuth residual is wrapped into (-pi, pi]; the range noise
    scale grows linearly with the particle's distance from the sensor.

    The grid is measurement-major: a set has a few dozen returns at most
    and a filter thousands of particles, so every elementwise pass runs
    along the long, contiguous particle axis, with per-particle vectors
    broadcast along the rows and one return's values per row. The
    quadratic form sum((residual / scale) ** 2) is built in place, in that
    order of operations, so each element equals the plain expression bit
    for bit, whatever the layout.
    """
    dx, dy, dz = delta[:, 0], delta[:, 1], delta[:, 2]
    azimuth = np.arctan2(dy, dx)
    inclination = np.arctan2(np.hypot(dx, dy), dz)
    sigma_rho = p.sigma_rho0_m + p.beta_rho * dist
    log_norm = (
        np.log(sigma_rho)
        + math.log(p.sigma_theta_rad)
        + math.log(p.sigma_phi_rad)
        + 1.5 * math.log(2.0 * math.pi)
    )
    quad = np.subtract(meas[:, 0, None], dist)
    quad /= sigma_rho
    quad *= quad
    term = _wrap_difference(np.subtract(meas[:, 1, None], azimuth))
    term /= p.sigma_theta_rad
    term *= term
    quad += term
    np.subtract(meas[:, 2, None], inclination, out=term)
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

    The densities come measurement-major (see
    ``_log_measurement_densities``), but each particle's sum over the
    returns runs on a C-contiguous (particle, measurement) copy: numpy
    sums a contiguous row of 8 or more terms pairwise, while a sum over
    the leading axis adds the rows one by one, which rounds differently.
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
        g_sum = np.ascontiguousarray(g.T).sum(axis=1)
        return base + _safe_log((1.0 - p_d) + p_d * g_sum / (lam * p.clutter_density))
    if n_meas == 0:
        return _safe_log(1.0 - p_d)
    if n_meas == 1:
        g = _log_measurement_densities(delta, dist, meas, p)
        np.exp(g, out=g)
        return _safe_log(p_d * g[0])
    return np.full(len(states), -np.inf)


def likelihood(measurements, x: TargetState, s_pos, p: SensingParams) -> float:
    """Exact measurement-set likelihood value for a single state."""
    log_l = _log_set_likelihood(x.as_vector()[None, :], measurement_array(measurements), s_pos, p)
    return float(np.exp(log_l)[0])


def effective_sample_size(weights) -> float:
    return float(1.0 / np.sum(np.asarray(weights, dtype=float) ** 2))


def _systematic_resample(weights, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    n = len(weights) if count is None else count
    points = (rng.random() + np.arange(n)) / n
    indices = np.searchsorted(np.cumsum(weights), points)
    return np.minimum(indices, len(weights) - 1)


# proposal of the degenerate update branch (see ``update``)
_GATE_D2 = 16.27  # chi-square(3) 0.999 quantile
_PROPOSAL_SHARE = 0.1  # draws around the returns per predicted particle
_MIN_SCALE_M = 1e-3  # floor on a back-projected return's standard deviations


def _return_gaussians(meas, origin, p: SensingParams):
    """Linearised Cartesian Gaussian of each return's position.

    Returns the means (k, 3) as offsets from ``origin`` (the sensor position
    less a reference point), orthonormal bases (k, 3, 3) whose columns are
    the range, azimuth and inclination directions, and the standard
    deviations (k, 3) along those columns.
    """
    rho = meas[:, 0]
    (ca, ci), (sa, si) = np.cos(meas[:, 1:]).T, np.sin(meas[:, 1:]).T
    basis = np.array([[si * ca, -sa, ci * ca], [si * sa, ca, ci * sa], [ci, 0.0 * ci, -si]]).transpose(2, 0, 1)
    means = origin + rho[:, None] * basis[:, :, 0]
    sigma_rho = p.sigma_rho0_m + p.beta_rho * rho
    # the angular noise acts at the drone's distance, which a return within
    # a few sigma of the sensor (or clipped to range 0) understates
    lever = np.hypot(rho, sigma_rho)
    scales = np.array([sigma_rho, lever * si * p.sigma_theta_rad, lever * p.sigma_phi_rad])
    return means, basis, np.maximum(scales.T, _MIN_SCALE_M)


def _gated_returns(meas, sensor_pos, mean, cov, p: SensingParams):
    """Return Gaussians that pass the gate against the cloud's Gaussian fit.

    Returns their offsets from the cloud's mean position, bases, scales and
    mixture weights (each return's predictive density under the fit), or
    None when no return passes.
    """
    offsets, basis, scales = _return_gaussians(meas, np.asarray(sensor_pos, dtype=float) - mean[:3], p)
    s_chol = np.linalg.cholesky(cov[:3, :3] + (basis * scales[:, None, :] ** 2) @ basis.transpose(0, 2, 1))
    innov = np.linalg.solve(s_chol, offsets[..., None])
    d2 = (innov * innov).sum(axis=(1, 2))
    gated = d2 <= _GATE_D2
    if not gated.any():
        return None
    log_beta = -0.5 * d2[gated] - np.log(np.diagonal(s_chol[gated], axis1=1, axis2=2)).sum(axis=1)
    beta = np.exp(log_beta - log_beta.max())
    return offsets[gated], basis[gated], scales[gated], beta / beta.sum()


def _mixture_resample(ps: ParticleSet, log_w, meas, sensor_pos, p: SensingParams, rng):
    """Resample n states from the predicted particles plus draws around the gated returns.

    ``log_w`` holds the predicted particles' unnormalised log posterior
    weights. Returns None, leaving plain resampling to the caller, when no
    return passes the gate or the cloud's Gaussian fit is singular.
    """
    n = len(ps)
    mean = ps.weights @ ps.states
    centered = ps.states - mean
    cov = (ps.weights * centered.T) @ centered
    try:
        chol = np.linalg.cholesky(cov + 1e-9 * np.eye(6))
    except np.linalg.LinAlgError:
        return None
    gated = _gated_returns(meas, sensor_pos, mean, cov, p)
    if gated is None:
        return None
    offsets, basis, scales, beta = gated

    m = max(1, round(_PROPOSAL_SHARE * n))
    comp = _systematic_resample(beta, rng, m)
    z = rng.standard_normal((m, 6))
    pos = offsets[comp] + (basis[comp] @ (scales[comp] * z[:, :3])[..., None])[..., 0]
    inv_pp = np.linalg.inv(chol[:3, :3])
    vel = mean[3:] + pos @ (chol[3:, :3] @ inv_pp).T + z[:, 3:] @ chol[3:, 3:].T
    new = np.concatenate([pos + mean[:3], vel], axis=1)
    states = np.concatenate([ps.states, new])

    # Log densities of every position under the cloud's fit (row 0) and each
    # return's Gaussian (rows 1..k): one product whitens all the offsets, and
    # the particle axis comes last so the short reductions run across rows.
    whiten = np.concatenate([inv_pp[None], basis.transpose(0, 2, 1) / scales[:, :, None]])
    shift = np.concatenate([np.zeros(3), (basis * offsets[:, :, None]).sum(axis=1).ravel() / scales.ravel()])
    white = whiten.reshape(-1, 3) @ (states[:, :3] - mean[:3]).T - shift[:, None]
    log_dens = -0.5 * (white * white).reshape(-1, 3, len(states)).sum(axis=1)
    log_dens[0] -= np.log(np.diag(chol)[:3]).sum()
    log_dens[1:] += (np.log(beta) - np.log(scales).sum(axis=1))[:, None]
    log_mix = log_dens[1:]
    if len(log_mix) > 1:
        peak = log_mix.max(axis=0)
        log_mix = peak + np.log(np.exp(log_mix - peak).sum(axis=0))
    log_ratio = log_mix.reshape(-1) - log_dens[0]

    log_num = np.concatenate([log_w + math.log(n), _log_set_likelihood(new, meas, sensor_pos, p)])
    log_all = log_num - np.logaddexp(math.log(n), math.log(m) + log_ratio)
    weights = np.exp(log_all - log_all.max())
    weights /= weights.sum()
    return states[_systematic_resample(weights, rng, n)]


def update(
    ps: ParticleSet,
    measurements,
    sensor_pos,
    p: SensingParams,
    rng: np.random.Generator,
) -> tuple[ParticleSet, bool]:
    """Reweight by the set likelihood, then resample if the ESS drops below n/2.

    An ESS below n/2 marks a degenerate update: the likelihood is much
    narrower than the predicted cloud, and resampling the cloud alone would
    copy the few particles that happen to lie near a return, clutter
    included. There the n particles are resampled from a defensive mixture
    (Thrun, Fox, Burgard & Dellaert 2001) of the predicted cloud and
    ``m = n / 10`` draws around the returns:

    - each return is back-projected to a linearised Cartesian Gaussian of
      its position (range, azimuth and inclination noise along the local
      spherical axes);
    - a return passes the gate when its Mahalanobis distance from the
      cloud's Gaussian fit, under the sum of both covariances, is within
      the chi-square(3) 0.999 quantile; passing returns are drawn from in
      proportion to that predictive density;
    - a drawn position takes its velocity from the fit's Gaussian
      conditional on position;
    - every particle x, predicted or drawn, is weighted by the balance
      heuristic c L(x) / (n + m q(x) / f(x)), with L the set likelihood,
      q the mixture of return Gaussians, f the fit's position marginal,
      and c = n times the prior weight for a predicted particle, 1 for a
      drawn one; the n + m particles are then resampled systematically.

    When no return passes the gate the cloud alone is resampled. Draws come
    from ``rng`` only. Above the threshold the result is the exact
    reweighting of the predicted particles.

    Returns the new particle set and an "uninformative update" flag: when the
    likelihood underflows to zero for every particle the prior weights are
    kept and the flag is set.
    """
    meas = measurement_array(measurements)
    log_l = _log_set_likelihood(ps.states, meas, sensor_pos, p)
    log_w = _safe_log(ps.weights) + log_l
    peak = log_w.max()
    if not np.isfinite(peak):
        return ParticleSet(ps.states.copy(), ps.weights.copy()), True
    weights = np.exp(log_w - peak)
    weights /= weights.sum()
    states = ps.states
    if effective_sample_size(weights) < 0.5 * len(weights):
        mixed = _mixture_resample(ps, log_w, meas, sensor_pos, p, rng) if len(meas) else None
        if mixed is not None:
            return ParticleSet(mixed, np.full(len(weights), 1.0 / len(weights))), False
        indices = _systematic_resample(weights, rng)
        states = states[indices]
        weights = np.full(len(weights), 1.0 / len(weights))
    return ParticleSet(states.copy(), weights), False


def eap(ps: ParticleSet) -> Estimate:
    """Weighted mean and covariance of the particle set."""
    mean = ps.weights @ ps.states
    centered = ps.states - mean
    cov = (ps.weights * centered.T) @ centered
    return Estimate(TargetState.from_vector(mean), cov)


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _information_matrix(cov: np.ndarray) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    eye = np.eye(len(cov))
    # prefer the raw covariance when it is comfortably invertible
    eigs = np.linalg.eigvalsh(cov)
    candidates = [cov] if eigs.min() > 1e-12 * max(1.0, eigs.max()) else []
    candidates.append(cov + 1e-9 * eye)
    for candidate in candidates:
        try:
            info = np.linalg.inv(candidate)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(info).all():
            return 0.5 * (info + info.T)
    raise ValueError("singular covariance after regularization")


def _ci_pair(a: Estimate, b: Estimate) -> Estimate:
    info_a = _information_matrix(a.covariance)
    info_b = _information_matrix(b.covariance)

    def fused_trace(w: float) -> float:
        try:
            return float(np.trace(np.linalg.inv(w * info_a + (1.0 - w) * info_b)))
        except np.linalg.LinAlgError:
            return float("inf")

    w_star = _golden_section_min(fused_trace, 0.0, 1.0, 1e-6)
    # the trace is convex in w but its minimum may sit on the boundary
    w_best = min((0.0, 1.0, w_star), key=fused_trace)
    fused_info = w_best * info_a + (1.0 - w_best) * info_b
    fused_cov = np.linalg.inv(fused_info)
    fused_mean = fused_cov @ (
        w_best * info_a @ a.mean.as_vector() + (1.0 - w_best) * info_b @ b.mean.as_vector()
    )
    return Estimate(TargetState.from_vector(fused_mean), fused_cov)


def ci_fuse(estimates) -> Estimate:
    """Fold covariance intersection pairwise, left to right.

    Each pairwise weight is chosen by golden-section search to minimize the
    trace of the fused covariance. Callers fix the fold order (ascending
    agent id in the simulator); a single estimate is returned unchanged.
    """
    estimates = list(estimates)
    if not estimates:
        raise ValueError("ci_fuse needs at least one estimate")
    fused = estimates[0]
    for other in estimates[1:]:
        fused = _ci_pair(fused, other)
    return fused
