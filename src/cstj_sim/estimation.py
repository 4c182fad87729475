"""Per-agent SIR particle filter with a clutter-aware measurement-set
likelihood, EAP extraction, and fast covariance-intersection fusion.

The filter runs on the simulator's own model: it propagates with
``MotionModel.advance``, which moves the drone, and scores with ``sensing``'s
h(x) (``spherical_coords``, that is ``dynamics.norm`` and
``spherical_angles``) and range-noise law (``SensingParams.range_sigma``).

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

from .dynamics import MotionModel, TargetState, norm
from .geometry_rf import sender_sum
from .sensing import SensingParams, detection_prob_at_distance, spherical_angles, wrap_difference


@dataclass
class ParticleSet:
    """Weighted particles of one agent's filtering density; sets share arrays, which nothing writes in place."""

    states: np.ndarray  # (n, 6) rows of position + velocity
    weights: np.ndarray  # (n,), nonnegative, summing to one

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.states.ndim != 2 or self.states.shape[1] != 6 or len(self.states) < 1:
            raise ValueError("states must be an (n, 6) array with n >= 1")
        if self.weights.shape != (len(self.states),):
            raise ValueError("weights must match the particle count")
        # written so that NaN weights fail the check
        if not (self.weights.min() >= 0 and abs(self.weights.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be nonnegative and sum to one")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(slots=True)
class Estimate:
    """State mean with its 6x6 covariance."""

    mean: TargetState
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float).reshape(6, 6)
        self.covariance = 0.5 * (cov + cov.T)


def init_particles(prior_mean: TargetState, prior_sigma, n: int, rng: np.random.Generator) -> ParticleSet:
    """Draw n i.i.d. particles, with uniform weights, as ``mean + z * prior_sigma``: one standard normal per axis, in axis order."""
    if n < 1:
        raise ValueError("particle count must be >= 1")
    states = prior_mean.as_vector() + rng.standard_normal((n, 6)) * prior_sigma
    return ParticleSet(states, np.full(n, 1.0 / n))


def predict(ps: ParticleSet, model: MotionModel, rng: np.random.Generator) -> ParticleSet:
    """Propagate every particle through the motion model; weights unchanged."""
    states = model.advance(ps.states, model.accel_noise(rng, (len(ps),)))
    return ParticleSet(states, ps.weights)


def predicted_state(ps: ParticleSet) -> TargetState:
    """Weighted particle mean, used as the expected predicted drone state."""
    return TargetState.from_vector(ps.weights @ ps.states)


def _moments(ps: ParticleSet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean (6,) and covariance (6, 6) of the particle set."""
    mean = ps.weights @ ps.states
    centered = ps.states - mean
    return mean, (ps.weights * centered.T) @ centered


def _safe_log(values):
    with np.errstate(divide="ignore"):
        return np.log(values)


def _log_norm(log_sigma_rho, p: SensingParams):
    """Log normaliser of the measurement density, given the log of its range-noise scale."""
    return log_sigma_rho + math.log(p.sigma_theta_rad) + math.log(p.sigma_phi_rad) + 1.5 * math.log(2.0 * math.pi)


def _log_measurement_densities(dist, azimuth, inclination, meas, p: SensingParams):
    """(n_meas, n_particles) log Gaussian densities of each measurement.

    ``dist``, ``azimuth`` and ``inclination`` are h(x) of each particle
    (``sensing.spherical_coords``: ``dynamics.norm`` and
    ``sensing.spherical_angles``). The azimuth residual is wrapped into
    (-pi, pi]; the range noise scale is ``p.range_sigma(dist)``.

    The grid is measurement-major: a set has a few dozen returns at most
    and a filter thousands of particles, so every elementwise pass runs
    along the long, contiguous particle axis, with per-particle vectors
    broadcast along the rows and one return's values per row. The
    quadratic form sum((residual / scale) ** 2) is built in place, in that
    order of operations, so each element equals the plain expression bit
    for bit, whatever the layout.
    """
    sigma_rho = p.range_sigma(dist)
    log_norm = _log_norm(np.log(sigma_rho), p)
    quad = np.subtract(meas[:, 0, None], dist)
    quad /= sigma_rho
    quad *= quad
    term = wrap_difference(np.subtract(meas[:, 1, None], azimuth))
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


# For x < -746, e**x < 0.21 * 2**-1074: any exp within 0.79 ulp of the
# subnormal grid rounds it to 0.0, which ``tests/test_estimation.py`` checks
# on the numpy in use. numpy reaches that 0.0 by a slow path of about 20 ns
# per element, against about 1 ns for a normal result.
_EXP_ZERO_BELOW = -746.0


def _exp_live(g):
    """``np.exp(g)`` in place, bit for bit, taking ``exp`` only of elements that can be non-zero.

    ``g`` must be C-contiguous. Elements below ``_EXP_ZERO_BELOW`` are set
    to the 0.0 that ``exp`` would give them; the live ones, NaN included,
    are gathered, raised and scattered back. Gathering by flat indices
    takes about a quarter less time than by a boolean mask, and ``take``
    less than indexing (the scatter indexes: ``put`` is slower).
    """
    flat = g.reshape(-1)
    live = np.flatnonzero(~(flat < _EXP_ZERO_BELOW))
    values = flat.take(live)
    np.exp(values, out=values)
    g.fill(0.0)
    flat[live] = values
    return g


def _detectable_density_sums(delta, dist, p_d, meas, p: SensingParams):
    """S, each particle's sum over the returns of its measurement densities, exactly 0.0 where ``p_d`` is.

    ``delta`` holds the particles' offsets from the sensor, (n, 3) in any
    layout, and ``dist`` their norms. The grid is built for the particles
    with a nonzero ``p_d`` only, gathering the offsets as coordinate rows,
    and spares the gather when all have one. Elementwise
    ufuncs and the sum over the returns work per particle, so a gathered S
    has the bits it has in the whole grid.

    The densities come measurement-major (see
    ``_log_measurement_densities``). About half of them lie so far below
    zero that ``exp`` rounds them to 0.0, slowly; ``_exp_live`` takes
    ``exp`` of the rest only. Each particle's S adds its returns' densities
    one at a time, in the set's order, into 0.0, which leaves every
    density's bits as they are; an empty set gives S = 0.0. numpy's sum over
    the returns is that fold on two or more columns, but it adds a lone
    column, the fast axis in memory, pairwise, so ``sender_sum`` adds that.
    """
    live = p_d.nonzero()[0]
    gather = len(live) < len(dist)
    if gather:
        delta, dist = delta.T.take(live, axis=1).T, dist.take(live)
    azimuth, inclination = spherical_angles(delta)
    densities = _exp_live(_log_measurement_densities(dist, azimuth, inclination, meas, p))
    sums = sender_sum(densities) if len(dist) == 1 else densities.sum(axis=0)
    if not gather:
        return sums
    all_sums = np.zeros(len(p_d))
    all_sums[live] = sums
    return all_sums


def _log_set_likelihood(states, meas, sensor_pos, p: SensingParams):
    """Log likelihood of the whole measurement set for each state row.

    ``states`` (n, 6), the set ``meas`` (n_meas, 3) and ``sensor_pos`` (3,)
    are float arrays. Sums a "missed detection, all clutter" hypothesis with
    one hypothesis per measurement being the target return, each weighted by
    the Poisson clutter process; clutter-free sensing degenerates to the
    obvious special cases.

    With clutter a particle scores ``base + log((1 - p_d) + p_d S / K)``
    (Ristic, Vo, Vo & Farina 2013), where S is its sum over the returns of
    their densities and K the clutter intensity; without clutter, one
    return scores ``log(p_d S)``. Every target hypothesis carries the
    factor ``p_d``, so where it is 0.0 they add nothing: S is exactly 0.0
    there (``_detectable_density_sums``), whatever the returns, and the
    grid of densities is built only for the particles the sensor can
    detect. An undetectable particle scores the no-detection hypothesis:
    ``base`` with clutter, 0.0 for an empty clutter-free set and -inf for a
    lone clutter-free return. At the default sensing those are the
    particles more than 51.5 m from the sensor, most of a cloud where the
    team has lost the drone.

    ``delta`` is ``states[:, :3] - sensor_pos`` written into the rows of a (3, n)
    array, so every per-particle pass runs along a contiguous row.
    """
    n_meas = len(meas)
    delta = np.subtract(states[:, :3].T, sensor_pos[:, None], out=np.empty((3, len(states)))).T
    dist = norm(delta)
    p_d = detection_prob_at_distance(dist, p)
    lam = p.clutter_rate
    if lam > 0:
        base = n_meas * math.log(lam * p.clutter_density) - lam
        sums = _detectable_density_sums(delta, dist, p_d, meas, p)
        return base + _safe_log((1.0 - p_d) + p_d * sums / (lam * p.clutter_density))
    if n_meas == 0:
        return _safe_log(1.0 - p_d)
    if n_meas == 1:
        return _safe_log(p_d * _detectable_density_sums(delta, dist, p_d, meas, p))
    return np.full(len(states), -np.inf)


def effective_sample_size(weights: np.ndarray) -> float:
    """1 / sum(w**2) of a float array of normalised weights."""
    return float(1.0 / np.sum(weights**2))


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` indices into the float array ``weights``, drawn systematically from one uniform."""
    points = (rng.random() + np.arange(count)) / count
    indices = np.searchsorted(np.cumsum(weights), points)
    return np.minimum(indices, len(weights) - 1)


_COV_JITTER = 1e-9  # added to a covariance's diagonal before it is factorised or inverted

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
    sigma_rho = p.range_sigma(rho)
    # the angular noise acts at the drone's distance, which a return within
    # a few sigma of the sensor (or clipped to range 0) understates
    lever = np.hypot(rho, sigma_rho)
    scales = np.array([sigma_rho, lever * si * p.sigma_theta_rad, lever * p.sigma_phi_rad])
    return means, basis, np.maximum(scales.T, _MIN_SCALE_M)


def _gated_returns(meas, sensor_pos, mean, cov, p: SensingParams):
    """Return Gaussians that pass the gate against the cloud's Gaussian fit.

    ``sensor_pos`` is the sensor's float (3,) position. Returns their
    offsets from the cloud's mean position, bases, scales and mixture
    weights (each return's predictive density under the fit), or None when
    no return passes.
    """
    offsets, basis, scales = _return_gaussians(meas, sensor_pos - mean[:3], p)
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
    mean, cov = _moments(ps)
    try:
        chol = np.linalg.cholesky(cov + _COV_JITTER * np.eye(6))
    except np.linalg.LinAlgError:
        return None
    gated = _gated_returns(meas, sensor_pos, mean, cov, p)
    if gated is None:
        return None
    offsets, basis, scales, beta = gated

    m = max(1, round(_PROPOSAL_SHARE * n))
    comp = _systematic_resample(beta, rng, m)
    z = rng.standard_normal((m, 6))
    pos = offsets.take(comp, 0) + (basis.take(comp, 0) @ (scales.take(comp, 0) * z[:, :3])[..., None])[..., 0]
    inv_pp = np.linalg.inv(chol[:3, :3])
    vel = mean[3:] + pos @ (chol[3:, :3] @ inv_pp).T + z[:, 3:] @ chol[3:, 3:].T
    new = np.concatenate([pos + mean[:3], vel], axis=1)
    states = np.concatenate([ps.states, new])

    # Log densities of every position under the cloud's fit (row 0) and each
    # return's Gaussian (rows 1..k): one product whitens all the offsets (built
    # C-contiguous, since a product's bits depend on its operands' layout), the
    # particle axis comes last, and each component's squared rows add in place
    # in the order of numpy's sum over them, (w0 + w1) + w2.
    whiten = np.concatenate([inv_pp[None], basis.transpose(0, 2, 1) / scales[:, :, None]])
    shift = np.concatenate([np.zeros(3), (basis * offsets[:, :, None]).sum(axis=1).ravel() / scales.ravel()])
    centered = np.empty((len(states), 3))
    for k in range(3):
        np.subtract(states[:, k], mean[k], out=centered[:, k])
    white = whiten.reshape(-1, 3) @ centered.T
    white -= shift[:, None]
    white *= white
    log_dens = white[0::3] + white[1::3]
    log_dens += white[2::3]
    log_dens *= -0.5
    log_dens[0] -= np.log(np.diag(chol)[:3]).sum()
    log_dens[1:] += (np.log(beta) - np.log(scales).sum(axis=1))[:, None]
    peak = log_dens[1:].max(axis=0)
    log_ratio = peak + np.log(np.exp(log_dens[1:] - peak).sum(axis=0)) - log_dens[0]

    log_num = np.concatenate([log_w + math.log(n), _log_set_likelihood(new, meas, sensor_pos, p)])
    log_all = log_num - np.logaddexp(math.log(n), math.log(m) + log_ratio)
    weights = np.exp(log_all - log_all.max())
    weights /= weights.sum()
    return states.take(_systematic_resample(weights, rng, n), axis=0)


def update(
    ps: ParticleSet,
    measurements,
    sensor_pos,
    p: SensingParams,
    rng: np.random.Generator,
) -> tuple[ParticleSet, bool]:
    """Reweight by the set likelihood, then resample if the ESS drops below n/2.

    ``measurements`` is the set as ``sensing.collect`` returns it: an (n, 3)
    array of (range [m], azimuth in (-pi, pi], inclination in [0, pi]) rows.
    ``sensor_pos`` is the sensor's float (3,) position.

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

    When no return passes the gate, as when the set is empty, the cloud
    alone is resampled. Draws come from ``rng`` only. Above the threshold
    the result is the exact reweighting of the predicted particles.

    Returns the new particle set and an "uninformative update" flag: when the
    likelihood underflows to zero for every particle, ``ps`` itself comes
    back and the flag is set.
    """
    log_l = _log_set_likelihood(ps.states, measurements, sensor_pos, p)
    log_w = _safe_log(ps.weights) + log_l
    peak = log_w.max()
    if not np.isfinite(peak):
        return ps, True
    weights = np.exp(log_w - peak)
    weights /= weights.sum()
    if effective_sample_size(weights) < 0.5 * len(weights):
        states = _mixture_resample(ps, log_w, measurements, sensor_pos, p, rng)
        if states is None:
            states = ps.states.take(_systematic_resample(weights, rng, len(weights)), axis=0)
        return ParticleSet(states, np.full(len(weights), 1.0 / len(weights))), False
    return ParticleSet(ps.states, weights), False


def eap(ps: ParticleSet) -> Estimate:
    """Weighted mean and covariance of the particle set."""
    mean, cov = _moments(ps)
    return Estimate(TargetState.from_vector(mean), cov)


def _information_matrices(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariances of a (k, 6, 6) stack as inverted, and their symmetrised inverses, by one batched inverse.

    Each covariance must be exactly symmetric, as ``Estimate`` makes every
    one it holds. Each is inverted plus ``_COV_JITTER`` I, so a zero one (a
    one-particle filter's) has a finite inverse; a singular shifted
    covariance, or a NaN entry, raises a ``ValueError``.
    """
    covs = covs + _COV_JITTER * np.eye(covs.shape[-1])
    try:
        infos = np.linalg.inv(covs)
    except np.linalg.LinAlgError:
        infos = np.full_like(covs, np.nan)
    if not np.isfinite(infos).all():
        raise ValueError("singular covariance after regularization")
    return covs, 0.5 * (infos + infos.transpose(0, 2, 1))


def ci_fuse(estimates) -> Estimate:
    """Fast covariance intersection (Niehsen 2002) of every estimate at once.

    CI (Julier & Uhlmann 1997) runs in information form: I = sum_i w_i I_i
    and I m = sum_i w_i I_i m_i, with I_i and m_i each estimate's
    information matrix (``_information_matrices``) and mean. The fused
    covariance is inv(I) and the fused mean inv(I) (I m). Any weights on
    the simplex keep the result consistent; fast CI takes
    w_i = (1 / tr(C_i)) / sum_j (1 / tr(C_j)), where C_i is the covariance
    whose inverse is I_i, the input plus ``_COV_JITTER`` I, so a zero
    covariance gets a finite weight. tr(inv(I)) is then at most the
    harmonic mean of the tr(C_i). Both sums add the estimates' terms one at
    a time, in input order (numpy's sum over the stack's leading axis), so
    reordering the inputs changes only the rounding. A single estimate is
    returned unchanged.
    """
    estimates = list(estimates)
    if not estimates:
        raise ValueError("ci_fuse needs at least one estimate")
    if len(estimates) == 1:
        return estimates[0]
    covs, infos = _information_matrices(np.array([e.covariance for e in estimates]))
    weights = 1.0 / np.trace(covs, axis1=1, axis2=2)
    weights /= weights.sum()
    weighted = weights[:, None, None] * infos
    means = np.array([e.mean.as_vector() for e in estimates])
    cov = np.linalg.inv(weighted.sum(axis=0))
    vec = (weighted @ means[:, :, None]).sum(axis=0)
    return Estimate(TargetState.from_vector(cov @ vec[:, 0]), cov)
