"""The degenerate-update resampler ``_mixture_resample`` as it stood before its
offsets, proposal densities and row gathers ran along contiguous axes in
``cstj_sim.estimation``, kept verbatim as a bit-for-bit referee.

It builds the offsets as one strided ``states[:, :3] - mean[:3]``, its
proposal densities through temporaries and numpy's sum over each
component's three rows, and gathers rows by fancy indexing. The helpers it
calls (the fit, the gate, the systematic draw and the set likelihood) are
the package's own; ``tests/test_estimation.py`` pins the set likelihood
against ``likelihood_referee``. Do not edit it to follow the package.
"""

import math

import numpy as np

from cstj_sim.estimation import (
    _COV_JITTER,
    _PROPOSAL_SHARE,
    ParticleSet,
    _gated_returns,
    _log_set_likelihood,
    _moments,
    _systematic_resample,
)
from cstj_sim.sensing import SensingParams


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
    peak = log_dens[1:].max(axis=0)
    log_ratio = peak + np.log(np.exp(log_dens[1:] - peak).sum(axis=0)) - log_dens[0]

    log_num = np.concatenate([log_w + math.log(n), _log_set_likelihood(new, meas, sensor_pos, p)])
    log_all = log_num - np.logaddexp(math.log(n), math.log(m) + log_ratio)
    weights = np.exp(log_all - log_all.max())
    weights /= weights.sum()
    return states[_systematic_resample(weights, rng, n)]
