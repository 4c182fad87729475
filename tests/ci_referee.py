"""Fast covariance intersection one estimate at a time, as a value referee.

Each covariance gets 1e-9 I and is inverted alone by ``_information_matrix``
(the per-matrix form the package's batched ``_information_matrices``
replaced), the weights are ``oracles.fast_ci_weights`` of the covariances
as inverted, and the information sums are plain Python loops in input
order. ``tests/test_ci_fast.py`` holds ``ci_fuse`` to this kernel within a
rounding bound stated there. Do not edit these functions to follow the
package.
"""

import numpy as np

from cstj_sim.dynamics import TargetState
from cstj_sim.estimation import Estimate
from oracles import fast_ci_weights


def _information_matrix(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariance as inverted, plus 1e-9 I, and its symmetrised inverse."""
    cov = 0.5 * (cov + cov.T) + 1e-9 * np.eye(len(cov))
    try:
        info = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        info = None
    if info is None or not np.isfinite(info).all():
        raise ValueError("singular covariance after regularization")
    return cov, 0.5 * (info + info.T)


def fused_terms(estimates) -> tuple[list, list, list]:
    """Each estimate's weight, information matrix and mean, in input order."""
    covs, infos = zip(*(_information_matrix(e.covariance) for e in estimates))
    return fast_ci_weights(covs), list(infos), [e.mean.as_vector() for e in estimates]


def ci_fuse(estimates) -> Estimate:
    """I = sum_i w_i I_i and I m = sum_i w_i I_i m_i with w_i ~ 1 / tr(C_i); a single estimate is returned unchanged."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("ci_fuse needs at least one estimate")
    if len(estimates) == 1:
        return estimates[0]
    weights, infos, means = fused_terms(estimates)
    info = np.zeros((6, 6))
    vec = np.zeros(6)
    for w, i, m in zip(weights, infos, means):
        info = info + w * i
        vec = vec + w * (i @ m)
    cov = np.linalg.inv(info)
    return Estimate(TargetState.from_vector(cov @ vec), cov)
