"""The covariance-intersection kernel that preceded the closed-form weight
and the information-form fold in ``cstj_sim.estimation``, kept verbatim as a
value referee.

Every trace this search compares is a fresh ``np.trace(np.linalg.inv(...))``,
and each pair after the first re-inverts the running fused covariance.
``tests/test_ci_fast.py`` holds the exact trace of ``ci_fuse``'s fused
covariance to at most this kernel's plus a bound stated there. Do not edit
these functions to follow the package.
"""

import math

import numpy as np

from cstj_sim.dynamics import TargetState
from cstj_sim.estimation import Estimate


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
