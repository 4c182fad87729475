"""The closed-form covariance intersection against the exact-trace referee.

``ci_fuse`` must give the bytes of the kernel in ``ci_referee.py``, which
evaluates every trace with ``np.trace(np.linalg.inv(...))``, on realistic
folds and on pairs built to stress the closed form's error bound.
"""

import math

import numpy as np
import pytest

import ci_referee
from cstj_sim.dynamics import TargetState
from cstj_sim.estimation import Estimate, _FusedTrace, _information_matrices, ci_fuse


def _cov(rng, cond, scale=1.0, basis=None):
    """A 6x6 covariance with eigenvalues spread geometrically over ``cond``."""
    if basis is None:
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    eigs = scale * rng.permutation(np.geomspace(1.0, cond, 6))
    return basis @ np.diag(eigs) @ basis.T


def _shared_basis(rng):
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return _cov(rng, 1e4, basis=basis), _cov(rng, 1e4, 1e2, basis)


def _near_identical(rng):
    a = _cov(rng, 10.0)
    return a, a + 1e-12 * _cov(rng, 10.0)


# (cov_a, cov_b) makers: condition numbers up to 1e6 on each side, cov_b
# scaled from 1e-12 to 1e6 relative to cov_a
PAIR_CLASSES = {
    "well_conditioned": lambda rng: (_cov(rng, 10.0), _cov(rng, 10.0)),
    "ill_a": lambda rng: (_cov(rng, 1e6), _cov(rng, 10.0)),
    "ill_b": lambda rng: (_cov(rng, 10.0), _cov(rng, 1e4)),
    "ill_both": lambda rng: (_cov(rng, 1e3), _cov(rng, 1e3)),
    "shared_basis": _shared_basis,
    "near_identical": _near_identical,
    "b_scaled_1e-6": lambda rng: (_cov(rng, 1e2), _cov(rng, 1e2, 1e-6)),
    "b_scaled_1e6": lambda rng: (_cov(rng, 1e2), _cov(rng, 1e2, 1e6)),
    # beyond the bound's cap: every comparison is exact
    "b_scaled_1e-12": lambda rng: (_cov(rng, 10.0), _cov(rng, 10.0, 1e-12)),
    "ill_1e6_both": lambda rng: (_cov(rng, 1e6), _cov(rng, 1e6)),
}
EXACT_ONLY = ("b_scaled_1e-12", "ill_1e6_both")

# probe weights, crowding both ends of [0, 1]
WEIGHTS = sorted(
    {0.0, 0.5, 1.0}
    | {10.0**-k for k in range(1, 10)}
    | {1.0 - 10.0**-k for k in range(1, 10)}
    | set(np.linspace(0.0, 1.0, 11).tolist())
)


def _estimate(rng, cov):
    return Estimate(TargetState.from_vector(rng.normal(size=6) * 10.0), cov)


def _assert_same_bytes(estimates):
    got, want = ci_fuse(estimates), ci_referee.ci_fuse(estimates)
    assert got.mean.as_vector().tobytes() == want.mean.as_vector().tobytes()
    assert got.covariance.tobytes() == want.covariance.tobytes()
    return got


def _fused_trace(cov_a, cov_b):
    (info_a, cond_a), (info_b, cond_b) = _information_matrices(np.array([cov_a, cov_b]))
    return _FusedTrace(info_a, info_b, cond_a, cond_b)


@pytest.mark.parametrize("n", [1, 2, 4, 12])
def test_seeded_folds_match_referee(n):
    for seed in range(5):
        rng = np.random.default_rng([n, seed])
        spread = np.array([5.0, 5.0, 5.0, 1.0, 1.0, 1.0])
        estimates = [
            _estimate(rng, _cov(rng, rng.uniform(1.0, 1e3), rng.uniform(0.1, 10.0)) * np.outer(spread, spread))
            for _ in range(n)
        ]
        _assert_same_bytes(estimates)


@pytest.mark.parametrize("name", sorted(PAIR_CLASSES))
def test_pair_classes_match_referee(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(20):
        cov_a, cov_b = PAIR_CLASSES[name](rng)
        _assert_same_bytes([_estimate(rng, cov_a), _estimate(rng, cov_b)])


@pytest.mark.parametrize("name", EXACT_ONLY)
def test_pairs_past_the_cap_use_exact_traces_only(name):
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert _fused_trace(*PAIR_CLASSES[name](rng)).terms is None


def test_identical_pair_matches_referee():
    rng = np.random.default_rng(2)
    est = _estimate(rng, _cov(rng, 50.0))
    _assert_same_bytes([est, Estimate(est.mean, est.covariance.copy())])


@pytest.mark.parametrize("boundary", ["w0", "w1"])
def test_boundary_optimum_matches_referee(boundary):
    # one input's covariance lies inside the other's: the tighter one alone wins
    rng = np.random.default_rng(3)
    wide = _cov(rng, 20.0)
    tight = 0.05 * wide + 0.01 * _cov(rng, 5.0)
    a, b = (_estimate(rng, wide), _estimate(rng, tight))
    if boundary == "w1":
        a, b = b, a
    fused = _assert_same_bytes([a, b])
    winner = b if boundary == "w0" else a
    np.testing.assert_allclose(fused.covariance, winner.covariance, rtol=1e-9)
    np.testing.assert_allclose(fused.mean.as_vector(), winner.mean.as_vector(), rtol=1e-9)


def test_regularised_covariance_matches_referee():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    flat = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 1e-14]) @ basis.T
    assert _information_matrices(0.5 * (flat + flat.T)[None])[0][1] == math.inf  # the +1e-9 path
    estimates = [_estimate(rng, _cov(rng, 10.0)), _estimate(rng, flat), _estimate(rng, _cov(rng, 10.0))]
    _assert_same_bytes(estimates)
    _assert_same_bytes(estimates[::-1])


def test_failed_cholesky_matches_referee():
    # a slightly indefinite covariance keeps an indefinite information matrix
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    indefinite = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1e-6]) @ basis.T
    est = _estimate(rng, indefinite)
    info, _ = _information_matrices(est.covariance[None])[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(info)
    _assert_same_bytes([_estimate(rng, _cov(rng, 10.0)), est])


@pytest.mark.parametrize("name", sorted(set(PAIR_CLASSES) - set(EXACT_ONLY)))
def test_closed_form_error_within_an_eighth_of_bound(name):
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    checked = 0
    for _ in range(20):
        trace = _fused_trace(*PAIR_CLASSES[name](rng))
        if trace.terms is None:
            continue
        checked += 1
        for w in WEIGHTS:
            exact = trace.exact(w)
            assert abs(trace.closed_form(w) - exact) <= trace.rtol / 8.0 * exact, (w, trace.rtol)
    assert checked >= 10
