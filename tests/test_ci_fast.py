"""The information-form covariance intersection against the exact-trace referee.

``ci_referee.py`` searches each pair's weight on exact traces and re-inverts
the running fused covariance between pairs; ``ci_fuse`` searches the closed
form of the same trace and folds the information matrices. The two agree in
exact arithmetic, not bit for bit, so the referee serves as a value oracle:
on each pair, the exact trace of ``ci_fuse``'s fused covariance may exceed
the referee's by at most

- the larger exact rise of the trace over a ``1e-6`` step in w either side
  of the referee's search result: both golden-section searches stop on an
  interval of width ``1e-6`` about the minimiser of a convex trace, so their
  weights lie within ``1e-6`` of each other; plus
- twice ``_rtol`` times the trace, for the rounding of the closed form and of
  the exact traces it is compared with (see ``_rtol``).

A fold is checked pair by pair: ``ci_fuse`` of the first k estimates
against the referee's pair of ``ci_fuse`` of the first k - 1 and the k-th.
"""

import math

import numpy as np
import pytest

import ci_referee
from cstj_sim import estimation
from cstj_sim.dynamics import TargetState
from cstj_sim.estimation import Estimate, _fused_trace, _information_matrices, _inverse_factors, ci_fuse

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
_STEP = 1e-6  # the golden-section tolerance of both searches


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
    "b_scaled_1e-12": lambda rng: (_cov(rng, 10.0), _cov(rng, 10.0, 1e-12)),
    "ill_1e6_both": lambda rng: (_cov(rng, 1e6), _cov(rng, 1e6)),
}
# classes whose ``_rtol`` reaches 1e-3, where a bound that loose says nothing
# about the closed form's accuracy
LOOSE = ("b_scaled_1e-12", "ill_1e6_both")

# probe weights, crowding both ends of [0, 1]
WEIGHTS = sorted(
    {0.0, 0.5, 1.0}
    | {10.0**-k for k in range(1, 10)}
    | {1.0 - 10.0**-k for k in range(1, 10)}
    | set(np.linspace(0.0, 1.0, 11).tolist())
)


def _estimate(rng, cov):
    return Estimate(TargetState.from_vector(rng.normal(size=6) * 10.0), cov)


def _exact(info_a, info_b, w: float) -> float:
    try:
        return float(np.trace(np.linalg.inv(w * info_a + (1.0 - w) * info_b)))
    except np.linalg.LinAlgError:
        return math.inf


def _rtol(info_a, info_b) -> float:
    """A relative error bound on the closed-form trace of a pair, as against the exact one.

    64 u max(k_a k_b, k_b max(lam_max, 1 / lam_min)), with u the unit
    roundoff, k_a and k_b the condition numbers of the two information
    matrices and lam the generalised eigenvalues of I_a against I_b. The
    exact trace carries the rounding of a 6x6 inverse as ill-conditioned as
    the worse input; the second term guards inputs of very different scale,
    where near w = 1 the sum is dominated by c_i / lam_i for the smallest
    lam_i. Infinite where the closed form does not apply.
    """
    cond_a, cond_b = np.linalg.cond(info_a), np.linalg.cond(info_b)
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(info_b))
    except np.linalg.LinAlgError:
        return math.inf
    lams = np.linalg.eigvalsh(inv_chol @ info_a @ inv_chol.T)
    if not lams[0] > 0.0:
        return math.inf
    return 64.0 * _UNIT_ROUNDOFF * max(cond_a * cond_b, cond_b * max(lams[-1], 1.0 / lams[0]))


def _assert_within_bound_of_referee(a: Estimate, b: Estimate, got: Estimate) -> None:
    """``got`` fuses the pair (a, b): its exact trace against the referee's, per the module docstring."""
    want = ci_referee._ci_pair(a, b)
    info_a, info_b = (ci_referee._information_matrix(e.covariance) for e in (a, b))
    w_star = ci_referee._golden_section_min(lambda w: _exact(info_a, info_b, w), 0.0, 1.0, _STEP)
    want_trace = float(np.trace(want.covariance))
    rise = max(_exact(info_a, info_b, min(max(w_star + s, 0.0), 1.0)) for s in (-_STEP, _STEP)) - want_trace
    rtol = _rtol(info_a, info_b)
    got_trace = float(np.trace(got.covariance))
    assert got_trace <= want_trace + max(rise, 0.0) + 2.0 * rtol * want_trace, (got_trace, want_trace, rise, rtol)


def _assert_fold_within_bound(estimates) -> Estimate:
    fused = ci_fuse(estimates[:1])
    for k in range(2, len(estimates) + 1):
        previous, fused = fused, ci_fuse(estimates[:k])
        _assert_within_bound_of_referee(previous, estimates[k - 1], fused)
    return fused


@pytest.mark.parametrize("n", [1, 2, 4, 12])
def test_seeded_folds_match_referee(n):
    for seed in range(5):
        rng = np.random.default_rng([n, seed])
        spread = np.array([5.0, 5.0, 5.0, 1.0, 1.0, 1.0])
        estimates = [
            _estimate(rng, _cov(rng, rng.uniform(1.0, 1e3), rng.uniform(0.1, 10.0)) * np.outer(spread, spread))
            for _ in range(n)
        ]
        fused = _assert_fold_within_bound(estimates)
        if n == 1:
            assert fused is estimates[0]


@pytest.mark.parametrize("name", sorted(PAIR_CLASSES))
def test_pair_classes_match_referee(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(20):
        cov_a, cov_b = PAIR_CLASSES[name](rng)
        _assert_fold_within_bound([_estimate(rng, cov_a), _estimate(rng, cov_b)])


def test_identical_pair_matches_referee():
    rng = np.random.default_rng(2)
    est = _estimate(rng, _cov(rng, 50.0))
    _assert_fold_within_bound([est, Estimate(est.mean, est.covariance.copy())])


@pytest.mark.parametrize("boundary", ["w0", "w1"])
def test_boundary_optimum_matches_referee(boundary):
    # one input's covariance lies inside the other's: the tighter one alone wins
    rng = np.random.default_rng(3)
    wide = _cov(rng, 20.0)
    tight = 0.05 * wide + 0.01 * _cov(rng, 5.0)
    a, b = (_estimate(rng, wide), _estimate(rng, tight))
    if boundary == "w1":
        a, b = b, a
    fused = _assert_fold_within_bound([a, b])
    winner = b if boundary == "w0" else a
    np.testing.assert_allclose(fused.covariance, winner.covariance, rtol=1e-9)
    np.testing.assert_allclose(fused.mean.as_vector(), winner.mean.as_vector(), rtol=1e-9)


def test_regularised_covariance_matches_referee():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    flat = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 1e-14]) @ basis.T
    # the +1e-9 path: unregularised, the largest information would be near 1e14
    assert np.linalg.eigvalsh(_information_matrices(0.5 * (flat + flat.T)[None])[0]).max() < 1.1e9
    estimates = [_estimate(rng, _cov(rng, 10.0)), _estimate(rng, flat), _estimate(rng, _cov(rng, 10.0))]
    _assert_fold_within_bound(estimates)
    _assert_fold_within_bound(estimates[::-1])


def test_failed_cholesky_matches_referee():
    # a slightly indefinite covariance keeps an indefinite information matrix
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    indefinite = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1e-6]) @ basis.T
    est = _estimate(rng, indefinite)
    info = _information_matrices(est.covariance[None])[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(info)
    _assert_fold_within_bound([_estimate(rng, _cov(rng, 10.0)), est])


def test_stack_inverts_each_covariance_as_alone():
    # a well-conditioned covariance is inverted raw; a zero and a rank-5 one
    # get 1e-9 I first; the one batched inverse gives each the bytes of
    # inverting it alone, then symmetrising
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rank5 = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 0.0]) @ basis.T
    stack = np.array([_cov(rng, 10.0), np.zeros((6, 6)), rank5])
    stack = 0.5 * (stack + stack.transpose(0, 2, 1))  # symmetrising again changes no bit
    infos = _information_matrices(stack)
    for cov, info, shift in zip(stack, infos, (0.0, 1e-9, 1e-9)):
        alone = np.linalg.inv(cov + shift * np.eye(6) if shift else cov)
        assert info.tobytes() == (0.5 * (alone + alone.T)).tobytes()


def _factor_alone(info):
    """inv(L) of one information matrix I = L L^T, factorised by itself; None where it has no factor."""
    try:
        return np.linalg.inv(np.linalg.cholesky(info))
    except np.linalg.LinAlgError:
        return None


def test_failed_batch_factor_fuses_as_pair_by_pair(monkeypatch):
    # the indefinite teammate of test_failed_cholesky_matches_referee between
    # two positive definite ones: the batched factorisation raises, and each
    # teammate is factorised alone, as the fold did pair by pair
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    indefinite = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1e-6]) @ basis.T
    estimates = [_estimate(rng, _cov(rng, 10.0)), _estimate(rng, indefinite), _estimate(rng, _cov(rng, 10.0))]
    infos = _information_matrices(np.array([e.covariance for e in estimates]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(infos[1:])
    factors = _inverse_factors(infos[1:])
    assert factors[0] is None
    assert factors[1].tobytes() == _factor_alone(infos[2]).tobytes()
    batched = ci_fuse(estimates)
    monkeypatch.setattr(estimation, "_inverse_factors", lambda stack: [_factor_alone(info) for info in stack])
    pair_by_pair = ci_fuse(estimates)
    assert batched.mean.as_vector().tobytes() == pair_by_pair.mean.as_vector().tobytes()
    assert batched.covariance.tobytes() == pair_by_pair.covariance.tobytes()


def test_batched_factors_equal_each_factor_alone():
    # eleven positive definite teammates, as a 12-agent fold has, with
    # condition numbers up to 1e6 and scales from 1e-6 to 1e6
    rng = np.random.default_rng(8)
    covs = [_cov(rng, 10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(11)]
    infos = _information_matrices(np.array([0.5 * (c + c.T) for c in covs]))
    factors = _inverse_factors(infos)
    assert len(factors) == len(infos)
    for info, factor in zip(infos, factors):
        assert factor.tobytes() == _factor_alone(info).tobytes()


def test_covariance_singular_after_regularisation_raises():
    # -1e-9 I plus the 1e-9 I regularisation is exactly zero
    stack = np.array([_cov(np.random.default_rng(7), 10.0), -1e-9 * np.eye(6)])
    with pytest.raises(ValueError, match="singular covariance after regularization"):
        _information_matrices(stack)


@pytest.mark.parametrize("name", sorted(set(PAIR_CLASSES) - set(LOOSE)))
def test_closed_form_error_within_an_eighth_of_bound(name):
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    checked = 0
    for _ in range(20):
        cov_a, cov_b = PAIR_CLASSES[name](rng)
        info_a, info_b = _information_matrices(np.array([cov_a, cov_b]))
        rtol = _rtol(info_a, info_b)
        if not rtol < 1e-3:
            continue
        checked += 1
        trace = _fused_trace(info_a, info_b, _inverse_factors(info_b[None])[0])
        for w in WEIGHTS:
            exact = _exact(info_a, info_b, w)
            assert abs(trace(w) - exact) <= rtol / 8.0 * exact, (w, rtol)
    assert checked >= 10
