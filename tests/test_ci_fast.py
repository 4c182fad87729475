"""Fast covariance intersection against the one-at-a-time referee.

``ci_referee.py`` regularises and inverts each covariance alone and sums the
weighted information in Python loops; ``ci_fuse`` inverts the stack in one
batched call and sums over its leading axis. The two agree in exact
arithmetic, not bit for bit, so the referee serves as a value oracle. With
P the referee's fused covariance, m its mean, and w_i, I_i, m_i its weights,
information matrices and means, let

    K = ||P|| sum_i w_i ||I_i||  and  M = ||P|| sum_i w_i ||I_i|| ||m_i||

(2-norms). K bounds the relative error an inverse of the rounded sum
carries, as cond(I) does for positive definite inputs, and still holds where
an input's information is indefinite. ``ci_fuse`` may differ from the
referee by at most 64 u K ||P|| in the covariance and 64 u (K + 1) M in the
mean, u the unit roundoff: each side rounds the weights, the sums and one
6x6 inverse, and 64 covers both sides' constants.
"""

import numpy as np
import pytest

import ci_referee
from cstj_sim.dynamics import TargetState
from cstj_sim.estimation import Estimate, _information_matrices, ci_fuse

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0


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


def _estimate(rng, cov):
    return Estimate(TargetState.from_vector(rng.normal(size=6) * 10.0), cov)


def _assert_within_bound_of_referee(estimates) -> Estimate:
    """``ci_fuse(estimates)`` against the referee, per the module docstring; returns the fused estimate."""
    got = ci_fuse(estimates)
    want = ci_referee.ci_fuse(estimates)
    weights, infos, means = ci_referee.fused_terms(estimates)
    spread = np.linalg.norm(want.covariance, 2)
    info_norms = [w * np.linalg.norm(i, 2) for w, i in zip(weights, infos)]
    k = spread * sum(info_norms)
    m = spread * sum(n * np.linalg.norm(mean) for n, mean in zip(info_norms, means))
    cov_err = np.linalg.norm(got.covariance - want.covariance, 2)
    mean_err = np.linalg.norm(got.mean.as_vector() - want.mean.as_vector())
    assert cov_err <= 64.0 * _UNIT_ROUNDOFF * k * spread, (cov_err, k, spread)
    assert mean_err <= 64.0 * _UNIT_ROUNDOFF * (k + 1.0) * m, (mean_err, k, m)
    return got


@pytest.mark.parametrize("n", [1, 2, 4, 12])
def test_seeded_folds_match_referee(n):
    # seeded teams of n, fused in one step
    for seed in range(5):
        rng = np.random.default_rng([n, seed])
        spread = np.array([5.0, 5.0, 5.0, 1.0, 1.0, 1.0])
        estimates = [
            _estimate(rng, _cov(rng, rng.uniform(1.0, 1e3), rng.uniform(0.1, 10.0)) * np.outer(spread, spread))
            for _ in range(n)
        ]
        fused = _assert_within_bound_of_referee(estimates)
        if n == 1:
            assert fused is estimates[0]


@pytest.mark.parametrize("name", sorted(PAIR_CLASSES))
def test_pair_classes_match_referee(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(20):
        cov_a, cov_b = PAIR_CLASSES[name](rng)
        _assert_within_bound_of_referee([_estimate(rng, cov_a), _estimate(rng, cov_b)])


def test_identical_pair_matches_referee():
    rng = np.random.default_rng(2)
    est = _estimate(rng, _cov(rng, 50.0))
    _assert_within_bound_of_referee([est, Estimate(est.mean, est.covariance.copy())])


def test_regularised_covariance_matches_referee():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    flat = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 1e-14]) @ basis.T
    # with 1e-9 I added; without it, the largest information would be near 1e14
    assert np.linalg.eigvalsh(_information_matrices(0.5 * (flat + flat.T)[None])[1][0]).max() < 1.1e9
    estimates = [_estimate(rng, _cov(rng, 10.0)), _estimate(rng, flat), _estimate(rng, _cov(rng, 10.0))]
    _assert_within_bound_of_referee(estimates)
    _assert_within_bound_of_referee(estimates[::-1])


def test_failed_cholesky_matches_referee():
    # a slightly indefinite covariance keeps an indefinite information matrix,
    # which has no Cholesky factor but still fuses as the referee does
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    indefinite = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1e-6]) @ basis.T
    est = _estimate(rng, indefinite)
    info = _information_matrices(est.covariance[None])[1][0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(info)
    _assert_within_bound_of_referee([_estimate(rng, _cov(rng, 10.0)), est])


def test_stack_inverts_each_covariance_as_alone():
    # a well-conditioned, a zero and a rank-5 covariance each get 1e-9 I
    # first; the one batched inverse gives each the bytes of inverting it
    # alone, then symmetrising
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rank5 = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 0.0]) @ basis.T
    stack = np.array([_cov(rng, 10.0), np.zeros((6, 6)), rank5])
    stack = 0.5 * (stack + stack.transpose(0, 2, 1))  # symmetrising again changes no bit
    inverted, infos = _information_matrices(stack)
    for cov, used, info in zip(stack, inverted, infos):
        cov = cov + 1e-9 * np.eye(6)
        assert used.tobytes() == cov.tobytes()
        alone = np.linalg.inv(cov)
        assert info.tobytes() == (0.5 * (alone + alone.T)).tobytes()


def test_covariance_singular_after_regularisation_raises():
    # -1e-9 I plus the 1e-9 I regularisation is exactly zero
    stack = np.array([_cov(np.random.default_rng(7), 10.0), -1e-9 * np.eye(6)])
    with pytest.raises(ValueError, match="singular covariance after regularization"):
        _information_matrices(stack)


@pytest.mark.parametrize("diagonal_only", [False, True], ids=["all_nan", "nan_diagonal"])
def test_nan_covariance_raises(diagonal_only):
    # a NaN entry makes the inverse NaN, which the one check reports
    rng = np.random.default_rng(8)
    bad = np.diag(np.full(6, np.nan)) if diagonal_only else np.full((6, 6), np.nan)
    estimates = [_estimate(rng, _cov(rng, 10.0)), _estimate(rng, bad), _estimate(rng, _cov(rng, 10.0))]
    with pytest.raises(ValueError, match="singular covariance after regularization"):
        ci_fuse(estimates)


def test_singular_fused_information_raises():
    # the two filters of a 2-agent run with prior.sigma = 9.5,6.9e-6,0.017,9.6e4,3.6e6,5.1e7 (seed 4) at step 3:
    # each covariance, with spreads up to 1e16, inverts, but their weighted information sum is singular
    pinned = [
        (
            [-292179.09581082896, -24269222.616695106, 225606778.8273487, -97417.33000012157, -8089747.723149681, 75202245.1423136],
            [
                [88536448584.96985, -173114943614.52023, 5198297929427.713, 29512109118.925365, -57705095197.791794, 1732765943393.539],
                [-173114943614.52023, 108678129548211.83, 434491963665402.75, -57698473901.49252, 36226041019611.54, 144830659600690.53],
                [5198297929427.713, 434491963665402.75, 3.05984472649399e16, 1732733544508.8865, 144830623295731.44, 1.0199482379632752e16],
                [29512109118.925365, -57698473901.49252, 1732733544508.8865, 9837356247.620138, -19232862630.78067, 577577837142.7302],
                [-57705095197.791794, 36226041019611.54, 144830623295731.44, -19232862630.78067, 12075346285496.873, 48276876113762.625],
                [1732765943393.539, 144830659600690.53, 1.0199482379632752e16, 577577837142.7302, 48276876113762.625, 3399827445872958.0],
            ],
        ),
        (
            [-242024.14310793387, -24225886.96307801, 207286888.70181188, -80698.73094232538, -8075302.238270551, 69095615.1855328],
            [
                [66862454128.86448, 474287153033.2853, -6066113656740.389, 22287421691.699287, 158095734779.02936, -2022037831570.0786],
                [474287153033.2853, 140559564900043.05, 404901358452750.0, 158095166357.914, 46853184932960.86, 134967118637656.1],
                [-6066113656740.389, 404901358452750.0, 2.510024811149111e16, -2022050243398.3752, 134967121416974.05, 8366749336398651.0],
                [22287421691.699287, 158095166357.914, -2022050243398.3752, 7429119574.534143, 52698394486.33011, -674016729793.6692],
                [158095734779.02936, 46853184932960.86, 134967121416974.05, 52698394486.33011, 15617727188637.748, 44989040190126.9],
                [-2022037831570.0786, 134967118637656.1, 8366749336398651.0, -674016729793.6692, 44989040190126.9, 2788916434100088.0],
            ],
        ),
    ]
    estimates = [Estimate(TargetState.from_vector(mean), np.array(cov)) for mean, cov in pinned]
    _, infos = _information_matrices(np.array([e.covariance for e in estimates]))
    assert np.isfinite(infos).all()  # each input inverts; the fused inverse is what fails
    with pytest.raises(ValueError, match="singular covariance after regularization"):
        ci_fuse(estimates)
