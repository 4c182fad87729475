"""Independent brute-force reference implementations used as test oracles.

Everything here is written with plain Python scalar loops and the math
module, on purpose: these functions must not share code paths with the
package so that agreement is meaningful.
"""

import math

import numpy as np

from cstj_sim.control import DecisionRecord, Fallback
from cstj_sim.geometry_rf import linear_to_db, received_power_map


def transition_matrix(dt: float) -> np.ndarray:
    """6x6 constant-velocity transition F: position advances by dt * velocity."""
    return np.array([[1.0 * (i == j) + dt * (j == i + 3) for j in range(6)] for i in range(6)])


def noise_gain(dt: float) -> np.ndarray:
    """6x3 gain G of an acceleration draw: 0.5 dt^2 into position, dt into velocity."""
    return np.array([[0.5 * dt**2 * (i == j) + dt * (i == j + 3) for j in range(3)] for i in range(6)])


def wrap_angle(a: float) -> float:
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def gaussian_pdf(x: float, mu: float, sigma: float) -> float:
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def detection_prob(x_pos, s_pos, p) -> float:
    d = math.dist(tuple(x_pos), tuple(s_pos))
    if d < p.r0_m:
        return p.p_d_max
    return max(0.0, p.p_d_max - p.eta_per_m * (d - p.r0_m))


def measurement_density(meas, x_pos, s_pos, p) -> float:
    """Gaussian density of one (range, azimuth, inclination) row given the drone position."""
    meas_range, meas_azimuth, meas_inclination = (float(v) for v in meas)
    dx = x_pos[0] - s_pos[0]
    dy = x_pos[1] - s_pos[1]
    dz = x_pos[2] - s_pos[2]
    rng = math.sqrt(dx * dx + dy * dy + dz * dz)
    azimuth = math.atan2(dy, dx)
    inclination = math.atan2(math.hypot(dx, dy), dz)
    sigma_rho = p.sigma_rho0_m + p.beta_rho * rng
    return (
        gaussian_pdf(meas_range, rng, sigma_rho)
        * gaussian_pdf(wrap_angle(meas_azimuth - azimuth), 0.0, p.sigma_theta_rad)
        * gaussian_pdf(meas_inclination - inclination, 0.0, p.sigma_phi_rad)
    )


def likelihood_by_hypotheses(measurements, x, s_pos, p) -> float:
    """Sum over association hypotheses: all-clutter, or one measurement is the target.

    ``measurements`` holds one (range, azimuth, inclination) row per return.
    """
    p_d = detection_prob(x.position, s_pos, p)
    lam = p.clutter_rate
    p_c = 1.0 / (p.rho_max_m * 2.0 * math.pi * math.pi)
    total = (1.0 - p_d) * math.exp(-lam)
    for _ in measurements:
        total *= lam * p_c
    for i, y in enumerate(measurements):
        term = p_d * math.exp(-lam) * measurement_density(y, x.position, s_pos, p)
        for j, _ in enumerate(measurements):
            if j != i:
                term *= lam * p_c
        total += term
    return total


def cone_contains(apex, aim, ant, point) -> bool:
    ax = [aim[i] - apex[i] for i in range(3)]
    an = math.sqrt(sum(v * v for v in ax))
    if an == 0.0:
        return False
    v = [point[i] - apex[i] for i in range(3)]
    vn = math.sqrt(sum(u * u for u in v))
    if vn == 0.0:
        return False
    along = sum(v[i] * ax[i] for i in range(3)) / an
    if along > ant.effective_range_m:
        return False
    angle = math.acos(max(-1.0, min(1.0, along / vn)))
    return angle <= ant.opening_angle_rad / 2.0 + 1e-12


def path_loss(tx, rx, rf) -> float:
    d = math.dist(tuple(tx), tuple(rx))
    return rf.near_field_loss_db + 10.0 * rf.path_loss_exponent * math.log10(d) + rf.attenuation_db


def agg_below(contribs_db, limit_db) -> bool:
    if not contribs_db:
        return True
    total = sum(10.0 ** (c / 10.0) for c in contribs_db)
    return 10.0 * math.log10(total) < limit_db


def solve_jamming_reference(agent_id, candidates, aim_point, decided, ant, rf, sensing) -> DecisionRecord:
    """Literal exhaustive enumeration over (candidate, level) pairs."""
    levels = rf.power_levels_db
    limit = rf.interference_threshold_db
    aim = list(aim_point)

    def inbound_ok(k):
        vals = []
        for rec in decided:
            lvl = levels[rec.power_index]
            if lvl is None:
                continue
            if cone_contains(rec.chosen_position, rec.aim_point, ant, candidates[k]):
                vals.append(lvl - path_loss(rec.chosen_position, candidates[k], rf))
        return agg_below(vals, limit)

    def outbound_ok(k, lvl):
        for rec in decided:
            vals = []
            for other in decided:
                if other.agent_id == rec.agent_id:
                    continue
                olvl = levels[other.power_index]
                if olvl is None:
                    continue
                if cone_contains(other.chosen_position, other.aim_point, ant, rec.chosen_position):
                    vals.append(olvl - path_loss(other.chosen_position, rec.chosen_position, rf))
            if lvl is not None and cone_contains(candidates[k], aim, ant, rec.chosen_position):
                vals.append(lvl - path_loss(candidates[k], rec.chosen_position, rf))
            if not agg_below(vals, limit):
                return False
        return True

    def objective(k, lvl):
        if lvl is None:
            return None
        if not cone_contains(candidates[k], aim, ant, aim):
            return None
        return lvl - path_loss(candidates[k], aim, rf)

    best = None
    any_tx_feasible = False
    for k in range(len(candidates)):
        if not inbound_ok(k):
            continue
        for w, lvl in enumerate(levels):
            if not outbound_ok(k, lvl):
                continue
            if lvl is not None:
                any_tx_feasible = True
            obj = objective(k, lvl)
            lin = 0.0 if obj is None else 10.0 ** (obj / 10.0)
            key = (lin, -w, -k)
            if best is None or key > best[0]:
                best = (key, k, w, obj)
    if any_tx_feasible:
        _, k, w, obj = best
        return DecisionRecord(agent_id, list(candidates[k]), w, aim, obj, Fallback.NONE)

    scores = [detection_prob(aim, candidates[k], sensing) for k in range(len(candidates))]
    clear = [k for k in range(len(candidates)) if inbound_ok(k)]
    if clear:
        k = max(clear, key=lambda i: (scores[i], -i))
        return DecisionRecord(agent_id, list(candidates[k]), 0, aim, None, Fallback.POWER_OFF)
    k = max(range(len(candidates)), key=lambda i: (scores[i], -i))
    return DecisionRecord(agent_id, list(candidates[k]), 0, aim, None, Fallback.TRACKING)


def enumerate_actions_reference(position, grid):
    """Full lattice enumeration plus greedy 1e-9 m deduplication."""
    d_phi = math.pi / grid.n_phi
    d_theta = 2.0 * math.pi / grid.n_theta
    offsets = []
    for radius in grid.radial_steps_m:
        for l2 in range(0, grid.n_phi + 1):
            for l3 in range(1, grid.n_theta + 1):
                cand = (
                    radius * math.sin(l2 * d_phi) * math.cos(l3 * d_theta),
                    radius * math.sin(l2 * d_phi) * math.sin(l3 * d_theta),
                    radius * math.cos(l2 * d_phi),
                )
                if all(math.dist(cand, kept) > 1e-9 for kept in offsets):
                    offsets.append(cand)
    return [tuple(position[i] + o[i] for i in range(3)) for o in offsets]


def aggregate_increase_db(values_db, idx, new_db) -> float:
    """Exact rise of the linear power sum, in dB, when entry ``idx`` becomes ``new_db``.

    Evaluated as 10 log10(1 + delta / total) with ``log1p``: ``math.fsum``
    gives the total, and delta = 10^(v/10) (10^((new - v)/10) - 1) keeps its
    relative accuracy through ``expm1``. A difference of two rounded totals
    loses increases below an ulp; this form does not.
    """
    total = math.fsum(10.0 ** (v / 10.0) for v in values_db)
    old = values_db[idx]
    delta = 10.0 ** (old / 10.0) * math.expm1((new_db - old) * math.log(10.0) / 10.0)
    return 10.0 * math.log1p(delta / total) / math.log(10.0)


def received_power_db(tx_power_db, tx_pos, tx_aim, ant, rf, rx_pos):
    """Power in dB delivered to ``rx_pos``; None when off or outside the cone.

    Unlike the rest of this module it wraps the package's
    ``received_power_map`` and ``linear_to_db``: the tests that build their
    expectations from it demand the package's bits.
    """
    if tx_power_db is None:
        return None
    value = received_power_map(float(tx_power_db), tx_pos, tx_aim, ant, rf, rx_pos)
    if np.ndim(value) != 0:
        raise ValueError("received_power_db expects scalar endpoints")
    return None if value == 0.0 else float(linear_to_db(value))


def fast_ci_weights(covariances) -> list:
    """Fast covariance-intersection weights: each covariance's 1 / trace, normalised to sum to one."""
    inverse_traces = []
    for cov in covariances:
        trace = 0.0
        for i in range(len(cov)):
            trace += float(cov[i][i])
        inverse_traces.append(1.0 / trace)
    total = sum(inverse_traces)
    return [v / total for v in inverse_traces]
