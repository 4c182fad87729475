"""Cascaded tracking-then-jamming controller.

The team's moves are scored once per step, in one detection grid with the
bits each agent's moves get alone (every entry is the same elementwise
arithmetic). Each agent then filters its move set down to candidates that
keep the predicted detection probability above a threshold and picks the
(move, power level) pair that maximizes power delivered to the predicted
drone position subject to two interference limits: what the agent itself
would receive from already-committed teammates, and what its transmission
would add at each committed teammate. Agents decide sequentially in id
order, so later agents see all earlier commitments.

Every pair is scored at once in linear power, one power map per sender set:
the committed senders' reaches the candidates and teammates, the candidates'
reaches the teammates and the predicted drone. Loads are summed over senders
in id order and compared with the dB threshold as ``10 log10(total) < limit``.
An off transmitter, or a receiver outside a cone, contributes exactly zero,
so a zero total (-inf dB) is always below the limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import TargetState, norm, vector3
from .geometry_rf import AntennaParams, RfParams, linear_to_db, received_power_map, sender_sum
from .sensing import SensingParams, detection_prob_at_distance


class Fallback(enum.Enum):
    """Degraded decision modes used when the jamming step is infeasible."""

    NONE = "none"
    TRACKING = "tracking_fallback"
    POWER_OFF = "power_off_fallback"


@dataclass(slots=True)
class DecisionRecord:
    """One agent's committed move, transmit level, and antenna aim for a step.

    Each vector field keeps the float (3,) array it is given (see ``vector3``),
    so pass arrays that nothing writes to afterwards.
    """

    agent_id: int
    chosen_position: np.ndarray
    power_index: int  # index into RfParams.power_levels_db; 0 = off
    aim_point: np.ndarray  # the agent's own predicted drone position
    objective_value_db: float | None
    fallback_used: Fallback

    def __post_init__(self):
        self.chosen_position = vector3(self.chosen_position)
        self.aim_point = vector3(self.aim_point)


def _detection_grid(predicted_targets, action_sets, p: SensingParams) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's moves as one (agent, move, 3) array, and each move's detection probability of its agent's aim.

    Every agent has as many moves: the one move grid, offset by its position.
    """
    actions = np.array(action_sets)
    aims = np.array([t.position for t in predicted_targets])
    return actions, detection_prob_at_distance(norm(aims[:, None] - actions), p)


def admissible_set(actions, probs, threshold: float) -> np.ndarray:
    """Actions whose tracking objective ``probs`` strictly exceeds the threshold, order kept."""
    return actions[probs > threshold]


def _tracking_decision(
    agent_id: int, predicted_target: TargetState, moves, probs, power_index: int, fallback: Fallback
) -> DecisionRecord:
    """Move to the first of ``moves`` with the largest of ``probs``, aim at the drone, record no objective."""
    best = moves[int(np.argmax(probs))].copy()
    return DecisionRecord(agent_id, best, power_index, predicted_target.position, None, fallback)


def solve_jamming(
    agent_id: int,
    candidates: np.ndarray,
    predicted_target: TargetState,
    decided: list[DecisionRecord],
    ant: AntennaParams,
    rf: RfParams,
    probs: np.ndarray,
) -> DecisionRecord:
    """Pick the feasible (candidate, power level) pair with maximal delivered power.

    Feasibility: (a) the aggregate power the agent would receive at the
    candidate position from committed transmitters stays below the
    interference threshold, and (b) for every committed teammate, the
    aggregate of all other committed transmitters plus this agent's new
    contribution stays below it too. Each aggregate is a linear power sum
    (``sender_sum``), taken in sender (id) order with the new contribution
    last, and compared with the threshold in dB. Delivered power is exactly
    zero when the predicted drone lies outside the candidate's cone or the
    level is off. Ties break toward the lower power level, then the lower
    candidate index. The objective is recorded as ``10 log10`` of the
    delivered power, None when it is zero.

    Fallback ladder when no transmitting pair is feasible: move to the
    best-tracking candidate (by the candidates' detection probabilities
    ``probs``) that still satisfies (a) with the antenna off; if even (a)
    fails everywhere, take the best-tracking candidate outright.
    """
    limit_db = rf.interference_threshold_db
    aim = predicted_target.position
    tx_db = rf.levels_db[[r.power_index for r in decided]][:, None]
    tx_pos = np.array([r.chosen_position for r in decided]).reshape(-1, 1, 3)
    tx_aim = np.array([r.aim_point for r in decided]).reshape(-1, 1, 3)

    # (sender, candidate + receiver): power from each committed sender at each
    # candidate, then at each committed teammate; no antenna covers its own apex
    received = received_power_map(tx_db, tx_pos, tx_aim, ant, rf, np.vstack([candidates, tx_pos[:, 0]]))
    inbound_ok = linear_to_db(sender_sum(received[:, : len(candidates)])) < limit_db
    base = sender_sum(received[:, len(candidates) :])
    # (level, receiver, candidate): this agent's power at each teammate, then at the predicted drone
    sent = received_power_map(rf.levels_db[:, None, None], candidates, aim, ant, rf, np.vstack([tx_pos[:, 0], aim])[:, None])
    outbound_ok = (linear_to_db(base[:, None] + sent[:, :-1]) < limit_db).all(axis=1)
    delivery = sent[:, -1]
    feasible = inbound_ok & outbound_ok  # (level, candidate)

    if feasible[1:].any():
        w, k = divmod(int(np.argmax(np.where(feasible, delivery, -1.0))), len(candidates))
        objective_db = float(linear_to_db(delivery[w, k])) if delivery[w, k] > 0.0 else None
        return DecisionRecord(agent_id, candidates[k].copy(), w, aim, objective_db, Fallback.NONE)

    if inbound_ok.any():
        clear = candidates[inbound_ok]
        return _tracking_decision(agent_id, predicted_target, clear, probs[inbound_ok], 0, Fallback.POWER_OFF)
    return _tracking_decision(agent_id, predicted_target, candidates, probs, 0, Fallback.TRACKING)


def sequential_decide(
    agents,
    predicted_targets,
    action_sets,
    ant: AntennaParams,
    rf: RfParams,
    sensing: SensingParams,
    tracking_threshold: float,
) -> list[DecisionRecord]:
    """Decide all agents in ascending id order, each seeing prior commitments.

    The whole team's moves are scored in one detection grid first. An agent
    whose thresholded candidate set comes up empty skips the jamming step
    entirely: it takes the best-tracking action from its full move set with
    the antenna off.
    """
    ids = [a.id for a in agents]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ValueError("agents must be ordered by strictly increasing id")
    team_actions, team_probs = _detection_grid(predicted_targets, action_sets, sensing)
    decided: list[DecisionRecord] = []
    for agent, predicted, actions, probs in zip(agents, predicted_targets, team_actions, team_probs):
        candidates = admissible_set(actions, probs, tracking_threshold)
        if len(candidates) == 0:
            record = _tracking_decision(agent.id, predicted, actions, probs, 0, Fallback.TRACKING)
        else:
            record = solve_jamming(agent.id, candidates, predicted, decided, ant, rf, probs[probs > tracking_threshold])
        decided.append(record)
    return decided


def ct_decide(
    agents,
    predicted_targets,
    action_sets,
    sensing: SensingParams,
    power_index: int,
) -> list[DecisionRecord]:
    """Tracking-only baseline: best-tracking move, fixed power, no constraints; one detection grid for the team."""
    team_actions, team_probs = _detection_grid(predicted_targets, action_sets, sensing)
    return [
        _tracking_decision(agent.id, predicted, actions, probs, power_index, Fallback.NONE)
        for agent, predicted, actions, probs in zip(agents, predicted_targets, team_actions, team_probs)
    ]
