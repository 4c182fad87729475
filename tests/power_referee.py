"""The dB power map that preceded the linear one in ``cstj_sim.geometry_rf``,
kept verbatim as a bit-for-bit referee.

The package's ``received_power_map`` now returns linear power, 0.0 where the
receiver is uncovered or the level is off. This function returns dB, NaN
there, exactly as the package did before that change (it takes NaN as the
off level). ``tests/test_geometry_rf.py`` pins this function's bytes and
demands that the package's map equal ``10 ** (dB / 10)`` of them, 0.0 for
NaN, byte for byte. Do not edit it to follow the package.
"""

from __future__ import annotations

import math

import numpy as np

from cstj_sim.geometry_rf import AntennaParams, RfParams


def received_power_map(tx_power_db: float, tx_pos, tx_aim, ant: AntennaParams, rf: RfParams, rx_pos):
    """Received power in dB with cone gating; NaN where the receiver is uncovered.

    A receiver is covered when its angle off the aim axis is at most half
    the opening angle and its projection on the axis is at most
    ``effective_range_m``. The apex itself is never covered, and an antenna
    whose aim coincides with its own position covers nothing. One offset
    from the transmitter and its norm serve both the cone test and the path
    loss. Broadcasts over a trailing (..., 3) axis on transmitter, aim or
    receiver positions. A NaN transmit power (the off level) gives NaN.
    """
    tx_pos = np.asarray(tx_pos, dtype=float)
    axis = np.asarray(tx_aim, dtype=float) - tx_pos
    axis_norm = np.sqrt((axis * axis).sum(axis=-1))
    degenerate = axis_norm == 0.0
    unit = axis / np.where(degenerate, 1.0, axis_norm)[..., None]
    delta = np.asarray(rx_pos, dtype=float) - tx_pos
    dist = np.sqrt((delta * delta).sum(axis=-1))
    along = (delta * unit).sum(axis=-1)
    cos_half = math.cos(ant.opening_angle_rad / 2.0)
    inside = (dist > 0.0) & (along <= ant.effective_range_m) & (along >= dist * cos_half) & ~degenerate
    safe = np.where(inside, dist, 1.0)
    loss = rf.near_field_loss_db + 10.0 * rf.path_loss_exponent * np.log10(safe) + rf.attenuation_db
    return np.where(inside, tx_power_db - loss, np.nan)
