"""Cooperative simultaneous tracking and jamming (CSTJ) pursuit simulator.

A team of UAV agents estimates the state of a rogue drone with per-agent
particle filters, fuses the local estimates through covariance intersection,
and picks discrete mobility and transmit-power actions that deliver jamming
power to the drone while keeping the interference between teammates below a
critical threshold.
"""

__version__ = "0.1.0"

from .dynamics import ActionGrid, AgentState, MotionModel, TargetState
from .geometry_rf import AntennaParams, RfParams
from .sensing import SensingParams
from .estimation import Estimate, ParticleSet
from .control import DecisionRecord, Fallback
from .sim import ScenarioConfig, StepLog, run_trial

__all__ = [
    "__version__",
    "ActionGrid",
    "AgentState",
    "AntennaParams",
    "DecisionRecord",
    "Estimate",
    "Fallback",
    "MotionModel",
    "ParticleSet",
    "RfParams",
    "ScenarioConfig",
    "SensingParams",
    "StepLog",
    "TargetState",
    "run_trial",
]
