"""Rogue-drone motion model, the pursuit team's discrete move set, and ``norm``.

``norm`` is the package's one Euclidean length (ranges, cone distances, the
tracking error), so its summation order is fixed in one place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def vector3(value) -> np.ndarray:
    """``value`` as a float (3,) array.

    A float (3,) array comes back as itself, with no view laid over it; other
    input is converted and reshaped, so a wrong size raises. The records
    convert their input here, or in ``float_tuple``, once; the functions
    below them take the float arrays the records hold and convert nothing.
    """
    vec = np.asarray(value, dtype=float)
    return vec if vec.shape == (3,) else vec.reshape(3)


def float_tuple(name: str, values, n: int | None = None) -> tuple:
    """``values`` flattened to a tuple of floats, so that records compare and hash by value.

    A count other than ``n``, when given, raises a ``ValueError`` that names
    ``name``.
    """
    flat = np.asarray(values, dtype=float).ravel()
    if n is not None and flat.size != n:
        raise ValueError(f"{name} must hold {n} values, got {flat.size}")
    return tuple(flat.tolist())


def check_count(name: str, value, low: int) -> None:
    """Raise a ``ValueError`` that names ``name`` unless ``value`` is an integer, not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")


def check_range(name: str, *values, low=-math.inf, high=math.inf, low_in=False, high_in=False) -> None:
    """Raise a ``ValueError`` that names ``name`` unless every value lies between ``low`` and ``high``.

    Each end is open unless ``low_in`` or ``high_in`` closes it, so the
    default bounds mean "finite". Every comparison is False for NaN, so NaN
    never passes.
    """
    for value in values:
        if not ((low <= value if low_in else low < value) and (value <= high if high_in else value < high)):
            raise ValueError(f"{name} must lie in {'[' if low_in else '('}{low}, {high}{']' if high_in else ')'}")


def norm(delta: np.ndarray) -> np.ndarray:
    """Euclidean length over the trailing (..., 3) axis of a float array.

    Computed as ``sqrt((dx * dx + dy * dy) + dz * dz)``: x, then y, then z.
    Logged bits depend on that order. It is also the order of numpy's sum
    over a length-3 axis, so ``np.sqrt((d * d).sum(axis=-1))`` agrees bit
    for bit.
    """
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


@dataclass(slots=True)
class TargetState:
    """Kinematic state of the rogue drone: 3D position and velocity.

    Each vector field keeps the float (3,) array it is given (see ``vector3``),
    so pass arrays that nothing writes to afterwards.
    """

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.position = vector3(self.position)
        self.velocity = vector3(self.velocity)
        if not all(map(math.isfinite, (*self.position.tolist(), *self.velocity.tolist()))):
            raise ValueError("state components must be finite")

    def __eq__(self, other):
        if not isinstance(other, TargetState):
            return NotImplemented
        return bool(np.array_equal(self.position, other.position) and np.array_equal(self.velocity, other.velocity))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])

    @classmethod
    def from_vector(cls, vec) -> "TargetState":
        vec = np.asarray(vec, dtype=float).reshape(6)
        return cls(vec[:3].copy(), vec[3:].copy())


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity dynamics driven by white acceleration noise.

    The noise is independent per axis, with the variances ``accel_var``
    (x, y, z), in (m/s^2)^2: the three values of the ``motion.accel_var`` key.
    """

    dt: float
    accel_var: tuple  # held as floats so that models compare and hash
    _noise_sd: np.ndarray = field(init=False, repr=False, compare=False)  # sqrt(accel_var)
    _transition: np.ndarray = field(init=False, repr=False, compare=False)  # F: position += dt * velocity
    _gain: np.ndarray = field(init=False, repr=False, compare=False)  # G: acceleration into the state

    def __post_init__(self):
        check_range("dt", self.dt, low=0, high=1e154)  # the gain's dt**2 raises OverflowError above about 1.34e154
        var = float_tuple("accel_var", self.accel_var, 3)
        check_range("accel_var", *var, low=0, low_in=True)
        object.__setattr__(self, "accel_var", var)
        for name, value in (
            ("_noise_sd", np.sqrt(var)),
            ("_transition", np.eye(6) + self.dt * np.eye(6, k=3)),
            ("_gain", 0.5 * self.dt**2 * np.eye(6, 3) + self.dt * np.eye(6, 3, k=-3)),
        ):
            value.setflags(write=False)  # configs share models, so none may be written through
            object.__setattr__(self, name, value)

    def advance(self, states: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """``states @ F.T + nu @ G.T``: (..., 6) states one step on, driven by (..., 3) accelerations.

        A (6,) state gets the bits of ``p + dt v + 0.5 dt**2 nu`` and ``v + dt nu`` (OpenBLAS
        0.3.31, x86-64); at a dt that is not a power of two a batch, where BLAS fuses
        multiply-adds, may differ from them in the last bit.
        """
        return states @ self._transition.T + nu @ self._gain.T

    def accel_noise(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Acceleration draws of shape (*shape, 3): ``z * sqrt(accel_var)``, one standard normal per axis, in axis order."""
        return rng.standard_normal((*shape, 3)) * self._noise_sd


@dataclass
class AgentState:
    """A pursuing UAV: integer id plus its current position."""

    id: int
    position: np.ndarray

    def __post_init__(self):
        self.position = vector3(self.position)


@dataclass(frozen=True)
class ActionGrid:
    """Spherical move grid: radial step sizes times a (phi, theta) lattice."""

    radial_steps_m: tuple
    n_phi: int
    n_theta: int

    def __post_init__(self):
        steps = float_tuple("radial_steps_m", self.radial_steps_m)
        if not steps:
            raise ValueError("radial_steps_m must hold at least one step")
        check_range("radial_steps_m", *steps, low=0)
        check_count("n_phi", self.n_phi, 1)
        check_count("n_theta", self.n_theta, 1)
        object.__setattr__(self, "radial_steps_m", steps)


def step_target(state: TargetState, model: MotionModel, rng: np.random.Generator) -> TargetState:
    """Advance the drone one step with a fresh acceleration-noise draw."""
    return TargetState.from_vector(model.advance(state.as_vector(), model.accel_noise(rng)))


@lru_cache(maxsize=None)
def _grid_offsets(grid: ActionGrid) -> np.ndarray:
    d_phi = math.pi / grid.n_phi
    d_theta = 2.0 * math.pi / grid.n_theta
    kept = np.empty((0, 3))
    for radius in grid.radial_steps_m:
        for l2 in range(0, grid.n_phi + 1):
            ring, height = radius * math.sin(l2 * d_phi), radius * math.cos(l2 * d_phi)
            for l3 in range(1, grid.n_theta + 1):
                cand = np.array([ring * math.cos(l3 * d_theta), ring * math.sin(l3 * d_theta), height])
                # the lattice degenerates at the poles; drop offsets within 1e-9 m of a kept one
                if (norm(kept - cand) > 1e-9).all():
                    kept = np.vstack([kept, cand])
    kept.setflags(write=False)
    return kept


def enumerate_actions(state: AgentState, grid: ActionGrid) -> np.ndarray:
    """Candidate next positions, deduplicated, in deterministic lattice order."""
    return state.position + _grid_offsets(grid)
