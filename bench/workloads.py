"""Seeded workloads of the cstj-sim benchmark.

Each workload turns the run's seed into one ``ScenarioConfig``; the simulator
receives only that config. ``fixed_trials`` is the trial set (indices
``0 .. fixed_trials - 1``) whose outputs, outcome metrics and per-layer counts
are reported. Timing loops go on to further trial indices until the run's
time is spent, so the reported outcomes do not depend on how fast the
program is.

Why each workload exists is recorded in ``BENCHMARK.json`` next to its name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from cstj_sim import config
from cstj_sim.sim import ScenarioConfig


def _fig3(mode: str) -> Callable[[int], ScenarioConfig]:
    def build(seed: int) -> ScenarioConfig:
        return dict(config.preset("figure3_compare", seed=seed))[mode]

    return build


def _swarm12_short(seed: int) -> ScenarioConfig:
    cfg = dict(config.preset("figure4_sweep", seed=seed))["agents_12"]
    return replace(cfg, n_particles=200, n_steps=15)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], ScenarioConfig]
    fixed_trials: int

    def config(self, seed: int) -> ScenarioConfig:
        """The workload's config for ``seed``, with ``n_trials`` set to the fixed set."""
        return replace(self.build(seed), n_trials=self.fixed_trials)


WORKLOADS = {
    w.name: w
    for w in (
        # figure3_compare, cstj arm: 4 agents, 50 steps, 2000 particles
        Workload("fig3_cstj", _fig3("cstj"), fixed_trials=8),
        # the same scenarios with the tracking-only, constant-power baseline
        Workload("fig3_ct", _fig3("ct"), fixed_trials=8),
        # figure4_sweep agents_12 with 200 particles and 15 steps
        Workload("swarm12_short", _swarm12_short, fixed_trials=16),
    )
}
