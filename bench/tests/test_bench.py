"""Tests of the benchmark's own machinery: span arithmetic, restoring the
wrapped functions, repeatable per-layer counts, the gate, and a minimal-size
run of every workload."""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import cstj_sim  # noqa: E402
from cstj_sim import control, estimation, sim  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=3):
    return replace(WORKLOADS[name].config(seed), n_steps=3, n_particles=40, n_trials=2)


class TestSpanArithmetic:
    def test_union_length_merges_overlaps_and_clips(self):
        assert tracing.union_length([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == 4.0
        assert tracing.union_length([]) == 0.0

    def test_self_time_subtracts_covered_part_of_children(self):
        spans = [
            (0, None, 0, "outer", 0.0, 10.0),
            (1, 0, 0, "a", 1.0, 3.0),
            (2, 0, 0, "b", 2.0, 4.0),
            (3, 0, 0, "c", 9.0, 12.0),
            (4, 1, 0, "d", 1.5, 2.5),
        ]
        assert tracing.self_times(spans) == {0: 6.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 1.0}

    def test_nested_wrapped_calls(self, monkeypatch):
        pkg = types.ModuleType("fakepkg")
        mod = types.ModuleType("fakepkg.mod")
        exec(
            "import time\n"
            "def inner():\n    time.sleep(0.002)\n"
            "def outer():\n    time.sleep(0.002)\n    inner()\n    inner()\n",
            mod.__dict__,
        )
        monkeypatch.setitem(sys.modules, "fakepkg", pkg)
        monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
        original = mod.outer
        tracer = tracing.Tracer()
        boundaries = {("mod", "outer"): ("mod.outer", None), ("mod", "inner"): ("mod.inner", None)}
        with tracer.installed("fakepkg", boundaries):
            tracer.trial = 7
            mod.outer()
        assert mod.outer is original
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span[3], []).append(span)
        (outer,) = by_name["mod.outer"]
        inners = by_name["mod.inner"]
        assert len(inners) == 2 and all(s[1] == outer[0] and s[2] == 7 for s in inners)
        expected = (outer[5] - outer[4]) - sum(s[5] - s[4] for s in inners)
        assert tracing.self_times(tracer.spans)[outer[0]] == pytest.approx(expected, abs=1e-12)
        assert expected >= 0.0015
        assert tracer.counts[7]["mod.inner.calls"] == 2


class TestTracedRun:
    def test_originals_restored_after_traced_run(self, tmp_path):
        before = (estimation.update, sim.run_trial, control.solve_jamming)
        record = run.run_benchmark("swarm12_short", 3, 0.01, True, cfg=tiny("swarm12_short"), out_dir=tmp_path)
        assert record["gate"]["correct"]
        assert sim.update is estimation.update
        assert cstj_sim.run_trial is sim.run_trial
        assert (estimation.update, sim.run_trial, control.solve_jamming) == before
        assert not hasattr(estimation.update, "__wrapped__")

    def test_per_layer_counts_repeat_exactly(self):
        cfg = tiny("fig3_cstj")
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            run.run_passes(cfg, cfg.n_trials, 0.0, tracer)
            counts.append(tracer.trial_counts(range(cfg.n_trials)))
        assert counts[0] == counts[1]
        assert counts[0]["estimation.update.lik_evals"] > 0
        assert counts[0]["estimation.update.calls"] == cfg.n_trials * cfg.n_steps * cfg.n_agents


class TestGate:
    def test_non_finite_metric_is_caught(self):
        cfg = tiny("fig3_cstj")
        logs = sim.run_trial(cfg, 0)
        assert run.check_trial(logs, cfg) is None
        logs[1].tracking_error_m = float("nan")
        assert "non-finite" in run.check_trial(logs, cfg)

    def test_digest_is_repeatable_and_distinguishes_trials(self):
        cfg = tiny("fig3_ct")
        assert run.trial_digest(sim.run_trial(cfg, 0)) == run.trial_digest(sim.run_trial(cfg, 0))
        assert run.trial_digest(sim.run_trial(cfg, 0)) != run.trial_digest(sim.run_trial(cfg, 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload(name, trace, tmp_path):
    record = run.run_benchmark(name, 3, 0.01, trace, cfg=tiny(name), setup_probes=1, out_dir=tmp_path)
    summary = record["summary"]
    assert summary["correct"], record["gate"]
    assert summary["failed"] == 0 and summary["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {metric: entry["unit"] for metric, entry in summary["metrics"].items()} == declared
    assert len(record["tracking_error_by_step_m"]) == 3
    if trace and name == "fig3_ct":
        assert summary["metrics"]["control.solve_jamming.calls"]["value"] == 0
