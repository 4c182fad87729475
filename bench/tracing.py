"""Span tracing around the simulator's layer boundaries, installed from outside.

``Tracer.installed()`` swaps each boundary function in ``BOUNDARIES`` for a
wrapper wherever a module of the package binds it (``sim`` imports ``update``
from ``estimation`` by name, so both bindings are swapped) and puts every
original back on exit. The program itself is not edited.

Each wrapped call records a span ``(id, parent id, trial id, name, start,
end)`` in memory and adds its work counts to the current trial's counter.
``write_spans`` saves the spans when the run ends.

Only the boundary functions are wrapped. Helpers below them (dB arithmetic,
coordinate transforms, detection curves) are called per candidate or per pair;
wrapping them would dominate the trace overhead, and their time counts as
their caller's self time.

Counts named in ``COMPUTED_COUNTS`` are computed by the tracer from argument
shapes (for example particles x measurements), not counted by the program.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

COMPUTED_COUNTS = (
    "estimation.update.lik_evals",
    "estimation.ci_fuse.pairs",
    "control.solve_jamming.pair_evals",
)


def _count_update(c, result, ps, measurements, *args, **kwargs):
    new_ps, uninformative = result
    n = len(ps)
    c["estimation.update.lik_evals"] += n * len(measurements)
    c["estimation.update.uninformative"] += int(uninformative)
    if not uninformative and bool(np.all(new_ps.weights == 1.0 / n)):
        c["estimation.update.resampled"] += 1


def _count_ci_fuse(c, result, estimates, *args, **kwargs):
    c["estimation.ci_fuse.pairs"] += len(estimates) - 1


def _count_admissible_set(c, result, *args, **kwargs):
    c["control.admissible_set.kept"] += len(result)
    c["control.admissible_set.empty"] += int(len(result) == 0)


def _count_solve_jamming(c, result, agent_id, candidates, predicted_target, decided, ant, rf, *args, **kwargs):
    n_candidates = len(np.atleast_2d(np.asarray(candidates, dtype=float)))
    c["control.solve_jamming.pair_evals"] += n_candidates * len(rf.power_levels_db) * (len(decided) + 1)
    fallback = result.fallback_used.name
    if fallback == "POWER_OFF":
        c["control.solve_jamming.fallback_power_off"] += 1
    elif fallback == "TRACKING":
        c["control.solve_jamming.fallback_tracking"] += 1


def _count_collect(c, result, *args, **kwargs):
    c["sensing.collect.meas"] += len(result)


def _count_compute_metrics(c, result, true_state, fused, decisions, ant, rf, *args, **kwargs):
    c["sim.compute_metrics.transmitters"] += sum(rf.power_levels_db[d.power_index] is not None for d in decisions)


def _count_emit_csv(c, result, *args, **kwargs):
    c["cli.emit_csv.bytes"] += sum(path.stat().st_size for path in result.values())


# (module, function) -> (span name, counter or None). Span names are the
# per-layer metric prefixes; both decision entry points share one name.
BOUNDARIES = {
    ("estimation", "predict"): ("estimation.predict", None),
    ("estimation", "predicted_state"): ("estimation.predicted_state", None),
    ("estimation", "update"): ("estimation.update", _count_update),
    ("estimation", "eap"): ("estimation.eap", None),
    ("estimation", "ci_fuse"): ("estimation.ci_fuse", _count_ci_fuse),
    ("control", "sequential_decide"): ("control.decide", None),
    ("control", "ct_decide"): ("control.decide", None),
    ("control", "admissible_set"): ("control.admissible_set", _count_admissible_set),
    ("control", "solve_jamming"): ("control.solve_jamming", _count_solve_jamming),
    ("geometry_rf", "received_power_map"): ("geometry_rf.received_power_map", None),
    ("sensing", "collect"): ("sensing.collect", _count_collect),
    ("dynamics", "step_target"): ("dynamics.step_target", None),
    ("dynamics", "enumerate_actions"): ("dynamics.enumerate_actions", None),
    ("sim", "compute_metrics"): ("sim.compute_metrics", _count_compute_metrics),
    ("sim", "run_trial"): ("sim.run_trial", None),
    ("cli", "emit_csv"): ("cli.emit_csv", _count_emit_csv),
    ("config", "preset"): ("config.preset", None),
}


def union_length(intervals, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _trial, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - union_length(children.get(span_id, ()), start, end)
        for span_id, _parent, _trial, _name, start, end in spans
    }


class Tracer:
    """In-memory spans and per-trial work counts for wrapped boundary calls."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, trial, name, start, end)
        self.counts: dict = defaultdict(Counter)  # trial id -> Counter
        self.trial = None  # trial id stamped on new spans; None outside trials
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name: str, count=None):
        """``fn`` wrapped to record a span and its counts on every call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            trial = self.trial
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, trial, name, start, end))
            c = counts[trial]
            c[name + ".calls"] += 1
            if count is not None:
                count(c, result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "cstj_sim", boundaries=None):
        """Swap every binding of each boundary function in ``package`` for its wrapper."""
        boundaries = BOUNDARIES if boundaries is None else boundaries
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        swapped = []
        try:
            for (mod_name, fn_name), (span_name, count) in boundaries.items():
                original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                wrapper = self.wrap(original, span_name, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def trial_counts(self, trials) -> Counter:
        total = Counter()
        for trial in trials:
            total.update(self.counts.get(trial, Counter()))
        return total

    def write_spans(self, path) -> None:
        """Save the spans as gzipped JSON lines, times in seconds from the first span."""
        epoch = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, trial, name, start, end in self.spans:
                fh.write(
                    f'{{"id":{span_id},"parent":{"null" if parent is None else parent},'
                    f'"trial":{"null" if trial is None else trial},"name":"{name}",'
                    f'"start":{start - epoch!r},"end":{end - epoch!r}}}\n'
                )
