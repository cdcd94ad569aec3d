"""Spans around calls into ``obsv_lab``'s public functions, recorded from
outside the library by rebinding module attributes at run time.

A span is (name, start, end, parent, info).  Only the outermost call of a
name is recorded: ``diff`` and ``evaluate`` recurse through their own module
globals, so while an outermost call runs, the wrapper puts the original
function back in every binding it replaced and reinstalls itself on exit.
The recursion then runs at native speed and pays for the wrapper once per
outermost call.  Spans stay in memory; ``summarize`` turns them into the
per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


# (module, attribute, span name, info taken from (args, kwargs, result))
TARGETS = (
    ("expr", "nth_derivative_at", "expr.nth_derivative_at", lambda a, k, r: k.get("k", a[2])),
    ("expr", "diff", "expr.diff", None),
    ("expr", "evaluate", "expr.evaluate", None),
    ("expr", "compile_vector", "expr.compile_vector", None),
    ("model", "as_control_affine", "model.as_control_affine", None),
    ("lie", "evaluate_word", "lie.evaluate_word", lambda a, k, r: len(a[1].mu)),
    ("lie", "nested_lie_along_affine", "lie.nested_lie_along_affine", None),
    ("obsv", "is_aperiodic_system", "obsv.is_aperiodic_system", None),
    ("obsv", "detect_period", "obsv.detect_period", None),
    ("obsv", "find_separating_observable", "obsv.find_separating_observable",
     lambda a, k, r: r.witness is not None),
    ("obsv", "cascade_lflg", "obsv.cascade_words", None),
    ("obsv", "cascade_lglflg", "obsv.cascade_words", None),
    ("obsv", "local_rank", "obsv.local_rank", lambda a, k, r: (r.dim, len(r.words))),
    ("sim", "integrate", "sim.integrate", lambda a, k, r: len(r.states) - 1),
    ("sim", "distinguishability_experiment", "sim.distinguishability_experiment", None),
    ("sim", "indistinguishability_experiment", "sim.indistinguishability_experiment", None),
    ("gramian", "empirical_gramian", "gramian.empirical_gramian", None),
    ("gramian", "input_sweep", "gramian.input_sweep", None),
    ("gramian", "shift_comparison_gramian", "gramian.shift_comparison_gramian", None),
)
GRAMIAN_SPANS = ("gramian.empirical_gramian", "gramian.input_sweep",
                 "gramian.shift_comparison_gramian")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name, fn, info, bindings=()):
        """Wrap ``fn`` in a span recorder.  ``bindings`` lists the (holder,
        key) pairs the wrapper is installed at; they point at ``fn`` while
        the outermost call runs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:  # another function of the same span name is open
                return fn(*args, **kwargs)
            self._open.add(name)
            for holder, key in bindings:
                setattr(holder, key, fn)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                for holder, key in bindings:
                    setattr(holder, key, traced)
                self._stack.pop()
                self._open.discard(name)
                extra = info(args, kwargs, result) if info and result is not None else None
                self.spans[idx] = (name, start, end, parent, extra)
        return traced

    def install(self):
        """Rebind every target in every ``obsv_lab`` module that holds it
        (``from x import f`` copies the binding, so ``gramian.integrate``
        and ``sim.integrate`` are both replaced)."""
        mods = {m: sys.modules[f"obsv_lab.{m}"] for m in ("expr", "model", "lie", "obsv", "sim", "gramian")}
        holders = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "obsv_lab" or key.startswith("obsv_lab."))]
        for mod_name, attr, span, info in TARGETS:
            original = getattr(mods[mod_name], attr)
            bindings = [(holder, key) for holder in holders
                        for key, value in vars(holder).items() if value is original]
            wrapped = self.wrap(span, original, info, bindings)
            for holder, key in bindings:
                setattr(holder, key, wrapped)
        traj = mods["sim"].Trajectory
        traj.to_csv = self.wrap("sim.to_csv", traj.to_csv, None)


def _p50_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that still has at
    least ten samples beyond it; the largest sample (p100) when there are
    fewer than 21 samples, where that statistic would sit at or below the
    median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _tail_ms(durations) -> float:
    return tail(durations)[0] * 1e3 if durations else 0.0


def summarize(spans) -> dict:
    """Per-layer metrics from a list of spans (see README for the table)."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durs(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    out = {}
    for name in ("expr.nth_derivative_at", "expr.diff", "expr.evaluate", "expr.compile_vector",
                 "model.as_control_affine", "lie.evaluate_word", "lie.nested_lie_along_affine",
                 "obsv.detect_period", "sim.integrate"):
        out[f"{name}.calls"] = len(durs(name))
        out[f"{name}.total_s"] = sum(durs(name))
    out["expr.nth_derivative_at.max_order"] = max(
        (s[4] for s in by_name.get("expr.nth_derivative_at", ()) if s[4] is not None), default=0)
    out["lie.evaluate_word.max_len"] = max(
        (s[4] for s in by_name.get("lie.evaluate_word", ()) if s[4] is not None), default=0)

    out["obsv.is_aperiodic_system.calls"] = len(durs("obsv.is_aperiodic_system"))
    out["obsv.is_aperiodic_system.p50_ms"] = _p50_ms(durs("obsv.is_aperiodic_system"))
    seps = by_name.get("obsv.find_separating_observable", ())
    out["obsv.find_separating_observable.calls"] = len(seps)
    out["obsv.find_separating_observable.p50_ms"] = _p50_ms(durs("obsv.find_separating_observable"))
    out["obsv.find_separating_observable.tail_ms"] = _tail_ms(durs("obsv.find_separating_observable"))
    out["obsv.find_separating_observable.witness_share"] = (
        sum(1 for s in seps if s[4]) / len(seps) if seps else 0.0)
    out["obsv.cascade_words.calls"] = len(durs("obsv.cascade_words"))

    ranks = [s for s in by_name.get("obsv.local_rank", ()) if s[4] is not None]
    for dim in (2, 4, 6):
        out[f"obsv.local_rank.dim{dim}.p50_ms"] = _p50_ms([s[2] - s[1] for s in ranks if s[4][0] == dim])
    out["obsv.local_rank.rows"] = sum(s[4][1] for s in ranks)

    steps = sum(s[4] for s in by_name.get("sim.integrate", ()) if s[4] is not None)
    out["sim.integrate.steps"] = steps
    out["sim.integrate.us_per_step"] = out["sim.integrate.total_s"] / steps * 1e6 if steps else 0.0
    out["sim.to_csv.total_s"] = sum(durs("sim.to_csv"))
    for name in ("sim.distinguishability_experiment", "sim.indistinguishability_experiment",
                 *GRAMIAN_SPANS):
        out[f"{name}.p50_ms"] = _p50_ms(durs(name))

    # gramian self time: gramian spans minus the spans they called; and the
    # trajectories integrated per outermost gramian call
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def gramian_ancestor(idx):
        while idx >= 0:
            if spans[idx][0] in GRAMIAN_SPANS:
                return True
            idx = spans[idx][3]
        return False

    out["gramian.self_s"] = sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                                if s[0] in GRAMIAN_SPANS)
    top = sum(1 for s in spans if s[0] in GRAMIAN_SPANS and not gramian_ancestor(s[3]))
    inner = sum(1 for s in spans if s[0] == "sim.integrate" and gramian_ancestor(s[3]))
    out["gramian.trajectories_per_call"] = inner / top if top else 0.0
    return out
