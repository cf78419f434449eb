"""Traced-run wrapper: spans around the calls into each ``tvvi`` layer,
installed from outside the program.

``install`` rebinds every public function of every layer module in each
``tvvi`` module that holds it by name (``algorithms``, ``dynamics`` and
``scenarios`` import ``evaluate``/``project`` themselves, so patching
``tvvi.core`` alone would miss them). Scenarios returned by
``build_scenario`` get their ``seq.at``/``seq.solution_at``/
``seq.respond`` wrapped, and each operator those return gets its
``fn``/``batch_fn`` wrapped once.

Spans are kept in memory. Spans at depth < ``SPAN_DEPTH`` (the CLI entry,
the command and the layer calls it makes) are kept one by one; deeper
ones, which run per round or per step, are aggregated per (caller,
callee) edge. A span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("config", "scenarios", "core", "algorithms", "metrics",
          "dynamics", "io", "cli")

# Leaf helpers cheaper than a span; their time stays in their caller's
# self time.
UNTRACED = {"as_point", "format_value", "parse_scalar", "parse_value"}

SPAN_DEPTH = 3


class Tracer:
    def __init__(self):
        self.experiment = None
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.edges = {}        # (parent, name) -> [calls, total_s]
        self.spans = []        # (experiment, name, parent, start, end)
        self.per_exp = {}      # experiment -> counters
        self._stack = []       # frames [name, child_s]
        self._ops = {}         # id -> [operator, evals when first seen, experiment]
        self._t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, post=None):
        stack, edges, spans = self._stack, self.edges, self.spans
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    caller = stack[-1]
                    caller[1] += dur
                    parent = caller[0]
                else:
                    parent = None
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if len(stack) < SPAN_DEPTH:
                    spans.append((self.experiment, name, parent,
                                  start - self._t0, end - self._t0))
            if post is not None:
                post(result, dur)
            return result

        return traced

    def counters(self) -> dict:
        return self.per_exp.setdefault(self.experiment, {
            "rounds": 0, "run_tracker_s": 0.0, "diverged_runs": 0,
            "map_steps": 0})

    # -- hooks on return values ---------------------------------------------

    def _after_run_tracker(self, traj, dur):
        c = self.counters()
        c["rounds"] += len(traj.op_values)
        c["run_tracker_s"] += dur
        c["diverged_runs"] += traj.diverged_at is not None

    def _after_iterate_orbit(self, orbit, dur):
        self.counters()["map_steps"] += len(orbit.points) - 1

    def _watch_operator(self, op):
        if id(op) not in self._ops:
            self._ops[id(op)] = [op, op.evals, self.experiment]
            op.fn = self.wrap("scenarios.op_fn", op.fn)
            if op.batch_fn is not None:
                op.batch_fn = self.wrap("scenarios.op_fn", op.batch_fn)
        return op

    def _after_build_scenario(self, sc, dur):
        seq = sc.seq
        if seq.at is not None:
            seq.at = self.wrap("scenarios.seq_at", seq.at,
                               lambda op, _: self._watch_operator(op))
        if seq.solution_at is not None:
            seq.solution_at = self.wrap("scenarios.solution_at", seq.solution_at)
        if seq.respond is not None:
            seq.respond = self.wrap("scenarios.seq_respond", seq.respond,
                                    lambda res, _: self._watch_operator(res[1]))

    def true_evals(self) -> dict:
        """Evaluations of the scenario operators, per experiment."""
        out = {}
        for op, base, exp in self._ops.values():
            out[exp] = out.get(exp, 0) + op.evals - base
        return out

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"tvvi.{layer}"] for layer in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if n == "tvvi" or n.startswith("tvvi.")]
        posts = {"scenarios.build_scenario": self._after_build_scenario,
                 "algorithms.run_tracker": self._after_run_tracker,
                 "dynamics.iterate_orbit": self._after_iterate_orbit}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNTRACED or \
                        not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, posts.get(name))
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, traced)

    # -- reporting -------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [{"experiment": e, "name": n, "parent": p,
                       "start_s": s, "end_s": t} for e, n, p, s, t in self.spans],
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": s}
                      for (p, n), (c, s) in sorted(
                          self.edges.items(), key=lambda kv: -kv[1][1])],
            "stats": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.stats.items())},
        }

    def layer_metrics(self, experiments: list) -> dict:
        """The per-layer metrics of one traced pass. ``experiments`` lists
        (name, command) pairs; round and evaluation ratios are reported
        for the track and bounds experiments among them."""
        def calls(n):
            return self.stats.get(n, (0, 0.0, 0.0))[0]

        def total(n):
            return self.stats.get(n, (0, 0.0, 0.0))[1]

        def self_s(n):
            return self.stats.get(n, (0, 0.0, 0.0))[2]

        def per_call(value, n):
            return value / calls(n) * 1e6 if calls(n) else 0.0

        def layer(n):
            return n.split(".")[0] if n else None

        counters = list(self.per_exp.values())
        map_steps = sum(c["map_steps"] for c in counters)
        m = {
            "config.parse_config.s": total("config.parse_config"),
            "scenarios.build_scenario.calls": calls("scenarios.build_scenario"),
            "scenarios.build_scenario.s": total("scenarios.build_scenario"),
            "scenarios.seq_at.calls": calls("scenarios.seq_at"),
            "scenarios.seq_at.us_per_call": per_call(
                total("scenarios.seq_at"), "scenarios.seq_at"),
            "scenarios.solution_at.us_per_call": per_call(
                total("scenarios.solution_at"), "scenarios.solution_at"),
            "scenarios.op_fn.s": total("scenarios.op_fn"),
            "scenarios.verify_scenario.s": total("scenarios.verify_scenario"),
            "core.evaluate.calls": calls("core.evaluate"),
            "core.evaluate.self_us_per_call": per_call(
                self_s("core.evaluate"), "core.evaluate"),
            "core.project.calls": calls("core.project"),
            "core.project.us_per_call": per_call(
                total("core.project"), "core.project"),
            "core.check.s": total("core.check_strong_monotone")
            + total("core.check_lipschitz"),
            "algorithms.run_tracker.self_s": self_s("algorithms.run_tracker"),
            "algorithms.meta_step_fixed.self_s": self_s("algorithms.meta_step_fixed"),
            "algorithms.meta_step_adaptive.self_s":
                self_s("algorithms.meta_step_adaptive"),
            "algorithms.make_surrogate.calls": calls("algorithms.make_surrogate"),
            "algorithms.resolvent_step.s": total("algorithms.resolvent_step"),
            "algorithms.diverged_runs": sum(c["diverged_runs"] for c in counters),
            # outermost metrics spans only: bound_check calls the others
            "metrics.s": sum(s for (p, n), (_, s) in self.edges.items()
                             if layer(n) == "metrics" and layer(p) != "metrics"),
            "dynamics.iterate_orbit.calls": calls("dynamics.iterate_orbit"),
            "dynamics.iterate_orbit.self_s": self_s("dynamics.iterate_orbit"),
            "dynamics.map_step_us": total("dynamics.iterate_orbit") / map_steps * 1e6
            if map_steps else 0.0,
            "dynamics.classify_orbit.s": total("dynamics.classify_orbit"),
            "dynamics.compose_map.calls": calls("dynamics.compose_map"),
            "dynamics.radial_containment_score.s":
                total("dynamics.radial_containment_score"),
            "io.emit_rows.s": total("io.emit_rows"),
            "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        }
        evals = self.true_evals()
        for name, command in experiments:
            if command in ("track", "bounds"):
                c = self.per_exp.get(name, {})
                rounds = c.get("rounds", 0)
                m[f"core.op_evals_per_round.{name}"] = \
                    evals.get(name, 0) / rounds if rounds else 0.0
                m[f"algorithms.round_us.{name}"] = \
                    c.get("run_tracker_s", 0.0) / rounds * 1e6 if rounds else 0.0
        return m
