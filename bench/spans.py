"""Span tracing from outside the program: wrap public cnext functions where they are looked up.

``Tracer.install()`` replaces each function in ``TRACED`` with a wrapper that records a
span (name, start, end, parent). A function is replaced on its defining module and on
every cnext module that imported it by name (``solver`` calls its own binding of
``compress_round``), and methods are replaced on their class. ``uninstall()`` puts the
originals back. Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from time import perf_counter

from cnext import cli, compress, data, graph, objective, solver, theory

# (owner, attribute) -> span name; the owner is a module or a class
TRACED = {
    (graph, "metropolis_hastings_weights"): "graph.metropolis_hastings_weights",
    (data, "generate_ridge_synthetic"): "data.generate_ridge_synthetic",
    (data, "partition_homogeneous"): "data.partition_homogeneous",
    (data, "build_locals"): "data.build_locals",
    (objective, "ridge_objective"): "objective.ridge_objective",
    (objective, "logistic_objective"): "objective.logistic_objective",
    (objective, "centralized_newton"): "objective.centralized_newton",
    (objective.Objective, "value"): "objective.Objective.value",
    (objective.Objective, "grad_stack"): "objective.Objective.grad_stack",
    (objective.Objective, "hess_solve_i"): "objective.Objective.hess_solve_i",
    (compress, "make_scheme"): "compress.make_scheme",
    (compress, "compress_round"): "compress.compress_round",
    (solver, "baseline_optimum"): "solver.baseline_optimum",
    (solver, "run"): "solver.run",
    (solver, "step"): "solver.step",
    (solver, "newton_directions"): "solver.newton_directions",
    (theory, "build_A"): "theory.build_A",
    (theory, "check_sufficient_conditions"): "theory.check_sufficient_conditions",
    (theory, "default_epsilon"): "theory.default_epsilon",
    (cli, "records_to_csv"): "cli.records_to_csv",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "cnext" or key.startswith("cnext.")]
        for (owner, attr), name in TRACED.items():
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn)
            targets = [owner] if isinstance(owner, type) else [m for m in modules if m.__dict__.get(attr) is fn]
            for target in targets:
                self._saved.append((target, attr, fn))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()

    def clear(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (minus direct children)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), c in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["incl"] += t1 - t0
            row["self"] += t1 - t0 - c
        return dict(out)

    def telemetry_s(self) -> tuple[float, int]:
        """(time in solver.run outside solver.step, rounds stepped)."""
        run_total, step_total, steps = 0.0, 0.0, 0
        for name, t0, t1, parent in self.spans:
            if name == "solver.run":
                run_total += t1 - t0
            elif name == "solver.step" and parent >= 0 and self.spans[parent][0] == "solver.run":
                step_total += t1 - t0
                steps += 1
        return run_total - step_total, steps

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start_s", "end_s", "parent"))
            base = self.spans[0][1] if self.spans else 0.0
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                w.writerow((i, name, f"{t0 - base:.9f}", f"{t1 - base:.9f}", parent))
