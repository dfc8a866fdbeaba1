"""Spans around liouville's public functions, installed from outside ``src/``.

``install`` replaces each traced function in every liouville module that
holds a reference to it, so calls between modules are caught as well as
calls from the benchmark.  Each call records a span (id, parent id, op id,
name, start, end) in memory; ``write`` saves them when the run ends.

A function's self time is its span time minus the time of its child
spans.  A recursive call of a function whose own span is innermost (such
as ``simplify`` descending its tree) folds into the outer span, so
``calls`` counts entries into a layer, not tree nodes.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (label, module, attribute); the owner "InvariantSet" is the class in algebra
TRACED = (
    ("expr.parse", "expr", "parse"),
    ("expr.differentiate", "expr", "differentiate"),
    ("expr.simplify", "expr", "simplify"),
    ("expr.evaluate", "expr", "evaluate"),
    ("expr.compile_functions", "expr", "compile_functions"),
    ("symplectic.poisson_bracket", "symplectic", "poisson_bracket"),
    ("symplectic.hamiltonian_vector_field", "symplectic",
     "hamiltonian_vector_field"),
    ("algebra.sample_points", "algebra.InvariantSet", "sample_points"),
    ("algebra.bracket_matrix_at", "algebra", "bracket_matrix_at"),
    ("algebra.fit_structure_constants", "algebra", "fit_structure_constants"),
    ("algebra.algebra_rank", "algebra", "algebra_rank"),
    ("algebra.functional_independence", "algebra", "functional_independence"),
    ("algebra.find_level_point", "algebra", "find_level_point"),
    ("algebra.cartan_basis_at", "algebra", "cartan_basis_at"),
    ("algebra.search_polynomial_completion", "algebra",
     "search_polynomial_completion"),
    ("catalog.probe_points", "catalog", "probe_points"),
    ("sysfile.loads_system", "sysfile", "loads_system"),
    ("flows.integrate", "flows", "integrate"),
    ("flows.conservation_report", "flows", "conservation_report"),
    ("action_angle.action_spectrum", "action_angle", "action_spectrum"),
    ("action_angle.action_variable", "action_angle", "action_variable"),
    ("action_angle.turning_points", "action_angle", "turning_points"),
    ("action_angle.time_map", "action_angle", "time_map"),
)
# the top-level algebra steps report self time only; their call counts
# equal the op count
SELF_ONLY = frozenset({
    "algebra.fit_structure_constants", "algebra.algebra_rank",
    "algebra.functional_independence", "algebra.find_level_point",
    "algebra.cartan_basis_at", "algebra.search_polynomial_completion"})
COMPILED = "expr.compiled"
COUNTERS = ("flows.steps.count", "flows.truncated.count")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []     # [name, span id, child time]

    def wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [name, len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][2] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[2]
                spans[frame[1]] = (frame[1], parent, tracer.op_id, name,
                                   start, end)
            if after is not None:
                after(result)
            return result

        return traced

    def run_op(self, op_id: int, name: str, fn, *args):
        self.op_id = op_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op_id = -1

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "liouville" or key.startswith("liouville."))
                   and m is not None]
        for label, owner_path, attr in TRACED:
            owner = sys.modules["liouville." + owner_path.split(".")[0]]
            if "." in owner_path:
                owner = getattr(owner, owner_path.split(".")[1])
            original = getattr(owner, attr)
            if attr == "compile_functions":
                wrapped = self._wrap_compile(label, original)
            elif attr == "integrate":
                wrapped = self.wrap(label, original, after=self._count_steps)
            else:
                wrapped = self.wrap(label, original)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap_compile(self, label: str, original):
        traced_compile = self.wrap(label, original)

        @functools.wraps(original)
        def compile_and_wrap(*args, **kwargs):
            return self.wrap(COMPILED, traced_compile(*args, **kwargs))

        return compile_and_wrap

    def _count_steps(self, traj) -> None:
        self.counts["flows.steps.count"] += traj.accepted_steps
        self.counts["flows.truncated.count"] += traj.error is not None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["span", "parent", "op", "name", "start_s",
                                 "end_s"]) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
