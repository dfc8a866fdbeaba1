"""End-to-end acceptance checks shared by the test suite and the CLI.

Each criterion function runs one scenario against pinned tolerances and
returns its checks; ``run_criterion`` titles them from ``CRITERIA``.
tests/test_acceptance.py parametrizes over the criteria, and the
``verify-paper`` CLI subcommand prints the same results as a table.

The checks favour independent verification routes: bracket tables are
compared against hand-written expected expressions, the quartic action
against a dense midpoint-rule oracle, and the integrator order against a
reference trajectory at a much tighter tolerance.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import Call, EvalPoint, Param, compile_functions, const, \
    differentiate, p, q, simplify
from .symplectic import poisson_bracket
from .algebra import (
    InvariantSet, _numeric_rank, algebra_rank, bracket_matrix_at,
    cartan_basis_at, find_level_point, fit_structure_constants, is_solvable,
    mishchenko_fomenko_check, search_polynomial_completion,
)
from .flows import IntegratorConfig, conservation_report, flows_commute, \
    integrate
from .action_angle import (
    ChartDegree, SeparableChart, action_variable, frequency_matrix,
    picard_fuchs_residual, time_map, turning_points,
)
from .catalog import get_system, probe_points
from .sysfile import export_system_file
from . import cli

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    details: str


class _Checks:
    """Accumulates labelled pass/fail measurements for one criterion."""

    def __init__(self):
        self.items: list[tuple[bool, str]] = []

    def bound(self, label: str, value: float, limit: float):
        self.items.append((value <= limit, f"{label} {value:.3e} <= {limit:.0e}"))

    def floor(self, label: str, value: float, limit: float):
        self.items.append((value >= limit, f"{label} {value:.3e} >= {limit:.0e}"))

    def equal(self, label: str, value, want):
        self.items.append((value == want, f"{label} {value!r} == {want!r}"))

    def true(self, label: str, flag: bool):
        self.items.append((bool(flag), label))

    def result(self, index: int, title: str) -> CriterionResult:
        passed = all(ok for ok, _ in self.items)
        details = "; ".join(("" if ok else "FAIL ") + text
                            for ok, text in self.items)
        return CriterionResult(index, title, passed, details)


def _values(exprs, points) -> np.ndarray:
    """Values of ``exprs`` (columns) at ``points`` (rows), compiled once for
    the dimension that the points share."""
    fn = compile_functions(exprs, points[0].n)
    return np.array([fn(u.q + u.p) for u in points])


def _max_table_defect(inv: InvariantSet, expected: dict, points) -> float:
    """Worst |{H_a,H_b}(u) - expected(u)| over the table and the points,
    with the bracket built symbolically as an independent oracle."""
    worst = 0.0
    for (a, b), rhs in expected.items():
        i, j = inv.names.index(a), inv.names.index(b)
        lhs = poisson_bracket(inv.exprs[i], inv.exprs[j], inv.structure)
        values = _values([lhs, rhs], points)
        worst = max(worst, float(np.max(np.abs(values[:, 0] - values[:, 1]))))
    return worst


def criterion_1() -> _Checks:
    """Three-vortex bracket table against the closed-form right-hand sides."""
    system = get_system("vortices3")
    inv = system.invariants
    xi = system.structure.weights
    p1e, p2e, _, _ = inv.exprs
    zero = const(0.0)
    expected = {
        ("P1", "P2"): const(-sum(xi)),
        ("P1", "P"): simplify(const(-1.0) * p2e),
        ("P2", "P"): p1e,
        ("P", "H"): zero,
        ("P1", "H"): zero,
        ("P2", "H"): zero,
    }
    pts = inv.sample_points(20, 11)
    c = _Checks()
    c.bound("max bracket-table defect at 20 points",
            _max_table_defect(inv, expected, pts), 1e-9)
    return c


def criterion_2() -> _Checks:
    """Bracket-matrix rank, algebra rank, and the Cartan kernel directions."""
    system = get_system("vortices3")
    inv = system.invariants
    xi = system.structure.weights
    probes = probe_points(system, 6, seed=5)
    matrix_ranks = set()
    for u in probes:
        matrix_ranks.add(_numeric_rank(bracket_matrix_at(inv, u))[0])
    rank_g, constant = algebra_rank(inv, probes)

    u0 = probes[0]
    values = inv.member_values(u0)
    element = find_level_point(inv, tuple(values), u0)
    basis = cartan_basis_at(inv, element, seed=5)
    # expected kernel directions: the Hamiltonian axis and the combination
    # (sum xi) P - h1 P1 - h2 P2 at the witness level
    t_h = np.array([0.0, 0.0, 0.0, 1.0])
    t_q = np.array([-values[0], -values[1], float(sum(xi)), 0.0])
    t_q /= np.linalg.norm(t_q)
    b = basis.vectors
    resid = max(float(np.linalg.norm(t - b.T @ (b @ t))) for t in (t_h, t_q))

    c = _Checks()
    c.equal("bracket-matrix rank over probes", sorted(matrix_ranks), [2])
    c.equal("algebra rank", rank_g, 2)
    c.true("rank constant across probes", constant)
    c.equal("Cartan dimension", basis.dimension, 2)
    c.bound("kernel-direction residual", resid, 1e-8)
    return c


def criterion_3() -> _Checks:
    """Dimension condition dim G + rank G = dim M across vortex counts."""
    c = _Checks()
    for n in (2, 3, 4, 5):
        system = get_system("vortices", {"n": n})
        report = mishchenko_fomenko_check(system.invariants,
                                          probe_points(system, 6, seed=3))
        label = (f"n={n}: {report.dim_g}+{report.rank_g} vs {report.dim_m},"
                 f" holds={report.holds}")
        c.true(label, report.holds == (n == 3))
    cf = get_system("central_field")
    rep = mishchenko_fomenko_check(cf.invariants, probe_points(cf, 6, seed=3))
    c.true(f"central field: {rep.dim_g}+{rep.rank_g} vs {rep.dim_m}, holds",
           rep.holds and rep.dim_g == 4 and rep.rank_g == 2)
    return c


def criterion_4() -> _Checks:
    """Degree-2 completion over the momenta and the abelian triple."""
    system = get_system("vortices3")
    inv = system.invariants
    xi = system.structure.weights
    sub = InvariantSet(system.structure, inv.names[:3], inv.exprs[:3])
    u0 = probe_points(system, 1, seed=9)[0]
    element = find_level_point(sub, tuple(sub.member_values(u0)), u0)
    cartan = cartan_basis_at(sub, element, seed=9)
    family = search_polynomial_completion(sub, cartan, element, degree=2,
                                          seed=9)

    c = _Checks()
    c.equal("completion family dimension", len(family), 1)
    if family:
        p1e, p2e, pe = sub.exprs
        target = simplify(const(float(sum(xi))) * pe - p1e * p1e - p2e * p2e)
        pts = sub.sample_points(30, 17)
        tv = _values([target], pts)[:, 0]
        fm = _values(family, pts)
        coef, *_ = np.linalg.lstsq(fm, tv, rcond=None)
        rel = float(np.max(np.abs(fm @ coef - tv))
                    / max(1.0, float(np.max(np.abs(tv)))))
        c.bound("span membership residual", rel, 1e-8)

        triple = [inv.exprs[3], inv.exprs[2], family[0]]
        brackets = [poisson_bracket(f, g, system.structure)
                    for f, g in itertools.combinations(triple, 2)]
        bpts = inv.sample_points(20, 21)
        worst = float(np.max(np.abs(_values(brackets, bpts))))
        c.equal("abelian set size", len(triple), 3)
        c.bound("pairwise bracket of {H, P, Q} at 20 points", worst, 1e-8)
    return c


def criterion_5() -> _Checks:
    """Solvability verdicts for the particle chain and the rotation block."""
    tp = get_system("three_particles")
    ctp = fit_structure_constants(tp.invariants, samples=60, seed=13)
    cf = get_system("central_field")
    so3 = InvariantSet(cf.structure, cf.invariants.names[1:],
                       cf.invariants.exprs[1:])
    cso = fit_structure_constants(so3, samples=60, seed=13)

    c = _Checks()
    c.bound("three-particle closure residual", ctp.residual, 1e-8)
    c.true("three-particle algebra solvable", is_solvable(ctp))
    c.bound("rotation-block closure residual", cso.residual, 1e-8)
    c.true("rotation block not solvable", not is_solvable(cso))
    return c


def criterion_6() -> _Checks:
    """Central-field bracket table: rotation relations plus conservation."""
    system = get_system("central_field")
    inv = system.invariants
    _, p1e, p2e, p3e = inv.exprs
    zero = const(0.0)
    expected = {
        ("P1", "P2"): p3e,
        ("P3", "P1"): p2e,
        ("P2", "P3"): p1e,
        ("H", "P1"): zero,
        ("H", "P2"): zero,
        ("H", "P3"): zero,
    }
    pts = inv.sample_points(20, 29)
    c = _Checks()
    c.bound("max bracket-table defect at 20 points",
            _max_table_defect(inv, expected, pts), 1e-9)
    return c


def criterion_7() -> _Checks:
    """Invariant drift along the flow, plus flow commutativity both ways."""
    c = _Checks()
    config = IntegratorConfig(tolerance=1e-9)

    v3 = get_system("vortices3")
    u_v = EvalPoint((1.5, -1.2, 0.25), (0.9, 1.4, -0.5))
    traj = integrate(v3.hamiltonian, v3.structure, u_v, 50.0, config)
    c.equal("vortex trajectory error flag", traj.error, None)
    c.bound("vortex invariant drift over T=50",
            max(conservation_report(traj, v3.invariants).values()), 1e-6)

    cf = get_system("central_field")
    u_c = EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8))
    traj = integrate(cf.hamiltonian, cf.structure, u_c, 50.0, config)
    c.equal("central-field trajectory error flag", traj.error, None)
    c.bound("central-field invariant drift over T=50",
            max(conservation_report(traj, cf.invariants).values()), 1e-6)

    element = find_level_point(v3.invariants,
                               tuple(v3.invariants.member_values(u_v)), u_v)
    basis = cartan_basis_at(v3.invariants, element, seed=5)
    f1, f2 = basis.combination_exprs(v3.invariants)
    _, defect = flows_commute(f1, f2, v3.structure, u_v, 5.0, 5.0)
    c.bound("Cartan-pair commutation defect (t=tau=5)", defect, 1e-6)

    tp = get_system("three_particles")
    u_t = EvalPoint((-1.1, 0.2, 1.4), (0.3, -0.2, 0.5))
    _, defect = flows_commute(tp.invariants.exprs[0], tp.invariants.exprs[1],
                              tp.structure, u_t, 0.5, 0.5)
    c.floor("energy/dilation commutation defect", defect, 1e-2)
    return c


def criterion_8() -> _Checks:
    """Action values, the frequency matrix, and the half-cycle time map."""
    c = _Checks()
    osc = get_system("oscillator")
    gamma = action_variable(osc.chart, 1, [0.7])
    c.bound("oscillator |gamma(0.7) - 0.7|", abs(gamma - 0.7), 1e-8)
    omega = frequency_matrix(osc.chart, [0.7])
    period = 2.0 * np.pi / float(omega[0, 0])
    c.bound("oscillator |period - 2 pi|", abs(period - 2.0 * np.pi), 1e-4)

    quartic = get_system("quartic_oscillator")
    h = 0.8
    gq = action_variable(quartic.chart, 1, [h])
    # dense midpoint oracle for (1/pi) integral of sqrt(2h - lam^4/2)
    m = 1 << 21
    x = (np.arange(m) + 0.5) / m
    base = float(np.sqrt(1.0 - x ** 4).sum() / m)
    oracle = 2.0 / np.pi * (4.0 * h) ** 0.25 * np.sqrt(2.0 * h) * base
    c.bound("quartic |gamma - oracle|", abs(gq - oracle), 1e-7)

    a, b = turning_points(osc.chart, 1, [0.7])
    t_half = time_map(osc.chart, [0.7], [(a, b)])[0]
    c.bound("oscillator |half-cycle time - pi|", abs(t_half - np.pi), 1e-6)
    return c


def criterion_9() -> _Checks:
    """Branch derivatives must not react to other degrees' states."""
    c = _Checks()
    un = get_system("uncoupled_oscillators")
    c.bound("uncoupled chart residual",
            picard_fuchs_residual(un.chart, [0.6, 0.8], [0.0, 0.4]), 1e-8)

    w = Param("w")
    lam = Param("lam")
    w2 = Param("w_2")
    lam2 = Param("lam_2")
    own = w ** 2 + lam ** 2 - 2 * Param("h_1")
    shell = w2 ** 2 + const(4.0) * lam2 ** 2 - 2 * Param("h_2")
    r2 = w ** 2 + const(4.0) * lam ** 2 - 2 * Param("h_2")
    sep = SeparableChart(
        (ChartDegree(simplify(own + const(0.3) * shell), bracket=(-8.0, 8.0)),
         ChartDegree(simplify(r2), bracket=(-8.0, 8.0))), h_dim=2)
    c.bound("on-shell-decoupled chart residual",
            picard_fuchs_residual(sep, [0.6, 0.8], [0.0, 0.4]), 1e-8)

    coupled_own = w ** 2 + lam ** 2 \
        - 2 * Param("h_1") * (1 + const(0.5) * w2 ** 2)
    coupled = SeparableChart(
        (ChartDegree(simplify(coupled_own), bracket=(-8.0, 8.0)),
         ChartDegree(simplify(w ** 2 + lam ** 2 - 2 * Param("h_2")),
                     bracket=(-8.0, 8.0))), h_dim=2)
    c.floor("coupled chart residual",
            picard_fuchs_residual(coupled, [0.5, 0.5], [0.0, 0.3]), 1e-2)
    return c


def _random_case(rng: np.random.Generator):
    """A smooth random expression over q1,q2,p1,p2 with tame derivatives."""
    def atom():
        kind = int(rng.integers(0, 4))
        idx = int(rng.integers(1, 3))
        if kind == 0:
            return q(idx)
        if kind == 1:
            return p(idx)
        if kind == 2:
            return const(round(float(rng.uniform(-1.5, 1.5)), 3))
        return q(idx) * p(int(rng.integers(1, 3)))

    def term():
        base = atom()
        for _ in range(int(rng.integers(0, 2))):
            base = base * atom()
        wrap = int(rng.integers(0, 5))
        if wrap == 0:
            base = Call("sin", base)
        elif wrap == 1:
            base = Call("cos", base)
        elif wrap == 2:
            base = Call("exp", const(0.3) * base)
        elif wrap == 3:
            base = const(1.0) / (const(2.0) + base * base)
        return const(round(float(rng.uniform(-2.0, 2.0)), 3)) * base

    e = term()
    for _ in range(int(rng.integers(1, 4))):
        e = e + term()
    return simplify(e)


def _fd_defect(rng: np.random.Generator) -> float:
    e = _random_case(rng)
    coords = rng.uniform(0.5, 1.5, size=4) * (rng.integers(0, 2, size=4) * 2 - 1)
    names = ("q1", "q2", "p1", "p2")
    s = names[int(rng.integers(0, 4))]
    fn = compile_functions([differentiate(e, s), e], 2)
    sym = fn(coords)[0]

    idx = names.index(s)
    delta = 1e-6 * (1.0 + abs(coords[idx]))
    shifted = []
    for sign in (1.0, -1.0):
        c = coords.copy()
        c[idx] += sign * delta
        shifted.append(fn(c)[1])
    fd = (shifted[0] - shifted[1]) / (2.0 * delta)
    return abs(sym - fd) / (1.0 + abs(sym))


def _random_poly(rng: np.random.Generator):
    # degree >= 2 terms keep second brackets nonzero, so the Jacobi sum
    # actually exercises cancellation instead of vanishing structurally
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        e = const(float(rng.choice((-1.0, -0.5, 0.5, 1.0))))
        for _ in range(int(rng.integers(2, 4))):
            idx = int(rng.integers(1, 4))
            e = e * (q(idx) if rng.integers(0, 2) else p(idx))
        terms.append(e)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return simplify(total)


def criterion_10() -> _Checks:
    """Derivative hygiene, Jacobi, integrator order, report determinism."""
    c = _Checks()
    rng = np.random.default_rng(2024)
    c.bound("max FD-vs-symbolic relative error over 100 cases",
            max(_fd_defect(rng) for _ in range(100)), 1e-5)

    from .symplectic import SymplecticStructure
    s = SymplecticStructure(3, (1.0, 1.0, -2.0))
    pts = [EvalPoint(tuple(rng.uniform(0.5, 1.5, 3)),
                     tuple(rng.uniform(0.5, 1.5, 3))) for _ in range(20)]
    worst = 0.0
    scale = 0.0
    for _ in range(5):
        f, g, h = (_random_poly(rng) for _ in range(3))
        first = poisson_bracket(f, poisson_bracket(g, h, s), s)
        total = first + poisson_bracket(g, poisson_bracket(h, f, s), s)
        total = total + poisson_bracket(h, poisson_bracket(f, g, s), s)
        values = np.abs(_values([total, first], pts))
        worst = max(worst, float(np.max(values[:, 0])))
        scale = max(scale, float(np.max(values[:, 1])))
    c.bound("pointwise Jacobi defect over 5 random triples", worst, 1e-9)
    c.floor("largest triple-bracket magnitude (nonvacuous)", scale, 1e-1)
    tp = get_system("three_particles")
    ctp = fit_structure_constants(tp.invariants, samples=60, seed=13)
    c.bound("fitted-table Jacobi defect", ctp.jacobi_defect(), 1e-9)

    quartic = get_system("quartic_oscillator")
    u0 = EvalPoint((1.1,), (0.3,))
    ref = integrate(quartic.hamiltonian, quartic.structure, u0, 5.0,
                    IntegratorConfig(tolerance=1e-12))
    errs = []
    for step in (0.1, 0.05):
        traj = integrate(quartic.hamiltonian, quartic.structure, u0, 5.0,
                         IntegratorConfig(scheme="symmetric4", step=step))
        errs.append(float(np.linalg.norm(traj.states[-1] - ref.states[-1])))
    ratio = errs[0] / errs[1]
    c.true(f"order-4 error ratio {ratio:.2f} in [12, 20]", 12.0 <= ratio <= 20.0)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vortices3.sys")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(export_system_file(get_system("vortices3")))
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["analyze", path, "--seed", "7"])
            outputs.append(buf.getvalue())
            c.equal("analyze exit code", code, 0)
    c.true("byte-identical reports under a fixed seed",
           outputs[0] == outputs[1] and len(outputs[0]) > 0)
    return c


CRITERIA: tuple[tuple[int, str, Callable[[], _Checks]], ...] = (
    (1, "vortex bracket table", criterion_1),
    (2, "vortex rank and Cartan directions", criterion_2),
    (3, "dimension-condition scan", criterion_3),
    (4, "degree-2 completion and abelian triple", criterion_4),
    (5, "solvability verdicts", criterion_5),
    (6, "central-field bracket table", criterion_6),
    (7, "flow drift and commutativity", criterion_7),
    (8, "actions, frequencies, half-cycle time", criterion_8),
    (9, "branch-derivative locality", criterion_9),
    (10, "numerical hygiene", criterion_10),
)


def run_criterion(index: int) -> CriterionResult:
    """Run one criterion; an exception becomes a failed result, not a crash."""
    for idx, title, fn in CRITERIA:
        if idx == index:
            try:
                return fn().result(idx, title)
            except Exception as exc:
                return CriterionResult(idx, title, False,
                                       f"raised {type(exc).__name__}: {exc}")
    raise ValueError(f"no criterion {index}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(idx) for idx, _, _ in CRITERIA]
