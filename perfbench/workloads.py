"""The benchmark workloads: op classes, their inputs and their oracles.

A workload is a list of op classes run round-robin, one op at a time (a
closed loop with one client).  Each class has

* ``make(ctx, index)``: the op's input, drawn from (seed, class, index)
  outside the timed op, with its expected results;
* ``run(inp)``: the timed op, calling liouville's public API only;
* ``check(inp, out)``: ``None`` if every output matches its oracle, else a
  one-line reason.

Ops call library functions through their modules (``algebra.x``) at call
time, so the wrappers of a traced run see every call.

``CLI_PROBES`` are op classes too, one ``python -m liouville.cli``
subprocess per subcommand, but no timed workload: a traced run runs each
once, for its oracle and its ``cli.<subcommand>.s`` time.
"""
from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen

from liouville import action_angle, algebra, catalog, flows, sysfile
from liouville.expr import EvalPoint


@dataclass
class Context:
    seed: int
    workdir: Path       # where cli ops find their system files

    @functools.cached_property
    def quartic_b(self) -> float:
        return gen.quartic_constant()


@dataclass(frozen=True)
class OpClass:
    name: str
    make: Callable[[Context, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[OpClass, ...]
    min_cycles: int      # the timed loop runs at least this many rounds
    trace_cycles: int    # rounds in each pass of a traced run
    warmups: int = 99    # leading classes given an untimed warm-up op


def _point(y: np.ndarray) -> EvalPoint:
    n = len(y) // 2
    return EvalPoint(tuple(y[:n]), tuple(y[n:]))


def _rel(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def _first_failure(checks) -> str | None:
    for label, ok in checks:
        if not ok:
            return label
    return None


# ---------------------------------------------------------------------------
# analysis: parse, fit, rank, dimension condition, Cartan basis, completion


@dataclass
class AnalysisInput:
    text: str
    members: Callable
    level: np.ndarray
    guess: np.ndarray
    rank: int
    holds: bool
    solvable: bool
    completions: int | None     # None: not checked (see three_particles)
    independent: bool | None = True


def _analysis_input(system: gen.System, r, y: np.ndarray, **expect):
    level = system.members(y)
    guess = y + r.uniform(-0.01, 0.01, len(y))
    return AnalysisInput(system.text, system.members, level, guess, **expect)


def _make_three_particles(ctx: Context, index: int) -> AnalysisInput:
    r = gen.rng(ctx.seed, "analysis.three_particles", index)
    system = gen.three_particles(r.uniform(0.5, 2.0, 3), r.uniform(0.5, 1.5),
                                 gen.file_seed(r))
    # {H1,H2} = 2 H1, {H2,H3} = -H3, {H1,H3} = 0: a solvable algebra whose
    # bracket matrix has rank 2, so rank G = 1.
    # Known library defects leave two verdicts unchecked here.  When the
    # library's own sample points put two particles close together:
    # - search_polynomial_completion can return polynomials (H3^2, or
    #   mixes of H1 and H3^2) that do not commute with H2, although no
    #   degree-2 polynomial in H1..H3 commutes with all three;
    # - functional_independence can report dependent members, from a
    #   probe whose Jacobian singular values span 1e10.
    # Seed 11 shows both within 25 ops.
    return _analysis_input(system, r, gen.particles_point(r), rank=1,
                           holds=False, solvable=True, completions=None,
                           independent=None)


def _make_central_field(ctx: Context, index: int) -> AnalysisInput:
    r = gen.rng(ctx.seed, "analysis.central_field", index)
    system = gen.central_field(r.uniform(0.8, 1.2), r.uniform(0.1, 0.2),
                               gen.file_seed(r))
    # so(3) plus the central H: rank 2, 4 + 2 = 6 = dim M; H^2 and |P|^2
    # are the degree-2 completions beyond the Cartan span
    return _analysis_input(system, r, gen.banded(r, 6, 0.5, 1.0), rank=2,
                           holds=True, solvable=False, completions=2)


def _make_vortices(n: int):
    def make(ctx: Context, index: int) -> AnalysisInput:
        r = gen.rng(ctx.seed, f"analysis.vortices{n}", index)
        system = gen.vortices(gen.vortex_intensities(r, n), gen.file_seed(r))
        # e(2) plus the central H: solvable, rank 2; 4 + 2 = 2n only for
        # n = 3; H^2 and P1^2 + P2^2 complete the Cartan span at degree 2
        return _analysis_input(system, r, gen.separated_point(r, n, 1.5),
                               rank=2, holds=(n == 3), solvable=True,
                               completions=2)
    return make


def _run_analysis(inp: AnalysisInput) -> dict:
    system = sysfile.loads_system(inp.text)
    inv = system.invariants
    seed = system.seed
    constants = algebra.fit_structure_constants(inv, samples=60, seed=seed,
                                                allow_central=True)
    probes = catalog.probe_points(system, 6, seed)
    rank, constant = algebra.algebra_rank(inv, probes)
    report = algebra.mishchenko_fomenko_check(inv, probes)
    independent = algebra.functional_independence(inv, probes)
    element = algebra.find_level_point(inv, inp.level, _point(inp.guess))
    cartan = algebra.cartan_basis_at(inv, element, seed=seed)
    found = algebra.search_polynomial_completion(inv, cartan, element,
                                                 degree=2, seed=seed)
    return {"residual": constants.residual,
            "jacobi": constants.jacobi_defect(),
            "solvable": algebra.is_solvable(constants),
            "rank": rank, "constant_rank": constant, "holds": report.holds,
            "independent": independent,
            "witness": element.witness.state(),
            "cartan_dim": cartan.dimension, "completions": len(found)}


def _check_analysis(inp: AnalysisInput, out: dict) -> str | None:
    return _first_failure([
        ("closure residual > 1e-6", out["residual"] <= 1e-6),
        ("Jacobi defect > 1e-6", out["jacobi"] <= 1e-6),
        (f"rank {out['rank']} != {inp.rank}", out["rank"] == inp.rank),
        ("rank not constant over probes", out["constant_rank"]),
        (f"dimension condition {out['holds']} != {inp.holds}",
         out["holds"] == inp.holds),
        (f"solvable {out['solvable']} != {inp.solvable}",
         out["solvable"] == inp.solvable),
        ("members not independent",
         inp.independent is None or out["independent"] == inp.independent),
        ("witness misses the level by > 1e-8",
         _rel(inp.members(out["witness"]), inp.level) <= 1e-8),
        (f"Cartan dimension {out['cartan_dim']} != rank {inp.rank}",
         out["cartan_dim"] == inp.rank),
        (f"{out['completions']} completions != {inp.completions}",
         inp.completions is None or out["completions"] == inp.completions),
    ])


ANALYSIS = Workload("analysis", (
    OpClass("vortices3", _make_vortices(3), _run_analysis, _check_analysis),
    OpClass("three_particles", _make_three_particles, _run_analysis,
            _check_analysis),
    OpClass("central_field", _make_central_field, _run_analysis,
            _check_analysis),
    OpClass("vortices5", _make_vortices(5), _run_analysis, _check_analysis),
    OpClass("vortices8", _make_vortices(8), _run_analysis, _check_analysis),
), min_cycles=7, trace_cycles=3, warmups=1)
# Seven rounds put the median in the vortices3 class and the tail
# percentile (71.4) in the vortices5 class, each at that class's middle op.
# A round takes about 3.5 s, so at --seconds 10 a run is these seven
# rounds.  A traced run makes three rounds per pass: with one,
# trace.overhead_frac was mostly host noise.
# Every class runs the same op on a freshly parsed system, so nothing a
# warm-up could fill is kept per class: one warm-up op covers them all.


# ---------------------------------------------------------------------------
# flows: integrate, then conservation_report


@dataclass
class FlowInput:
    text: str
    members: Callable
    y0: np.ndarray
    t: float
    config: flows.IntegratorConfig
    drift_bound: float
    exact: np.ndarray | None = None     # closed-form final state, if known
    state_bound: float = 0.0


ADAPTIVE = flows.IntegratorConfig(scheme="adaptive", tolerance=1e-9)
SYMMETRIC = flows.IntegratorConfig(scheme="symmetric4", step=0.01)


def _make_flow_vortices(n: int, t: float):
    def make(ctx: Context, index: int) -> FlowInput:
        r = gen.rng(ctx.seed, f"flows.vortices{n}", index)
        xi, y0 = gen.ring_vortices(r, n)
        system = gen.vortices(xi, gen.file_seed(r))
        return FlowInput(system.text, system.members, y0, t, ADAPTIVE,
                         drift_bound=1e-6)
    return make


def _make_flow_central(ctx: Context, index: int) -> FlowInput:
    r = gen.rng(ctx.seed, "flows.central_field", index)
    system = gen.central_field(r.uniform(0.8, 1.2), r.uniform(0.1, 0.2),
                               gen.file_seed(r))
    return FlowInput(system.text, system.members, gen.banded(r, 6, 0.5, 1.0),
                     40.0, ADAPTIVE, drift_bound=1e-6)


def _make_flow_uncoupled(ctx: Context, index: int) -> FlowInput:
    r = gen.rng(ctx.seed, "flows.uncoupled_oscillators", index)
    omegas = r.uniform(0.8, 1.6, 3)
    system = gen.uncoupled(omegas, gen.file_seed(r))
    y0 = gen.banded(r, 6, 0.3, 1.0)
    t = 40.0
    return FlowInput(system.text, system.members, y0, t, SYMMETRIC,
                     drift_bound=1e-6, exact=gen.rotate(y0, omegas, t),
                     state_bound=1e-6)


def _make_flow_quartic(ctx: Context, index: int) -> FlowInput:
    r = gen.rng(ctx.seed, "flows.quartic_oscillator", index)
    system = gen.quartic(gen.file_seed(r))
    return FlowInput(system.text, system.members, gen.banded(r, 2, 0.3, 1.0),
                     30.0, SYMMETRIC, drift_bound=1e-6)


def _run_flow(inp: FlowInput) -> dict:
    system = sysfile.loads_system(inp.text)
    traj = flows.integrate(system.hamiltonian, system.structure,
                           _point(inp.y0), inp.t, inp.config)
    drift = flows.conservation_report(traj, system.invariants)
    return {"error": traj.error, "t_end": float(traj.times[-1]),
            "final": traj.states[-1].copy(), "drift": max(drift.values())}


def _check_flow(inp: FlowInput, out: dict) -> str | None:
    checks = [
        (f"trajectory truncated: {out['error']}", out["error"] is None),
        ("trajectory stops short of t",
         abs(out["t_end"] - inp.t) <= 1e-9 * inp.t),
        (f"reported drift {out['drift']:.2e} > {inp.drift_bound:.0e}",
         out["drift"] <= inp.drift_bound),
        ("members drift beyond the bound at the final state",
         _rel(inp.members(out["final"]), inp.members(inp.y0))
         <= inp.drift_bound),
    ]
    if inp.exact is not None:
        checks.append(("final state misses the exact rotation",
                       float(np.max(np.abs(out["final"] - inp.exact)))
                       <= inp.state_bound))
    return _first_failure(checks)


FLOWS = Workload("flows", (
    OpClass("vortices3", _make_flow_vortices(3, 150.0), _run_flow,
            _check_flow),
    OpClass("central_field", _make_flow_central, _run_flow, _check_flow),
    OpClass("quartic_oscillator", _make_flow_quartic, _run_flow, _check_flow),
    OpClass("uncoupled_oscillators", _make_flow_uncoupled, _run_flow,
            _check_flow),
    OpClass("vortices6", _make_flow_vortices(6, 150.0), _run_flow,
            _check_flow),
), min_cycles=18, trace_cycles=2)
# Classes are sized about 1 : 1.3 : 2.8 : 3.8 : 7 in op time.  Eighteen
# rounds put the median in the fixed-step quartic class and the tail
# percentile (88.8) at the middle of the vortices6 class.


# ---------------------------------------------------------------------------
# actions: action_spectrum, turning_points and a half-cycle time_map


@dataclass
class ActionInput:
    text: str
    h: list[float]
    gammas: list[float]
    omega: np.ndarray
    turning: float       # lam+ of degree 1; lam- = -lam+
    half_time: float     # half period of degree 1


def _make_oscillators(modes: int):
    label = "oscillator" if modes == 1 else "uncoupled_oscillators"

    def make(ctx: Context, index: int) -> ActionInput:
        r = gen.rng(ctx.seed, f"actions.{label}", index)
        omegas = r.uniform(0.7, 1.5, modes)
        h = r.uniform(0.2, 2.0, modes)
        system = gen.uncoupled(omegas, gen.file_seed(r))
        # gamma_j = h_j / w_j, Omega = diag(w), turning points
        # +-sqrt(2 h_1)/w_1, half period pi / w_1
        return ActionInput(system.text, list(h), list(h / omegas),
                           np.diag(omegas), math.sqrt(2 * h[0]) / omegas[0],
                           math.pi / omegas[0])
    return make


def _make_quartic_actions(ctx: Context, index: int) -> ActionInput:
    r = gen.rng(ctx.seed, "actions.quartic_oscillator", index)
    h = float(r.uniform(0.2, 2.0))
    want = gen.quartic_oracle(h, ctx.quartic_b)
    return ActionInput(gen.quartic(gen.file_seed(r)).text, [h],
                       [want["gamma"]], np.array([[want["omega"]]]),
                       want["turning"], want["half_time"])


def _run_actions(inp: ActionInput) -> dict:
    chart = sysfile.loads_system(inp.text).chart
    spectrum = action_angle.action_spectrum(chart, inp.h)
    lo, hi = action_angle.turning_points(chart, 1, inp.h)
    mu = [(lo, hi)] + [(0.0, 0.0)] * (chart.n - 1)
    times = action_angle.time_map(chart, inp.h, mu)
    return {"gammas": spectrum.gammas, "omega": spectrum.omega,
            "turning": (lo, hi), "half_time": times[0]}


def _check_actions(inp: ActionInput, out: dict) -> str | None:
    return _first_failure([
        ("actions miss the closed form by > 1e-7",
         _rel(out["gammas"], inp.gammas) <= 1e-7),
        ("frequency matrix misses diag(w) by > 1e-5",
         _rel(out["omega"], inp.omega) <= 1e-5),
        ("turning points miss the closed form by > 1e-8",
         _rel(out["turning"], (-inp.turning, inp.turning)) <= 1e-8),
        ("half-cycle time misses the closed form by > 1e-6",
         _rel(out["half_time"], inp.half_time) <= 1e-6),
    ])


ACTIONS = Workload("actions", (
    OpClass("oscillator", _make_oscillators(1), _run_actions,
            _check_actions),
    OpClass("uncoupled_oscillators", _make_oscillators(2), _run_actions,
            _check_actions),
    OpClass("quartic_oscillator", _make_quartic_actions, _run_actions,
            _check_actions),
), min_cycles=20, trace_cycles=4)
# A run reaches about 220 ops; the tail percentile (83.3, fixed from the
# 60-op minimum) sits inside the slowest, quartic class.


# ---------------------------------------------------------------------------
# cli probes: one `python -m liouville.cli` subprocess per op


@dataclass
class CliInput:
    argv: list[str]
    exit_code: int
    expect: Callable[[dict], str | None]


def _write(ctx: Context, name: str, text: str) -> str:
    path = ctx.workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _level_input(r, n: int):
    """A vortex system with a probe point near a seeded level, for --h."""
    xi = gen.vortex_intensities(r, n)
    y = gen.separated_point(r, n, 1.5)
    guess = y + r.uniform(-0.01, 0.01, 2 * n)
    system = gen.vortices(xi, gen.file_seed(r), probes=[guess])
    return system, ",".join(repr(float(v)) for v in system.members(y))


def _cli_class(sub: str, build):
    """Ops of one subcommand; ``build(r)`` gives (file text, extra argv,
    expected exit code, check of the report's results)."""
    def make(ctx: Context, index: int) -> CliInput:
        r = gen.rng(ctx.seed, f"cli.{sub}", index)
        text, extra, code, expect = build(r)
        path = _write(ctx, f"{sub}-{index}.sys", text)
        return CliInput([sub, path, *extra], code, expect)
    return OpClass(sub, make, _run_cli, _check_cli)


def _expect(**want):
    def check(results: dict) -> str | None:
        for key, value in want.items():
            got = results.get(key)
            if callable(value) and not value(got):
                return f"{key} = {got!r} fails its check"
            if not callable(value) and got != value:
                return f"{key} = {got!r}, want {value!r}"
        return None
    return check


def _build_analyze(r):
    system = gen.vortices(gen.vortex_intensities(r, 3), gen.file_seed(r))
    return system.text, [], 0, _expect(
        closed=True, k=4, solvable=True, independent=True,
        jacobi_defect=lambda v: v is not None and v <= 1e-6)


def _build_rank(r):
    system = gen.central_field(r.uniform(0.8, 1.2), r.uniform(0.1, 0.2),
                               gen.file_seed(r))
    return system.text, [], 0, _expect(rank=2, constant_rank=True, k=4)


def _build_mf_check(r):
    # 4 vortices: dim G + rank G = 6 != 8, so --strict exits 1
    system = gen.vortices(gen.vortex_intensities(r, 4), gen.file_seed(r))
    return system.text, ["--strict"], 1, _expect(
        holds=False, dim_g=4, rank_g=2, dim_m=8)


def _build_cartan(r):
    system, h = _level_input(r, 3)
    return system.text, [f"--h={h}"], 0, _expect(dimension=2)


def _build_complete(r):
    system, h = _level_input(r, 3)
    return system.text, [f"--h={h}", "--degree", "2"], 0, \
        _expect(dimension=2)


def _build_simulate(r):
    xi, y = gen.ring_vortices(r, 3)
    system = gen.vortices(xi, gen.file_seed(r))
    start = (",".join(repr(float(v)) for v in y[:3]) + " | "
             + ",".join(repr(float(v)) for v in y[3:]))
    return system.text, ["--t", "20", f"--from={start}"], 0, _expect(
        error=None, drift=lambda d: bool(d) and max(d.values()) <= 1e-6)


def _build_actions(r):
    omegas = r.uniform(0.7, 1.5, 2)
    h = r.uniform(0.2, 2.0, 2)
    system = gen.uncoupled(omegas, gen.file_seed(r))
    return system.text, ["--h=" + ",".join(repr(float(v)) for v in h)], 0, \
        _expect(gammas=lambda g: g is not None and _rel(g, h / omegas) <= 1e-7,
                omega=lambda w: w is not None
                and _rel(w, np.diag(omegas)) <= 1e-5)


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_cli(inp: CliInput) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "liouville.cli", *inp.argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _check_cli(inp: CliInput, proc: subprocess.CompletedProcess) -> str | None:
    if proc.returncode != inp.exit_code:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {proc.returncode}, want {inp.exit_code}: {tail[0]}"
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    return inp.expect(report.get("results", {}))


# A timed cli workload (one subprocess per op, all seven subcommands in
# turn) was dropped: process start-up and imports dominate each op, and in
# noisy periods of a shared host its median op time spread 26-31 % between
# runs, scaled by the speed kernel or not.
CLI_PROBES = (
    _cli_class("analyze", _build_analyze),
    _cli_class("rank", _build_rank),
    _cli_class("mf-check", _build_mf_check),
    _cli_class("cartan", _build_cartan),
    _cli_class("complete", _build_complete),
    _cli_class("simulate", _build_simulate),
    _cli_class("actions", _build_actions),
)

WORKLOADS = {w.name: w for w in (ANALYSIS, FLOWS, ACTIONS)}
