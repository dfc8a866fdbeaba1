"""Built-in fixture systems: point vortices, central fields, and controls.

Every builder bakes its numeric parameters directly into the expressions,
so a SystemDefinition is fully bound and exports to the system-file format
(``sysfile.export_system_file``) without a separate parameter table.
Members flagged in ``non_invariant`` are deliberate controls that do not
commute with the Hamiltonian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .expr import (
    Call, EvalPoint, Expr, Param, ParseError, _chain, const, p, parse,
    parameters_of, q, simplify, substitute_param,
)
from .symplectic import SymplecticStructure
from .algebra import InvariantSet
from .action_angle import ChartDegree, SeparableChart

__all__ = ["SystemDefinition", "get_system", "list_systems", "probe_points"]


@dataclass(frozen=True)
class SystemDefinition:
    """A fully bound fixture: structure, Hamiltonian, invariants, chart.

    Members listed in ``non_invariant`` are deliberate controls whose
    brackets with the Hamiltonian leave the member span.  The remaining
    members close on the span: in most fixtures they commute with the
    Hamiltonian outright (to 1e-9 at probes), while the solvable
    three-particle algebra has {H1,H2} = 2 H1 by design.
    """

    name: str
    structure: SymplecticStructure
    hamiltonian: Expr
    invariants: InvariantSet
    seed: int = 42
    chart: SeparableChart | None = None
    non_invariant: frozenset = frozenset()
    suggested_probes: tuple = ()

    @property
    def n(self) -> int:
        return self.structure.n


def _merge_params(defaults: dict, params: Mapping | None, name: str) -> dict:
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise ValueError(
                f"{name}: unknown parameters {sorted(unknown)}; "
                f"accepted: {sorted(defaults)}")
        merged.update(params)
    return merged


_W = Param("w")
_LAM = Param("lam")


def _oscillator_chart(omegas: Sequence[float]) -> SeparableChart:
    degrees = []
    for j, omega in enumerate(omegas, start=1):
        residual = _W ** 2 + const(omega * omega) * _LAM ** 2 \
            - 2 * Param(f"h_{j}")
        reach = 8.0 * max(1.0, 1.0 / abs(omega))
        degrees.append(ChartDegree(simplify(residual),
                                   bracket=(-reach, reach)))
    return SeparableChart(tuple(degrees), h_dim=len(degrees))


def _build_oscillator(params: Mapping | None) -> SystemDefinition:
    values = _merge_params({"omega": 1.0}, params, "oscillator")
    omega = float(values["omega"])
    if omega == 0.0:
        raise ValueError("oscillator: omega must be nonzero")
    s = SymplecticStructure.canonical(1)
    h = simplify((p(1) ** 2 + const(omega * omega) * q(1) ** 2) / 2)
    inv = InvariantSet(s, ("H",), (h,))
    return SystemDefinition("oscillator", s, h, inv,
                            chart=_oscillator_chart((omega,)))


def _build_uncoupled(params: Mapping | None) -> SystemDefinition:
    values = _merge_params({"omegas": (1.0, 2.0)}, params,
                           "uncoupled_oscillators")
    omegas = tuple(float(w) for w in values["omegas"])
    if len(omegas) < 2 or any(w == 0.0 for w in omegas):
        raise ValueError(
            "uncoupled_oscillators: need >= 2 nonzero frequencies")
    n = len(omegas)
    s = SymplecticStructure.canonical(n)
    members = [simplify((p(j) ** 2 + const(w * w) * q(j) ** 2) / 2)
               for j, w in enumerate(omegas, start=1)]
    names = tuple(f"H{j}" for j in range(1, n + 1))
    h = simplify(_chain("+", members))
    inv = InvariantSet(s, names, tuple(members))
    return SystemDefinition("uncoupled_oscillators", s, h, inv,
                            chart=_oscillator_chart(omegas))


def _build_quartic(params: Mapping | None) -> SystemDefinition:
    _merge_params({}, params, "quartic_oscillator")
    s = SymplecticStructure.canonical(1)
    h = simplify(p(1) ** 2 / 2 + q(1) ** 4 / 4)
    inv = InvariantSet(s, ("H",), (h,))
    residual = simplify(_W ** 2 / 2 + _LAM ** 4 / 4 - Param("h_1"))
    chart = SeparableChart((ChartDegree(residual, bracket=(-8.0, 8.0)),),
                           h_dim=1)
    return SystemDefinition("quartic_oscillator", s, h, inv, chart=chart)


def _vortex_members(xi: Sequence[float]) -> tuple[Expr, Expr, Expr, Expr]:
    n = len(xi)
    p1 = _chain("+", [const(xi[i]) * q(i + 1) for i in range(n)])
    p2 = _chain("+", [const(xi[i]) * p(i + 1) for i in range(n)])
    # the 1/2 makes the moment brackets come out as {P1,P}=-P2, {P2,P}=P1
    moment = _chain("+", [const(xi[i] / 2.0) * (q(i + 1) ** 2 + p(i + 1) ** 2)
                          for i in range(n)])
    logs = []
    for i in range(n):
        for j in range(i + 1, n):
            sep = (q(i + 1) - q(j + 1)) ** 2 + (p(i + 1) - p(j + 1)) ** 2
            logs.append(const(xi[i] * xi[j]) * Call("ln", sep))
    h = const(-1.0 / (2.0 * math.pi)) * _chain("+", logs)
    return (simplify(p1), simplify(p2), simplify(moment), simplify(h))


def _build_vortices(params: Mapping | None, name: str = "vortices",
                    fixed_n: int | None = None) -> SystemDefinition:
    defaults = {"n": 3, "xi": None} if fixed_n is None else {"xi": None}
    values = _merge_params(defaults, params, name)
    n = fixed_n if fixed_n is not None else int(values["n"])
    if n < 2:
        raise ValueError(f"{name}: need at least 2 vortices")
    xi = values["xi"]
    if xi is None:
        # zero total vorticity, so the four-member algebra closes without
        # central terms
        xi = tuple([1.0] * (n - 1) + [-(n - 1.0)])
    xi = tuple(float(v) for v in xi)
    if len(xi) != n:
        raise ValueError(f"{name}: xi must have length {n}")
    if any(v == 0.0 for v in xi):
        raise ValueError(f"{name}: every vorticity must be nonzero")
    s = SymplecticStructure(n, xi)
    p1, p2, moment, h = _vortex_members(xi)
    inv = InvariantSet(s, ("P1", "P2", "P", "H"), (p1, p2, moment, h))
    return SystemDefinition(name, s, h, inv)


def _build_vortices3(params: Mapping | None) -> SystemDefinition:
    return _build_vortices(params, name="vortices3", fixed_n=3)


def _build_central_field(params: Mapping | None) -> SystemDefinition:
    values = _merge_params({"potential": "r2/2"}, params, "central_field")
    pot_text = str(values["potential"])
    try:
        pot = parse(pot_text, 0)
    except ParseError as exc:
        raise ValueError(f"central_field: bad potential: {exc}") from None
    names = parameters_of(pot)
    if "r2" not in names:
        raise ValueError(
            "central_field: the potential must use the symbol r2 "
            "(squared radius)")
    if names - {"r2"}:
        raise ValueError(
            f"central_field: unbound potential symbols {sorted(names - {'r2'})}")
    s = SymplecticStructure.canonical(3)
    r2 = q(1) ** 2 + q(2) ** 2 + q(3) ** 2
    h = simplify((p(1) ** 2 + p(2) ** 2 + p(3) ** 2) / 2
                 + substitute_param(pot, "r2", r2))
    p1 = simplify(p(2) * q(3) - p(3) * q(2))
    p2 = simplify(p(3) * q(1) - p(1) * q(3))
    p3 = simplify(p(1) * q(2) - p(2) * q(1))
    inv = InvariantSet(s, ("H", "P1", "P2", "P3"), (h, p1, p2, p3))
    return SystemDefinition("central_field", s, h, inv)


def _build_three_particles(params: Mapping | None) -> SystemDefinition:
    values = _merge_params({"g": 1.0, "masses": (1.0, 1.0, 1.0)}, params,
                           "three_particles")
    g = float(values["g"])
    masses = tuple(float(m) for m in values["masses"])
    if len(masses) != 3 or any(m <= 0.0 for m in masses):
        raise ValueError("three_particles: need 3 positive masses")
    if g == 0.0:
        raise ValueError("three_particles: coupling g must be nonzero")
    s = SymplecticStructure.canonical(3)
    kinetic = _chain("+", [p(j) ** 2 / const(2.0 * masses[j - 1])
                           for j in (1, 2, 3)])
    pairs = []
    for i in (1, 2):
        for j in range(i + 1, 4):
            pairs.append(const(g) / (q(i) - q(j)) ** 2)
    h1 = simplify(kinetic + _chain("+", pairs))
    h2 = simplify(_chain("+", [q(j) * p(j) for j in (1, 2, 3)]))
    h3 = simplify(_chain("+", [p(j) for j in (1, 2, 3)]))
    inv = InvariantSet(s, ("H1", "H2", "H3"), (h1, h2, h3))
    return SystemDefinition("three_particles", s, h1, inv)


def _build_drift_control(params: Mapping | None) -> SystemDefinition:
    _merge_params({}, params, "drift_control")
    s = SymplecticStructure.canonical(1)
    h = simplify((p(1) ** 2 + q(1) ** 2) / 2)
    inv = InvariantSet(s, ("H", "F"), (h, q(1)))
    return SystemDefinition("drift_control", s, h, inv,
                            non_invariant=frozenset({"F"}))


_BUILDERS: dict[str, Callable] = {
    "oscillator": _build_oscillator,
    "uncoupled_oscillators": _build_uncoupled,
    "quartic_oscillator": _build_quartic,
    "vortices3": _build_vortices3,
    "vortices": _build_vortices,
    "central_field": _build_central_field,
    "three_particles": _build_three_particles,
    "drift_control": _build_drift_control,
}


def get_system(name: str, params: Mapping | None = None) -> SystemDefinition:
    """Build a catalog system by name with optional parameter overrides."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown system {name!r}; available: {sorted(_BUILDERS)}")
    return _BUILDERS[name](params)


def list_systems() -> list[str]:
    """Catalog names, in a fixed order."""
    return list(_BUILDERS)


def probe_points(system: SystemDefinition, count: int = 5,
                 seed: int | None = None) -> list[EvalPoint]:
    """Seeded probe points valid for every member and pairwise bracket.

    Points listed in the definition itself come first; the remainder is
    sampled from the seeded band distribution.
    """
    if seed is None:
        seed = system.seed
    points = list(system.suggested_probes[:count])
    missing = count - len(points)
    if missing > 0:
        points.extend(system.invariants.sample_points(missing, seed))
    return points
