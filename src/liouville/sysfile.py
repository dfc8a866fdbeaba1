"""Reading and writing of the line-oriented system-file format.

The format has four sections.  Keys and values are separated by the first
``=`` on the line; ``#`` starts a comment that runs to the end of the line,
and blank lines are skipped.

    [system]
    name = vortices3
    dimension = 3
    weights = 1, 1, -2          # optional, canonical weights 1 if omitted
    seed = 42                   # optional
    non_invariant = F           # optional comma list of control members
    param.g = 1                 # optional expression parameter bindings
    hamiltonian = <expression>

    [invariants]
    P1 = <expression>           # order is preserved
    ...

    [chart]                     # optional
    h_dim = 1
    param.omega = 1             # optional chart parameters
    residual_1 = w^2 + lam^2 - 2*h_1
    bracket_1 = -8, 8           # turning-point search interval
    branch_1 = -1               # optional, default +1

    [probes]                    # optional
    point = 0.5, 1, 0 | -0.25, 2, 0     # q values | p values

Errors carry the offending line number.  The number-list and point readers
also parse the command line's ``--h`` and ``--from`` values, whose errors
carry no line.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .expr import (
    EvalPoint, ParseError, _fmt_number, parameters_of, parse, to_string,
)
from .symplectic import SymplecticStructure
from .algebra import InvariantSet
from .action_angle import ChartDegree, SeparableChart
from .catalog import SystemDefinition, probe_points

__all__ = [
    "SystemFileError", "export_system_file", "load_system_file",
    "loads_system",
]

_SECTIONS = ("system", "invariants", "chart", "probes")


class SystemFileError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class _Entry:
    key: str
    value: str
    line: int


def _split_sections(text: str) -> dict[str, list[_Entry]]:
    sections: dict[str, list[_Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise SystemFileError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise SystemFileError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SystemFileError("content before the first section", lineno)
        if "=" not in line:
            raise SystemFileError("expected key = value", lineno)
        key, _, value = line.partition("=")
        sections[current].append(_Entry(key.strip(), value.strip(), lineno))
    if "system" not in sections:
        raise SystemFileError("missing [system] section")
    if "invariants" not in sections or not sections["invariants"]:
        raise SystemFileError("missing or empty [invariants] section")
    return sections


def _int(e: _Entry, what: str) -> int:
    try:
        return int(e.value)
    except ValueError:
        raise SystemFileError(f"bad {what}: {e.value!r}", e.line) from None


def _float(text: str, what: str, line: int | None = None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SystemFileError(f"bad {what}: {text!r}", line) from None
    if not math.isfinite(value):
        raise SystemFileError(f"{what} must be finite, got {text!r}", line)
    return value


def _float_list(text: str, what: str, line: int | None = None) -> list[float]:
    """Finite numbers written ``a, b, ..``; ``line`` is None for a flag."""
    items = [s.strip() for s in text.split(",")]
    if any(not s for s in items):
        raise SystemFileError(f"bad {what}: {text!r}", line)
    return [_float(s, what, line) for s in items]


def _point(text: str, n: int, what: str, line: int | None = None) -> EvalPoint:
    """A phase-space point written ``q1, .. | p1, ..`` with n of each."""
    if "|" not in text:
        raise SystemFileError(f"{what}s are written q1, .. | p1, ..", line)
    q_text, _, p_text = text.partition("|")
    qs = _float_list(q_text, what, line)
    ps = _float_list(p_text, what, line)
    if len(qs) != n or len(ps) != n:
        raise SystemFileError(f"{what} needs {n} q and {n} p values", line)
    return EvalPoint(tuple(qs), tuple(ps))


def _parse_expr(text: str, dimension: int, line: int):
    try:
        return parse(text, dimension)
    except ParseError as exc:
        raise SystemFileError(f"bad expression: {exc}", line) from None


def _unique(entries: list[_Entry], section: str) -> dict[str, _Entry]:
    out: dict[str, _Entry] = {}
    for e in entries:
        if e.key in out:
            raise SystemFileError(
                f"duplicate key {e.key!r} in [{section}]", e.line)
        out[e.key] = e
    return out


def _build_chart(entries: list[_Entry]) -> SeparableChart:
    table = _unique(entries, "chart")
    if "h_dim" not in table:
        raise SystemFileError("chart needs h_dim",
                              entries[0].line if entries else None)
    h_dim = _int(table.pop("h_dim"), "h_dim")
    params = {}
    stores: dict[str, dict[int, _Entry]] = {
        "residual": {}, "bracket": {}, "branch": {}}
    for key, e in table.items():
        if key.startswith("param."):
            params[key[6:]] = _float(e.value, "chart parameter", e.line)
            continue
        match = re.fullmatch(r"(residual|bracket|branch)_(.*)", key)
        if match is None:
            raise SystemFileError(f"unknown chart key {key!r}", e.line)
        try:
            j = int(match[2])
        except ValueError:
            j = None
        # degrees count from 1; a stray bracket_0 or branch_0 is reported
        # below as a cycle key without a residual
        if j is None or (j < 1 and match[1] == "residual"):
            raise SystemFileError(f"bad degree index in {key!r}", e.line)
        stores[match[1]][j] = e
    residuals, brackets, branches = stores.values()
    if not residuals:
        raise SystemFileError("chart needs residual_1")
    n = max(residuals)
    degrees = []
    for j in range(1, n + 1):
        if j not in residuals:
            raise SystemFileError(f"chart is missing residual_{j}")
        e = residuals[j]
        residual = _parse_expr(e.value, 0, e.line)
        bracket = None
        if j in brackets:
            vals = _float_list(brackets[j].value, "bracket", brackets[j].line)
            if len(vals) != 2:
                raise SystemFileError("bracket needs two values",
                                      brackets[j].line)
            bracket = (vals[0], vals[1])
        sign = 1
        if j in branches:
            text = branches[j].value
            if text not in ("1", "-1", "+1"):
                raise SystemFileError(f"branch must be 1 or -1, got {text!r}",
                                      branches[j].line)
            sign = int(text)
        if bracket is None:
            raise SystemFileError(f"chart is missing bracket_{j}", e.line)
        try:
            degrees.append(ChartDegree(residual, bracket=bracket,
                                       branch_sign=sign))
        except ValueError as exc:
            raise SystemFileError(f"degree {j}: {exc}", e.line) from None
    extra = set(brackets) | set(branches)
    extra -= set(range(1, n + 1))
    if extra:
        raise SystemFileError(
            f"chart cycle keys without residual: {sorted(extra)}")
    try:
        return SeparableChart(tuple(degrees), h_dim=h_dim, params=params)
    except ValueError as exc:
        raise SystemFileError(f"bad chart: {exc}") from None


def loads_system(text: str, name_hint: str = "system") -> SystemDefinition:
    """Parse system-file text into a fully bound SystemDefinition."""
    sections = _split_sections(text)
    table = _unique(sections["system"], "system")
    params: dict[str, float] = {}
    for key in list(table):
        if key.startswith("param."):
            e = table.pop(key)
            params[key[6:]] = _float(e.value, "parameter", e.line)
    known = {"name", "dimension", "weights", "seed", "non_invariant",
             "hamiltonian"}
    for key, e in table.items():
        if key not in known:
            raise SystemFileError(f"unknown [system] key {key!r}", e.line)
    if "dimension" not in table:
        raise SystemFileError("[system] needs dimension")
    e = table["dimension"]
    n = _int(e, "dimension")
    if n < 1:
        raise SystemFileError("dimension must be positive", e.line)
    if "weights" in table:
        e = table["weights"]
        weights = _float_list(e.value, "weights", e.line)
        if len(weights) != n:
            raise SystemFileError(
                f"expected {n} weights, got {len(weights)}", e.line)
        try:
            structure = SymplecticStructure(n, tuple(weights))
        except ValueError as exc:
            raise SystemFileError(str(exc), e.line) from None
    else:
        structure = SymplecticStructure.canonical(n)
    seed = _int(table["seed"], "seed") if "seed" in table else 42
    if seed < 0:
        raise SystemFileError("seed must be non-negative", table["seed"].line)
    name = table["name"].value if "name" in table else name_hint
    if "hamiltonian" not in table:
        raise SystemFileError("[system] needs hamiltonian")
    e = table["hamiltonian"]
    hamiltonian = _parse_expr(e.value, n, e.line)
    unbound = parameters_of(hamiltonian) - set(params)
    if unbound:
        raise SystemFileError(
            f"Hamiltonian uses unbound parameters: {sorted(unbound)}", e.line)
    names = []
    exprs = []
    for entry in sections["invariants"]:
        if entry.key in names:
            raise SystemFileError(
                f"duplicate invariant {entry.key!r}", entry.line)
        names.append(entry.key)
        exprs.append(_parse_expr(entry.value, n, entry.line))
    non_invariant: frozenset = frozenset()
    if "non_invariant" in table:
        e = table["non_invariant"]
        flagged = [s.strip() for s in e.value.split(",") if s.strip()]
        unknown = set(flagged) - set(names)
        if unknown:
            raise SystemFileError(
                f"non_invariant names not in [invariants]: {sorted(unknown)}",
                e.line)
        non_invariant = frozenset(flagged)
    try:
        invariants = InvariantSet(structure, tuple(names), tuple(exprs),
                                  params=params)
    except ValueError as exc:
        # the line of the first member reading an unbound parameter, looked
        # up only here, so a valid file walks each member once
        line = next((entry.line for entry, expr in
                     zip(sections["invariants"], exprs)
                     if parameters_of(expr) - set(params)), None)
        raise SystemFileError(str(exc), line) from None
    chart = None
    if "chart" in sections:
        chart = _build_chart(sections["chart"])
    probes = []
    for entry in sections.get("probes", []):
        if entry.key != "point":
            raise SystemFileError(
                f"unknown [probes] key {entry.key!r}", entry.line)
        probes.append(_point(entry.value, n, "probe point", entry.line))
    return SystemDefinition(
        name=name, structure=structure, hamiltonian=hamiltonian,
        invariants=invariants, seed=seed, chart=chart,
        non_invariant=non_invariant, suggested_probes=tuple(probes))


def load_system_file(path: str) -> SystemDefinition:
    """Read and parse a system file; errors carry line numbers."""
    return _read_system_file(path)[0]


def _read_system_file(path: str) -> tuple[SystemDefinition, bytes]:
    """The system in ``path`` and the bytes it was parsed from, read once,
    since a pipe delivers its bytes only once."""
    with open(path, "rb") as fh:
        data = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return loads_system(data.decode("utf-8"), name_hint=stem), data


def _numbers(values) -> str:
    return ", ".join(_fmt_number(v) for v in values)


def export_system_file(system: SystemDefinition) -> str:
    """Render a definition in the system-file format, with three probe
    points; :func:`loads_system` reads the text back."""
    s = system.structure
    lines = [
        "[system]",
        f"name = {system.name}",
        f"dimension = {s.n}",
        f"weights = {_numbers(s.weights)}",
        f"seed = {system.seed}",
    ]
    if system.non_invariant:
        lines.append(
            f"non_invariant = {', '.join(sorted(system.non_invariant))}")
    params = system.invariants.params
    for key in sorted(params):
        lines.append(f"param.{key} = {_fmt_number(params[key])}")
    lines.append(f"hamiltonian = {to_string(system.hamiltonian)}")
    lines.append("")
    lines.append("[invariants]")
    for name, e in zip(system.invariants.names, system.invariants.exprs):
        lines.append(f"{name} = {to_string(e)}")
    chart = system.chart
    if chart is not None:
        lines.append("")
        lines.append("[chart]")
        lines.append(f"h_dim = {chart.h_dim}")
        for key in sorted(chart.params):
            lines.append(f"param.{key} = {_fmt_number(chart.params[key])}")
        for j, deg in enumerate(chart.degrees, start=1):
            lines.append(f"residual_{j} = {to_string(deg.residual)}")
            lines.append(f"bracket_{j} = {_numbers(deg.bracket)}")
            if deg.branch_sign != 1:
                lines.append(f"branch_{j} = {deg.branch_sign}")
    lines.append("")
    lines.append("[probes]")
    for pt in probe_points(system, 3):
        lines.append(f"point = {_numbers(pt.q)} | {_numbers(pt.p)}")
    return "\n".join(lines) + "\n"
