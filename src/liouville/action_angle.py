"""Action variables, time maps, and frequencies for separable charts.

A separable chart carries one residual expression per degree of freedom,
R_j(lam, w) = 0, defining the branch function w_j(lam; h).  The reserved
symbols are ``lam`` and ``w`` for the degree's own pair and ``h_1..h_k``
for the level parameters.  A residual has the form of a separated natural
Hamiltonian, R = a*w^2 + F with a constant a > 0 and F free of w, so each
branch value is w = sign * sqrt(-F / a).  F may read lam, the h_i, the
chart's fixed parameters and another degree's state as ``lam_s`` /
``w_s``; the last breaks separability, and :func:`picard_fuchs_residual`
exists to detect exactly this.

A cycle is one allowed interval, F < 0, between two turning points; one
search finds it, and at its width a least F <= ROOT_TOL is a degenerate
cycle.  A quadrature node with no real branch lies in a gap between two
allowed intervals, which the search's grid missed, and is refused.

Every level derivative is an integral of the branch's own rate dw/dh_i =
-R_{h_i} / R_w = -F_{h_i} / (2a*w) (the implicit-function theorem); a
turning-point end adds nothing, since w vanishes there.  Time maps sum
these integrals over the given intervals, and the frequency matrix
inverts d gamma_i / d h_j = (1/pi) * integral of d|w_i|/dh_j over degree
i's cycle, so 2 pi / omega equals twice the half-cycle time.

Branch integrals run in theta, lam = mid + halfwidth*sin(theta).  Over a
cycle (one turning point to the other) both w and -F_h/(2a*w), times
dlam/dtheta, continue to periodic analytic integrands, so one nested
trapezoid rule integrates the action and reuses every node when it
doubles; each doubling's fresh nodes are the midpoint rule of the last
step, which integrates the rates on the action's own branch solves.  An
interval with a fixed interior end uses Gauss-Legendre doubling.  A
chart memoises each cycle it resolves, per level, with the degree's F
and F_{h_i} compiled there as functions of lam alone and its integrals
once computed, so actions, turning points, frequencies and time maps at
one level share one compile, one search and one quadrature per cycle;
an interval with a fixed end is integrated on each call.
"""
from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    BinOp, Call, Const, DomainError, Expr, Param, Pow, UnboundSymbolError,
    _children, _postorder, _substitute, _symbols, compile_functions,
    gradient, p, parameters_of, q, simplify,
)

__all__ = [
    "ChartError", "NoRealRootError", "QuadratureError",
    "ChartDegree", "SeparableChart", "ActionSpectrum",
    "solve_branch", "turning_points", "action_variable", "time_map",
    "frequency_matrix", "action_spectrum", "picard_fuchs_residual",
]

ROOT_TOL = 1e-10
QUAD_ABS_TOL = 1e-14
QUAD_REL_TOL = 2e-13
# a rate integral whose step, in units of its tolerance, is at most this
# and no smaller than the last step has reached its roundoff floor
QUAD_NOISE_STEPS = 1e4
COND_LIMIT = 1e8
_GL_START = 16
_TRAPEZOID_START = 8
_N_MAX = 4096
_MEMO_CAP = 1024

_H_RE = re.compile(r"^h_([1-9][0-9]*)$")
_FOREIGN_RE = re.compile(r"^(lam|w)_([1-9][0-9]*)$")


class ChartError(Exception):
    pass


class NoRealRootError(ChartError):
    """No real branch value at the requested lam (classically forbidden)."""


class QuadratureError(ChartError):
    pass


_TWO_WELLS = ("the bracket holds more than one allowed interval; narrow it "
              "to one cycle")
_RULE = "residual must be a*w^2 + F with a constant a > 0 and F free of w"
_W = Param("w")


def _derive(residual: Expr, names: frozenset[str]) -> tuple[Expr, ...]:
    """(R, dR/dw, dR/dh_i for each h_i of ``names``, by i) over the
    compiled state (q1, p1) = (lam, w)."""
    reads = sorted((name for name in names if _H_RE.match(name)),
                   key=lambda name: int(name[2:]))
    r = _substitute(residual, {Param("lam"): q(1), _W: p(1)})
    return (r, *gradient(r, ("p1", *reads)))


def _stackel_a(residual: Expr, r_w: Expr) -> float:
    """a of R = a*w^2 + F, F free of w, from R's own tree and its R_w.

    w may sit in R only where R stays a polynomial in w: in no function
    call, no denominator and no power but 0, 1, 2, ..., so no term that
    simplifies away can hide a hole in w.  Then R_w must read w alone, its
    derivative in w simplify to the constant 2a with a > 0, and R_w vanish
    at w = 0.  ValueError otherwise.
    """
    has_w: set[int] = set()
    for node in _postorder((residual,)):
        if node != _W and not any(id(c) in has_w for c in _children(node)):
            continue
        has_w.add(id(node))
        cls = type(node)
        if cls is Call or cls is BinOp and node.op == "/" and \
                id(node.right) in has_w or cls is Pow and \
                not (node.exponent >= 0.0 and node.exponent.is_integer()):
            raise ValueError(f"{_RULE}; w may not sit in a function, a "
                             "denominator or a fractional or negative power")
    if _symbols((r_w,)) == ({"p1"}, set()):
        slope = gradient(r_w, ("p1",))[0]
        if type(slope) is Const and 0.0 < slope.value < math.inf and \
                simplify(_substitute(r_w, {p(1): Const(0.0)})) == Const(0.0):
            return 0.5 * slope.value
    raise ValueError(_RULE)


@dataclass(frozen=True)
class ChartDegree:
    """One degree of freedom: residual R(lam, w) and the interval
    ``bracket``, holding one cycle, in which its turning points are found.

    R must be a*w^2 + F with a constant a > 0 and F free of w (see
    :func:`_stackel_a`); F may read lam, the level symbols, the chart's
    fixed parameters and other degrees' lam_s / w_s.  The branch selector
    picks the root sign, a complete selector since R is even in w.
    ``_names`` holds the residual's symbol names, walked once, ``_a`` its
    a, ``_trees`` F, F_{h_i}: R, R_{h_i} of :func:`_derive` at w = 0.
    """

    residual: Expr
    bracket: tuple[float, float]
    branch_sign: int = 1

    def __post_init__(self):
        if self.branch_sign not in (1, -1):
            raise ValueError("branch_sign must be +1 or -1")
        a, b = self.bracket
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("bracket must be a finite increasing pair")
        object.__setattr__(self, "bracket", (float(a), float(b)))
        names = frozenset(parameters_of(self.residual))
        if "w" not in names:
            raise ValueError("residual must involve the symbol w")
        r, r_w, *r_h = _derive(self.residual, names)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_a", _stackel_a(self.residual, r_w))
        object.__setattr__(self, "_trees", tuple(
            _substitute(t, {p(1): Const(0.0)}) for t in (r, *r_h)))


@dataclass(frozen=True)
class SeparableChart:
    """Degrees j=1..n with level symbols h_1..h_dim and fixed parameters.

    ``levels[j - 1]`` lists the i of every h_i degree j reads, and
    ``couplings[j - 1]`` every degree s whose lam_s / w_s it reads, both
    ascending.  A fixed parameter may not take a reserved name.

    A chart is frozen, so it keeps one memo of what depends only on the
    chart and a level: each resolved cycle, keyed by (j, level bits), so
    -0.0 and 0.0 are different levels.  A cycle keeps its action and rate
    integrals once computed.  A failed cycle search is not kept; it runs
    again on the next call.  The memo is emptied when it reaches
    _MEMO_CAP entries.
    """

    degrees: tuple[ChartDegree, ...]
    h_dim: int
    params: Mapping[str, float] | None = None
    levels: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                 compare=False)
    couplings: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if not self.degrees:
            raise ValueError("chart needs at least one degree")
        if self.h_dim < 1:
            raise ValueError("h_dim must be positive")
        fixed = dict(self.params or {})
        for name in fixed:
            if name in ("lam", "w") or _H_RE.match(name) or \
                    _FOREIGN_RE.match(name):
                raise ValueError(
                    f"chart parameter {name!r} takes a reserved name")
        object.__setattr__(self, "params", fixed)
        n = len(self.degrees)
        levels, couplings = [], []
        for j, deg in enumerate(self.degrees, start=1):
            reads, coupled = set(), set()
            for name in sorted(deg._names):
                if name in ("lam", "w") or name in fixed:
                    continue
                m = _H_RE.match(name)
                if m:
                    if int(m.group(1)) > self.h_dim:
                        raise ValueError(f"degree {j}: {name} exceeds h_dim")
                    reads.add(int(m.group(1)))
                    continue
                m = _FOREIGN_RE.match(name)
                if m:
                    s = int(m.group(2))
                    if s == j:
                        raise ValueError(
                            f"degree {j} must use lam/w for its own state, "
                            f"not {name}")
                    if s > n:
                        raise ValueError(f"degree {j}: {name} has no degree")
                    coupled.add(s)
                    continue
                raise ValueError(f"degree {j}: unknown symbol {name!r}")
            levels.append(tuple(sorted(reads)))
            couplings.append(tuple(sorted(coupled)))
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "couplings", tuple(couplings))
        object.__setattr__(self, "_cycles", {})

    @property
    def n(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class ActionSpectrum:
    gammas: tuple[float, ...]
    omega: np.ndarray
    h: tuple[float, ...]


def _level(chart: SeparableChart, h: Sequence[float],
           square_for: str | None = None) -> list[float]:
    """h as floats, one per level symbol; with ``square_for`` (the caller's
    name) the chart must also have one level symbol per degree."""
    hv = [float(v) for v in h]
    if len(hv) != chart.h_dim:
        raise ValueError(f"expected {chart.h_dim} level values, got {len(hv)}")
    if not all(map(math.isfinite, hv)):
        raise ValueError(f"level values must be finite, got {hv}")
    if square_for is not None and chart.h_dim != chart.n:
        raise ValueError(f"{square_for} needs one level symbol per degree")
    return hv


def _bits(values: Sequence[float]) -> bytes:
    """The float64 bits of ``values``: a memo key that tells -0.0 from 0.0."""
    return struct.pack(f"{len(values)}d", *values)


def _compile_degree(chart: SeparableChart, j: int, hv: Sequence[float],
                    env: Mapping[str, float] | None = None
                    ) -> tuple[Callable, Callable]:
    """Degree j's (F,) and rates (dF/dh_i for each h_i it reads), each
    compiled as a function of (lam,) at the level hv (already checked by
    :func:`_level`), with ``env`` binding other degrees' states."""
    if not 1 <= j <= chart.n:
        raise ValueError(f"degree index {j} out of range 1..{chart.n}")
    trees = chart.degrees[j - 1]._trees
    params = dict(chart.params)
    params.update((f"h_{i}", v) for i, v in enumerate(hv, start=1))
    if env:
        params.update(env)
    try:
        return (compile_functions(trees[:1], 1, params),
                compile_functions(trees[1:], 1, params))
    except UnboundSymbolError as exc:
        raise ChartError(
            f"degree {j} references another degree's state ({exc}); only "
            "picard_fuchs_residual evaluates such a degree") from None


# ---------------------------------------------------------------------------
# root solving on one branch


def _residual(g, lam: float) -> float:
    """F(lam) = R(lam, 0) from a degree's compiled ``g``; a DomainError is
    NoRealRootError."""
    try:
        return g((lam,))[0]
    except DomainError as exc:
        raise NoRealRootError(
            f"residual undefined at lam={lam:.6g}, w=0: {exc}") from None


def _branch_value(deg: ChartDegree, g, lam: float, sign: int) -> float:
    """w on the branch of ``sign`` at lam, with ``g`` the F of ``deg``:
    sign * sqrt(-F / a), or the tangency root 0 where -F / a < 0 but
    |F| <= ROOT_TOL, which makes turning points usable as integration ends
    in floating point.  A DomainError in F is NoRealRootError."""
    r0 = _residual(g, lam)
    if r0 < 0.0:
        return sign * math.sqrt(-r0 / deg._a)
    if r0 <= ROOT_TOL:
        return 0.0
    raise NoRealRootError(
        f"no real root at lam={lam:.6g} (min |R| = {r0:.3g})")


def _branch_rates(deg: ChartDegree, rates, lam: float,
                  w: float) -> list[float]:
    """dw/dh_i = -F_{h_i} / (2a*w) at the branch point (lam, w) of ``deg``,
    for each h_i of ``rates``, its rates from :func:`_compile_degree`."""
    try:
        f_h = rates((lam,))
    except DomainError as exc:
        raise QuadratureError(
            f"no level derivative at lam={lam:.6g}: {exc}") from None
    if (r_w := 2.0 * deg._a * w) == 0.0:
        raise QuadratureError(f"dR/dw vanishes on the branch at lam={lam:.6g}")
    return [-v / r_w for v in f_h]


def solve_branch(chart: SeparableChart, j: int, lam: float,
                 h: Sequence[float]) -> float:
    """Branch value w_j(lam; h) with the degree's branch sign, |R| <= 1e-10."""
    hv = _level(chart, h)
    g, _ = _compile_degree(chart, j, hv)
    deg = chart.degrees[j - 1]
    return _branch_value(deg, g, float(lam), deg.branch_sign)


# ---------------------------------------------------------------------------
# turning points


def turning_points(chart: SeparableChart, j: int,
                   h: Sequence[float]) -> tuple[float, float]:
    """Cycle endpoints (lam-, lam+) where the branch pair collapses, w -> 0.

    From :func:`_find_cycle`: each sits on the outside of the sign change
    of F = R(lam, 0), where solve_branch lands on the tangency root, so
    |w(lam+-)| is at the floating-point floor.  A gap between two allowed
    intervals that falls between two grid points shows only in quadrature.
    """
    return tuple(_cycle(chart, j, _level(chart, h))[2:4])


def _cycle(chart: SeparableChart, j: int, hv: Sequence[float]) -> list:
    """[degree j's F and rates compiled at hv, lam-, lam+, the cycle's
    quadrature or None until computed]: the one search for turning
    points, behind :func:`turning_points`, run once per chart, degree and
    level."""
    key = (j, _bits(hv))
    found = chart._cycles.get(key)
    if found is None:
        g, rates = _compile_degree(chart, j, hv)
        found = [g, rates, *_find_cycle(g, *chart.degrees[j - 1].bracket),
                 None]
        if len(chart._cycles) >= _MEMO_CAP:
            chart._cycles.clear()
        chart._cycles[key] = found
    return found


def _find_cycle(g, a: float, b: float) -> tuple[float, float]:
    """(lam-, lam+) in the bracket [a, b] of the F compiled as ``g``: the
    first and last of 129 points of [a, b] where F < 0 (where the pair
    +-|w| exists), each bisected against its outer neighbour.  Those points
    must be contiguous: a bracket holding two allowed intervals (two wells)
    is refused, unless the gap between them falls between two grid points.
    With no such point, the cell between the neighbours of the least F is
    scanned the same way, down to the width of :func:`_narrow`; a least F
    there <= ROOT_TOL, the tangency rule of :func:`_branch_value`, is a
    degenerate cycle.  A DomainError in F is NoRealRootError."""
    while True:
        grid = np.linspace(a, b, 129).tolist()
        vals = [_residual(g, x) for x in grid]
        neg = [i for i, v in enumerate(vals) if v < 0.0]
        if neg:
            first, last = neg[0], neg[-1]
            if first == 0 or last == len(grid) - 1:
                raise NoRealRootError("bracket endpoints must lie outside "
                                      "the classically allowed region")
            if last - first + 1 != len(neg):
                raise NoRealRootError(_TWO_WELLS)
            return (_bisect_sign(g, grid[first - 1], grid[first]),
                    _bisect_sign(g, grid[last + 1], grid[last]))
        i = vals.index(min(vals))
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        if _narrow(a, b):
            if vals[i] <= ROOT_TOL:
                return grid[i], grid[i]
            raise NoRealRootError("no sign change in bracket")


def _narrow(a: float, b: float) -> bool:
    """Whether [a, b] is as narrow as the turning-point searches go; two
    adjacent floats always are, so a search that shrinks [a, b] ends."""
    return abs(a - b) <= 2e-16 * (1.0 + abs(a) + abs(b))


def _bisect_sign(g, outside: float, inside: float) -> float:
    """Shrink [outside, inside] across the sign change of F; the caller has
    read F there as not < 0 and < 0.  Return the outside end; a
    DomainError is NoRealRootError."""
    while not _narrow(outside, inside):
        mid = 0.5 * (outside + inside)
        if _residual(g, mid) < 0.0:
            inside = mid
        else:
            outside = mid
    return outside


# ---------------------------------------------------------------------------
# quadrature on one branch


@functools.cache
def _gl(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return tuple(tuple(v.tolist()) for v in np.polynomial.legendre.leggauss(n))


def _branch_nodes(deg: ChartDegree, g, rates, a: float, b: float, sign: int):
    """The quadrature node of [a, b] at x in (-1, 1), under the
    substitution lam = mid + halfwidth*sin(theta), theta = x*pi/2, which
    turns the inverse-square-root behaviour of dlam near a turning point
    into an analytic integrand in x.

    node(x, weight, acc) solves w on ``deg``'s branch of ``sign`` with
    :func:`_branch_value`, ``g`` and ``rates`` compiled at one level, adds
    weight * dw/dh_i * dlam/dx to acc[i] for each h_i of ``rates`` unless
    acc is None, and returns weight * w * dlam/dx."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)

    def node(x: float, weight: float, acc: list[float] | None) -> float:
        theta = 0.5 * math.pi * x
        lam = mid + hw * math.sin(theta)
        try:
            w = _branch_value(deg, g, lam, sign)
        except NoRealRootError as exc:
            raise NoRealRootError(f"{_TWO_WELLS} ({exc})") from None
        if acc is not None:
            dlam = weight * hw * 0.5 * math.pi * math.cos(theta)
            for i, v in enumerate(_branch_rates(deg, rates, lam, w)):
                acc[i] += v * dlam
        return weight * w * hw * 0.5 * math.pi * math.cos(theta)

    return node


def _settled(new: Sequence[float], old: Sequence[float],
             last: float | None) -> tuple[bool, float]:
    """(whether a doubling rule for rate integrals stops at ``new``, its
    step from ``old`` in units of max(QUAD_ABS_TOL, QUAD_REL_TOL *
    (1 + |new|))), ``last`` the step before.  The rule stops under one
    unit, or at the roundoff floor, where the step stops shrinking:
    roundoff in F_h divided by a small 2a*w near a turning point sets it."""
    step = max((abs(x - y) / max(QUAD_ABS_TOL, QUAD_REL_TOL * (1.0 + abs(x)))
                for x, y in zip(new, old)), default=0.0)
    return step <= 1.0 or (last is not None
                           and last <= step <= QUAD_NOISE_STEPS), step


def _integrate_cycle(deg: ChartDegree, g, rates, m: int, a: float,
                     b: float) -> tuple[float, tuple | str]:
    """(integral of |w| from a to b, the integrals of d|w|/dh_i over it for
    the m h_i of ``rates``, or why they do not exist) on the + branch of
    ``deg``, with both ends turning points.

    Trapezoid sums of w dlam over n = _TRAPEZOID_START, 2n, ... _N_MAX
    intervals in x: the integrand vanishes at both ends and continues to a
    periodic one, so the rule converges exponentially, and each doubling
    halves the last sum and adds only the new midpoints.  The action stops
    at the first step change under max(QUAD_ABS_TOL, QUAD_REL_TOL *
    (1 + |integral|)).  The new midpoints are the midpoint rule of the
    last n, which converges the same way on the rates' integrand; that one
    need not vanish at the ends, which the rule never reads.  The rates
    stop by :func:`_settled`; doubling goes on for whichever has not
    stopped.
    """
    node = _branch_nodes(deg, g, rates, a, b, 1)
    n, nodes = _TRAPEZOID_START, range(1, _TRAPEZOID_START)
    total = integral = rated = mids = step = None
    while n <= _N_MAX:
        fresh, acc = 0.0, [0.0] * m
        for k in nodes:
            fresh += node(-1.0 + 2.0 * k / n, 2.0 / n,
                          acc if rated is None and k % 2 else None)
        if total is None:
            total = fresh
        else:
            before, total = total, 0.5 * total + fresh
            if integral is None and abs(total - before) <= max(
                    QUAD_ABS_TOL, QUAD_REL_TOL * (1.0 + abs(total))):
                integral = total
        if rated is None:
            # a node's midpoint weight for n / 2 intervals is 4 / n
            before, mids = mids, tuple(2.0 * v for v in acc)
            if before is not None:
                done, step = _settled(mids, before, step)
                rated = mids if done else None
        if integral is not None and rated is not None:
            return integral, rated
        n *= 2
        nodes = range(1, n, 2)
    if integral is None:
        raise QuadratureError("trapezoid doubling did not converge")
    return integral, "trapezoid doubling of the rates did not converge"


def _cycle_quadrature(chart: SeparableChart, j: int, hv: Sequence[float],
                      rates: bool = False) -> float | tuple[float, ...]:
    """integral of |w_j| over degree j's cycle at hv, or with ``rates`` the
    integrals of d|w_j|/dh_i over it for each h_i the degree reads, from
    :func:`_integrate_cycle`, run once per cycle and kept in its memo
    entry."""
    found = _cycle(chart, j, hv)
    if found[4] is None:
        a, b = found[2:4]
        found[4] = (0.0, "the level has a degenerate cycle") if a == b else \
            _integrate_cycle(chart.degrees[j - 1], *found[:2],
                             len(chart.levels[j - 1]), a, b)
    if not rates:
        return found[4][0]
    if isinstance(found[4][1], str):
        raise QuadratureError(found[4][1])
    return found[4][1]


def _interval_rates(chart: SeparableChart, s: int, hv: Sequence[float],
                    a: float, b: float) -> list[float]:
    """integral from a to b of dw_s/dh_i on degree s's branch, for each h_i
    the degree reads: Gauss-Legendre sums over n = _GL_START, 2n, ...
    _N_MAX nodes, stopped by :func:`_settled`."""
    g, rates = _cycle(chart, s, hv)[:2]
    deg = chart.degrees[s - 1]
    node = _branch_nodes(deg, g, rates, a, b, deg.branch_sign)
    n, sums, step = _GL_START, None, None
    while n <= _N_MAX:
        last, sums = sums, [0.0] * len(chart.levels[s - 1])
        for x, gw in zip(*_gl(n)):
            node(x, gw, sums)
        if last is not None:
            done, step = _settled(sums, last, step)
            if done:
                return sums
        n *= 2
    raise QuadratureError("Gauss-Legendre doubling did not converge")


def action_variable(chart: SeparableChart, j: int, h: Sequence[float]) -> float:
    """Action gamma_j = (1/2pi) * integral of w dlam around the cycle at
    the level h, i.e. (1/pi) * integral of |w| between the turning points.
    """
    # the cycle is integrated on the + branch, where every root is >= +0.0
    return _cycle_quadrature(chart, j, _level(chart, h)) / math.pi


# ---------------------------------------------------------------------------
# time maps and frequencies


def time_map(chart: SeparableChart, h: Sequence[float],
             mu: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """Times t_j = sum_s integral d lam dw_s/dh_j over the given intervals.

    ``mu`` holds one (start, end) pair per degree; an equal pair
    contributes nothing, and t(mu0) = 0 when every interval is empty.
    dw_s/dh_j = -F_{h_j}/(2a*w) stays finite in theta at a turning point,
    so an end within 1e-7 relative of one is taken to it.  An interval
    from one turning point to the other reads the cycle's rate integrals,
    the nodes of its action; any other is integrated on each call.  Every
    interval needs its degree's cycle, so a bracket that holds two allowed
    intervals refuses even an interval inside one of them.
    """
    hv = _level(chart, h, "time_map")
    if len(mu) != chart.n:
        raise ValueError("one (start, end) pair per degree")
    times = [0.0] * chart.h_dim
    for s, (a, b) in enumerate(mu, start=1):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval ends must be finite, got {(a, b)}")
        if a == b:
            continue
        lam_minus, lam_plus = _cycle(chart, s, hv)[2:4]
        if lam_minus == lam_plus:
            raise QuadratureError(
                "degenerate cycle; choose an interior endpoint")
        span = lam_plus - lam_minus
        lo, hi = min(a, b), max(a, b)
        if lo < lam_minus - 1e-9 * span or hi > lam_plus + 1e-9 * span:
            raise NoRealRootError(
                "endpoint outside the classically allowed region; "
                "choose an interior endpoint")
        ends = []
        for v in (a, b):
            if abs(v - lam_minus) <= 1e-7 * (1.0 + abs(lam_minus)):
                ends.append(lam_minus)
            elif abs(v - lam_plus) <= 1e-7 * (1.0 + abs(lam_plus)):
                ends.append(lam_plus)
            else:
                ends.append(v)
        a, b = ends
        if a == b or not chart.levels[s - 1]:
            continue
        if {a, b} == {lam_minus, lam_plus}:
            sign = chart.degrees[s - 1].branch_sign * (1 if a < b else -1)
            rates = [sign * v for v in _cycle_quadrature(chart, s, hv, True)]
        else:
            rates = _interval_rates(chart, s, hv, a, b)
        for j, v in zip(chart.levels[s - 1], rates):
            times[j - 1] += v
    return tuple(times)


def frequency_matrix(chart: SeparableChart, h: Sequence[float]) -> np.ndarray:
    """Omega = (d gamma / d h)^(-1), refused above condition number COND_LIMIT.

    d gamma_i / d h_j is the integral of d|w_i|/dh_j over degree i's
    cycle, over pi.
    """
    hv = _level(chart, h, "frequency_matrix")
    a = np.zeros((chart.n, chart.h_dim))
    for i in range(chart.n):
        a[i, [j - 1 for j in chart.levels[i]]] = np.divide(
            _cycle_quadrature(chart, i + 1, hv, True), math.pi)
    cond = float(np.linalg.cond(a))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise ChartError(
            f"action map not invertible: condition number {cond:.3g}")
    return np.linalg.inv(a)


def action_spectrum(chart: SeparableChart, h: Sequence[float]) -> ActionSpectrum:
    """Actions gamma_j and the frequency matrix of :func:`frequency_matrix`
    at h."""
    hv = _level(chart, h, "action_spectrum")
    gammas = tuple(action_variable(chart, j, hv)
                   for j in range(1, chart.n + 1))
    return ActionSpectrum(gammas, frequency_matrix(chart, hv), tuple(hv))


# ---------------------------------------------------------------------------
# Picard-Fuchs property


def _environments(chart: SeparableChart, hv: list[float],
                  needed: Sequence[int]) -> list[dict[str, float]]:
    """States of the foreign degrees, varied across three spread fractions."""
    fractions = (-0.45, 0.1, 0.55)
    envs: list[dict[str, float]] = [{} for _ in fractions]
    for s in needed:
        if chart.couplings[s - 1]:
            raise ChartError(
                f"cannot build environments from coupled degree {s}")
        deg = chart.degrees[s - 1]
        g, _, lam_minus, lam_plus = _cycle(chart, s, hv)[:4]
        if lam_minus == lam_plus:
            raise ChartError(
                f"degenerate cycle in degree {s} cannot be varied")
        mid = 0.5 * (lam_minus + lam_plus)
        hw = 0.5 * (lam_plus - lam_minus)
        for env, f in zip(envs, fractions):
            lam_s = mid + f * hw
            env[f"lam_{s}"] = lam_s
            env[f"w_{s}"] = _branch_value(deg, g, lam_s, deg.branch_sign)
    return envs


def picard_fuchs_residual(chart: SeparableChart, h: Sequence[float],
                          probes: Sequence[float]) -> float:
    """Max spread of dw_i/dh_j = -F_{h_j}/(2a*w) across environments
    sharing (lam, h).

    For a genuinely separable chart the branch derivative is a function of
    the degree's own data alone, so the spread vanishes identically.  A
    residual coupled to another degree's state produces an O(1) spread.
    Degrees without foreign symbols contribute zero by construction and
    are skipped, which also covers the single-degree chart.  A probe where
    some environment has no branch point, or no rate, is not usable.
    """
    hv = _level(chart, h)
    probe_vals = [float(v) for v in probes]
    if not probe_vals:
        raise ValueError("need at least one probe value")
    worst = 0.0
    for i in range(1, chart.n + 1):
        if not chart.couplings[i - 1]:
            continue
        envs = _environments(chart, hv, chart.couplings[i - 1])
        deg = chart.degrees[i - 1]
        branches = [_compile_degree(chart, i, hv, env) for env in envs]
        usable = 0
        for lam in probe_vals:
            try:
                vals = [_branch_rates(deg, rates, lam, _branch_value(
                            deg, g, lam, deg.branch_sign))
                        for g, rates in branches]
            except ChartError:
                continue
            for column in zip(*vals):
                usable += 1
                worst = max(worst, max(column) - min(column))
        if usable == 0:
            raise ChartError(f"insufficient probes for degree {i}")
    return worst
