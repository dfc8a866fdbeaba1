"""Action variables, time maps, and frequencies for separable charts.

A separable chart carries one residual expression per degree of freedom,
R_j(lam, w) = 0, defining the branch function w_j(lam; h) implicitly.  The
reserved symbols are ``lam`` and ``w`` for the degree's own pair and
``h_1..h_k`` for the level parameters.  A residual may also mention another
degree's state as ``lam_s`` / ``w_s``; that breaks separability, and
:func:`picard_fuchs_residual` exists to detect exactly this.

Cycles are restricted to two-branch libration topology (w symmetric up to
sign between two turning points).

Branch integrals run in theta, lam = mid + halfwidth*sin(theta).  An
interval from one turning point to the other (an action, or a cycle's
primitive) is integrated by the trapezoid rule, which converges
exponentially on that periodic integrand and reuses every node when it
doubles; an interval with a fixed interior end uses Gauss-Legendre
doubling.  A chart memoises each cycle it resolves and each primitive it
integrates, per level, so actions, turning points, frequencies and time
maps at one level share one search per cycle and one integral per
shifted level.  A branch solve in an integral starts at the previous
node's grid cell, and a shifted level's cycle search at the base level's
cells; each lands where the full search would under the two-branch
restriction, and falls back to the full search where its start fails.

Time maps and frequencies read one table of level derivatives: entry
(s, j) is the central difference, in h_j, of degree s's branch primitive
integral(w dlam).  time_map sums its columns.  Over each degree's cycle
(one turning point to the other), d gamma_s / d h_j is the degree's branch
sign times the entry over pi, so the frequency matrix
Omega = (d gamma / d h)^(-1) gives 2 pi / omega equal, to rounding, to
twice the half-cycle time.
Differencing the primitive instead of the integrand keeps the
inverse-square-root turning-point singularity out of the difference
quotient: when an endpoint sits on the cycle boundary the primitive is
taken to the boundary of each shifted level set, where w vanishes and the
boundary motion contributes nothing.  Where a shifted level has no cycle,
at a cycle's birth, the difference is one-sided.
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
    DomainError, Expr, UnboundSymbolError, compile_functions, differentiate,
    p, parameters_of, q, substitute_param,
)
from .algebra import ConvergenceError

__all__ = [
    "ChartError", "NoRealRootError", "QuadratureError",
    "ChartDegree", "SeparableChart", "ActionSpectrum",
    "solve_branch", "turning_points", "action_variable", "time_map",
    "frequency_matrix", "action_spectrum", "picard_fuchs_residual",
]

ROOT_TOL = 1e-10
FD_SCALE = 1e-6
QUAD_ABS_TOL = 1e-14
QUAD_REL_TOL = 2e-13
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


@dataclass(frozen=True)
class ChartDegree:
    """One degree of freedom: residual R(lam, w) and the interval
    ``bracket`` in which its turning points are searched.

    The branch selector picks the root sign; libration residuals are
    symmetric in w, so a pointwise sign is a complete selector.
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
        if "w" not in parameters_of(self.residual):
            raise ValueError("residual must involve the symbol w")

    @functools.cached_property
    def _pair(self) -> tuple[Expr, Expr]:
        """(R, dR/dw) over the compiled state (q1, p1) = (lam, w)."""
        r = substitute_param(substitute_param(self.residual, "lam", q(1)),
                             "w", p(1))
        return r, differentiate(r, "p1")


@dataclass(frozen=True)
class SeparableChart:
    """Degrees j=1..n with level symbols h_1..h_dim and fixed parameters.

    ``levels[j - 1]`` lists the i of every h_i degree j reads, and
    ``couplings[j - 1]`` every degree s whose lam_s / w_s it reads, both
    ascending.

    A chart is frozen, so it memoises what depends only on the chart and
    a level: each resolved cycle, keyed by (j, level), and each branch
    primitive, keyed by (s, interval, level).  Keys hold the float bits,
    so -0.0 and 0.0 are different levels.  A failed cycle search is not
    kept; it runs again on the next call.  A cycle keeps the grid cells of
    its turning points for its shifted levels' searches.  Each memo is
    emptied when it reaches _MEMO_CAP entries.
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
        object.__setattr__(self, "params", fixed)
        n = len(self.degrees)
        levels, couplings = [], []
        for j, deg in enumerate(self.degrees, start=1):
            reads, coupled = set(), set()
            for name in sorted(parameters_of(deg.residual)):
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
        object.__setattr__(self, "_primitives", {})

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
    if square_for is not None and chart.h_dim != chart.n:
        raise ValueError(f"{square_for} needs one level symbol per degree")
    return hv


def _bits(values: Sequence[float]) -> bytes:
    """The float64 bits of ``values``: a memo key that tells -0.0 from 0.0."""
    return struct.pack(f"{len(values)}d", *values)


def _remember(memo: dict, key, value):
    """memo[key] = value, in a memo emptied first at _MEMO_CAP entries."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _compile_degree(chart: SeparableChart, j: int, hv: Sequence[float],
                    env: Mapping[str, float] | None = None
                    ) -> tuple[ChartDegree, Callable]:
    """Degree j and its (R, dR/dw) compiled as a function of the pair
    (lam, w) at the level hv (already checked by :func:`_level`), with
    ``env`` binding other degrees' states."""
    if not 1 <= j <= chart.n:
        raise ValueError(f"degree index {j} out of range 1..{chart.n}")
    deg = chart.degrees[j - 1]
    params = dict(chart.params)
    params.update((f"h_{i}", v) for i, v in enumerate(hv, start=1))
    if env:
        params.update(env)
    try:
        return deg, compile_functions(deg._pair, 1, params)
    except UnboundSymbolError as exc:
        raise ChartError(
            f"degree {j} references another degree's state ({exc}); "
            "supply environment values") from None


# ---------------------------------------------------------------------------
# root solving on one branch


def _solve_root(g, lam: float, lo: float, hi: float,
                glo: float, ghi: float) -> float:
    """Newton iteration with a bisection safeguard on a sign bracket."""
    w = 0.5 * (lo + hi)
    best_w = w
    best_abs = math.inf
    for _ in range(120):
        gv, dg = g((lam, w))
        if abs(gv) < best_abs:
            best_abs, best_w = abs(gv), w
        if gv == 0.0:
            return w
        if (gv > 0.0) == (glo > 0.0):
            lo, glo = w, gv
        else:
            hi, ghi = w, gv
        if dg != 0.0:
            w_new = w - gv / dg
            if not lo < w_new < hi:
                w_new = 0.5 * (lo + hi)
        else:
            w_new = 0.5 * (lo + hi)
        if abs(w_new - w) <= 2e-16 * (1.0 + abs(w_new)):
            w = w_new
            break
        w = w_new
    gv, _ = g((lam, w))
    if abs(gv) < best_abs:
        best_abs, best_w = abs(gv), w
    if best_abs > ROOT_TOL:
        raise ConvergenceError(
            f"branch solve stalled at |R|={best_abs:.3g} (lam={lam:.6g})")
    return best_w


def _golden_min(f: Callable[[float], float], lo: float, hi: float
                ) -> tuple[float, float]:
    """Golden-section minimum of a scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(160):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a <= 1e-15 * (1.0 + abs(a) + abs(b)):
            break
    return (c, fc) if fc <= fd else (d, fd)


def _solve_signed(g, lam: float, sign: int, scale: float,
                  k0: int = 0) -> tuple[float, int]:
    """(w, k): the root of R(lam, .) with the requested sign, smallest in
    magnitude, and k where grid cell (k - 1, k) brackets it.

    Grid point k >= 0 is sign * 1e-9 * scale * 2^k, and point -1 is w = 0.
    The walk from point k0 steps up while the point has the sign of
    R(lam, 0) and down while the point below has the other sign.  From
    k0 = 0 it finds the first sign change; from the previous node's k it
    finds the same cell while no other root of the requested sign lies
    below that cell.  A walk from k0 > 0 that meets a DomainError or runs
    off the 64 points starts again from 0.

    Tangency tolerance: if no sign change exists but min |R| <= ROOT_TOL
    the minimizer is accepted as the (double) root; this is what makes
    turning points usable as integration endpoints in floating point.
    """
    g0, _ = g((lam, 0.0))
    if g0 == 0.0:
        return 0.0, 0
    k, below, above = k0, None, None
    while (below is None or above is None) and k < 64:
        w = sign * math.ldexp(1e-9 * scale, k) if k >= 0 else 0.0
        try:
            gv = g((lam, w))[0] if k >= 0 else g0
        except DomainError:
            break
        if (gv > 0.0) == (g0 > 0.0):
            below, k = (w, gv), k + 1
        else:
            above, k = (w, gv, k), k - 1
    if below is not None and above is not None:
        lo, hi = (below, above) if sign > 0 else (above, below)
        return _solve_root(g, lam, lo[0], hi[0], lo[1], hi[1]), above[2]
    if k0:
        return _solve_signed(g, lam, sign, scale)
    # no sign change: look for a tangency near the minimum of R
    if g0 < 0.0:
        # R negative at w=0 and never crossing: branch escapes to infinity
        raise NoRealRootError(
            f"branch unbounded at lam={lam:.6g} (no sign change in w)")
    hi = sign * math.ldexp(1e-9 * scale, k)
    a, b = (0.0, hi) if sign > 0 else (hi, 0.0)
    w_min, g_min = _golden_min(lambda w: g((lam, w))[0], a, b)
    if g_min < 0.0:
        lo2, hi2 = (a, w_min) if sign > 0 else (w_min, b)
        glo2 = g((lam, lo2))[0]
        ghi2 = g((lam, hi2))[0]
        if (glo2 > 0.0) != (ghi2 > 0.0):
            return _solve_root(g, lam, lo2, hi2, glo2, ghi2), 0
    if abs(g_min) <= ROOT_TOL:
        return w_min, 0
    raise NoRealRootError(
        f"no real root at lam={lam:.6g} (min |R| = {abs(g_min):.3g})")


def _root_scale(lam: float, h: Sequence[float]) -> float:
    return 1.0 + abs(lam) + max((abs(v) for v in h), default=0.0)


def _branch_value(deg: ChartDegree, g, lam: float,
                  h: Sequence[float]) -> float:
    """w on ``deg``'s branch at lam, with ``g`` its pair compiled at h."""
    return _solve_signed(g, lam, deg.branch_sign, _root_scale(lam, h))[0]


def solve_branch(chart: SeparableChart, j: int, lam: float,
                 h: Sequence[float]) -> float:
    """Branch value w_j(lam; h) with the degree's branch sign, |R| <= 1e-10."""
    hv = _level(chart, h)
    return _branch_value(*_compile_degree(chart, j, hv), float(lam), hv)


# ---------------------------------------------------------------------------
# turning points


def _existence(g, lam: float) -> float:
    # sign indicator of real-root existence for even libration residuals:
    # R(lam, 0) <= 0 exactly when the pair +-|w| exists
    return g((lam, 0.0))[0]


def turning_points(chart: SeparableChart, j: int,
                   h: Sequence[float]) -> tuple[float, float]:
    """Cycle endpoints (lam-, lam+) where the branch pair collapses, w -> 0.

    Bisection on the sign of R(lam, 0): negative inside the classically
    allowed region, positive outside.  Returned endpoints sit on the
    outside of the sign change, where solve_branch lands on the tangency
    root, so |w(lam+-)| is at the floating-point floor.
    """
    return _cycle(chart, j, _level(chart, h))[2:]


def _cycle(chart: SeparableChart, j: int, hv: Sequence[float],
           base: Sequence[float] | None = None
           ) -> tuple[ChartDegree, Callable, float, float]:
    """(degree j, its pair compiled at hv, lam-, lam+): the one search for
    turning points, behind :func:`turning_points`, run once per chart,
    degree and level; a search at hv starts from ``base``'s cells."""
    key = (j, _bits(hv))
    found = chart._cycles.get(key)
    if found is None:
        near = None if base is None else chart._cycles.get((j, _bits(base)))
        found = _remember(chart._cycles, key,
                          _find_cycle(chart, j, hv, near and near[4]))
    return found[:4]


def _find_cycle(chart: SeparableChart, j: int, hv: Sequence[float],
                cells: tuple[int, int] | None = None) -> tuple:
    """_cycle's entry and (first, last), the first and last of 129 bracket
    points where R(lam, 0) < 0, each bisected against its outer neighbour.
    Another level's ``cells`` stand if the four points around them read
    outside, inside, inside, outside: the full search finds the same ones
    while the allowed region is one interval.  Else the full search runs."""
    deg, g = _compile_degree(chart, j, hv)
    a, b = deg.bracket
    grid = np.linspace(a, b, 129)
    if cells and [_existence(g, grid[i]) < 0.0 for i in (
            cells[0] - 1, *cells, cells[1] + 1)] == [False, True, True, False]:
        neg = cells
    else:
        vals = np.array([_existence(g, x) for x in grid])
        neg = np.nonzero(vals < 0.0)[0]
    if len(neg):
        first, last = int(neg[0]), int(neg[-1])
        if first == 0 or last == len(grid) - 1:
            raise NoRealRootError(
                "bracket endpoints must lie outside the classically allowed "
                "region")
        return (deg, g, _bisect_sign(g, grid[first - 1], grid[first]),
                _bisect_sign(g, grid[last + 1], grid[last]), (first, last))
    # refine the grid minimum; a tangency means a degenerate cycle
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    lam_min, g_min = _golden_min(lambda x: _existence(g, x), lo, hi)
    if g_min < 0.0:
        return (deg, g, _bisect_sign(g, lo, lam_min),
                _bisect_sign(g, hi, lam_min), None)
    if abs(g_min) <= 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
        return deg, g, lam_min, lam_min, None
    raise NoRealRootError("no sign change in bracket")


def _bisect_sign(g, outside: float, inside: float) -> float:
    """Shrink [outside, inside] across the sign change; return the outside end."""
    g_out = _existence(g, outside)
    g_in = _existence(g, inside)
    if g_out < 0.0 or g_in >= 0.0:
        raise NoRealRootError("no sign change in bracket")
    for _ in range(200):
        if abs(outside - inside) <= 2e-16 * (1.0 + abs(outside) + abs(inside)):
            break
        mid = 0.5 * (outside + inside)
        if mid == outside or mid == inside:
            break
        if _existence(g, mid) < 0.0:
            inside = mid
        else:
            outside = mid
    return outside


# ---------------------------------------------------------------------------
# quadrature on one branch


@functools.cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gauss_legendre(f: Callable[[float, float], float]):
    """Gauss-Legendre sums of f on (-1, 1), n = _GL_START, 2n, ... _N_MAX
    nodes; f(x, weight) returns weight times the integrand at x."""
    n = _GL_START
    while n <= _N_MAX:
        total = 0.0
        for x, gw in zip(*_gl(n)):
            total += f(x, gw)
        yield total
        n *= 2


def _trapezoid(f: Callable[[float, float], float]):
    """Trapezoid sums of f on (-1, 1) over n = _TRAPEZOID_START, 2n, ...
    _N_MAX intervals, for an integrand that vanishes at both ends; each
    doubling halves the last sum and adds only the new midpoints."""
    n = _TRAPEZOID_START
    total = 0.0
    for k in range(1, n):
        total += f(-1.0 + 2.0 * k / n, 2.0 / n)
    yield total
    while n < _N_MAX:
        n *= 2
        fresh = 0.0
        for k in range(1, n, 2):
            fresh += f(-1.0 + 2.0 * k / n, 2.0 / n)
        total = 0.5 * total + fresh
        yield total


def _branch_integral(g, a: float, b: float, sign: int,
                     h: Sequence[float], cycle: bool) -> float:
    """integral of w(lam) over [a, b], with ``g`` compiled at the level h.

    The substitution lam = mid + halfwidth*sin(theta), theta = x*pi/2,
    turns the inverse-square-root behaviour of dlam near a turning point
    into an analytic integrand in x on (-1, 1).  With ``cycle`` both ends
    are turning points: the integrand vanishes there and continues to a
    periodic one, so the trapezoid rule converges exponentially and each
    doubling reuses every earlier node.  An interval with a fixed end uses
    Gauss-Legendre doubling.  Either rule doubles until the step change
    drops under max(QUAD_ABS_TOL, QUAD_REL_TOL * (1 + |integral|)).
    """
    if a == b:
        return 0.0
    scale = _root_scale(max(abs(a), abs(b)), h)
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    k = 0

    def w_dlam(x: float, weight: float) -> float:
        nonlocal k
        theta = 0.5 * math.pi * x
        try:
            w, k = _solve_signed(g, mid + hw * math.sin(theta), sign, scale,
                                 k)
        except NoRealRootError as exc:
            raise QuadratureError(
                f"lost the real branch inside the interval: {exc}") from None
        return weight * w * hw * 0.5 * math.pi * math.cos(theta)

    prev = None
    for total in (_trapezoid if cycle else _gauss_legendre)(w_dlam):
        if prev is not None and abs(total - prev) <= \
                max(QUAD_ABS_TOL, QUAD_REL_TOL * (1.0 + abs(total))):
            return total
        prev = total
    raise QuadratureError(
        f"{'trapezoid' if cycle else 'Gauss-Legendre'} doubling did not "
        "converge")


def action_variable(chart: SeparableChart, j: int, h: Sequence[float]) -> float:
    """Action gamma_j = (1/2pi) * integral of w dlam around the cycle at
    the level h, i.e. (1/pi) * integral of |w| between the turning points.
    """
    hv = _level(chart, h)
    _, g, lam_minus, lam_plus = _cycle(chart, j, hv)
    # on the + branch every root is >= +0.0, so w is |w|
    return _branch_integral(g, lam_minus, lam_plus, 1, hv, True) / math.pi


# ---------------------------------------------------------------------------
# time maps and frequencies


# an interval from one turning point of the cycle to the other
_CYCLE = (("tp", -1), ("tp", 1))


def _classify_intervals(chart, hv, mu):
    """Resolve each (start, end) pair against the base turning points."""
    specs = []
    for s, (a, b) in enumerate(mu, start=1):
        a, b = float(a), float(b)
        if a == b:
            specs.append(None)
            continue
        _, _, lam_minus, lam_plus = _cycle(chart, s, hv)
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
                ends.append(("tp", -1))
            elif abs(v - lam_plus) <= 1e-7 * (1.0 + abs(lam_plus)):
                ends.append(("tp", 1))
            else:
                ends.append(("fixed", v))
        specs.append(tuple(ends))
    return specs


def _primitive(chart, s, spec, hv, h_side) -> float | None:
    """integral of the branch w_s over the interval resolved at h_side, a
    shift of the level hv, or None where a turning-point end has no cycle
    at that level; computed once per chart, degree, interval and level."""
    key = (s, tuple(kind for kind, _ in spec),
           _bits([v for _, v in spec] + list(h_side)))
    if key not in chart._primitives:
        return _remember(chart._primitives, key,
                         _integrate_primitive(chart, s, spec, hv, h_side))
    return chart._primitives[key]


def _integrate_primitive(chart, s, spec, hv, h_side) -> float | None:
    if any(kind == "tp" for kind, _ in spec):
        try:
            deg, g, lam_minus, lam_plus = _cycle(chart, s, h_side, hv)
        except NoRealRootError:
            return None
        if lam_minus == lam_plus:
            return None
    else:
        deg, g = _compile_degree(chart, s, h_side)
    ends = []
    for kind, v in spec:
        if kind == "tp":
            ends.append(lam_minus if v < 0 else lam_plus)
        else:
            try:
                _branch_value(deg, g, v, h_side)
            except (NoRealRootError, ConvergenceError):
                raise QuadratureError(
                    "endpoint sits at a turning point of a nearby level; "
                    "the time integral diverges there, choose an interior "
                    "endpoint") from None
            ends.append(v)
    cycle = all(kind == "tp" for kind, _ in spec)
    return _branch_integral(g, ends[0], ends[1], deg.branch_sign, h_side,
                            cycle)


def _level_derivative(f: Callable[[list[float]], float | None],
                      hv: list[float], jdx: int) -> float:
    """d f / d h_{jdx+1} at the level hv, the module's one difference in h.

    Central over hv[jdx] +- FD_SCALE (1 + |hv[jdx]|); where f returns None
    on one side (that level lost the cycle) it is one-sided from hv.
    """
    delta = FD_SCALE * (1.0 + abs(hv[jdx]))
    h_plus = list(hv)
    h_plus[jdx] += delta
    h_minus = list(hv)
    h_minus[jdx] -= delta
    upper = f(h_plus)
    lower = f(h_minus)
    if upper is not None and lower is not None:
        return (upper - lower) / (2.0 * delta)
    if upper is None and lower is None:
        raise QuadratureError(
            "both shifted levels lost the cycle; choose an interior "
            "endpoint")
    base = f(hv)
    if base is None:
        raise QuadratureError("the level has a degenerate cycle")
    if upper is not None:
        return (upper - base) / delta
    return (base - lower) / delta


def time_map(chart: SeparableChart, h: Sequence[float],
             mu: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """Times t_j = sum_s integral d lam dw_s/dh_j over the given intervals.

    ``mu`` holds one (start, end) pair per degree; an equal pair
    contributes nothing, and t(mu0) = 0 when every interval is empty.
    Endpoints matching a turning point track the turning points of the
    finite-difference-shifted levels, which is what makes the half-cycle
    time exact for these integrals; where one shifted level has no cycle
    (at a cycle's birth) the difference is one-sided.
    """
    hv = _level(chart, h, "time_map")
    if len(mu) != chart.n:
        raise ValueError("one (start, end) pair per degree")
    table = _time_table(chart, hv, _classify_intervals(chart, hv, mu))
    return tuple(sum(column, 0.0) for column in table.T)


def _time_table(chart: SeparableChart, hv: list[float],
                specs: Sequence) -> np.ndarray:
    """T[s-1, j-1] = d/dh_j of degree s's primitive over specs[s-1], for
    each h_j that degree s reads; every other entry stays +0.0."""
    table = np.zeros((chart.n, chart.h_dim))
    for s, spec in enumerate(specs, start=1):
        if spec is not None:
            primitive = functools.partial(_primitive, chart, s, spec, hv)
            for j in chart.levels[s - 1]:
                table[s - 1, j - 1] = _level_derivative(primitive, hv, j - 1)
    return table


def frequency_matrix(chart: SeparableChart, h: Sequence[float]) -> np.ndarray:
    """Omega = (d gamma / d h)^(-1), refused above condition number COND_LIMIT.

    d gamma_i / d h_j is branch_sign_i times the time table over degree
    i's cycle, over pi.
    """
    hv = _level(chart, h, "frequency_matrix")
    table = _time_table(chart, hv, [_CYCLE] * chart.n)
    a = np.zeros_like(table)
    for i, deg in enumerate(chart.degrees):
        filled = [j - 1 for j in chart.levels[i]]
        a[i, filled] = deg.branch_sign * table[i, filled] / math.pi
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
        deg, g, lam_minus, lam_plus = _cycle(chart, s, hv)
        if lam_minus == lam_plus:
            raise ChartError(
                f"degenerate cycle in degree {s} cannot be varied")
        mid = 0.5 * (lam_minus + lam_plus)
        hw = 0.5 * (lam_plus - lam_minus)
        for env, f in zip(envs, fractions):
            lam_s = mid + f * hw
            env[f"lam_{s}"] = lam_s
            env[f"w_{s}"] = _branch_value(deg, g, lam_s, hv)
    return envs


def picard_fuchs_residual(chart: SeparableChart, h: Sequence[float],
                          probes: Sequence[float]) -> float:
    """Max spread of dw_i/dh_j across environments sharing (lam, h).

    For a genuinely separable chart the branch derivative is a function of
    the degree's own data alone, so the spread vanishes identically.  A
    residual coupled to another degree's state produces an O(1) spread.
    Degrees without foreign symbols contribute zero by construction and
    are skipped, which also covers the single-degree chart.
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
        usable = 0
        for lam in probe_vals:
            for j in chart.levels[i - 1]:
                # dw_i/dh_j at lam in each environment
                try:
                    vals = [_level_derivative(
                        lambda hs: _branch_value(
                            *_compile_degree(chart, i, hs, env), lam, hs),
                        hv, j - 1) for env in envs]
                except ChartError:
                    continue
                usable += 1
                worst = max(worst, max(vals) - min(vals))
        if usable == 0:
            raise ChartError(f"insufficient probes for degree {i}")
    return worst

