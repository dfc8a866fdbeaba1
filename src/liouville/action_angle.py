"""Action variables, time maps, and frequencies for separable charts.

A separable chart carries one residual expression per degree of freedom,
R_j(lam, w) = 0, defining the branch function w_j(lam; h) implicitly.  The
reserved symbols are ``lam`` and ``w`` for the degree's own pair and
``h_1..h_k`` for the level parameters.  A residual may also mention another
degree's state as ``lam_s`` / ``w_s``; that breaks separability, and
:func:`picard_fuchs_residual` exists to detect exactly this.

Cycles are restricted to two-branch libration topology (w symmetric up to
sign between two turning points).

Time maps are evaluated as central differences, in h, of the branch
primitive integral(w dlam).  Differencing the primitive instead of the
integrand keeps the inverse-square-root turning-point singularity out of
the difference quotient: when an endpoint sits on the cycle boundary the
primitive is taken to the boundary of each shifted level set, where w
vanishes and the boundary motion contributes nothing.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
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
GAMMA_STEP_TOL = 1e-11
TIME_REL_TOL = 2e-13
COND_LIMIT = 1e8
_N_START = 16
_N_MAX = 4096

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
    """Degrees j=1..n with level symbols h_1..h_dim and fixed parameters."""

    degrees: tuple[ChartDegree, ...]
    h_dim: int
    params: Mapping[str, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if not self.degrees:
            raise ValueError("chart needs at least one degree")
        if self.h_dim < 1:
            raise ValueError("h_dim must be positive")
        fixed = dict(self.params or {})
        object.__setattr__(self, "params", fixed)
        n = len(self.degrees)
        for j, deg in enumerate(self.degrees, start=1):
            for name in sorted(parameters_of(deg.residual)):
                if name in ("lam", "w") or name in fixed:
                    continue
                m = _H_RE.match(name)
                if m:
                    if int(m.group(1)) > self.h_dim:
                        raise ValueError(f"degree {j}: {name} exceeds h_dim")
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
                    continue
                raise ValueError(f"degree {j}: unknown symbol {name!r}")

    @property
    def n(self) -> int:
        return len(self.degrees)

    def foreign_symbols(self, j: int) -> set[str]:
        deg = _degree(self, j)
        out = set()
        for name in parameters_of(deg.residual):
            if name not in self.params and _FOREIGN_RE.match(name):
                out.add(name)
        return out


@dataclass(frozen=True)
class ActionSpectrum:
    gammas: tuple[float, ...]
    omega: np.ndarray
    h: tuple[float, ...]


def _degree(chart: SeparableChart, j: int) -> ChartDegree:
    if not 1 <= j <= chart.n:
        raise ValueError(f"degree index {j} out of range 1..{chart.n}")
    return chart.degrees[j - 1]


def _h_map(chart: SeparableChart, h: Sequence[float]) -> dict[str, float]:
    if len(h) != chart.h_dim:
        raise ValueError(f"expected {chart.h_dim} level values, got {len(h)}")
    return {f"h_{i}": float(v) for i, v in enumerate(h, start=1)}


def _shifted_levels(hv: Sequence[float], jdx: int
                    ) -> tuple[float, list[float], list[float]]:
    """(delta, hv with hv[jdx] + delta, hv with hv[jdx] - delta): the levels
    of a central difference in h_{jdx+1}."""
    delta = FD_SCALE * (1.0 + abs(hv[jdx]))
    h_plus = list(hv)
    h_plus[jdx] += delta
    h_minus = list(hv)
    h_minus[jdx] -= delta
    return delta, h_plus, h_minus


def _compile_degree(chart: SeparableChart, j: int, h: Sequence[float],
                    env: Mapping[str, float] | None = None
                    ) -> Callable[[tuple[float, float]], tuple[float, float]]:
    """Compile (R, dR/dw) of degree j as a function of the pair (lam, w)."""
    params = dict(chart.params)
    params.update(_h_map(chart, h))
    if env:
        params.update(env)
    try:
        return compile_functions(_degree(chart, j)._pair, 1, params)
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


def _solve_signed(g, lam: float, sign: int, scale: float) -> float:
    """Root of R(lam, .) with the requested sign, smallest in magnitude.

    Tangency tolerance: if no sign change exists but min |R| <= ROOT_TOL
    the minimizer is accepted as the (double) root; this is what makes
    turning points usable as integration endpoints in floating point.
    """
    g0, _ = g((lam, 0.0))
    if g0 == 0.0:
        return 0.0
    prev_w, prev_g = 0.0, g0
    found = None
    w_mag = 1e-9 * scale
    for _ in range(64):
        w = sign * w_mag
        try:
            gv, _ = g((lam, w))
        except DomainError:
            break
        if (gv > 0.0) != (prev_g > 0.0):
            found = (prev_w, w, prev_g, gv) if sign > 0 else \
                (w, prev_w, gv, prev_g)
            break
        prev_w, prev_g = w, gv
        w_mag *= 2.0
    if found is not None:
        lo, hi, glo, ghi = found
        return _solve_root(g, lam, lo, hi, glo, ghi)
    # no sign change: look for a tangency near the minimum of R
    if g0 < 0.0:
        # R negative at w=0 and never crossing: branch escapes to infinity
        raise NoRealRootError(
            f"branch unbounded at lam={lam:.6g} (no sign change in w)")
    hi = sign * w_mag
    a, b = (0.0, hi) if sign > 0 else (hi, 0.0)
    w_min, g_min = _golden_min(lambda w: g((lam, w))[0], a, b)
    if g_min < 0.0:
        lo2, hi2 = (a, w_min) if sign > 0 else (w_min, b)
        glo2 = g((lam, lo2))[0]
        ghi2 = g((lam, hi2))[0]
        if (glo2 > 0.0) != (ghi2 > 0.0):
            return _solve_root(g, lam, lo2, hi2, glo2, ghi2)
    if abs(g_min) <= ROOT_TOL:
        return w_min
    raise NoRealRootError(
        f"no real root at lam={lam:.6g} (min |R| = {abs(g_min):.3g})")


def _root_scale(lam: float, h: Sequence[float]) -> float:
    return 1.0 + abs(lam) + max((abs(v) for v in h), default=0.0)


def solve_branch(chart: SeparableChart, j: int, lam: float,
                 h: Sequence[float]) -> float:
    """Branch value w_j(lam; h) with the degree's branch sign, |R| <= 1e-10."""
    deg = _degree(chart, j)
    g = _compile_degree(chart, j, h)
    return _solve_signed(g, float(lam), deg.branch_sign,
                         _root_scale(lam, h))


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
    return _turning_points(_compile_degree(chart, j, h), _degree(chart, j))


def _turning_points(g, deg: ChartDegree) -> tuple[float, float]:
    """turning_points of ``deg`` with its residual pair already compiled."""
    a, b = deg.bracket
    grid = np.linspace(a, b, 129)
    vals = np.array([_existence(g, x) for x in grid])
    neg = np.nonzero(vals < 0.0)[0]
    if len(neg) == 0:
        # refine the grid minimum; a tangency means a degenerate cycle
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        lam_min, g_min = _golden_min(lambda x: _existence(g, x), lo, hi)
        if g_min < 0.0:
            left = _bisect_sign(g, lo, lam_min)
            right = _bisect_sign(g, hi, lam_min)
            return left, right
        if abs(g_min) <= 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
            return lam_min, lam_min
        raise NoRealRootError("no sign change in bracket")
    first, last = int(neg[0]), int(neg[-1])
    if first == 0 or last == len(grid) - 1:
        raise NoRealRootError(
            "bracket endpoints must lie outside the classically allowed "
            "region")
    left = _bisect_sign(g, grid[first - 1], grid[first])
    right = _bisect_sign(g, grid[last + 1], grid[last])
    return left, right


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


def _branch_integral(g, a: float, b: float, sign: int,
                     stop_abs: float, stop_rel: float, scale: float) -> float:
    """integral of w(lam) over [a, b] by Gauss-Legendre doubling.

    The substitution lam = mid + halfwidth*sin(theta) turns the
    inverse-square-root behaviour of dlam near a turning point into an
    analytic integrand in theta, so the node count doubles only a few
    times before the step change drops under the target.
    """
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    prev = None
    n = _N_START
    while n <= _N_MAX:
        nodes, weights = _gl(n)
        total = 0.0
        for x, gw in zip(nodes, weights):
            theta = 0.5 * math.pi * x
            lam = mid + hw * math.sin(theta)
            try:
                w = _solve_signed(g, lam, sign, scale)
            except NoRealRootError as exc:
                raise QuadratureError(
                    f"lost the real branch inside the interval: {exc}") from None
            total += gw * w * hw * 0.5 * math.pi * math.cos(theta)
        if prev is not None and \
                abs(total - prev) <= max(stop_abs, stop_rel * (1.0 + abs(total))):
            return total
        prev = total
        n *= 2
    raise QuadratureError("Gauss-Legendre doubling did not converge")


def action_variable(chart: SeparableChart, j: int, h: Sequence[float]) -> float:
    """Action gamma_j = (1/2pi) * integral of w dlam around the cycle at
    the level h, i.e. (1/pi) * integral of |w| between the turning points.
    """
    hv = [float(v) for v in h]
    _h_map(chart, hv)
    deg = _degree(chart, j)
    g = _compile_degree(chart, j, hv)
    lam_minus, lam_plus = _turning_points(g, deg)
    if lam_minus == lam_plus:
        return 0.0
    scale = _root_scale(max(abs(lam_minus), abs(lam_plus)), hv)
    # on the + branch every root is >= +0.0, so w is |w|
    value = _branch_integral(g, lam_minus, lam_plus, 1,
                             GAMMA_STEP_TOL, 1e-12, scale)
    return value / math.pi


# ---------------------------------------------------------------------------
# time maps


class _SideLost(Exception):
    # a shifted level lost the cycle; the caller may fall back to a
    # one-sided difference
    pass


def _classify_intervals(chart, hv, mu):
    """Resolve each (start, end) pair against the base turning points."""
    specs = []
    for s, (a, b) in enumerate(mu, start=1):
        a, b = float(a), float(b)
        if a == b:
            specs.append(None)
            continue
        lam_minus, lam_plus = turning_points(chart, s, hv)
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


def _primitive(chart, s, spec, h_side) -> float:
    """integral of the branch w_s over the interval resolved at h_side."""
    deg = chart.degrees[s - 1]
    g = _compile_degree(chart, s, h_side)
    lam_minus = lam_plus = None
    if any(kind == "tp" for kind, _ in spec):
        try:
            lam_minus, lam_plus = _turning_points(g, deg)
        except ChartError:
            raise _SideLost() from None
        if lam_minus == lam_plus:
            raise _SideLost()
    ends = []
    for kind, v in spec:
        if kind == "tp":
            ends.append(lam_minus if v < 0 else lam_plus)
        else:
            try:
                _solve_signed(g, v, deg.branch_sign, _root_scale(v, h_side))
            except (NoRealRootError, ConvergenceError):
                raise QuadratureError(
                    "endpoint sits at a turning point of a nearby level; "
                    "the time integral diverges there, choose an interior "
                    "endpoint") from None
            ends.append(v)
    scale = _root_scale(max(abs(ends[0]), abs(ends[1])), h_side)
    return _branch_integral(g, ends[0], ends[1], deg.branch_sign,
                            1e-14, TIME_REL_TOL, scale)


def time_map(chart: SeparableChart, h: Sequence[float],
             mu: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """Times t_j = sum_s integral d lam dw_s/dh_j over the given intervals.

    ``mu`` holds one (start, end) pair per degree; an equal pair
    contributes nothing, and t(mu0) = 0 when every interval is empty.
    Endpoints matching a turning point track the turning points of the
    finite-difference-shifted levels, which is what makes the half-cycle
    time exact for these integrals.
    """
    hv = [float(v) for v in h]
    _h_map(chart, hv)
    n = chart.n
    if chart.h_dim != n:
        raise ValueError("time_map needs one level symbol per degree")
    if len(mu) != n:
        raise ValueError("one (start, end) pair per degree")
    specs = _classify_intervals(chart, hv, mu)
    base_cache: dict[int, float] = {}
    times = []
    for jdx in range(n):
        h_name = f"h_{jdx + 1}"
        delta, h_plus, h_minus = _shifted_levels(hv, jdx)
        t_j = 0.0
        for s in range(1, n + 1):
            spec = specs[s - 1]
            if spec is None:
                continue
            if h_name not in parameters_of(chart.degrees[s - 1].residual):
                continue
            try:
                upper = _primitive(chart, s, spec, h_plus)
            except _SideLost:
                upper = None
            try:
                lower = _primitive(chart, s, spec, h_minus)
            except _SideLost:
                lower = None
            if upper is not None and lower is not None:
                t_j += (upper - lower) / (2.0 * delta)
            elif upper is None and lower is None:
                raise QuadratureError(
                    "both shifted levels lost the cycle; choose an "
                    "interior endpoint")
            else:
                if s not in base_cache:
                    base_cache[s] = _primitive(chart, s, spec, hv)
                base = base_cache[s]
                if upper is not None:
                    t_j += (upper - base) / delta
                else:
                    t_j += (base - lower) / delta
        times.append(t_j)
    return tuple(times)


# ---------------------------------------------------------------------------
# frequencies


def _action_jacobian(chart: SeparableChart, hv: list[float]) -> np.ndarray:
    n = chart.n
    a = np.zeros((n, n))
    for i in range(1, n + 1):
        names = parameters_of(chart.degrees[i - 1].residual)
        for jdx in range(n):
            if f"h_{jdx + 1}" not in names:
                continue
            delta, h_plus, h_minus = _shifted_levels(hv, jdx)
            a[i - 1, jdx] = (action_variable(chart, i, h_plus)
                             - action_variable(chart, i, h_minus)) / (2 * delta)
    return a


def _inverse_action_jacobian(chart: SeparableChart, hv: list[float]
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(d gamma / d h, its inverse); refuses a condition number above
    COND_LIMIT."""
    a = _action_jacobian(chart, hv)
    cond = float(np.linalg.cond(a))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise ChartError(
            f"action map not invertible: condition number {cond:.3g}")
    return a, np.linalg.inv(a)


def frequency_matrix(chart: SeparableChart, h: Sequence[float]) -> np.ndarray:
    """Omega = (d gamma / d h)^(-1), guarded by a condition-number check."""
    hv = [float(v) for v in h]
    _h_map(chart, hv)
    if chart.h_dim != chart.n:
        raise ValueError("frequency_matrix needs one level symbol per degree")
    return _inverse_action_jacobian(chart, hv)[1]


def action_spectrum(chart: SeparableChart, h: Sequence[float]) -> ActionSpectrum:
    """Actions and frequency matrix at h, with the consistency defect checked."""
    hv = [float(v) for v in h]
    _h_map(chart, hv)
    if chart.h_dim != chart.n:
        raise ValueError("action_spectrum needs one level symbol per degree")
    gammas = tuple(action_variable(chart, j, hv)
                   for j in range(1, chart.n + 1))
    a, omega = _inverse_action_jacobian(chart, hv)
    defect = float(np.max(np.abs(omega @ a - np.eye(chart.n))))
    if defect > 1e-4:
        raise ChartError(f"frequency consistency defect {defect:.3g}")
    return ActionSpectrum(gammas, omega, tuple(hv))


# ---------------------------------------------------------------------------
# Picard-Fuchs property


def _environments(chart: SeparableChart, hv: list[float],
                  needed: Sequence[int]) -> list[dict[str, float]]:
    """States of the foreign degrees, varied across three spread fractions."""
    fractions = (-0.45, 0.1, 0.55)
    envs: list[dict[str, float]] = [{} for _ in fractions]
    for s in needed:
        if chart.foreign_symbols(s):
            raise ChartError(
                f"cannot build environments from coupled degree {s}")
        deg = chart.degrees[s - 1]
        g = _compile_degree(chart, s, hv)
        lam_minus, lam_plus = _turning_points(g, deg)
        if lam_minus == lam_plus:
            raise ChartError(
                f"degenerate cycle in degree {s} cannot be varied")
        mid = 0.5 * (lam_minus + lam_plus)
        hw = 0.5 * (lam_plus - lam_minus)
        for env, f in zip(envs, fractions):
            lam_s = mid + f * hw
            env[f"lam_{s}"] = lam_s
            env[f"w_{s}"] = _solve_signed(g, lam_s, deg.branch_sign,
                                          _root_scale(lam_s, hv))
    return envs


def _fd_branch(chart, i, lam, hv, jdx, env) -> float:
    deg = chart.degrees[i - 1]
    delta, h_plus, h_minus = _shifted_levels(hv, jdx - 1)
    w_plus = _solve_signed(_compile_degree(chart, i, h_plus, env), lam,
                           deg.branch_sign, _root_scale(lam, h_plus))
    w_minus = _solve_signed(_compile_degree(chart, i, h_minus, env), lam,
                            deg.branch_sign, _root_scale(lam, h_minus))
    return (w_plus - w_minus) / (2.0 * delta)


def picard_fuchs_residual(chart: SeparableChart, h: Sequence[float],
                          probes: Sequence[float]) -> float:
    """Max spread of dw_i/dh_j across environments sharing (lam, h).

    For a genuinely separable chart the branch derivative is a function of
    the degree's own data alone, so the spread vanishes identically.  A
    residual coupled to another degree's state produces an O(1) spread.
    Degrees without foreign symbols contribute zero by construction and
    are skipped, which also covers the single-degree chart.
    """
    hv = [float(v) for v in h]
    _h_map(chart, hv)
    probe_vals = [float(v) for v in probes]
    if not probe_vals:
        raise ValueError("need at least one probe value")
    worst = 0.0
    for i in range(1, chart.n + 1):
        foreign = chart.foreign_symbols(i)
        if not foreign:
            continue
        needed = sorted({int(_FOREIGN_RE.match(nm).group(2))
                         for nm in foreign})
        envs = _environments(chart, hv, needed)
        names = parameters_of(chart.degrees[i - 1].residual)
        usable = 0
        for lam in probe_vals:
            for jdx in range(1, chart.h_dim + 1):
                if f"h_{jdx}" not in names:
                    continue
                vals = []
                try:
                    for env in envs:
                        vals.append(_fd_branch(chart, i, lam, hv, jdx, env))
                except ChartError:
                    continue
                usable += 1
                worst = max(worst, max(vals) - min(vals))
        if usable == 0:
            raise ChartError(f"insufficient probes for degree {i}")
    return worst

