"""Numerical flows of Hamiltonian fields and flow-based diagnostics.

Two schemes: the adaptive embedded Runge-Kutta pair of Dormand and Prince
(1980), order 5 with an order-4 error estimate (default), and a fixed-step
symmetric composition of order 4 for separable Hamiltonians
H = T(p) + V(q).  Trajectories carry one row per accepted step, or, for
the adaptive scheme, one row per uniform sample when ``sample_dt`` is set.

The adaptive scheme reproduces ``scipy.integrate.RK45`` in plain Python
over the compiled field: its initial-step rule and step-size controller
(Hairer, Norsett & Wanner, Solving ODEs I, II.4), the RMS error norm with
rtol = atol = ``tolerance``, the last stage reused as the next step's
first, the clamp at ``t_final`` and the quartic dense output that fills
the ``sample_dt`` grid, whose row k sits at k * ``sample_dt``.  Only the
order of a few floating-point sums differs, so step sizes agree with
scipy's to about 1e-7 relative.  Each step is one generated straight-line
function of the state, compiled once per state length and bound per run
to the compiled field: the six stage sums, the new state and the error
norm written out per component.

The fixed-step scheme compiles each step with :func:`compile_functions`,
from expression trees over the state: each of the three sub-steps
substitutes the current state's trees into the kick, the drift and the
kick again, with the same floating-point operations in the same order as
evaluating the compiled drift and kick and updating a state array.  A
sub-step's last half-kick and the next one's first read the same q, so
common-subexpression elimination evaluates that kick field once.  The
step returns H at its end too, so a step that leaves H's domain truncates
the run even where the drift and the kick are still defined.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    BinOp, Const, DomainError, EvalPoint, Expr, _binder_from_source,
    _substitute, compile_functions, p, parameters_of, q, variables_of,
)
from .symplectic import SymplecticStructure, hamiltonian_vector_field
from .algebra import InvariantSet

__all__ = [
    "IntegrationError", "IntegratorConfig", "Trajectory",
    "integrate", "conservation_report", "flows_commute", "trajectory_to_csv",
]

# Suzuki-Yoshida triple-jump coefficients for the order-4 composition
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
COMMUTE_TOL = 1e-6
# the step budget of an adaptive run, and the point limit of a fixed grid
MAX_STEPS = 2_000_000

# Dormand-Prince 5(4) tableau as scipy.integrate.RK45 holds it, without the
# stage nodes (every field here is autonomous) and without the second
# stage's zero weights: rows of A, then b and the error weights e = b - b^
# over stages 1, 3..6 and 1, 3..7, then the columns of x^2, x^3 and x^4 of
# the interpolant's matrix P over stages 1, 3..7 (its x column is stage 1's).
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = ((-8048581381 / 2820520608, 131558114200 / 32700410799,
       -1754552775 / 470086768, 127303824393 / 49829197408,
       -282668133 / 205662961, 40617522 / 29380423),
      (8663915743 / 2820520608, -68118460800 / 10900136933,
       14199869525 / 1410260304, -318862633887 / 49829197408,
       2019193451 / 616988883, -110615467 / 29380423),
      (-12715105075 / 11282082432, 87487479700 / 32700410799,
       -10690763975 / 1880347072, 701980252875 / 199316789632,
       -1453857185 / 822651844, 69997945 / 29380423))
# scipy's step-size controller; the error exponent is -1/(4 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_UNDERFLOW = ("step_underflow: Required step size is less than spacing "
              "between numbers.")


class IntegrationError(Exception):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and control knobs for :func:`integrate`.

    ``scheme`` is "adaptive" (the Dormand-Prince 5(4) pair under scipy
    RK45's controller, with rtol = atol = ``tolerance``) or "symmetric4"
    (fixed ``step``, separable H only); ``tolerance`` must be positive
    under both, and ``step`` is refused by the adaptive scheme.
    ``sample_dt`` switches an adaptive trajectory to a uniform output grid
    (the fixed-step scheme has no interpolant).  A fixed grid, of
    ``sample_dt`` rows or ``step`` steps, of t_final / spacing >=
    ``MAX_STEPS`` points or with no ``sample_dt`` row after 0 is refused
    before the run; only an adaptive run stops after ``MAX_STEPS`` steps,
    with error "max_steps".  A positive ``collision_threshold`` aborts when
    the minimum pairwise squared distance between the per-degree points
    (q_j, p_j) drops below it.  Every number must be finite.
    """

    scheme: str = "adaptive"
    tolerance: float = 1e-9
    step: float | None = None
    sample_dt: float | None = None
    collision_threshold: float | None = None

    def __post_init__(self):
        if self.scheme not in ("adaptive", "symmetric4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("tolerance", "step", "sample_dt", "collision_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.scheme == "symmetric4" and (self.step is None or self.step <= 0):
            raise ValueError("symmetric4 needs a positive fixed step")
        if self.step is not None and self.scheme != "symmetric4":
            raise ValueError("step applies to the symmetric4 scheme only")
        if self.sample_dt is not None and self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        if self.sample_dt is not None and self.scheme != "adaptive":
            raise ValueError("sample_dt applies to the adaptive scheme only")
        if self.collision_threshold is not None and self.collision_threshold <= 0:
            raise ValueError("collision_threshold must be positive")


@dataclass
class Trajectory:
    """Times, states (rows of q1..qn,p1..pn), and provenance of one flow run."""

    times: np.ndarray
    states: np.ndarray
    error: str | None = None
    accepted_steps: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2 \
                or len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must increase strictly")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite")

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    def final_point(self) -> EvalPoint:
        y = self.states[-1]
        n = self.n
        return EvalPoint(tuple(y[:n]), tuple(y[n:]))


def _min_pair_distance_sq(y, n: int) -> float:
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = (y[i] - y[j]) ** 2 + (y[n + i] - y[n + j]) ** 2
            best = min(best, d)
    return best


def integrate(h: Expr, structure: SymplecticStructure, u0: EvalPoint,
              t_final: float, config: IntegratorConfig = IntegratorConfig(),
              params: dict[str, float] | None = None) -> Trajectory:
    """Integrate the flow of ``h`` from the finite point ``u0`` for the
    finite time ``t_final`` (> 0); ``params`` binds the named parameters
    of ``h``.

    The symmetric scheme refuses a field whose dq mentions a q or whose dp
    mentions a p, and evaluates dq (drift) and dp (kick) separately.
    Domain errors (of the field, or for the symmetric scheme of H at the end
    of a step), collisions, step underflow, and the adaptive step budget
    truncate the trajectory and set ``error`` instead of raising; a start
    where the field or H is undefined raises :class:`IntegrationError`.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if not t_final / (config.sample_dt or config.step or math.inf) < MAX_STEPS:
        raise ValueError("the fixed grid has max_steps points or more")
    if config.sample_dt is not None and config.sample_dt > t_final:
        raise ValueError("the sample_dt grid has no row after t = 0")
    if u0.n != structure.n:
        raise ValueError("initial point dimension mismatch")
    if config.collision_threshold is not None and structure.n < 2:
        raise ValueError("collision_threshold needs two or more degrees")
    y0 = u0.state()
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial point must be finite")
    params = dict(params or {})
    unbound = parameters_of(h) - set(params)
    if unbound:
        raise ValueError(f"Hamiltonian uses unbound parameters: {sorted(unbound)}")
    fld = hamiltonian_vector_field(h, structure)
    symmetric = config.scheme == "symmetric4"
    if symmetric and (any(v[0] == "q" for v in variables_of(*fld.dq)) or
                      any(v[0] == "p" for v in variables_of(*fld.dp))):
        raise ValueError("the symmetric fixed-step scheme needs a separable "
                         "Hamiltonian H = T(p) + V(q)")
    rhs = compile_functions(fld.dq + fld.dp, structure.n, params)
    try:
        rhs(y0)
        compile_functions([h], structure.n, params)(y0)
    except DomainError as exc:
        raise IntegrationError(f"initial point outside the domain: {exc}") from None
    if symmetric:
        return _integrate_symmetric4(h, fld, params, y0, t_final,
                                     structure.n, config)
    return _integrate_adaptive(rhs, y0, t_final, structure.n, config)


def _integrate_adaptive(rhs, y0, t_final, n, config) -> Trajectory:
    tol = config.tolerance
    y = list(map(float, y0))
    step = _binder_from_source(_dopri_source(len(y)))(
        rhs, _A, _B, _E, len(y) ** 0.5)
    f = rhs(y)
    try:
        h_abs = _initial_step(rhs, y, f, t_final, tol)
    except DomainError:
        # the step-size probe left the domain: no step from the start is
        # known to stay inside it
        return Trajectory(np.array([0.0]), np.array([y]), error="domain_error")
    t = 0.0
    ts = [t]
    ys = [y]
    error = None
    steps = 0
    # row k of a sample grid sits at k * sample_dt; a running sum of
    # sample_dt would drift off that grid and miss its last row at t_final
    sample = 1
    while True:
        if steps >= MAX_STEPS:
            error = "max_steps"
            break
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        try:
            while h_abs >= min_step:
                t_new = min(t + h_abs, t_final)
                h = t_new - t
                y_new, stages, err = step(y, f, h, tol)
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else \
                        min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
                rejected = True
            else:   # rejected down to below min_step
                error = _UNDERFLOW
                break
        except DomainError:
            error = "domain_error"
            break
        steps += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, stages[-1]
        if config.collision_threshold is not None and \
                _min_pair_distance_sq(y, n) < config.collision_threshold:
            error = "collision"
            break
        if config.sample_dt is None:
            ts.append(t)
            ys.append(y)
        else:
            while (t_sample := sample * config.sample_dt) <= t * (1 + 1e-15):
                ts.append(t_sample)
                ys.append(_interpolate(y_old, stages, t - t_old,
                                       (t_sample - t_old) / (t - t_old)))
                sample += 1
        if t >= t_final:
            break
    return Trajectory(np.array(ts), np.array(ys), error=error,
                      accepted_steps=steps)


def _rms(values) -> float:
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / len(values) ** 0.5


def _initial_step(rhs, y0, f0, t_final, tol) -> float:
    """scipy's ``select_initial_step`` for error order 4, rtol = atol = tol."""
    scale = [tol + abs(v) * tol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_final)
    f1 = rhs([v + h0 * w for v, w in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_final)


# One Dormand-Prince step of size h from y, where k1 is the field at y,
# over a state of length m.  It returns the fifth-order state, the stages
# k1, k3..k7 (k2 has weight 0 in the solution, the error and the
# interpolant; k7 is the field at the new state) and the RMS error norm,
# each written out per component with the floating-point operations, in
# the same order, of the loop over components in tests/oracles.py
# (``dopri_reference``).  The field, the tableau and the norm's divisor
# sqrt(m) are bound per run, not written into the source, so one compiled
# source per m serves every field.
_DOPRI_SOURCE = """\
def _bind(rhs, A, B, E, norm):
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \\
        (a61, a62, a63, a64, a65) = A
    b1, b3, b4, b5, b6 = B
    e1, e3, e4, e5, e6, e7 = E
    def _step(y, k1, h, tol):
{body}        return y_new, (k1, k3, k4, k5, k6, k7), _sqrt({total}) / norm
    return _step
"""


@functools.lru_cache(maxsize=None)
def _dopri_source(m: int) -> str:
    def names(prefix):
        return "".join(f"{prefix}{i}, " for i in range(m))

    def combination(coefficient, stages, i):
        # the weighted stage sum of component i: a31 * k1_i + a32 * k2_i
        return " + ".join(f"{coefficient}{j} * k{j}_{i}" for j in stages)

    lines = [f"{names('y')}= y", f"{names('k1_')}= k1"]
    for j in range(2, 7):
        inputs = ", ".join(f"y{i} + ({combination(f'a{j}', range(1, j), i)})"
                           " * h" for i in range(m))
        lines += [f"k{j} = rhs([{inputs}])", f"{names(f'k{j}_')}= k{j}"]
    lines += [f"n{i} = y{i} + h * ({combination('b', (1, 3, 4, 5, 6), i)})"
              for i in range(m)]
    lines += [f"y_new = [{names('n')}]", "k7 = rhs(y_new)",
              f"{names('k7_')}= k7"]
    for i in range(m):
        lines += [f"v{i} = abs(y{i})", f"w{i} = abs(n{i})",
                  f"r{i} = ({combination('e', (1, 3, 4, 5, 6, 7), i)}) * h"
                  f" / (tol + (v{i} if v{i} >= w{i} else w{i}) * tol)"]
    return _DOPRI_SOURCE.format(
        body="".join(f"        {line}\n" for line in lines),
        total=" + ".join(f"r{i} * r{i}" for i in range(m)))


def _interpolate(y_old, stages, h, x):
    """The quartic interpolant of the step of size ``h`` from ``y_old``, at
    the fraction ``x`` of the step."""
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    (p12, p32, p42, p52, p62, p72), (p13, p33, p43, p53, p63, p73), \
        (p14, p34, p44, p54, p64, p74) = _P
    return [v + h * (s1 * x
                     + (p12 * s1 + p32 * s3 + p42 * s4 + p52 * s5 + p62 * s6
                        + p72 * s7) * x2
                     + (p13 * s1 + p33 * s3 + p43 * s4 + p53 * s5 + p63 * s6
                        + p73 * s7) * x3
                     + (p14 * s1 + p34 * s3 + p44 * s4 + p54 * s5 + p64 * s6
                        + p74 * s7) * x4)
            for v, s1, s3, s4, s5, s6, s7 in zip(y_old, *stages)]


def _compile_step(h: Expr, fld, n: int, params: dict[str, float], dt: float):
    """One composition step compiled from its trees: the new state, then H
    there.  Each update is y_i + k * f_i, with k grouped as (0.5*c)*dt or
    c*dt like the reference loop in tests/oracles.py and f_i the field over
    the current state's trees."""
    y = [q(i) for i in range(1, n + 1)] + [p(i) for i in range(1, n + 1)]
    coordinates = tuple(y)
    for c in (_W1, _W0, _W1):
        for k, field, offset in ((0.5 * c * dt, fld.dp, n), (c * dt, fld.dq, 0),
                                 (0.5 * c * dt, fld.dp, n)):
            state = dict(zip(coordinates, y))
            for i, f in enumerate(field):
                y[offset + i] = BinOp("+", y[offset + i], BinOp(
                    "*", Const(k), _substitute(f, state)))
    return compile_functions(
        y + [_substitute(h, dict(zip(coordinates, y)))], n, params)


def _integrate_symmetric4(h, fld, params, y0, t_final, n,
                          config) -> Trajectory:
    m = max(1, round(t_final / config.step))
    dt = t_final / m
    step = _compile_step(h, fld, n, params, dt)
    # a row is the state, then H there; the step reads only the state, so
    # the first row's H is a placeholder, and the column goes at the end
    y = (*map(float, y0), 0.0)
    ts = [0.0]
    ys = [y]
    error = None

    for step_idx in range(m):
        try:
            y = step(y)
        except DomainError:
            error = "domain_error"
            break
        if config.collision_threshold is not None and \
                _min_pair_distance_sq(y, n) < config.collision_threshold:
            error = "collision"
            break
        ts.append((step_idx + 1) * dt)
        ys.append(y)
    return Trajectory(np.array(ts), np.ascontiguousarray(np.array(ys)[:, :-1]),
                      error=error, accepted_steps=len(ts) - 1)


def conservation_report(traj: Trajectory, inv: InvariantSet) -> dict[str, float]:
    """Max relative drift |F(u(t)) - F(u(0))| / (1 + |F(u(0))|) per member."""
    fn = compile_functions(inv.exprs, inv.structure.n, inv.params)
    values = np.array([fn(row) for row in traj.states.tolist()])
    ref = values[0]
    drift = np.max(np.abs(values - ref), axis=0) / (1.0 + np.abs(ref))
    return {name: float(d) for name, d in zip(inv.names, drift)}


def flows_commute(a: Expr, b: Expr, structure: SymplecticStructure,
                  u0: EvalPoint, t: float, tau: float) -> tuple[bool, float]:
    """Compare flowing (a for t, then b for tau) against the reverse order.

    Both legs run the adaptive scheme at local tolerance COMMUTE_TOL/100;
    returns (endpoints agree within COMMUTE_TOL, euclidean defect).
    """
    config = IntegratorConfig(scheme="adaptive", tolerance=COMMUTE_TOL / 100.0)

    def run(h_expr, start, duration):
        traj = integrate(h_expr, structure, start, duration, config)
        if traj.error is not None:
            raise IntegrationError(f"flow leg failed: {traj.error}")
        return traj.final_point()

    ab = run(b, run(a, u0, t), tau)
    ba = run(a, run(b, u0, tau), t)
    defect = float(np.linalg.norm(ab.state() - ba.state()))
    return defect <= COMMUTE_TOL, defect


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: header t,q1..qn,p1..pn, rows at 17 significant digits."""
    n = traj.n
    header = ",".join(["t"] + [f"q{i}" for i in range(1, n + 1)]
                      + [f"p{i}" for i in range(1, n + 1)])
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in [t, *row]))
    return "\n".join(lines) + "\n"
