"""Numerical flows of Hamiltonian fields and flow-based diagnostics.

Two schemes: an adaptive embedded Runge-Kutta 5(4) pair (default) and a
fixed-step symmetric composition of order 4 for separable Hamiltonians
H = T(p) + V(q).  Trajectories carry one row per accepted step, or, for
the adaptive scheme, one row per uniform sample when ``sample_dt`` is set.

The fixed-step scheme runs one generated straight-line function per step:
the kick, drift, kick of each of the three sub-steps over Python floats,
with the same floating-point operations in the same order as evaluating
the compiled drift and kick and updating a state array, followed by H at
the step's end, so a step that leaves H's domain truncates the run even
where the drift and the kick are still defined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    DomainError, EvalPoint, Expr, _binder_from_source, _emit,
    compile_functions, parameters_of, variables_of,
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


class IntegrationError(Exception):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and control knobs for :func:`integrate`.

    ``scheme`` is "adaptive" (embedded 5(4) pair, local tolerance
    ``tolerance``) or "symmetric4" (fixed ``step``, separable H only).
    ``sample_dt`` switches an adaptive trajectory to a uniform output grid
    of at most ``max_steps`` rows; the fixed-step scheme has no interpolant
    and rejects it.  ``collision_threshold`` aborts when the
    minimum pairwise squared distance between the per-degree points
    (q_j, p_j) drops below it.  Every number must be finite.
    """

    scheme: str = "adaptive"
    tolerance: float = 1e-9
    step: float | None = None
    max_steps: int = 2_000_000
    sample_dt: float | None = None
    collision_threshold: float | None = None

    def __post_init__(self):
        if self.scheme not in ("adaptive", "symmetric4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("tolerance", "step", "sample_dt", "collision_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.scheme == "adaptive" and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.scheme == "symmetric4" and (self.step is None or self.step <= 0):
            raise ValueError("symmetric4 needs a positive fixed step")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.sample_dt is not None and self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        if self.sample_dt is not None and self.scheme != "adaptive":
            raise ValueError("sample_dt applies to the adaptive scheme only")


@dataclass
class Trajectory:
    """Times, states (rows of q1..qn,p1..pn), and provenance of one flow run."""

    times: np.ndarray
    states: np.ndarray
    params: dict[str, float] = field(default_factory=dict)
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
        return EvalPoint(tuple(y[:n]), tuple(y[n:]), self.params)


def _min_pair_distance_sq(y: np.ndarray, n: int) -> float:
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = (y[i] - y[j]) ** 2 + (y[n + i] - y[n + j]) ** 2
            best = min(best, d)
    return best


def integrate(h: Expr, structure: SymplecticStructure, u0: EvalPoint,
              t_final: float, config: IntegratorConfig = IntegratorConfig()
              ) -> Trajectory:
    """Integrate the flow of ``h`` from the finite point ``u0`` for the
    finite time ``t_final`` (> 0).

    The symmetric scheme refuses a field whose dq mentions a q or whose dp
    mentions a p, and evaluates dq (drift) and dp (kick) separately.
    Domain errors (of the field, or for the symmetric scheme of H at the end
    of a step), collisions, step underflow, and step-budget exhaustion
    truncate the trajectory and set ``error`` instead of raising; a start
    where the field or H is undefined raises :class:`IntegrationError`.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if config.sample_dt is not None and \
            t_final / config.sample_dt >= config.max_steps:
        raise ValueError("the sample_dt grid has more than max_steps rows")
    if u0.n != structure.n:
        raise ValueError("initial point dimension mismatch")
    y0 = u0.state()
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial point must be finite")
    unbound = parameters_of(h) - set(u0.params)
    if unbound:
        raise ValueError(f"Hamiltonian uses unbound parameters: {sorted(unbound)}")
    fld = hamiltonian_vector_field(h, structure)
    symmetric = config.scheme == "symmetric4"
    if symmetric and (any(v[0] == "q" for v in variables_of(*fld.dq)) or
                      any(v[0] == "p" for v in variables_of(*fld.dp))):
        raise ValueError("the symmetric fixed-step scheme needs a separable "
                         "Hamiltonian H = T(p) + V(q)")
    rhs = compile_functions(fld.dq + fld.dp, structure.n, u0.params)
    try:
        rhs(y0)
        compile_functions([h], structure.n, u0.params)(y0)
    except DomainError as exc:
        raise IntegrationError(f"initial point outside the domain: {exc}") from None
    if symmetric:
        traj = _integrate_symmetric4(h, fld, u0.params, y0, t_final,
                                     structure.n, config)
    else:
        traj = _integrate_adaptive(rhs, y0, t_final, structure.n, config)
    traj.params = dict(u0.params)
    return traj


def _integrate_adaptive(rhs, y0, t_final, n, config) -> Trajectory:
    # scipy costs most of the package's import time; only this scheme uses it
    from scipy.integrate import RK45

    # RK45 turns each returned tuple into a float array itself
    solver = RK45(lambda t, y: rhs(y), 0.0, y0, t_bound=t_final,
                  rtol=config.tolerance, atol=config.tolerance)
    ts = [0.0]
    ys = [np.array(y0, dtype=float)]
    error = None
    steps = 0
    next_sample = config.sample_dt if config.sample_dt else None
    while solver.status == "running":
        if steps >= config.max_steps:
            error = "max_steps"
            break
        try:
            message = solver.step()
        except DomainError:
            error = "domain_error"
            break
        if solver.status == "failed":
            error = f"step_underflow: {message}"
            break
        steps += 1
        if config.collision_threshold is not None and \
                _min_pair_distance_sq(solver.y, n) < config.collision_threshold:
            error = "collision"
            break
        if next_sample is None:
            ts.append(solver.t)
            ys.append(solver.y.copy())
        else:
            dense = solver.dense_output()
            while next_sample <= solver.t * (1 + 1e-15):
                ts.append(next_sample)
                ys.append(np.asarray(dense(next_sample), dtype=float))
                next_sample += config.sample_dt
    return Trajectory(np.array(ts), np.array(ys), error=error,
                      accepted_steps=steps)


# The coefficients h1, d1, h0, d0 are bound per run, not written into the
# source, so one cached source serves every step size.
_STEP_SOURCE = """\
def _bind(c, h1, d1, h0, d0):
    def _step(y):
        y = list(y)
        try:
{body}            e = {energy}
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _DomainError(str(exc)) from None
        if not _isfinite(e):
            raise _DomainError("non-finite Hamiltonian after a step")
        for v in y:
            if not _isfinite(v):
                raise _DomainError("non-finite state after a step")
        return tuple(y)
    return _step
"""


def _compile_step(h: Expr, fld, n: int, params: dict[str, float], dt: float):
    param_index = {name: i for i, name in enumerate(sorted(params))}
    kick = _emit(fld.dp, n, param_index)
    drift = _emit(fld.dq, n, param_index)
    energy_lines, (energy,) = _emit([h], n, param_index)
    lines = []
    for half, full in (("h1", "d1"), ("h0", "d0"), ("h1", "d1")):
        for k, (body, outs), offset in ((half, kick, n), (full, drift, 0),
                                        (half, kick, n)):
            lines += body
            lines += [f"y[{offset + i}] = y[{offset + i}] + {k}*({out})"
                      for i, out in enumerate(outs)]
    lines += energy_lines
    bind = _binder_from_source(_STEP_SOURCE.format(
        body="".join(f"            {line}\n" for line in lines),
        energy=energy))
    # grouped as (0.5*c)*dt and c*dt, like the reference loop in tests/oracles.py
    return bind(tuple(float(params[name]) for name in sorted(params)),
                0.5 * _W1 * dt, _W1 * dt, 0.5 * _W0 * dt, _W0 * dt)


def _integrate_symmetric4(h, fld, params, y0, t_final, n,
                          config) -> Trajectory:
    m = max(1, round(t_final / config.step))
    truncated_budget = m > config.max_steps
    dt = t_final / m
    if truncated_budget:
        m = config.max_steps
    step = _compile_step(h, fld, n, params, dt)
    y = tuple(map(float, y0))
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
                _min_pair_distance_sq(np.array(y), n) < config.collision_threshold:
            error = "collision"
            break
        ts.append((step_idx + 1) * dt)
        ys.append(y)
    if error is None and truncated_budget:
        error = "max_steps"
    return Trajectory(np.array(ts), np.array(ys), error=error,
                      accepted_steps=len(ts) - 1)


def conservation_report(traj: Trajectory, inv: InvariantSet) -> dict[str, float]:
    """Max relative drift |F(u(t)) - F(u(0))| / (1 + |F(u(0))|) per member."""
    params = dict(inv.params)
    params.update(traj.params)
    fn = compile_functions(inv.exprs, inv.structure.n, params)
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
