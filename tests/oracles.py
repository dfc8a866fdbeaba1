"""Numeric oracles shared by the test modules."""
import math

import numpy as np

from liouville import (
    BinOp, Call, Const, DomainError, EvalPoint, ExprError, Neg, Param, Pow,
    UnboundSymbolError, Var, dimension_of, sample_eval_points, to_string,
)
from liouville import flows
from liouville.algebra import SamplingError
from liouville.expr import (
    _add_terms, _mul_factors, _rebuild_product, _rebuild_sum,
    compile_functions,
)
from liouville.symplectic import hamiltonian_vector_field


# ---------------------------------------------------------------------------
# the recursive tree walk that compile_functions must match bit for bit,
# domain failures included


def reference_evaluate(e, point, params=None):
    """Evaluate ``e`` at ``point`` with ``params`` binding its named
    parameters; raises DomainError outside the real domain."""
    value = _eval(e, point, params or {})
    if not math.isfinite(value):
        raise DomainError(f"evaluation produced a non-finite value for {to_string(e)!r}")
    return value


def _eval(e, u, params):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        kind, idx = e.name[0], int(e.name[1:])
        values = u.q if kind == "q" else u.p
        if idx > len(values):
            raise UnboundSymbolError(f"variable {e.name} unbound at a {len(values)}-degree point")
        return values[idx - 1]
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundSymbolError(f"parameter {e.name!r} unbound") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, u, params)
    if isinstance(e, BinOp):
        a = _eval(e.left, u, params)
        b = _eval(e.right, u, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, u, params)
        c = e.exponent
        if base < 0 and not float(c).is_integer():
            raise DomainError("negative base with a non-integer exponent")
        if base == 0.0 and c < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return math.pow(base, c)
        except OverflowError:
            raise DomainError("overflow in power") from None
    if isinstance(e, Call):
        x = _eval(e.arg, u, params)
        if e.func == "ln":
            if x <= 0.0:
                raise DomainError("ln of a non-positive value")
            return math.log(x)
        if e.func == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt of a negative value")
            return math.sqrt(x)
        try:
            if e.func == "sin":
                return math.sin(x)
            if e.func == "cos":
                return math.cos(x)
            return math.exp(x)
        except ValueError:
            raise DomainError(f"{e.func} of a non-finite value") from None
        except OverflowError:
            raise DomainError("overflow in exp") from None
    raise TypeError(f"not an expression node: {e!r}")


_NO_POINT = EvalPoint((), ())


def _fold(e):
    """The constant value of a variable-free node, or None off the domain."""
    try:
        value = _eval(e, _NO_POINT, {})
    except (ExprError, ValueError):
        return None
    return Const(value) if math.isfinite(value) else None


def numerically_equivalent(a, b) -> bool:
    """True iff |a - b| <= 1e-9 * (1 + |a|) at every usable one of 40
    seeded sample points.

    Points where either side raises a domain error are skipped; a
    ValueError is raised when every sample is skipped.
    """
    n = max(dimension_of(a), dimension_of(b), 1)
    used = 0
    for u in sample_eval_points(n, 40, seed=0):
        try:
            va = reference_evaluate(a, u)
            vb = reference_evaluate(b, u)
        except DomainError:
            continue
        used += 1
        if abs(va - vb) > 1e-9 * (1.0 + abs(va)):
            return False
    if used == 0:
        raise ValueError("every sampled point hit a domain error")
    return True


# ---------------------------------------------------------------------------
# the screening loop that draws and evaluates every batch afresh, which
# InvariantSet.sample_points, and the outcomes it keeps for _evaluate, must
# match bit for bit


def reference_screened_samples(inv, count, seed):
    """(points, values (count, k), Jacobians (count, k, 2n)) of ``count``
    seeded points where every member and member gradient evaluates; batch i
    has ``count`` points drawn with ``seed + i``, and SamplingError is raised
    once 10 * count points were drawn."""
    good = []
    values = []
    jacobians = []
    drawn = 0
    batch_seed = seed
    while len(good) < count:
        if drawn >= 10 * count:
            raise SamplingError(
                f"could not find {count} sample points clear of domain errors")
        batch = sample_eval_points(inv.structure.n, count, batch_seed)
        batch_seed += 1
        for u in batch:
            drawn += 1
            try:
                value, jacobian = inv._evaluate(u)
            except DomainError:
                continue
            good.append(u)
            values.append(value)
            jacobians.append(jacobian)
            if len(good) == count:
                break
    return good, np.array(values), np.array(jacobians)


# ---------------------------------------------------------------------------
# reference trees: the nested sum simplification and the full derivative
# tree, as expr.py built them before its linear-time passes


def nested_simplify(e):
    """``simplify`` with the nested ``+``/``-`` recursion and quadratic scan.

    Each sum level simplifies both operands, re-flattens the left one and
    cancels every new term against the earliest opposite term by a linear
    scan.  The other branches repeat ``simplify``'s rules, except that a
    constant call or power folds through the tree walk ``_eval`` and its
    domain guards rather than through ``math`` directly.
    """
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Neg):
        arg = nested_simplify(e.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(e, Call):
        arg = nested_simplify(e.arg)
        if isinstance(arg, Const):
            folded = _fold(Call(e.func, arg))
            if folded is not None:
                return folded
        return Call(e.func, arg)
    if isinstance(e, Pow):
        base = nested_simplify(e.base)
        if e.exponent == 0.0:
            return Const(1.0)
        if e.exponent == 1.0:
            return base
        if isinstance(base, Const):
            folded = _fold(Pow(base, e.exponent))
            if folded is not None:
                return folded
        return Pow(base, e.exponent)
    left = nested_simplify(e.left)
    right = nested_simplify(e.right)
    if e.op in ("+", "-"):
        raw = []
        _add_terms(BinOp(e.op, left, right), 1, raw)
        const_acc = 0.0
        cancelled = []
        for sign, t in raw:
            if isinstance(t, Const):
                const_acc += sign * t.value
                continue
            for k, (s2, t2) in enumerate(cancelled):
                if s2 == -sign and t2 == t:
                    del cancelled[k]
                    break
            else:
                cancelled.append((sign, t))
        return _rebuild_sum(cancelled, const_acc)
    if e.op == "*":
        factors = []
        const_acc = float(_mul_factors(BinOp("*", left, right), factors))
        kept = []
        for f in factors:
            if isinstance(f, Const):
                const_acc *= f.value
            else:
                kept.append(f)
        if const_acc == 0.0:
            return Const(0.0)
        return _rebuild_product(kept, const_acc)
    if isinstance(left, Const) and left.value == 0.0:
        return Const(0.0)
    if isinstance(right, Const) and right.value == 1.0:
        return left
    if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
        return Const(left.value / right.value)
    return BinOp("/", left, right)


def full_derivative(e, s):
    """The unsimplified derivative tree of every subtree, zeros included."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, (Var, Param)):
        return Const(1.0) if e.name == s else Const(0.0)
    if isinstance(e, Neg):
        return Neg(full_derivative(e.arg, s))
    if isinstance(e, BinOp):
        da, db = full_derivative(e.left, s), full_derivative(e.right, s)
        if e.op in ("+", "-"):
            return BinOp(e.op, da, db)
        if e.op == "*":
            return BinOp("+", BinOp("*", da, e.right), BinOp("*", e.left, db))
        num = BinOp("-", BinOp("*", da, e.right), BinOp("*", e.left, db))
        return BinOp("/", num, Pow(e.right, 2.0))
    if isinstance(e, Pow):
        scaled = BinOp("*", Const(e.exponent), Pow(e.base, e.exponent - 1.0))
        return BinOp("*", scaled, full_derivative(e.base, s))
    outer = {
        "ln": lambda a: BinOp("/", Const(1.0), a),
        "sqrt": lambda a: BinOp("/", Const(0.5), Call("sqrt", a)),
        "sin": lambda a: Call("cos", a),
        "cos": lambda a: Neg(Call("sin", a)),
        "exp": lambda a: Call("exp", a),
    }[e.func](e.arg)
    return BinOp("*", outer, full_derivative(e.arg, s))


# ---------------------------------------------------------------------------
# the fixed-step triple jump as a numpy loop over separately compiled drift
# and kick, which flows.py's generated step must reproduce bit for bit


def symmetric4_reference(h, structure, u0, t_final, step, params=None):
    """States of every step and the truncation reason (None or
    "domain_error") of the order-4 composition of ``h`` from ``u0``, with
    ``params`` binding the named parameters of ``h``.

    Uses the step count and step size of ``integrate``; stops before the
    first step whose drift or kick raises :class:`DomainError` or whose
    state is not finite.
    """
    n = structure.n
    fld = hamiltonian_vector_field(h, structure)
    dq_field = compile_functions(fld.dq, n, params)
    dp_field = compile_functions(fld.dp, n, params)
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    m = max(1, round(t_final / step))
    dt = t_final / m
    y = u0.state()
    ys = [y.copy()]
    for _ in range(m):
        try:
            for c in (w1, w0, w1):
                y[n:] += 0.5 * c * dt * np.asarray(dp_field(y))
                y[:n] += c * dt * np.asarray(dq_field(y))
                y[n:] += 0.5 * c * dt * np.asarray(dp_field(y))
        except DomainError:
            return np.array(ys), "domain_error"
        if not np.all(np.isfinite(y)):
            return np.array(ys), "domain_error"
        ys.append(y.copy())
    return np.array(ys), None


# ---------------------------------------------------------------------------
# the adaptive Dormand-Prince run as a loop over components, which flows.py's
# generated step must reproduce bit for bit


def dopri_reference(h, structure, u0, t_final, config):
    """Times, states, truncation reason and accepted-step count of the
    adaptive scheme on the flow of ``h`` from ``u0`` under ``config``.

    Each step is one comprehension per stage over the components and one
    loop for the RMS error norm; the initial step, the controller, the
    interpolant and the sample grid at k * ``sample_dt`` are those of
    ``integrate``.
    """
    fld = hamiltonian_vector_field(h, structure)
    rhs = compile_functions(fld.dq + fld.dp, structure.n)
    tol = config.tolerance
    y = list(map(float, u0.state()))
    f = rhs(y)
    try:
        h_abs = flows._initial_step(rhs, y, f, t_final, tol)
    except DomainError:
        return np.array([0.0]), np.array([y]), "domain_error", 0
    t = 0.0
    ts = [t]
    ys = [y]
    error = None
    steps = 0
    sample = 1
    while True:
        if steps >= flows.MAX_STEPS:
            error = "max_steps"
            break
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        try:
            while h_abs >= min_step:
                t_new = min(t + h_abs, t_final)
                step = t_new - t
                y_new, stages = _dopri_step(rhs, y, f, step)
                err = _error_norm(y, y_new, stages, step, tol)
                if err < 1:
                    factor = flows._MAX_FACTOR if err == 0 else \
                        min(flows._MAX_FACTOR, flows._SAFETY * err ** -0.2)
                    h_abs = step * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = step * max(flows._MIN_FACTOR,
                                   flows._SAFETY * err ** -0.2)
                rejected = True
            else:
                error = flows._UNDERFLOW
                break
        except DomainError:
            error = "domain_error"
            break
        steps += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, stages[-1]
        if config.collision_threshold is not None and \
                flows._min_pair_distance_sq(y, structure.n) \
                < config.collision_threshold:
            error = "collision"
            break
        if config.sample_dt is None:
            ts.append(t)
            ys.append(y)
        else:
            while sample * config.sample_dt <= t * (1 + 1e-15):
                t_sample = sample * config.sample_dt
                ts.append(t_sample)
                ys.append(flows._interpolate(
                    y_old, stages, t - t_old, (t_sample - t_old) / (t - t_old)))
                sample += 1
        if t >= t_final:
            break
    return np.array(ts), np.array(ys), error, steps


def _dopri_step(rhs, y, k1, h):
    """One Dormand-Prince step of size ``h`` from ``y``, where ``k1`` is the
    field at ``y``: the fifth-order state and the stages k1, k3..k7."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = flows._A
    b1, b3, b4, b5, b6 = flows._B
    k2 = rhs([v + (a21 * s1) * h for v, s1 in zip(y, k1)])
    k3 = rhs([v + (a31 * s1 + a32 * s2) * h
              for v, s1, s2 in zip(y, k1, k2)])
    k4 = rhs([v + (a41 * s1 + a42 * s2 + a43 * s3) * h
              for v, s1, s2, s3 in zip(y, k1, k2, k3)])
    k5 = rhs([v + (a51 * s1 + a52 * s2 + a53 * s3 + a54 * s4) * h
              for v, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs([v + (a61 * s1 + a62 * s2 + a63 * s3 + a64 * s4 + a65 * s5) * h
              for v, s1, s2, s3, s4, s5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (b1 * s1 + b3 * s3 + b4 * s4 + b5 * s5 + b6 * s6)
             for v, s1, s3, s4, s5, s6 in zip(y, k1, k3, k4, k5, k6)]
    return y_new, (k1, k3, k4, k5, k6, rhs(y_new))


def _error_norm(y, y_new, stages, h, tol) -> float:
    """RMS of the embedded error estimate, scaled per component by
    tol + max(|y|, |y_new|) * tol."""
    e1, e3, e4, e5, e6, e7 = flows._E
    total = 0.0
    for v, w, s1, s3, s4, s5, s6, s7 in zip(y, y_new, *stages):
        v, w = abs(v), abs(w)
        r = (e1 * s1 + e3 * s3 + e4 * s4 + e5 * s5 + e6 * s6 + e7 * s7) * h \
            / (tol + (v if v >= w else w) * tol)
        total += r * r
    return math.sqrt(total) / len(y) ** 0.5


def rk45_reference(h, structure, u0, t_final, tolerance, sample_dt=None):
    """Times, states, accepted-step count and truncation reason of
    ``scipy.integrate.RK45`` on the flow of ``h`` from ``u0``, with
    rtol = atol = ``tolerance``: one row per accepted step, or per point of
    the ``sample_dt`` grid from the solver's dense output.  Stops on
    :class:`DomainError` and on step underflow like ``integrate``.
    """
    from scipy.integrate import RK45

    fld = hamiltonian_vector_field(h, structure)
    rhs = compile_functions(fld.dq + fld.dp, structure.n)
    solver = RK45(lambda t, y: rhs(y), 0.0, u0.state(), t_bound=t_final,
                  rtol=tolerance, atol=tolerance)
    ts = [0.0]
    ys = [u0.state()]
    steps = 0
    sample = 1
    while solver.status == "running":
        try:
            message = solver.step()
        except DomainError:
            return np.array(ts), np.array(ys), steps, "domain_error"
        if solver.status == "failed":
            return np.array(ts), np.array(ys), steps, f"step_underflow: {message}"
        steps += 1
        if sample_dt is None:
            ts.append(solver.t)
            ys.append(solver.y.copy())
        else:
            dense = solver.dense_output()
            while sample * sample_dt <= solver.t * (1 + 1e-15):
                ts.append(sample * sample_dt)
                ys.append(dense(sample * sample_dt))
                sample += 1
    return np.array(ts), np.array(ys), steps, None
