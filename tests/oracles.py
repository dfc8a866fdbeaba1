"""Numeric oracles shared by the test modules."""
from liouville import (
    BinOp, Call, Const, DomainError, Neg, Param, Pow, Var, dimension_of,
    evaluate, sample_eval_points,
)
from liouville.expr import (
    _add_terms, _fold, _mul_factors, _rebuild_product, _rebuild_sum,
)


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
            va = evaluate(a, u)
            vb = evaluate(b, u)
        except DomainError:
            continue
        used += 1
        if abs(va - vb) > 1e-9 * (1.0 + abs(va)):
            return False
    if used == 0:
        raise ValueError("every sampled point hit a domain error")
    return True


# ---------------------------------------------------------------------------
# reference trees: the nested sum simplification and the full derivative
# tree, as expr.py built them before its linear-time passes


def nested_simplify(e):
    """``simplify`` with the nested ``+``/``-`` recursion and quadratic scan.

    Each sum level simplifies both operands, re-flattens the left one and
    cancels every new term against the earliest opposite term by a linear
    scan.  The other branches repeat ``simplify``'s rules.
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
