"""simplify, gradient and poisson_bracket against sympy, an independent
computer-algebra system.

Each tree is converted node by node: a constant or exponent becomes the
exact rational of its binary value, a variable or parameter a real symbol.
Values are compared at seeded points where both sides are defined, to 1e-9
relative (absolute below 1); brackets of polynomials with dyadic
coefficients are exact in floating point, so their identities are checked
symbolically.
"""
import math

import numpy as np
import pytest

from liouville import (
    Call, Const, DomainError, Neg, Param, Pow, Var, compile_functions,
    gradient, sample_eval_points, simplify,
)
from liouville.expr import _postorder
from liouville.symplectic import SymplecticStructure, poisson_bracket

sympy = pytest.importorskip("sympy")

from test_expr_trees import _digest_trees, _random_product, _trees  # noqa: E402
from test_symplectic import _random_poly  # noqa: E402

COORDS = ("q1", "q2", "p1", "p2")
PARAMS = {"a": 0.75}
_SYMPY_CALLS = {"ln": sympy.log, "sqrt": sympy.sqrt, "sin": sympy.sin,
                "cos": sympy.cos, "exp": sympy.exp}
_SYMPY_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _symbol(name):
    return sympy.Symbol(name, real=True)


def to_sympy(e):
    """The sympy expression of ``e``, built in one post-order pass."""
    out = {}
    for node in _postorder((e,)):
        cls = type(node)
        if cls is Const:
            value = sympy.Rational(node.value)
        elif cls is Var or cls is Param:
            value = _symbol(node.name)
        elif cls is Neg:
            value = -out[id(node.arg)]
        elif cls is Call:
            value = _SYMPY_CALLS[node.func](out[id(node.arg)])
        elif cls is Pow:
            value = out[id(node.base)] ** sympy.Rational(node.exponent)
        else:
            value = _SYMPY_OPS[node.op](out[id(node.left)], out[id(node.right)])
        out[id(node)] = value
    return out[id(e)]


def _sympy_values(fn, u):
    """sympy's values at ``u``, or None where one leaves the real domain."""
    try:
        values = fn(*(u.q + u.p), *PARAMS.values())
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        return None     # TypeError: a complex constant under a real function
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return None
    return [float(v) for v in values]


def _cases():
    """The seeded trees of STRUCTURAL_DIGEST, half the generator trees
    (signed zeros, ln, sqrt and a parameter) and products with Neg
    wrappers; about 2.5 s in all."""
    rng = np.random.default_rng(40)
    return (_digest_trees() + _trees()[:201]
            + [_random_product(rng, n) for n in range(2, 31)])


def test_simplify_and_gradient_match_sympy():
    points = sample_eval_points(2, 4, seed=16)
    syms = [_symbol(s) for s in COORDS]
    args = syms + [_symbol(name) for name in PARAMS]
    compared = 0
    for e in _cases():
        ours = [simplify(e), *gradient(e, COORDS)]
        se = to_sympy(e)
        theirs = sympy.lambdify(args, [se] + [sympy.diff(se, s) for s in syms],
                                "math")
        fn = compile_functions(ours, 2, PARAMS)
        for u in points:
            want = _sympy_values(theirs, u)
            if want is None:
                continue
            try:
                got = fn(u.q + u.p)
            except DomainError:
                continue
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w)), (e, u)
            compared += 1
    assert compared >= 1500      # of 2520 (tree, point) pairs


def test_poisson_bracket_matches_sympy_and_satisfies_jacobi():
    rng = np.random.default_rng(22)
    weights = (1.0, -2.0)
    s = SymplecticStructure(2, weights)
    qs, ps = [_symbol("q1"), _symbol("q2")], [_symbol("p1"), _symbol("p2")]

    def bracket(f, g):
        return sum(sympy.Rational(1.0 / w) * (sympy.diff(f, pj) * sympy.diff(g, qj)
                                              - sympy.diff(f, qj) * sympy.diff(g, pj))
                   for w, qj, pj in zip(weights, qs, ps))

    for _ in range(8):
        f, g, k = (_random_poly(rng, 2) for _ in range(3))
        fg = poisson_bracket(f, g, s)
        assert sympy.expand(to_sympy(fg) - bracket(to_sympy(f), to_sympy(g))) == 0
        cyclic = (poisson_bracket(fg, k, s)
                  + poisson_bracket(poisson_bracket(g, k, s), f, s)
                  + poisson_bracket(poisson_bracket(k, f, s), g, s))
        assert sympy.expand(to_sympy(cyclic)) == 0
