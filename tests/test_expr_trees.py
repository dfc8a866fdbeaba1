"""simplify and differentiate against the reference trees in oracles.py.

The library walks a sum's left spine once and cancels through a dict, and it
differentiates a subtree without the symbol straight to zero.  Both must
give exactly the trees of the nested recursion and the full derivative, so
the comparison is on ``repr``, which also tells 0.0 from -0.0.  The trees
come from seeded generators, so every run checks the same cases.
"""
import math

import numpy as np
import pytest

from liouville import (
    BinOp, Call, Const, Neg, Param, Pow, Var, differentiate, parse, simplify,
)
from liouville.expr import FUNCTIONS
from oracles import full_derivative, nested_simplify

# small constants and exponents keep every folded constant finite at depth 4
CONSTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0)
EXPONENTS = (0.0, 1.0, 2.0, 3.0, -1.0, 0.5)
SYMBOLS = (Var("q1"), Var("q2"), Var("p1"), Param("a"))


def _pick(rng, options):
    return options[rng.integers(0, len(options))]


def _leaf(rng):
    if rng.integers(0, 2):
        return Const(_pick(rng, CONSTS))
    return _pick(rng, SYMBOLS)


def _random_tree(rng, depth):
    """Any node kind at every level, a leaf at depth 0 or one time in six."""
    roll = rng.integers(0, 6) if depth else 0
    if roll == 0:
        return _leaf(rng)
    if roll == 1:
        return Neg(_random_tree(rng, depth - 1))
    if roll == 2:
        return Pow(_random_tree(rng, depth - 1), _pick(rng, EXPONENTS))
    if roll == 3:
        return Call(_pick(rng, FUNCTIONS), _random_tree(rng, depth - 1))
    return BinOp(_pick(rng, "+-*/"), _random_tree(rng, depth - 1),
                 _random_tree(rng, depth - 1))


def _random_sum(rng):
    """A left-nested chain over a pool of 2-3 terms, so terms repeat and
    cancel, with Neg wrappers, constants and nested sums as operands."""
    pool = [_random_tree(rng, 2) for _ in range(rng.integers(2, 4))]

    def operand():
        kind = rng.integers(0, 5)
        if kind == 0:
            return _pick(rng, pool)
        if kind == 1:
            return Neg(_pick(rng, pool))
        if kind == 2:
            return Const(_pick(rng, CONSTS))
        if kind == 3:
            return BinOp(_pick(rng, "+-"), _pick(rng, pool), _pick(rng, pool))
        return Neg(BinOp(_pick(rng, "+-"), _pick(rng, pool),
                         Const(_pick(rng, CONSTS))))

    node = operand()
    for _ in range(rng.integers(1, 12)):
        node = BinOp(_pick(rng, "+-"), node, operand())
    return node


def _trees():
    rng = np.random.default_rng(20261018)
    trees = [parse("q1+p1+q1-q1", 1)]       # the earliest +q1 cancels: p1+q1
    for _ in range(200):
        trees.append(_random_sum(rng))
        trees.append(_random_tree(rng, 4))
    return trees


def test_simplify_matches_nested_sum_recursion():
    for e in _trees():
        assert repr(simplify(e)) == repr(nested_simplify(e)), e


# constant calls and powers at the edges of the real domain: zeros of either
# sign, overflow, infinite arguments and powers of negative bases; the last
# two are where math.pow returns a value and the tree walk raises
FOLD_EDGES = (
    Call("ln", Const(0.0)), Call("ln", Const(-0.0)), Call("sqrt", Const(-0.0)),
    Call("exp", Const(1000.0)), Pow(Const(-8.0), 1.0 / 3.0),
    Pow(Const(0.0), -1.0), Pow(Const(-0.0), -3.0), Pow(Const(10.0), 400.0),
    Pow(Const(-2.0), 3.0), Call("sin", Const(math.inf)),
    Pow(Const(-math.inf), -1.0), Call("cos", Const(2.0)),
    parse("(-1e200*1e200)^(-0.5)", 0), Pow(Const(-0.5), math.inf),
)


@pytest.mark.parametrize("e", FOLD_EDGES, ids=repr)
def test_constant_folding_at_domain_edges_matches_tree_walk(e):
    assert repr(simplify(e)) == repr(nested_simplify(e))


def test_differentiate_matches_full_derivative_tree():
    for e in _trees():
        for s in ("q1", "p1", "a"):
            want = nested_simplify(full_derivative(e, s))
            assert repr(differentiate(e, s)) == repr(want), (e, s)


def test_symbol_free_neg_differentiates_to_negative_zero():
    d = differentiate(Neg(Var("q1")), "p1")
    assert isinstance(d, Const) and d.value == 0.0
    assert math.copysign(1.0, d.value) < 0
    d = differentiate(BinOp("*", Neg(Var("q1")), Var("q2")), "p1")
    assert repr(d) == "Const(value=0.0)"


def test_symbol_free_overflowing_subtree_differentiates_to_zero():
    # trees match only while folded constants stay finite: 1e200*1e200
    # folds to inf, the full derivative of inf*q2 meets inf*0 and reads
    # nan, and the shortcut reads 0
    e = parse("1e200*1e200*q2", 2)
    assert repr(nested_simplify(full_derivative(e, "p1"))) == "Const(value=nan)"
    assert repr(differentiate(e, "p1")) == "Const(value=0.0)"
