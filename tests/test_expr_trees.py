"""simplify, differentiate and gradient against the reference trees.

The library walks a sum's or a product's left spine once and cancels
through a dict, and it differentiates a subtree without the symbol straight
to zero.  Both must give exactly the trees of the nested recursion and the
full derivative, so the comparison is on ``repr``, which also tells 0.0 from
-0.0.  The trees come from seeded generators, so every run checks the same
cases.
"""
import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from liouville import (
    BinOp, Call, Const, DomainError, Neg, Param, Pow, Var, compile_functions,
    differentiate, dimension_of, gradient, parameters_of, parse,
    sample_eval_points, simplify, substitute_param, to_string, variables_of,
)
from liouville.expr import (
    FUNCTIONS, _Node, _binder_from_source, _children, _emit, _postorder,
    _substitute,
)
from oracles import full_derivative, nested_simplify, reference_evaluate
from test_expr import _random_expr

# small constants and exponents keep every folded constant finite at depth 4
CONSTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0)
EXPONENTS = (0.0, 1.0, 2.0, 3.0, -1.0, 0.5)
SYMBOLS = (Var("q1"), Var("q2"), Var("p1"), Param("a"))


def _pick(rng, options):
    return options[rng.integers(0, len(options))]


def _leaf(rng, symbols):
    if rng.integers(0, 2):
        return Const(_pick(rng, CONSTS))
    return _pick(rng, symbols)


def _random_tree(rng, depth, symbols=SYMBOLS):
    """Any node kind at every level, a leaf at depth 0 or one time in six."""
    roll = rng.integers(0, 6) if depth else 0
    if roll == 0:
        return _leaf(rng, symbols)
    if roll == 1:
        return Neg(_random_tree(rng, depth - 1, symbols))
    if roll == 2:
        return Pow(_random_tree(rng, depth - 1, symbols),
                   _pick(rng, EXPONENTS))
    if roll == 3:
        return Call(_pick(rng, FUNCTIONS),
                    _random_tree(rng, depth - 1, symbols))
    return BinOp(_pick(rng, "+-*/"), _random_tree(rng, depth - 1, symbols),
                 _random_tree(rng, depth - 1, symbols))


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


# constants of one product: nonzero ones that fold to +-1 (0.5*2, -1*-1) or
# to other finite values, and the zeros of either sign
PRODUCT_CONSTS = ((1.0, -1.0), (0.5, 2.0, -1.0, -2.0), (0.0, -0.0, -1.0, 2.0))


def _random_product(rng, length):
    """A left-nested product of ``length`` operands over one constant pool,
    with a Neg over the chain at any depth of its spine.  An operand is a
    constant, a symbol, a negated one, a small sum, call or power, or a Neg
    over a parenthesised sub-product with a Neg inside: a Neg flips the
    whole product's sign once."""
    consts = PRODUCT_CONSTS[rng.integers(0, len(PRODUCT_CONSTS))]

    def operand():
        kind = rng.integers(0, 6)
        if kind == 0:
            return Const(_pick(rng, consts))
        if kind == 1:
            return Neg(_pick(rng, SYMBOLS))
        if kind == 2:
            return Neg(BinOp("*", _pick(rng, SYMBOLS), Neg(BinOp(
                "*", Const(_pick(rng, consts)), _pick(rng, SYMBOLS)))))
        if kind == 3:
            return _pick(rng, (
                BinOp(_pick(rng, "+-"), _pick(rng, SYMBOLS), Const(2.0)),
                Pow(_pick(rng, SYMBOLS), _pick(rng, EXPONENTS)),
                Call(_pick(rng, FUNCTIONS), _pick(rng, SYMBOLS))))
        return _pick(rng, SYMBOLS)

    node = operand()
    for _ in range(length - 1):
        node = BinOp("*", node, operand())
        if rng.integers(0, 8) == 0:
            node = Neg(node)
    return node


def _products():
    rng = np.random.default_rng(20261020)
    lengths = [2, 3, 5, 300] + [int(n) for n in rng.integers(2, 300, size=56)]
    return [_random_product(rng, n) for n in lengths]


def test_simplify_matches_nested_sum_recursion():
    # the nested recursion of products too: chains up to 300 factors
    for e in _trees() + _products():
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


def _long_mixed_sum(rng, terms):
    """A left-nested sum of ``terms`` random depth-2 trees, constants and
    negated trees, under both signs."""
    node = _random_tree(rng, 2)
    for _ in range(terms - 1):
        kind = rng.integers(0, 4)
        if kind == 0:
            operand = Const(_pick(rng, CONSTS))
        elif kind == 1:
            operand = Neg(_random_tree(rng, 2))
        else:
            operand = _random_tree(rng, 2)
        node = BinOp(_pick(rng, "+-"), node, operand)
    return node


def test_differentiate_matches_full_derivative_tree():
    # the long sum stays under the recursion limit of the reference trees;
    # the library walks its spine in a loop
    long_sum = _long_mixed_sum(np.random.default_rng(400), 400)
    rng = np.random.default_rng(30)
    products = [_random_product(rng, n) for n in range(2, 31)]
    for e in _trees() + [long_sum] + products:
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


def test_product_longer_than_the_recursion_limit():
    q1 = Var("q1")
    e = q1
    for _ in range(2999):
        e = BinOp("*", e, q1)
    out, count = simplify(e), 1
    while type(out) is BinOp:
        assert out.op == "*" and out.right == q1
        out, count = out.left, count + 1
    assert out == q1 and count == 3000


def test_overflow_meeting_zero_in_a_product_keeps_its_factors():
    # trees match only while folded constants stay finite: the nested
    # recursion folds 0*q1 to 0 first and drops q1, then 0*inf reads nan;
    # one flat fold meets 0*inf with q1 still kept.  Neither one prints or
    # evaluates.
    q1 = Var("q1")
    e = BinOp("*", BinOp("*", Const(0.0), q1),
              BinOp("*", Const(1e200), Const(1e200)))
    assert repr(nested_simplify(e)) == "Const(value=nan)"
    got = simplify(e)
    assert repr(got) == repr(BinOp("*", Const(math.nan), q1))
    with pytest.raises(ValueError, match="non-finite"):
        to_string(got)
    with pytest.raises(DomainError):
        compile_functions([got], 1)((1.0, 0.0))


GRADIENT_SYMBOLS = ("q1", "q2", "p1", "p2")
# -0.0, symbol-free Neg wrappers (one and two deep) and subtrees that fold
# to inf, alone and next to the symbols
GRADIENT_EDGES = (
    parse("1e200*1e200*q2", 2), parse("q1*(1e200*1e200)+p2", 2),
    Neg(Var("q1")), BinOp("*", Neg(Var("q1")), Var("q2")),
    Neg(Neg(BinOp("*", Var("p1"), Const(-0.0)))),
    BinOp("-", Neg(Neg(Var("q1"))), Neg(Const(-0.0))),
    BinOp("/", Const(-0.0), Neg(Var("p2"))),
    Call("exp", BinOp("*", Neg(Param("a")), Var("q1"))),
)


def _digest_trees():
    """The 200 seeded random trees that STRUCTURAL_DIGEST hashes."""
    rng = np.random.default_rng(2718)
    return [_random_expr(rng) for _ in range(200)]


def _printed(e):
    try:
        return to_string(e)
    except ValueError:      # a non-finite constant has no printed form
        return None


@pytest.mark.parametrize("trees", [_digest_trees, _trees,
                                   lambda: list(GRADIENT_EDGES)],
                         ids=["digest", "generators", "edges"])
def test_gradient_matches_per_symbol_differentiate(trees):
    for e in trees():
        got = gradient(e, GRADIENT_SYMBOLS)
        want = [differentiate(e, s) for s in GRADIENT_SYMBOLS]
        assert [repr(g) for g in got] == [repr(w) for w in want], e
        assert [_printed(g) for g in got] == [_printed(w) for w in want], e
        # a partial is simplified already: simplify leaves it as it is
        assert [repr(simplify(g)) for g in got] == [repr(g) for g in got], e
        # the memo shared across symbols does not depend on their order
        backwards = gradient(e, GRADIENT_SYMBOLS[::-1])
        assert [repr(g) for g in backwards[::-1]] == [repr(w) for w in want], e


def test_gradient_edges_match_full_derivative_tree():
    for e in GRADIENT_EDGES[2:]:      # the first two fold to inf
        for s, got in zip(GRADIENT_SYMBOLS, gradient(e, GRADIENT_SYMBOLS)):
            assert repr(got) == repr(nested_simplify(full_derivative(e, s))), (e, s)


def test_cached_hash_is_structural():
    text = "ln((q1-q2)^2+(p1-p2)^2)*exp(-q1)/(2+sin(p1))"
    a, b = parse(text, 2), parse(text, 2)
    assert a is not b and a == b
    assert hash(a) == hash(b)
    # the hash dataclass generates: of the field tuple
    assert hash(a) == hash((a.op, a.left, a.right))
    assert hash(Neg(a)) == hash(Neg(b)) == hash((a,))
    assert len({a, b, Neg(a), Neg(b)}) == 2


def test_cached_hash_keeps_equality_of_signed_zeros_and_nan():
    assert Const(0.0) == Const(-0.0)
    assert Neg(Const(0.0)) == Neg(Const(-0.0))
    assert hash(Neg(Const(0.0))) == hash(Neg(Const(-0.0)))
    nan_a, nan_b = Const(float("nan")), Const(float("nan"))
    assert nan_a != nan_b and nan_a == nan_a
    left, right = BinOp("+", nan_a, Var("q1")), BinOp("+", nan_b, Var("q1"))
    hash(left), hash(right)
    assert left != right and left == BinOp("+", nan_a, Var("q1"))
    assert left in {left} and right not in {left}


def test_cached_hash_stays_out_of_fields_repr_and_pickle():
    e = parse("-(q1+p1)^3", 1)
    before = repr(e)
    hash(e)
    assert repr(e) == before == \
        "Neg(arg=Pow(base=BinOp(op='+', left=Var(name='q1'), " \
        "right=Var(name='p1')), exponent=3.0))"
    assert [f.name for f in dataclasses.fields(e)] == ["arg"]
    assert dataclasses.astuple(e.arg.base) == ("+", ("q1",), ("p1",))
    # a hash cached in one process does not travel to another
    again = pickle.loads(pickle.dumps(e))
    assert "_hash" not in again.__dict__ and again == e


# ---------------------------------------------------------------------------
# the shared post-order walk


def _recursive_postorder(roots):
    seen, order = set(), []

    def visit(e):
        if id(e) not in seen:
            seen.add(id(e))
            for c in _children(e):
                visit(c)
            order.append(e)

    for root in roots:
        visit(root)
    return order


def test_postorder_lists_each_node_once_children_first_left_to_right():
    shared = BinOp("*", Var("q1"), Param("a"))
    twin = BinOp("*", Var("q1"), Param("a"))       # equal, but another node
    neg = Neg(BinOp("-", shared, twin))
    tree = BinOp("+", shared, neg)
    q2 = Var("q2")
    want = [shared.left, shared.right, shared, twin.left, twin.right, twin,
            neg.arg, neg, tree, q2]
    assert [id(e) for e in _postorder([tree, shared, q2])] == \
        [id(e) for e in want]


def test_postorder_matches_recursive_walk_on_shared_trees():
    # gradients share subtrees (the g of d(f*g) = df*g + f*dg), and the
    # order is the slot order _emit numbers its temporaries in
    for e in _trees()[:80]:
        roots = (e,) + gradient(e, GRADIENT_SYMBOLS)
        assert [id(n) for n in _postorder(roots)] == \
            [id(n) for n in _recursive_postorder(roots)], e


def test_postorder_walks_a_chain_deeper_than_the_recursion_limit():
    bottom = BinOp("*", Var("q3"), Param("k"))
    e = bottom
    for _ in range(100_000):
        e = Neg(e)
    order = _postorder([e])
    assert len(order) == 100_003
    assert order[2] is bottom and order[-1] is e
    assert variables_of(e) == {"q3"}
    assert parameters_of(e) == {"k"}
    assert dimension_of(e) == 3
    out = substitute_param(e, "k", Var("q1"))
    assert variables_of(out) == {"q1", "q3"} and parameters_of(out) == set()
    for _ in range(100_000):
        out = out.arg
    assert out == BinOp("*", Var("q3"), Var("q1"))


@pytest.mark.parametrize("sign, want", [("+", 3000.0), ("-", -3000.0)])
def test_gradient_of_a_long_parenthesized_sum(sign, want):
    # the simplified inner sum is flattened into the outer sum's terms
    e = parse(f"p1^2/2 {sign} (" + " + ".join(["0.5*q1^2"] * 3000) + ")", 1)
    (dq1,) = gradient(e, ("q1",))
    assert compile_functions([dq1], 1)((1.0, 0.0)) == (want,)


def _recursive_substitute(e, mapping):
    if isinstance(e, (Var, Param)):
        return mapping.get(e, e)
    if not _children(e):
        return e
    kids = [_recursive_substitute(c, mapping) for c in _children(e)]
    if isinstance(e, BinOp):
        return BinOp(e.op, *kids)
    if isinstance(e, Pow):
        return Pow(kids[0], e.exponent)
    return Neg(kids[0]) if isinstance(e, Neg) else Call(e.func, kids[0])


def test_substitute_param_matches_recursive_rebuild():
    replacement = parse("q2*p1 - 1", 2)
    for e in _trees():
        for root in (e,) + gradient(e, GRADIENT_SYMBOLS):
            assert repr(substitute_param(root, "a", replacement)) == \
                repr(_recursive_substitute(root, {Param("a"): replacement})), \
                root


def test_substitute_on_var_leaves_matches_recursive_rebuild():
    # the symmetric4 step substitutes state trees for every coordinate at
    # once, and a chart substitutes two parameters in one walk
    mapping = {Var("q1"): parse("q2*p1 - 1", 2), Var("p1"): parse("sin(q1)", 2),
               Param("a"): Var("p2")}
    for e in _trees():
        for root in (e,) + gradient(e, GRADIENT_SYMBOLS):
            assert repr(_substitute(root, mapping)) == \
                repr(_recursive_substitute(root, mapping)), root


def test_substitute_param_replaces_parameters_only():
    # a Param named like a coordinate is not the coordinate
    e = BinOp("*", Var("q1"), BinOp("+", Param("q1"), Param("b")))
    assert substitute_param(e, "q1", Const(2.0)) == \
        BinOp("*", Var("q1"), BinOp("+", Const(2.0), Param("b")))
    assert substitute_param(e, "c", Const(2.0)) == e


# ---------------------------------------------------------------------------
# compiled code is shared per shape: literals are bound like parameters


def _with_literals(e, rng):
    """``e`` with each distinct literal, by repr (0.0 and -0.0 are two), in
    its Consts and non-integer exponents replaced by a fresh seeded value;
    shared nodes stay shared.  Returns the tree and the repr -> value map."""
    fresh = {}

    def new(value):
        if repr(value) not in fresh:
            fresh[repr(value)] = float(rng.uniform(-3.0, 3.0))
        return fresh[repr(value)]

    out = {}
    for node in _postorder((e,)):
        if type(node) is Const:
            out[id(node)] = Const(new(node.value))
        elif type(node) is Pow and not float(node.exponent).is_integer():
            out[id(node)] = Pow(out[id(node.base)], new(node.exponent))
        else:
            fields = [getattr(node, f) for f in node.__dataclass_fields__]
            out[id(node)] = type(node)(*[
                out[id(v)] if isinstance(v, _Node) else v for v in fields])
    return out[id(e)], fresh


def _outcome(fn, e, u, params):
    """The compiled value and the tree walk's, or "domain" for both."""
    try:
        want = reference_evaluate(e, u, params)
    except DomainError:
        with pytest.raises(DomainError):
            fn(u.q + u.p)
        return "domain"
    (got,) = fn(u.q + u.p)
    assert struct.pack("d", got) == struct.pack("d", want), (e, u)
    return "finite"


def test_trees_with_other_literals_share_the_compile_bit_for_bit():
    # fresh values keep the shape: distinct from each other, and a
    # non-integer exponent stays non-integer
    rng = np.random.default_rng(20261020)
    points = sample_eval_points(2, 3, seed=11)
    outcomes = set()
    for e in _trees():
        twin, fresh = _with_literals(e, rng)
        assert len({repr(v) for v in fresh.values()}) == len(fresh)
        assert not any(v.is_integer() for v in fresh.values())
        params = {"a": float(rng.uniform(0.5, 2.0))}
        twin_params = {"a": float(rng.uniform(0.5, 2.0))}
        fn = compile_functions([e], 2, params)
        before = _binder_from_source.cache_info()
        twin_fn = compile_functions([twin], 2, twin_params)
        assert _binder_from_source.cache_info().misses == before.misses, e
        for u in points:
            outcomes.add(_outcome(fn, e, u, params))
            outcomes.add(_outcome(twin_fn, twin, u, twin_params))
    assert outcomes == {"domain", "finite"}


def test_literal_names_keep_the_sign():
    # keyed by value, -0.0 would share 0.0's name; a bare -2.0 would rebind
    # under ** (-2.0**2 == -4.0)
    q1 = Var("q1")
    fn = compile_functions([BinOp("*", Const(-0.0), q1),
                            BinOp("*", Const(0.0), q1)], 1)
    low, high = fn((1.5, 0.0))
    assert (low, high) == (0.0, 0.0)
    assert math.copysign(1.0, low) == -1.0
    assert math.copysign(1.0, high) == 1.0
    assert compile_functions([Pow(Const(-2.0), 2.0)], 0)(()) == (4.0,)


def test_a_literal_used_twice_gets_one_name():
    lines, (code,), _, literals = _emit([parse("2*q1 + 2*p1 + 0.5", 1)], 1, {})
    assert literals == (2.0, 0.5)
    assert lines == [] and code.count("k0") == 2 and code.count("k1") == 1
    assert "2.0" not in code and "0.5" not in code
