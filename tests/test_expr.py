"""Expression layer: parsing, differentiation, evaluation, simplification."""
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from liouville import (
    BinOp, Call, Const, DomainError, EvalPoint, Neg, ParseError, Pow,
    UnboundSymbolError, Var, compile_functions, differentiate, dimension_of,
    evaluate, get_system, parameters_of, parse, sample_eval_points,
    simplify, substitute_param, to_string, variables_of,
)
from liouville.catalog import list_systems
from liouville.expr import const, gradient, p, param, q
from liouville.symplectic import hamiltonian_vector_field, poisson_bracket
from oracles import numerically_equivalent, reference_evaluate


def test_parse_sum_of_products():
    e = parse("q1*p1 + q2*p2", 2)
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.left, BinOp) and e.left.op == "*"
    assert isinstance(e.right, BinOp) and e.right.op == "*"
    assert e.left.left == Var("q1") and e.right.right == Var("p2")


def test_parse_with_parameter():
    e = parse("p1^2/2 + p2^2/2 + g/((q1-q2)^2)", 2)
    assert parameters_of(e) == {"g"}
    fn = compile_functions([e], 2, {"g": 8.0})
    assert fn((1.0, 3.0, 2.0, 4.0))[0] == pytest.approx(2.0 + 8.0 + 8.0 / 4.0)
    with pytest.raises(UnboundSymbolError, match="'g'"):
        evaluate(e, EvalPoint((1.0, 3.0), (2.0, 4.0)))


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="q3"):
        parse("ln(q3)", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("q1 + * p1", 1)
    assert err.value.position == 5
    assert "column 6" in str(err.value)


def test_parse_rejects_overflowing_literal():
    with pytest.raises(ParseError, match="overflows") as err:
        parse("q1 + 1e999*q1", 1)
    assert err.value.position == 5
    assert evaluate(parse("1e308*q1", 1), EvalPoint((1.0,), (0.0,))) == 1e308


def test_parse_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(q1)", 1)
    # reserved names cannot be used as bare parameters either
    with pytest.raises(ParseError):
        parse("ln + 1", 1)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse("q1 q2", 2)


def test_parse_unary_minus_and_exponents():
    assert evaluate(parse("-q1^2", 1), EvalPoint((3.0,), (0.0,))) == -9.0
    assert evaluate(parse("q1^(-2)", 1), EvalPoint((2.0,), (0.0,))) == 0.25
    assert evaluate(parse("2^-2", 0), EvalPoint((), ())) == 0.25
    with pytest.raises(ParseError):
        parse("q1^p1", 1)        # exponents are numeric literals only


def test_power_rule():
    d = simplify(differentiate(parse("q1^2", 1), "q1"))
    assert to_string(d) == "2*q1"


def test_derivative_matches_fd_on_log():
    e = parse("ln((q1-q2)^2 + (p1-p2)^2)", 2)
    d = differentiate(e, "q1")
    u = sample_eval_points(2, 1, seed=3)[0]
    step = 1e-5
    up = EvalPoint((u.q[0] + step, u.q[1]), u.p)
    dn = EvalPoint((u.q[0] - step, u.q[1]), u.p)
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * step)
    sym = evaluate(d, u)
    assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_derivative_of_unrelated_variable():
    assert simplify(differentiate(p(2), "q1")) == Const(0.0)


def test_evaluate_product():
    assert evaluate(parse("q1*p1", 1), EvalPoint((2.0,), (3.0,))) == 6.0


def test_evaluate_ln_negative():
    with pytest.raises(DomainError):
        evaluate(parse("ln(q1)", 1), EvalPoint((-1.0,), (0.0,)))


def test_evaluate_vortex_collision():
    # coincident vortices put a zero inside the log
    system = get_system("vortices3")
    u = EvalPoint((1.0, 1.0, 0.5), (0.2, 0.2, -0.4))
    with pytest.raises(DomainError):
        evaluate(system.hamiltonian, u)


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/(q1-q1)", 1), EvalPoint((1.0,), (0.0,)))


def test_evaluate_power_domain():
    u = EvalPoint((0.0,), (-2.0,))
    with pytest.raises(DomainError):
        evaluate(parse("q1^(-1)", 1), u)
    with pytest.raises(DomainError):
        evaluate(parse("p1^0.5", 1), u)


def test_evaluate_refuses_an_unknown_function():
    with pytest.raises(TypeError, match="func='tan'"):
        evaluate(Call("tan", q(1)), EvalPoint((0.5,), (0.0,)))


def test_evaluate_unbound_parameter():
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("g*q1", 1), EvalPoint((1.0,), (0.0,)))


def test_simplify_zero_product():
    assert simplify(parse("0*q1 + p1", 1)) == Var("p1")


def test_simplify_cancellation():
    assert simplify(parse("q1 - q1", 1)) == Const(0.0)


def test_simplify_constant_folding():
    assert to_string(simplify(parse("2*(q1*3)", 1))) == "6*q1"


def test_numeric_equivalence_of_expansion():
    a = parse("(q1+p1)^2", 1)
    b = parse("q1^2 + 2*q1*p1 + p1^2", 1)
    assert numerically_equivalent(a, b)


def test_numeric_equivalence_rejects_distinct():
    assert not numerically_equivalent(q(1), p(1))


def test_numeric_equivalence_dilation_momentum_bracket():
    # {H2, H3} for the particles-on-a-line fixture equals -H3
    from liouville import poisson_bracket
    system = get_system("three_particles")
    inv = system.invariants
    h2 = inv.exprs[list(inv.names).index("H2")]
    h3 = inv.exprs[list(inv.names).index("H3")]
    br = poisson_bracket(h2, h3, system.structure)
    assert numerically_equivalent(br, simplify(Neg(h3)))


def test_numeric_equivalence_indeterminate():
    bad = parse("ln(-1 - q1^2)", 1)
    with pytest.raises(ValueError, match="every sampled point"):
        numerically_equivalent(bad, bad)


def _random_expr(rng, n=2):
    """Small random tree over q1..qn, p1..pn, smooth on the sample band."""
    atoms = [q(i) for i in range(1, n + 1)] + [p(i) for i in range(1, n + 1)]

    def atom():
        roll = rng.integers(0, 6)
        if roll == 0:
            return const(float(rng.integers(-3, 4)) or 1.0)
        return atoms[rng.integers(0, len(atoms))]

    def node(depth):
        if depth == 0:
            return atom()
        roll = rng.integers(0, 8)
        if roll < 3:
            return BinOp("+-*"[rng.integers(0, 3)],
                         node(depth - 1), node(depth - 1))
        if roll == 3:
            return BinOp("/", node(depth - 1),
                         const(2.0) + node(depth - 1) ** 2)
        if roll == 4:
            return Pow(node(depth - 1), float(rng.integers(1, 4)))
        if roll == 5:
            inner = node(depth - 1)
            # the parser folds "-literal" into a constant; keep trees foldless
            return inner if isinstance(inner, Const) else Neg(inner)
        if roll == 6:
            return Call("sin", node(depth - 1))
        return Call("exp", const(0.25) * node(depth - 1))

    return node(2)


def test_property_derivative_vs_finite_difference():
    rng = np.random.default_rng(404)
    symbols = ["q1", "q2", "p1", "p2"]
    checked = 0
    while checked < 100:
        e = _random_expr(rng)
        s = symbols[rng.integers(0, 4)]
        d = differentiate(e, s)
        u = sample_eval_points(2, 1, seed=int(rng.integers(0, 10**6)))[0]
        coords = {"q1": 0, "q2": 1, "p1": 2, "p2": 3}
        flat = list(u.q) + list(u.p)
        step = 1e-6 * (1 + abs(flat[coords[s]]))
        lo, hi = list(flat), list(flat)
        lo[coords[s]] -= step
        hi[coords[s]] += step
        try:
            sym = evaluate(d, u)
            f_hi = evaluate(e, EvalPoint(tuple(hi[:2]), tuple(hi[2:])))
            f_lo = evaluate(e, EvalPoint(tuple(lo[:2]), tuple(lo[2:])))
        except DomainError:
            continue
        fd = (f_hi - f_lo) / (2 * step)
        assert abs(sym - fd) <= 1e-5 * (1 + abs(sym))
        checked += 1


def test_property_simplify_preserves_evaluate():
    rng = np.random.default_rng(405)
    for _ in range(60):
        e = _random_expr(rng)
        s = simplify(e)
        for u in sample_eval_points(2, 5, seed=int(rng.integers(0, 10**6))):
            try:
                v = evaluate(e, u)
            except DomainError:
                continue
            assert evaluate(s, u) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_property_print_parse_roundtrip():
    rng = np.random.default_rng(406)
    for _ in range(80):
        e = _random_expr(rng)
        if isinstance(e, Const):
            continue
        assert parse(to_string(e), 2) == e


def test_print_parse_roundtrip_fixed_forms():
    for text in ("q1*p1+q2*p2", "p1^2/2+g/((q1-q2)^2)", "-(q1+p1)^3",
                 "ln((q1-q2)^2+(p1-p2)^2)", "q1^(-2)+sqrt(q2^2+1)"):
        e = parse(text, 2)
        assert parse(to_string(e), 2) == e


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_compile_functions_matches_evaluate():
    """Each expression, compiled alone, equals reference_evaluate() bit for
    bit and raises DomainError at exactly the points where it does."""
    rng = np.random.default_rng(407)
    exprs = [_random_expr(rng) for _ in range(6)]
    # non-integer exponents and |exponent| > 64 go through _pow, not **
    exprs += [parse(text, 2) for text in (
        "q1^0.5 + p2^(-1.5)", "(q2^2+1)^100", "p1^2.5*q1^(-3)")]
    points = sample_eval_points(2, 40, seed=9)
    outcomes = set()
    for e in exprs:
        fn = compile_functions([e], 2)
        for u in points:
            try:
                want = reference_evaluate(e, u)
            except DomainError:
                with pytest.raises(DomainError):
                    fn(u.q + u.p)
                outcomes.add("domain")
                continue
            assert np.array_equal(_bits(fn(u.q + u.p)), _bits([want]))
            outcomes.add("finite")
    assert outcomes == {"domain", "finite"}


def test_compile_functions_deep_nested_product():
    """A 250-deep right-nested product compiles (no parser nesting limit)
    and keeps reference_evaluate()'s association order bit for bit."""
    e = const(1.0)
    for i in range(250):
        factor = const(1.0) + const(0.001 * (i % 7 + 1)) * (q(1) - p(1))
        e = factor * e
    fn = compile_functions([e], 1)
    for u in sample_eval_points(1, 5, seed=3):
        assert np.array_equal(_bits(fn(u.q + u.p)),
                              _bits([reference_evaluate(e, u)]))


def test_evaluate_long_left_nested_sum():
    """A 3000-term left-nested sum evaluates, deeper than the recursion
    limit, to the left-to-right sum of its terms bit for bit."""
    coefs = [0.001 * (i % 13 + 1) for i in range(3000)]
    e = const(coefs[0]) * q(1)
    for c in coefs[1:]:
        e = BinOp("+", e, const(c) * q(1))
    x = 0.7
    want = coefs[0] * x
    for c in coefs[1:]:
        want = want + c * x
    got = evaluate(e, EvalPoint((x,), (0.0,)))
    assert np.array_equal(_bits([got]), _bits([want]))


def test_compile_functions_long_sum_and_shared_subtrees():
    terms = [const(0.5 + 0.01 * i) * (q(1) * p(2) + q(2)) ** 2 for i in range(300)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    fn = compile_functions([total, total, q(2)], 2)
    u = EvalPoint((0.7, -1.1), (0.3, 1.9))
    got = fn(u.q + u.p)
    assert got[0] == got[1] == reference_evaluate(total, u)
    assert got[2] == -1.1


def test_compile_functions_negative_constant_base():
    # (-2)^2 must not be emitted as -2.0**2
    fn = compile_functions([parse("(-2)^2 + 0*q1", 1), Pow(const(-0.0), 3.0)], 1)
    assert fn([1.0, 1.0]) == (4.0, -0.0)


def test_infinite_intermediate_is_a_domain_error_on_both_paths():
    u = EvalPoint((1e200,), (0.0,))
    # math.pow takes (-inf)^-0.5 to 0; the tree walk refuses the negative base
    for text in ("sin(q1*q1*q1)", "(-q1*q1*q1)^(-0.5)"):
        e = parse(text, 1)
        with pytest.raises(DomainError):
            reference_evaluate(e, u)
        with pytest.raises(DomainError):
            compile_functions([e], 1)(u.q + u.p)


def test_compile_functions_unbound_parameter():
    with pytest.raises(UnboundSymbolError):
        compile_functions([parse("g*q1", 1)], 1)


def test_compile_functions_domain_error():
    fn = compile_functions([parse("ln(q1)", 1)], 1)
    with pytest.raises(DomainError):
        fn([-1.0, 0.0])


def test_substitute_param():
    pot = parse("r2/2 + ln(r2)", 0)
    r2 = parse("q1^2 + q2^2", 2)
    e = substitute_param(pot, "r2", r2)
    assert parameters_of(e) == set()
    u = EvalPoint((1.0, 2.0), (0.0, 0.0))
    assert evaluate(e, u) == pytest.approx(2.5 + math.log(5.0))


def test_dimension_of():
    assert dimension_of(parse("q1*p3", 3)) == 3
    assert dimension_of(const(5.0)) == 0
    assert dimension_of(q(2), p(4)) == 4


def test_variables_of_agrees_with_printed_names_and_dimension_of():
    e = parse("sin(q2*a) + p5^2/(b - q1) - exp(-p3)", 5)
    assert variables_of(e) == {"q1", "q2", "p3", "p5"}
    assert parameters_of(e) == {"a", "b"}
    assert variables_of(const(1.0), param("a")) == set()
    rng = np.random.default_rng(77)
    for _ in range(100):
        e = _random_expr(rng, n=3) * param("c")
        printed = set(re.findall(r"\b[qp][0-9]+\b", to_string(e)))
        assert variables_of(e) == printed
        assert dimension_of(e) == max((int(v[1:]) for v in printed),
                                      default=0)


def test_sample_points_band_and_determinism():
    pts = sample_eval_points(3, 25, seed=11)
    again = sample_eval_points(3, 25, seed=11)
    for u, v in zip(pts, again):
        assert u.q == v.q and u.p == v.p
        for value in u.q + u.p:
            assert 0.5 <= abs(value) <= 2.0


def test_eval_point_state():
    u = EvalPoint((1.0, 2.0), (3.0, 4.0))
    assert u.n == 2
    assert tuple(u.state()) == (1.0, 2.0, 3.0, 4.0)


# sha256 of the printed and repr'd trees below.  Any drift in simplify
# output, derivative shapes or catalog construction changes it; change the
# constant only together with a deliberate change of trees.
STRUCTURAL_DIGEST = "76a2829adea5a6d742aa3ecf5020748f8dc50a9040719ef276505bd3a20ebd0f"


def _structural_items():
    """Every labelled tree in digest order, as the bytes the digest hashes."""

    def item(label, e):
        return label, f"{e!r}\0{to_string(e)}\n".encode()

    for name in sorted(list_systems()):
        system = get_system(name)
        inv = system.invariants
        coords = system.structure.coordinates
        yield item(f"{name} hamiltonian", system.hamiltonian)
        for i, member in enumerate(inv.exprs):
            yield item(f"{name} {inv.names[i]}", member)
            for s, g in zip(coords, gradient(member, coords)):
                yield item(f"{name} d{inv.names[i]}/d{s}", g)
        field = hamiltonian_vector_field(system.hamiltonian, system.structure)
        for s, component in zip(coords, field.dq + field.dp):
            yield item(f"{name} field d{s}/dt", component)
        if system.n <= 5:
            for (a, ea), (b, eb) in itertools.combinations(
                    zip(inv.names, inv.exprs), 2):
                yield item(f"{name} {{{a}, {b}}}",
                           poisson_bracket(ea, eb, system.structure))
        if system.chart is not None:
            for j, deg in enumerate(system.chart.degrees, 1):
                yield item(f"{name} chart residual {j}", deg.residual)
                yield item(f"{name} chart residual {j} d/dw",
                           differentiate(deg.residual, "w"))
    rng = np.random.default_rng(2718)
    for r in range(200):
        e = _random_expr(rng)
        yield item(f"random {r}", e)
        yield item(f"random {r} simplified", simplify(e))
        for s in ("q1", "q2", "p1", "p2"):
            yield item(f"random {r} d/d{s}", differentiate(e, s))


def _structural_digest() -> str:
    digest = hashlib.sha256()
    for _, data in _structural_items():
        digest.update(data)
    return digest.hexdigest()


def test_structural_digest_is_unchanged():
    assert _structural_digest() == STRUCTURAL_DIGEST


if __name__ == "__main__":
    # one "sha256  label" line per tree, so that two trees' listings can be
    # diffed item by item: PYTHONPATH=src python tests/test_expr.py
    for label, data in _structural_items():
        print(f"{hashlib.sha256(data).hexdigest()}  {label}")
