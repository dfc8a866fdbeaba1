"""Weighted Poisson brackets and Hamiltonian vector fields.

Convention under test: {F,G} = sum_j xi_j^(-1) (dF/dp_j dG/dq_j - dF/dq_j dG/dp_j),
so the fundamental brackets are {q_i, p_j} = -delta_ij / xi_i.
"""
import numpy as np
import pytest

from liouville import (
    Const, SymplecticStructure, VectorFieldExpr, evaluate, get_system,
    hamiltonian_vector_field, poisson_bracket, sample_eval_points, simplify,
)
from liouville.expr import BinOp, const, p, q
from oracles import numerically_equivalent


def test_vortex_p1_p2_bracket_is_minus_total_vorticity():
    system = get_system("vortices3", {"xi": (1.0, 1.0, 1.0)})
    p1, p2 = system.invariants.exprs[0], system.invariants.exprs[1]
    br = simplify(poisson_bracket(p1, p2, system.structure))
    assert br == Const(-3.0)
    # zero total vorticity kills the constant
    balanced = get_system("vortices3")
    br0 = simplify(poisson_bracket(balanced.invariants.exprs[0],
                                   balanced.invariants.exprs[1],
                                   balanced.structure))
    assert br0 == Const(0.0)


def test_vortex_p2_moment_bracket_is_p1():
    system = get_system("vortices3")
    p1e, p2e, moment = system.invariants.exprs[:3]
    br = poisson_bracket(p2e, moment, system.structure)
    assert numerically_equivalent(br, p1e)


def test_bracket_with_self_is_zero():
    s = SymplecticStructure.canonical(1)
    assert simplify(poisson_bracket(q(1), q(1), s)) == Const(0.0)


def test_oscillator_vector_field():
    s = SymplecticStructure.canonical(1)
    h = simplify((p(1) ** 2 + q(1) ** 2) / 2)
    field = hamiltonian_vector_field(h, s)
    assert numerically_equivalent(field.dq[0], p(1))
    assert numerically_equivalent(field.dp[0], simplify(-q(1)))


def test_weighted_moment_field_is_rotation():
    # H = P with weights (1,1,-2): the xi factors cancel degree by degree
    system = get_system("vortices3")
    moment = system.invariants.exprs[2]
    field = hamiltonian_vector_field(moment, system.structure)
    for j in range(3):
        assert numerically_equivalent(field.dq[j], p(j + 1))
        assert numerically_equivalent(field.dp[j], simplify(-q(j + 1)))


def test_constant_hamiltonian_gives_zero_field():
    s = SymplecticStructure.canonical(2)
    field = hamiltonian_vector_field(const(7.0), s)
    for e in field.dq + field.dp:
        assert simplify(e) == Const(0.0)


def test_bracket_value_p1_moment():
    system = get_system("vortices3")
    inv = system.invariants
    p1e, _, moment = inv.exprs[:3]
    p2e = inv.exprs[1]
    for u in inv.sample_points(10, seed=2):
        got = evaluate(poisson_bracket(p1e, moment, system.structure), u)
        assert got == pytest.approx(-evaluate(p2e, u), abs=1e-10)


def test_bracket_value_self_zero():
    s = SymplecticStructure.canonical(2)
    f = simplify(q(1) * p(2) + q(2) ** 2)
    for u in sample_eval_points(2, 5, seed=4):
        assert evaluate(poisson_bracket(f, f, s), u) == 0.0


def test_central_field_h_commutes_with_angular_momenta():
    system = get_system("central_field")
    inv = system.invariants
    h = inv.exprs[0]
    for u in inv.sample_points(20, seed=6):
        for j in (1, 2, 3):
            br = poisson_bracket(h, inv.exprs[j], system.structure)
            assert abs(evaluate(br, u)) < 1e-10


def _random_poly(rng, n):
    """Random polynomial in q1..qn, p1..pn; degree >= 2 keeps brackets alive."""
    atoms = [q(i) for i in range(1, n + 1)] + [p(i) for i in range(1, n + 1)]
    terms = None
    for _ in range(rng.integers(2, 5)):
        f = const(float(rng.choice((-1.0, -0.5, 0.5, 1.0))))
        for _ in range(rng.integers(1, 4)):
            f = BinOp("*", f, atoms[rng.integers(0, len(atoms))])
        terms = f if terms is None else BinOp("+", terms, f)
    return simplify(terms)


def test_property_antisymmetry():
    rng = np.random.default_rng(21)
    s = SymplecticStructure(2, (1.0, -0.5))
    for _ in range(20):
        f, g = _random_poly(rng, 2), _random_poly(rng, 2)
        total = simplify(poisson_bracket(f, g, s) + poisson_bracket(g, f, s))
        for u in sample_eval_points(2, 5, seed=int(rng.integers(0, 10**6))):
            assert abs(evaluate(total, u)) <= 1e-9


def test_property_jacobi_identity():
    rng = np.random.default_rng(22)
    s = SymplecticStructure(2, (1.0, -2.0))
    for _ in range(8):
        f, g, k = (_random_poly(rng, 2) for _ in range(3))
        cyc = simplify(
            poisson_bracket(poisson_bracket(f, g, s), k, s)
            + poisson_bracket(poisson_bracket(g, k, s), f, s)
            + poisson_bracket(poisson_bracket(k, f, s), g, s))
        for u in sample_eval_points(2, 5, seed=int(rng.integers(0, 10**6))):
            assert abs(evaluate(cyc, u)) <= 1e-9


def test_property_leibniz_rule():
    rng = np.random.default_rng(23)
    s = SymplecticStructure(2, (0.5, 3.0))
    for _ in range(10):
        f, g, k = (_random_poly(rng, 2) for _ in range(3))
        lhs = poisson_bracket(f, simplify(BinOp("*", g, k)), s)
        rhs = simplify(BinOp("+", BinOp("*", poisson_bracket(f, g, s), k),
                             BinOp("*", g, poisson_bracket(f, k, s))))
        for u in sample_eval_points(2, 5, seed=int(rng.integers(0, 10**6))):
            assert abs(evaluate(lhs, u) - evaluate(rhs, u)) <= 1e-9


def test_fundamental_brackets():
    s = SymplecticStructure(3, (1.0, 2.0, -2.0))
    for i in range(1, 4):
        for j in range(1, 4):
            br = simplify(poisson_bracket(q(i), p(j), s))
            want = -1.0 / s.weights[i - 1] if i == j else 0.0
            assert br == Const(want)


def test_structure_validation():
    with pytest.raises(ValueError):
        SymplecticStructure(2, (1.0, 0.0))
    with pytest.raises(ValueError):
        SymplecticStructure(2, (1.0,))
    with pytest.raises(ValueError):
        SymplecticStructure(0, ())
    assert SymplecticStructure.canonical(3).weights == (1.0, 1.0, 1.0)


def test_vector_field_component_count_checked():
    s = SymplecticStructure.canonical(2)
    with pytest.raises(ValueError):
        VectorFieldExpr(s, (q(1),), (p(1), p(2)))
