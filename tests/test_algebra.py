"""Lie-algebra decisions: closure, solvability, rank, Cartan data, completions."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from liouville import (
    BinOp, Const, EvalPoint, InvariantSet, Pow, RegularElement,
    StructureConstants, SymplecticStructure, algebra_rank,
    bracket_matrix_at, cartan_basis_at, check_closure, evaluate,
    find_level_point, fit_structure_constants, functional_independence,
    get_system,
    is_solvable, list_systems, mishchenko_fomenko_check, poisson_bracket,
    probe_points, search_polynomial_completion, simplify,
)
from liouville.algebra import (
    AlgebraError, ConvergenceError, RegularityError, SamplingError,
    build_combination,
)
from liouville import algebra
from liouville import expr as expr_module
from liouville.expr import (
    DomainError, UnboundSymbolError, _binder_from_source, compile_functions,
    gradient, p, parse, q, sample_eval_points,
)
from liouville.sysfile import loads_system
from oracles import reference_evaluate, reference_screened_samples


def _rank(matrix, rcond=1e-8):
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rcond * s[0]))


def _in_span(target_vals, basis_vals, tol=1e-8):
    """Relative least-squares distance of target from span(columns)."""
    a = np.asarray(basis_vals, dtype=float).T
    b = np.asarray(target_vals, dtype=float)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = np.linalg.norm(a @ coef - b)
    return resid <= tol * (1.0 + np.linalg.norm(b))


def test_bracket_matrix_vortex_pattern():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=3)[0]
    m = bracket_matrix_at(inv, u)
    vals = inv.member_values(u)
    assert np.max(np.abs(m + m.T)) <= 1e-12
    expected = np.zeros((4, 4))
    expected[0, 2] = -vals[1]        # {P1,P} = -P2
    expected[1, 2] = vals[0]         # {P2,P} = P1
    expected -= expected.T
    assert np.allclose(m, expected, atol=1e-9)


def test_bracket_matrix_abelian_is_zero():
    system = get_system("uncoupled_oscillators")
    u = probe_points(system, 1)[0]
    m = bracket_matrix_at(system.invariants, u)
    assert np.max(np.abs(m)) <= 1e-12


def test_bracket_matrix_central_field_so3_block():
    system = get_system("central_field")
    inv = system.invariants                      # members H, P1, P2, P3
    u = probe_points(system, 1, seed=8)[0]
    m = bracket_matrix_at(inv, u)
    vals = inv.member_values(u)
    assert np.max(np.abs(m[0, :])) <= 1e-10      # H row vanishes
    assert np.max(np.abs(m[:, 0])) <= 1e-10
    assert m[1, 2] == pytest.approx(vals[3], abs=1e-10)   # {P1,P2} = P3
    assert m[3, 1] == pytest.approx(vals[2], abs=1e-10)   # {P3,P1} = P2
    assert m[2, 3] == pytest.approx(vals[1], abs=1e-10)   # {P2,P3} = P1


def test_fit_vortices_balanced():
    system = get_system("vortices3")
    sc = fit_structure_constants(system.invariants, samples=60, seed=1)
    assert sc.residual < 1e-9
    assert not sc.rank_deficient
    assert np.max(np.abs(sc.c0)) == 0.0
    # {P1,P} = -P2: member order P1,P2,P,H
    assert sc.c[1, 0, 2] == pytest.approx(-1.0, abs=1e-8)
    assert sc.c[1, 2, 0] == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sc.c + np.transpose(sc.c, (0, 2, 1)))) == 0.0


def test_fit_vortices_with_central_term():
    system = get_system("vortices3", {"xi": (1.0, 1.0, 1.0)})
    sc = fit_structure_constants(system.invariants, samples=60, seed=1,
                                 allow_central=True)
    assert sc.residual < 1e-9
    assert sc.c0[0, 1] == pytest.approx(-3.0, abs=1e-7)


def test_fit_central_field():
    system = get_system("central_field")
    sc = fit_structure_constants(system.invariants, samples=60, seed=2)
    assert sc.residual < 1e-9
    assert sc.c[3, 1, 2] == pytest.approx(1.0, abs=1e-8)   # {P1,P2} = P3
    assert sc.c[2, 3, 1] == pytest.approx(1.0, abs=1e-8)   # {P3,P1} = P2
    assert sc.c[1, 2, 3] == pytest.approx(1.0, abs=1e-8)   # {P2,P3} = P1


# exact tables {H_i,H_j} = c0_ij + sum_s c^s_ij H_s as (H_i, H_j, H_s, c^s_ij)
# rows, with an empty H_s for a central term; pairs not listed commute
EXACT_TABLES = [
    ("vortices3", None, [("P1", "P", "P2", -1.0), ("P2", "P", "P1", 1.0)]),
    ("vortices3", {"xi": (1.0, 1.0, 1.0)},
     [("P1", "P2", "", -3.0), ("P1", "P", "P2", -1.0), ("P2", "P", "P1", 1.0)]),
    ("central_field", None, [("P1", "P2", "P3", 1.0), ("P1", "P3", "P2", -1.0),
                             ("P2", "P3", "P1", 1.0)]),
    ("three_particles", None, [("H1", "H2", "H1", 2.0), ("H2", "H3", "H3", -1.0)]),
]


def _exact_arrays(names, rows):
    k = len(names)
    c, c0 = np.zeros((k, k, k)), np.zeros((k, k))
    for a, b, member, value in rows:
        i, j = names.index(a), names.index(b)
        table = c[names.index(member)] if member else c0
        table[i, j], table[j, i] = value, -value
    return c, c0


@pytest.mark.parametrize("name, params, rows", EXACT_TABLES)
def test_fitted_tables_match_exact_brackets(name, params, rows):
    inv = get_system(name, params).invariants
    c, c0 = _exact_arrays(list(inv.names), rows)
    # the hand-written table is the symbolic bracket, away from the fit
    points = inv.sample_points(5, seed=31)
    for i, j in itertools.combinations(range(inv.k), 2):
        bracket = poisson_bracket(inv.exprs[i], inv.exprs[j], inv.structure)
        for u in points:
            want = c0[i, j] + c[:, i, j] @ inv.member_values(u)
            assert evaluate(bracket, u) == pytest.approx(
                want, rel=1e-9, abs=1e-9)
    for seed in (0, 1, 2):
        sc = fit_structure_constants(inv, samples=60, seed=seed,
                                     allow_central=True)
        assert np.max(np.abs(sc.c - c)) <= 1e-12
        assert np.max(np.abs(sc.c0 - c0)) <= 1e-12


# three particles whose seeded samples include one with two particles close
# together (H1 near 1e9); unweighted, that sample swamped the fit
NEAR_COLLISION = """\
[system]
name = three_particles
dimension = 3
weights = 1.0, 1.0, 1.0
seed = 1587334780
hamiltonian = p1^2/3.5374602529399954+p2^2/2.326184980361263+p3^2/1.482766821154076+1.1894301049540836/(q1-q2)^2+1.1894301049540836/(q1-q3)^2+1.1894301049540836/(q2-q3)^2

[invariants]
H1 = p1^2/3.5374602529399954+p2^2/2.326184980361263+p3^2/1.482766821154076+1.1894301049540836/(q1-q2)^2+1.1894301049540836/(q1-q3)^2+1.1894301049540836/(q2-q3)^2
H2 = q1*p1+q2*p2+q3*p3
H3 = p1+p2+p3
"""


def test_fit_is_not_swamped_by_a_near_collision_sample():
    system = loads_system(NEAR_COLLISION)
    inv = system.invariants
    points = inv.sample_points(60, system.seed)
    assert max(inv.member_values(u)[0] for u in points) > 1e8
    sc = fit_structure_constants(inv, samples=60, seed=system.seed,
                                 allow_central=True)
    assert sc.residual <= 1e-6 and sc.jacobi_defect() <= 1e-6
    c, c0 = _exact_arrays(list(inv.names), EXACT_TABLES[-1][2])
    assert np.max(np.abs(sc.c - c)) <= 1e-9     # {H1,H2} = 2 H1, {H2,H3} = -H3
    assert np.max(np.abs(sc.c0 - c0)) <= 1e-9   # and {H1,H3} = 0


def test_large_gradients_do_not_hide_a_misfit():
    # {H1, H2} = -2 q1 is not in span{1, H1, H2}; the 1000 p2 shared by both
    # members makes |grad H1| |grad H2| ~ 1e6 without touching the bracket
    s = SymplecticStructure.canonical(2)
    inv = InvariantSet(s, ("H1", "H2"), (parse("1000*p2 + p1", 2),
                                         parse("1000*p2 + q1^2", 2)))
    sc = fit_structure_constants(inv, samples=60, seed=0, allow_central=True)
    assert sc.residual > 1e-2
    assert not check_closure(sc)


def test_fit_rejects_small_inputs():
    pair = get_system("uncoupled_oscillators").invariants
    with pytest.raises(ValueError):
        fit_structure_constants(pair, samples=3)


def test_fit_single_member_is_the_zero_table():
    sc = fit_structure_constants(get_system("oscillator").invariants,
                                 allow_central=True)
    assert sc.k == 1 and sc.residual == 0.0 and not sc.rank_deficient
    assert sc.c.shape == (1, 1, 1) and sc.c0.shape == (1, 1)
    assert not sc.c.any() and not sc.c0.any()
    assert check_closure(sc) and is_solvable(sc) and sc.jacobi_defect() == 0.0


def test_fit_flags_dependent_members():
    s = SymplecticStructure.canonical(1)
    h = simplify((p(1) ** 2 + q(1) ** 2) / 2)
    inv = InvariantSet(s, ("H", "H2"), (h, simplify(2 * h)))
    sc = fit_structure_constants(inv, samples=30, seed=4)
    assert sc.rank_deficient


def test_closure_verdicts():
    system = get_system("vortices3")
    sc = fit_structure_constants(system.invariants, samples=60, seed=1)
    assert check_closure(sc)

    s = SymplecticStructure.canonical(1)
    inv = InvariantSet(s, ("A", "B"), (simplify(q(1) ** 2),
                                       simplify(p(1) ** 3)))
    bad = fit_structure_constants(inv, samples=40, seed=5)
    assert not check_closure(bad)      # {A,B} = -6 q1 p1^2


def test_closure_singleton():
    # {H,H} = 0 identically, so a one-member table closes with residual 0
    sc = StructureConstants(("H",), np.zeros((1, 1, 1)), np.zeros((1, 1)),
                            residual=0.0)
    assert check_closure(sc)


def test_solvable_three_particles():
    system = get_system("three_particles")
    sc = fit_structure_constants(system.invariants, samples=60, seed=6)
    assert sc.residual < 1e-8
    assert is_solvable(sc)


def test_solvable_rejects_so3():
    system = get_system("central_field")
    inv = system.invariants
    so3 = InvariantSet(inv.structure, inv.names[1:], inv.exprs[1:])
    sc = fit_structure_constants(so3, samples=60, seed=7)
    assert sc.residual < 1e-8
    assert not is_solvable(sc)       # [so(3), so(3)] = so(3)


def test_solvable_abelian():
    sc = fit_structure_constants(get_system("uncoupled_oscillators").invariants,
                                 samples=30, seed=8)
    assert is_solvable(sc)


def test_algebra_rank_vortices():
    system = get_system("vortices3")
    probes = probe_points(system, 6, seed=9)
    r, constant = algebra_rank(system.invariants, probes)
    assert (r, constant) == (2, True)
    for u in probes:
        assert _rank(bracket_matrix_at(system.invariants, u)) == 2


def test_algebra_rank_vortices_45():
    # H sums 990 log terms: too long a sum for one Python frame per term
    system = get_system("vortices", {"n": 45})
    r, constant = algebra_rank(system.invariants, probe_points(system, 6))
    assert (r, constant) == (2, True)


def test_algebra_rank_central_field():
    system = get_system("central_field")
    r, constant = algebra_rank(system.invariants, probe_points(system, 6))
    assert (r, constant) == (2, True)


def test_algebra_rank_abelian_pair():
    system = get_system("uncoupled_oscillators")
    r, constant = algebra_rank(system.invariants, probe_points(system, 4))
    assert (r, constant) == (2, True)       # zero matrix, rank G = k


def test_algebra_rank_needs_probes():
    system = get_system("vortices3")
    with pytest.raises(ValueError):
        algebra_rank(system.invariants, probe_points(system, 2))


def test_find_level_point_oscillator():
    inv = get_system("oscillator").invariants
    element = find_level_point(inv, (0.5,), EvalPoint((1.0,), (0.1,)))
    assert element.witness is not None
    got = inv.member_values(element.witness)[0]
    assert abs(got - 0.5) <= 1e-10


def test_find_level_point_infeasible():
    inv = get_system("oscillator").invariants
    with pytest.raises(ConvergenceError):
        find_level_point(inv, (-1.0,), EvalPoint((1.0,), (0.1,)))


@pytest.mark.parametrize("point", [
    EvalPoint((1.0,), (2.0,)),
    EvalPoint((1.0, 5.0, 0.5), (2.0, 7.0, 0.5)),
], ids=["smaller", "larger"])
def test_point_of_another_dimension_is_refused(point):
    # a larger point was cut to the set's n, and find_level_point split
    # its guess at n into a q and a p of unequal length
    inv = get_system("uncoupled_oscillators").invariants
    calls = (inv.member_values, inv.jacobian_at,
             lambda u: find_level_point(inv, (0.5, 0.5), u))
    for call in calls:
        with pytest.raises(UnboundSymbolError,
                           match=f"a {point.n}-degree point does not fit a "
                                 "2-degree phase space"):
            call(point)


def test_find_level_point_vortex_self_consistency():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=10)[0]
    target = inv.member_values(u)
    guess = EvalPoint(tuple(v + 0.05 for v in u.q),
                      tuple(v - 0.05 for v in u.p))
    element = find_level_point(inv, target, guess)
    assert np.max(np.abs(inv.member_values(element.witness) - target)) <= 1e-10


def test_find_level_point_from_a_guess_outside_the_domain():
    # vortices 1 and 2 coincide, where the Hamiltonian's log of their
    # distance is undefined
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=10)[0]
    q, p = list(u.q), list(u.p)
    q[1], p[1] = q[0], p[0]
    with pytest.raises(ConvergenceError,
                       match="^guess point is outside the domain: "):
        find_level_point(inv, inv.member_values(u),
                         EvalPoint(tuple(q), tuple(p)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_find_level_point_rejects_non_finite_levels(bad):
    # a NaN level fails every comparison, so the guess itself would come
    # back as a converged witness
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1)[0]
    level = list(inv.member_values(u))
    level[0] = bad
    with pytest.raises(ValueError, match="level values must be finite"):
        find_level_point(inv, level, u)


def test_cartan_basis_rejects_nan_level():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1)[0]
    level = (np.nan,) + tuple(inv.member_values(u))[1:]
    with pytest.raises(RegularityError, match="misses the level"):
        cartan_basis_at(inv, RegularElement(level, u))


def test_cartan_basis_central_field():
    system = get_system("central_field")
    inv = system.invariants
    u = probe_points(system, 1, seed=11)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=11)
    assert basis.dimension == 2
    h = element.values
    e_h = np.array([1.0, 0.0, 0.0, 0.0])
    p_h = np.array([0.0, h[1], h[2], h[3]])
    p_h /= np.linalg.norm(p_h)
    proj = basis.vectors.T @ basis.vectors
    for target in (e_h, p_h):
        assert np.linalg.norm(target - proj @ target) <= 1e-8


def test_cartan_basis_vortices_contains_qh():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=12)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=12)
    assert basis.dimension == 2
    h1, h2 = element.values[0], element.values[1]
    xi_sum = sum(system.structure.weights)
    q_h = np.array([-h1, -h2, xi_sum, 0.0])
    q_h /= np.linalg.norm(q_h)
    e_h = np.array([0.0, 0.0, 0.0, 1.0])
    proj = basis.vectors.T @ basis.vectors
    for target in (q_h, e_h):
        assert np.linalg.norm(target - proj @ target) <= 1e-8
    # each kernel vector annihilates the evaluated bracket matrix
    m = bracket_matrix_at(inv, element.witness)
    assert np.max(np.abs(basis.vectors @ m)) <= 1e-8


def test_cartan_basis_abelian_is_everything():
    system = get_system("uncoupled_oscillators")
    inv = system.invariants
    u = probe_points(system, 1)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element)
    assert basis.dimension == inv.k


def test_cartan_basis_requires_witness():
    inv = get_system("vortices3").invariants
    with pytest.raises(RegularityError):
        cartan_basis_at(inv, RegularElement((0.0, 0.0, 1.0, 1.0)))


def test_cartan_basis_rejects_off_level_witness():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=13)[0]
    off = tuple(v + 1.0 for v in inv.member_values(u))
    with pytest.raises(RegularityError):
        cartan_basis_at(inv, RegularElement(off, u))


def test_cartan_basis_rejects_singular_stratum():
    # P1 = P2 = 0 zeroes the whole bracket matrix: kernel jumps to 4
    system = get_system("vortices3")
    inv = system.invariants
    u = EvalPoint((1.0, 1.0, 1.0), (1.0, -1.0, 0.0))
    element = RegularElement(tuple(inv.member_values(u)), u)
    with pytest.raises(RegularityError):
        cartan_basis_at(inv, element, seed=14)


def test_mishchenko_fomenko_fixtures():
    v3 = get_system("vortices3")
    report = mishchenko_fomenko_check(v3.invariants, probe_points(v3, 5))
    assert (report.dim_g, report.rank_g, report.dim_m) == (4, 2, 6)
    assert report.holds

    v4 = get_system("vortices", {"n": 4})
    report4 = mishchenko_fomenko_check(v4.invariants, probe_points(v4, 5))
    assert (report4.dim_g, report4.rank_g, report4.dim_m) == (4, 2, 8)
    assert not report4.holds

    cf = get_system("central_field")
    assert mishchenko_fomenko_check(cf.invariants, probe_points(cf, 5)).holds


def test_mishchenko_fomenko_scan():
    # the dimension condition picks out exactly three vortices
    for n in (2, 3, 4, 5):
        system = get_system("vortices", {"n": n})
        report = mishchenko_fomenko_check(system.invariants,
                                          probe_points(system, 5))
        assert report.holds == (n == 3)


def _pt(qv, pv):
    return EvalPoint((float(qv),), (float(pv),))


def test_probes_outside_the_domain_are_skipped():
    inv = InvariantSet(SymplecticStructure.canonical(1), ("L", "P"),
                       (parse("ln(q1)", 1), p(1)))
    clean = [_pt(1, 0), _pt(2, 1), _pt(1.5, -1)]
    outside = [_pt(-1, 0), _pt(-2, 1), _pt(-1.5, -1)]
    assert algebra_rank(inv, outside[:1] + clean) == algebra_rank(inv, clean) \
        == (0, True)
    assert mishchenko_fomenko_check(inv, clean + outside[:1]).holds
    assert functional_independence(inv, outside[:1] + clean[:2])
    with pytest.raises(SamplingError,
                       match=r"^every probe hit a domain error \(singular locus\)$"):
        algebra_rank(inv, outside)
    with pytest.raises(SamplingError,
                       match=r"^every probe hit a domain error \(singular locus\)$"):
        mishchenko_fomenko_check(inv, outside)
    with pytest.raises(SamplingError,
                       match="^too few probes evaluate cleanly$"):
        functional_independence(inv, outside[:1] + clean[:1])


def test_probes_whose_bracket_overflows():
    # with xi = 1e-300, {A, B} = -1e300 exp(q1 + p1) overflows where
    # q1 + p1 > 19, while the Jacobian stays finite: the rank skips such a
    # probe, and independence, which builds no bracket matrix, counts it
    inv = InvariantSet(SymplecticStructure(1, (1e-300,)), ("A", "B"),
                       (parse("exp(q1)", 1), parse("exp(p1)", 1)))
    clean = [_pt(0, 0), _pt(0.5, 0), _pt(0, 0.5)]
    over = [_pt(10, 10), _pt(12, 10), _pt(10, 12)]
    with pytest.raises(DomainError):
        bracket_matrix_at(inv, over[0])
    assert algebra_rank(inv, over[:1] + clean) == algebra_rank(inv, clean) \
        == (0, True)
    with pytest.raises(SamplingError, match="every probe hit a domain error"):
        algebra_rank(inv, over)
    assert functional_independence(inv, over)


def test_independence_of_gradients_above_1e154():
    # each gradient row is about 1e263: its square overflows, which must
    # not read as a zero row
    inv = InvariantSet(SymplecticStructure.canonical(1), ("A", "B"),
                       (parse("exp(300*q1)", 1), parse("exp(300*p1)", 1)))
    assert functional_independence(inv, [_pt(2, 2), _pt(2, 1.5)])
    d = algebra._inverse_norms(np.array([[3e200, 4e200], [0.0, 0.0],
                                         [3.0, 4.0]]))
    assert d[0] == pytest.approx(2e-201, rel=1e-15)
    assert d[1:].tolist() == [0.0, 0.2]


def test_functional_independence():
    system = get_system("vortices3")
    assert functional_independence(system.invariants,
                                   probe_points(system, 6, seed=15))

    s = SymplecticStructure.canonical(1)
    h = simplify((p(1) ** 2 + q(1) ** 2) / 2)
    dep = InvariantSet(s, ("H", "H2"), (h, simplify(2 * h)))
    pts = dep.sample_points(4, seed=16)
    assert not functional_independence(dep, pts)

    coords = InvariantSet(s, ("Q", "P"), (q(1), p(1)))
    assert functional_independence(coords, coords.sample_points(4, seed=17))
    with pytest.raises(ValueError):
        functional_independence(coords, coords.sample_points(1, seed=18))


def test_completion_recovers_vortex_quadratic():
    system = get_system("vortices3")
    inv = system.invariants
    sub = InvariantSet(inv.structure, inv.names[:3], inv.exprs[:3])
    u = probe_points(system, 1, seed=19)[0]
    element = find_level_point(sub, sub.member_values(u), u)
    basis = cartan_basis_at(sub, element, seed=19)
    family = search_polynomial_completion(sub, basis, element, degree=2,
                                          seed=19)
    assert len(family) == 1
    xi_sum = sum(system.structure.weights)
    target = simplify(BinOp("-", BinOp("-",
                                       BinOp("*", Const(xi_sum), inv.exprs[2]),
                                       Pow(inv.exprs[0], 2.0)),
                            Pow(inv.exprs[1], 2.0)))
    pts = sub.sample_points(30, seed=20)
    fam_vals = [[evaluate(f, pt) for pt in pts] for f in family]
    tgt_vals = [evaluate(target, pt) for pt in pts]
    assert _in_span(tgt_vals, fam_vals)


def test_completion_recovers_so3_casimir():
    system = get_system("central_field")
    inv = system.invariants
    u = probe_points(system, 1, seed=21)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=21)
    family = search_polynomial_completion(inv, basis, element, degree=2,
                                          seed=21)
    assert family
    casimir = simplify(BinOp("+", BinOp("+", Pow(inv.exprs[1], 2.0),
                                        Pow(inv.exprs[2], 2.0)),
                             Pow(inv.exprs[3], 2.0)))
    pts = inv.sample_points(30, seed=22)
    fam_vals = [[evaluate(f, pt) for pt in pts] for f in family]
    cas_vals = [evaluate(casimir, pt) for pt in pts]
    assert _in_span(cas_vals, fam_vals)
    # every returned candidate commutes with every generator
    checks = inv.sample_points(10, seed=23)
    for f in family:
        for gen in inv.exprs:
            br = poisson_bracket(f, gen, inv.structure)
            for pt in checks:
                assert abs(evaluate(br, pt)) <= 1e-8


def test_completion_abelian_degree1_empty():
    system = get_system("uncoupled_oscillators")
    inv = system.invariants
    u = probe_points(system, 1)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element)
    assert search_polynomial_completion(inv, basis, element, degree=1) == []


def test_completion_plus_cartan_is_involutive_family():
    # n commuting functions: two Cartan combinations plus the completion
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=24)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=24)
    sub = InvariantSet(inv.structure, inv.names[:3], inv.exprs[:3])
    sub_element = find_level_point(sub, sub.member_values(u), u)
    sub_basis = cartan_basis_at(sub, sub_element, seed=24)
    family = search_polynomial_completion(sub, sub_basis, sub_element,
                                          degree=2, seed=24)
    funcs = basis.combination_exprs(inv) + family
    assert len(funcs) == system.structure.n
    pts = inv.sample_points(20, seed=25)
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            br = poisson_bracket(funcs[i], funcs[j], inv.structure)
            for pt in pts:
                assert abs(evaluate(br, pt)) <= 1e-8


def _three_particles_text(denominators, g, seed):
    """Particles on a line with g/r^2 pair forces: the energy H1, the
    dilation H2 and the momentum H3, with p_j^2/(2 m_j) written
    p_j^2/denominators[j]."""
    kinetic = "+".join(f"p{j + 1}^2/{d!r}" for j, d in enumerate(denominators))
    pairs = "+".join(f"{g!r}/(q{i}-q{j})^2" for i, j in ((1, 2), (1, 3), (2, 3)))
    h1 = f"{kinetic}+{pairs}"
    return ("[system]\nname = three_particles\ndimension = 3\n"
            f"weights = 1.0, 1.0, 1.0\nseed = {seed}\nhamiltonian = {h1}\n\n"
            f"[invariants]\nH1 = {h1}\nH2 = q1*p1+q2*p2+q3*p3\nH3 = p1+p2+p3\n")


# (2 m_j, g, file seed, level values, level-solve guess); each input once
# returned 1 or 2 degree-2 "completions" from a phase-space system whose
# sampled points put two particles close together
THREE_PARTICLE_INPUTS = [
    ((3.5982302327130196, 2.085674794531728, 3.1235268821878295),
     1.0821355273863227, 1415194979,
     (6.957412249509262, 1.4087559884690037, 1.1022992657018884),
     (-0.48982875535494663, 0.4052360215629984, 0.9182853227221555,
      -0.6441644034534718, 0.9904188711609857, 0.7537659755406244)),
    ((2.361064434827524, 3.5269530127372217, 1.8540329273147054),
     0.7399330313350917, 1134912264,
     (3.4142278704936437, -0.9769765631056424, 0.18432448193672868),
     (-0.9499999465803038, -0.12141845637083751, 0.5833888383673166,
      0.473655084572954, 0.5060343455575187, -0.7979720202390546)),
    ((1.50321753506392, 3.413440966740225, 1.9035957440647788),
     0.9951888773578464, 2018884642,
     (5.718717849301387, -0.07133022790684147, 0.9105550605583812),
     (-0.4807135545870692, 0.4905843645011424, 1.0239930220099778,
      0.8948999869399658, -0.6650096875565806, 0.6609433329054469)),
    ((2.304885441484477, 3.1098190402370767, 3.58911525502195),
     0.8996123802114462, 182491539,
     (2.658610499790723, 0.8625590758781742, 1.8864816979729562),
     (-0.5813530837472449, 0.3929543889802139, 1.3272121768397345,
      0.5012796779750665, 0.7168521092401167, 0.659653435398787)),
    ((3.1480654179173886, 3.749110932977445, 3.724709715138179),
     1.3120548912231789, 1433500118,
     (5.331546919246226, 0.08369232201141719, -0.36020370862109263),
     (-0.951872853877878, -0.014712895765693202, 0.6511590755421317,
      -0.5593769008128465, 0.8735600734677589, -0.6760568367668228)),
    ((2.8988785779487833, 1.1741751566153145, 3.7083212372833594),
     1.1698063153800187, 1943136861,
     (7.827419836848573, 0.3252744952619774, -0.7363007642009977),
     (-0.8389311407380756, -0.2600373531929067, 0.3412575939511306,
      -0.6403428312184166, 0.32446571902420296, -0.41047427322949676)),
]


@pytest.mark.parametrize("denominators, g, seed, level, guess",
                         THREE_PARTICLE_INPUTS,
                         ids=[f"seed{case[2]}" for case in THREE_PARTICLE_INPUTS])
def test_three_particles_has_no_degree2_completion(denominators, g, seed,
                                                   level, guess):
    # {H1,H2} = 2 H1, {H1,H3} = 0, {H2,H3} = -H3: the bracket of a
    # polynomial P with H2 has to vanish, which no P in H1..H3 up to
    # degree 2 beyond the Cartan span does
    system = loads_system(_three_particles_text(denominators, g, seed))
    inv = system.invariants
    assert check_closure(fit_structure_constants(inv, 60, system.seed,
                                                 allow_central=True))
    element = find_level_point(inv, level, EvalPoint(guess[:3], guess[3:]))
    cartan = cartan_basis_at(inv, element, seed=system.seed)
    assert search_polynomial_completion(inv, cartan, element, 2,
                                        system.seed) == []


def _liouville_set_text(hamiltonian, members, seed=42):
    return ("[system]\ndimension = 3\n"
            f"seed = {seed}\nhamiltonian = {hamiltonian}\n\n[invariants]\n"
            + "".join(f"{name} = {text}\n" for name, text in members))


_CENTRAL_H = "0.5*(p1^2+p2^2+p3^2)+0.5*(q1^2+q2^2+q3^2)"
_TODA_H = "0.5*(p1^2+p2^2+p3^2)+exp(q1-q2)+exp(q2-q3)"
# three_particles' H1 at g = 1 and unit masses
_CALOGERO_H = ("p1^2/2.0+p2^2/2.0+p3^2/2.0"
               "+1.0/(q1-q2)^2+1.0/(q1-q3)^2+1.0/(q2-q3)^2")
# three abelian, independent members in dimension 3 each: the truth is
# rank G = 3 and 3 + 3 = 6 = dim M
ABELIAN_SETS = {
    "central_field_liouville": _liouville_set_text(_CENTRAL_H, [
        ("H", _CENTRAL_H), ("L3", "p1*q2-p2*q1"),
        ("L2", "(p2*q3-p3*q2)^2+(p3*q1-p1*q3)^2+(p1*q2-p2*q1)^2")]),
    "open_toda3": _liouville_set_text(_TODA_H, [
        ("I1", "p1+p2+p3"), ("H", _TODA_H),
        ("I3", "p1^3+p2^3+p3^3+3*exp(q1-q2)*(p1+p2)+3*exp(q2-q3)*(p2+p3)")]),
    "calogero_moser3": _liouville_set_text(_CALOGERO_H, [
        ("I1", "p1+p2+p3"), ("H", _CALOGERO_H),
        ("I3", "p1^3+p2^3+p3^3+3*(p1+p2)/(q1-q2)^2+3*(p1+p3)/(q1-q3)^2"
               "+3*(p2+p3)/(q2-q3)^2")], seed=5),
}
_ABELIAN_CASES = [(name, seed) for name in ABELIAN_SETS for seed in (1, 7, 42)]


@pytest.mark.parametrize("name, seed", _ABELIAN_CASES)
def test_abelian_liouville_sets_close(name, seed):
    inv = loads_system(ABELIAN_SETS[name]).invariants
    constants = fit_structure_constants(inv, 60, seed, allow_central=True)
    assert check_closure(constants)
    assert np.max(np.abs(constants.c)) <= 1e-9
    assert np.max(np.abs(constants.c0)) <= 1e-9


# a probe with q1 and q2 close together: at seed 5 the Jacobian's raw
# singular values are 1.1e10, 9.5e5 and 1.0, full rank after row scaling
@pytest.mark.parametrize("name, seed", _ABELIAN_CASES + [
    ("calogero_moser3", 5)])
def test_abelian_liouville_sets_are_independent(name, seed):
    system = loads_system(ABELIAN_SETS[name])
    inv = system.invariants
    assert functional_independence(inv, probe_points(system, 6, seed))


def _abelian_mf_report(name, seed):
    system = loads_system(ABELIAN_SETS[name])
    report = mishchenko_fomenko_check(system.invariants,
                                      probe_points(system, 6, seed))
    assert (report.dim_g, report.dim_m) == (3, 6)
    return report


# brackets that vanish only up to roundoff (entries near 1e-13) are judged
# against the gradients they came from, so the bracket matrix reads rank 0
@pytest.mark.parametrize("name, seed", _ABELIAN_CASES + [
    ("calogero_moser3", 5)])
def test_abelian_liouville_sets_have_full_rank(name, seed):
    assert _abelian_mf_report(name, seed).rank_g == 3


@pytest.mark.parametrize("name, seed", _ABELIAN_CASES + [
    ("calogero_moser3", 5)])
def test_abelian_liouville_sets_meet_the_dimension_condition(name, seed):
    assert _abelian_mf_report(name, seed).holds


@pytest.mark.parametrize("name", ABELIAN_SETS)
def test_abelian_liouville_sets_have_a_three_dimensional_cartan_basis(name):
    # every member commutes with every other, so at a regular level the
    # whole set spans the kernel of the bracket matrix
    system = loads_system(ABELIAN_SETS[name])
    inv = system.invariants
    u = probe_points(system, 1, seed=7)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    assert cartan_basis_at(inv, element, seed=7).dimension == 3


# the analysis workload's three_particles inputs that read dependent on seed
# 11 before the Jacobian rows were scaled: a probe with two particles close
# together gives raw Jacobian singular values such as 1.2e10, 3.0 and 0.5
@pytest.mark.parametrize("denominators, g, seed", [
    ((2.8988785779487833, 1.1741751566153145, 3.7083212372833594),
     1.1698063153800187, 1943136861),
    ((1.544692687380121, 3.9620782853829297, 2.729826013271944),
     1.3967286232890848, 606634340),
    ((3.411407313714469, 3.3600664708824617, 3.0557188427826505),
     0.9586123878251668, 840990862),
    ((3.2148135749493307, 3.0194401342653885, 1.1672947505341993),
     0.7893555423955962, 258284861),
])
def test_three_particles_with_a_near_collision_probe_are_independent(
        denominators, g, seed):
    system = loads_system(_three_particles_text(denominators, g, seed))
    assert functional_independence(system.invariants,
                                   probe_points(system, 6, seed))


def test_a_vanishing_member_gradient_keeps_the_verdicts():
    # F's gradient vanishes at the first probe: its zero row in the Jacobian
    # and in the bracket matrix stays zero under the norm scaling, no nan
    s = SymplecticStructure.canonical(2)
    inv = InvariantSet(s, ("H", "F"), (
        parse("(p1^2+q1^2)/2 + (p2^2+q2^2)/2", 2), parse("(p1^2+q1^2)/2", 2)))
    probes = [EvalPoint((0.0, 1.0), (0.0, -0.5))] + inv.sample_points(5, 3)
    with np.errstate(all="raise"):
        assert algebra_rank(inv, probes) == (2, True)
        assert mishchenko_fomenko_check(inv, probes).holds
        assert not functional_independence(inv, probes)
        assert functional_independence(inv, probes[1:])


def _so_n_central_field(n):
    """H = |p|^2/2 + V(|q|^2) for V = r2/2 + r2^2/10 on T*R^n, with the
    angular momenta L_ij = q_i p_j - q_j p_i (i < j): the algebra so(n) plus
    the central H (Mishchenko & Fomenko, Funct. Anal. Appl. 12, 1978)."""
    r2 = "+".join(f"q{i}^2" for i in range(1, n + 1))
    names, texts = ["H"], ["0.5*(" + "+".join(
        f"p{i}^2" for i in range(1, n + 1)) + f")+0.5*({r2})+0.1*({r2})^2"]
    for i, j in itertools.combinations(range(1, n + 1), 2):
        names.append(f"L{i}{j}")
        texts.append(f"q{i}*p{j}-q{j}*p{i}")
    return InvariantSet(SymplecticStructure.canonical(n), names,
                        [parse(text, n) for text in texts])


# L = q ^ p is a bivector of matrix rank 2, so the moment map meets only
# coadjoint orbits of dimension 2n - 4: rank G = k - (2n - 4), and the
# Jacobian rank is 2n - 2, so only n <= 3 gives independent members
@pytest.mark.parametrize("n, rank_g", [(2, 2), (3, 2), (4, 3), (5, 5),
                                       (6, 8)])
def test_so_n_central_field_verdicts(n, rank_g):
    inv = _so_n_central_field(n)
    constants = fit_structure_constants(inv, 60, 3, allow_central=True)
    probes = inv.sample_points(max(6, inv.k), 3)
    assert check_closure(constants)
    assert is_solvable(constants) == (n == 2)
    assert functional_independence(inv, probes) == (n <= 3)
    assert algebra_rank(inv, probes) == (rank_g, True)
    assert mishchenko_fomenko_check(inv, probes).holds == (n <= 3)


# at n = 4 the Pfaffian L12 L34 - L13 L24 + L14 L23, a Casimir of so(4),
# vanishes on decomposable bivectors (the Plucker relation), so the
# search's three degree-2 Casimirs span only two functions on M
@pytest.mark.parametrize("n", [3, 4, 5])
def test_so_n_central_field_has_two_degree2_completions(n):
    inv = _so_n_central_field(n)
    u = inv.sample_points(1, 3)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    cartan = cartan_basis_at(inv, element, seed=3)
    assert len(search_polynomial_completion(inv, cartan, element, 2, 3)) == 2


def test_completion_refuses_an_algebra_that_does_not_close():
    system = get_system("drift_control")
    inv = system.invariants
    u = probe_points(system, 1)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    cartan = cartan_basis_at(inv, element, seed=system.seed)
    with pytest.raises(AlgebraError, match="do not close"):
        search_polynomial_completion(inv, cartan, element, 2, system.seed)


def test_fitted_constants_satisfy_jacobi():
    for name, seed in (("vortices3", 26), ("central_field", 27)):
        inv = get_system(name).invariants
        sc = fit_structure_constants(inv, samples=60, seed=seed)
        assert sc.jacobi_defect() <= 1e-8


def test_lie_cartan_dimension_consistency():
    # kernel dimension k - 2(n - r) whenever the dimension condition holds
    for name in ("vortices3", "central_field"):
        system = get_system(name)
        inv = system.invariants
        u = probe_points(system, 1, seed=28)[0]
        element = find_level_point(inv, inv.member_values(u), u)
        basis = cartan_basis_at(inv, element, seed=28)
        report = mishchenko_fomenko_check(inv, probe_points(system, 5))
        assert report.holds
        n = system.structure.n
        assert basis.dimension == inv.k - 2 * (n - report.rank_g)
        # pairwise brackets of the Cartan combinations vanish at the witness
        m = bracket_matrix_at(inv, element.witness)
        cross = basis.vectors @ m @ basis.vectors.T
        assert np.max(np.abs(cross)) <= 1e-8


def test_invariant_set_validation():
    s = SymplecticStructure.canonical(1)
    with pytest.raises(ValueError):
        InvariantSet(s, ("A", "B"), (q(1),))
    with pytest.raises(ValueError):
        InvariantSet(s, ("A", "A"), (q(1), p(1)))
    with pytest.raises(ValueError):
        InvariantSet(s, ("A",), (q(2),))
    with pytest.raises(ValueError):
        InvariantSet(s, ("A",), (parse("g*q1", 1),))
    bound = InvariantSet(s, ("A",), (parse("g*q1", 1),), params={"g": 2.0})
    assert bound.member_values(EvalPoint((3.0,), (0.0,)))[0] == 6.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_parameter_is_refused_at_construction(value):
    with pytest.raises(ValueError, match="parameter 'b' must be finite"):
        InvariantSet(SymplecticStructure.canonical(1), ("H",),
                     (parse("p1^2/2 + b*q1^2", 1),), {"b": value})


def test_sampling_error_on_unreachable_domain():
    s = SymplecticStructure.canonical(1)
    inv = InvariantSet(s, ("F",), (parse("ln(q1 - 5)", 1),))
    with pytest.raises(SamplingError):
        inv.sample_points(5, seed=32)


def test_build_combination():
    inv = get_system("vortices3").invariants
    e = build_combination(inv, (1.0, 0.0, -2.0, 0.0))
    u = inv.sample_points(1, seed=33)[0]
    vals = inv.member_values(u)
    assert evaluate(e, u) == pytest.approx(vals[0] - 2 * vals[2])
    with pytest.raises(ValueError):
        build_combination(inv, (1.0, 2.0))


def test_algebra_error_hierarchy():
    assert issubclass(ConvergenceError, AlgebraError)
    assert issubclass(RegularityError, AlgebraError)
    assert issubclass(SamplingError, AlgebraError)


# ---------------------------------------------------------------------------
# compiled member values and gradients against the symbolic oracles


def _catalog_sets():
    return [(name, get_system(name).invariants) for name in list_systems()]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_member_values_and_jacobian_bit_identical_to_evaluate():
    """The compiled members and gradients of every catalog system give
    exactly the reference_evaluate() tree walk, bit for bit."""
    for name, inv in _catalog_sets():
        for u in inv.sample_points(10, seed=41):
            values = [reference_evaluate(e, u, inv.params) for e in inv.exprs]
            jac = [[reference_evaluate(g, u, inv.params)
                    for g in gradient(e, inv.structure.coordinates)]
                   for e in inv.exprs]
            assert np.array_equal(_bits(inv.member_values(u)), _bits(values)), name
            assert np.array_equal(_bits(inv.jacobian_at(u)), _bits(jac)), name


def test_vortex_sets_with_other_intensities_share_one_compile():
    # the intensities are literals of the members and their gradients, and
    # the compiled source names them: a second set of generic intensities
    # (none is 1, whose product folds away) compiles nothing new
    u = EvalPoint((0.3, -0.9, 1.4), (1.1, 0.2, -0.6))
    first = get_system("vortices3", {"xi": (1.3, 0.7, -2.1)}).invariants
    first.member_values(u)
    before = _binder_from_source.cache_info()
    second = get_system("vortices3", {"xi": (0.9, 1.6, -1.4)}).invariants
    values, jac = second.member_values(u), second.jacobian_at(u)
    after = _binder_from_source.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    assert np.array_equal(_bits(values), _bits(
        [reference_evaluate(e, u) for e in second.exprs]))
    assert np.array_equal(_bits(jac), _bits(
        [[reference_evaluate(g, u)
          for g in gradient(e, second.structure.coordinates)]
         for e in second.exprs]))


def test_bracket_matrix_matches_symbolic_oracle():
    """Gradient-built brackets agree with the symbolic bracket to rounding,
    measured against the gradient norms that bound the rounding error."""
    for name, inv in _catalog_sets():
        pairs = [(i, j, poisson_bracket(inv.exprs[i], inv.exprs[j], inv.structure))
                 for i in range(inv.k) for j in range(inv.k)]
        for u in inv.sample_points(10, seed=42):
            m = bracket_matrix_at(inv, u)
            norms = np.linalg.norm(inv.jacobian_at(u), axis=1)
            assert np.all(np.diag(m) == 0.0), name
            assert np.array_equal(m, -m.T), name
            for i, j, oracle in pairs:
                want = reference_evaluate(oracle, u, inv.params)
                scale = 1.0 + norms[i] * norms[j]
                assert abs(m[i, j] - want) <= 1e-12 * scale, (name, i, j)


def _vortices8():
    # seeded vorticities of either sign
    rng = np.random.default_rng(8)
    xi = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 2.0, 8)
    return get_system("vortices", {"n": 8, "xi": tuple(xi)}).invariants


def _recording_brackets(monkeypatch):
    """The outputs of algebra._bracket_from_jacobian, recorded as it is
    called."""
    calls = []
    build = algebra._bracket_from_jacobian

    def recording(inv, jac):
        calls.append(build(inv, jac))
        return calls[-1]

    monkeypatch.setattr(algebra, "_bracket_from_jacobian", recording)
    return calls


def test_fit_brackets_equal_bracket_matrix_at_bit_for_bit(monkeypatch):
    """The fit's one product over its stacked Jacobians gives exactly the
    bracket matrix of each point: exact equality only, never a tolerance."""
    sets = [item for item in _catalog_sets() if item[1].k > 1]
    calls = _recording_brackets(monkeypatch)
    for name, inv in sets + [("vortices8", _vortices8())]:
        for seed in (0, 42):
            calls.clear()
            fit_structure_constants(inv, 60, seed, allow_central=True)
            [stacked] = calls
            points = inv.sample_points(60, seed)
            assert stacked.shape == (60, inv.k, inv.k), name
            for m, u in zip(stacked, points):
                want = bracket_matrix_at(inv, u)
                assert np.array_equal(_bits(m), _bits(want)), (name, seed)


def test_fit_is_memoised_per_samples_seed_and_central_flag():
    inv = get_system("vortices3").invariants
    first = fit_structure_constants(inv, 60, 7, allow_central=True)
    assert fit_structure_constants(inv, samples=60, seed=7,
                                   allow_central=True) is first
    assert fit_structure_constants(inv, np.int64(60), np.int64(7),
                                   1) is first
    others = [fit_structure_constants(inv, 50, 7, allow_central=True),
              fit_structure_constants(inv, 60, 8, allow_central=True),
              fit_structure_constants(inv, 60, 7)]
    assert len({id(fit) for fit in [first, *others]}) == 4
    # a fresh set fits again, with the same bits
    again = fit_structure_constants(get_system("vortices3").invariants, 60, 7,
                                    allow_central=True)
    assert again is not first
    assert np.array_equal(_bits(again.c), _bits(first.c))
    assert np.array_equal(_bits(again.c0), _bits(first.c0))
    assert again.residual == first.residual


def test_memoised_fit_tables_are_read_only():
    # every caller shares the memoised fit, so none may write into it
    for name in ("vortices3", "oscillator"):
        sc = fit_structure_constants(get_system(name).invariants, 60, 3)
        for table in (sc.c, sc.c0):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


def test_completion_after_analyze_builds_no_bracket_matrix(monkeypatch):
    # analyze's fit is the one the completion search reads
    system = get_system("vortices3")
    inv = system.invariants
    seed = system.seed
    fit_structure_constants(inv, samples=60, seed=seed, allow_central=True)
    u = probe_points(system, 1, seed)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    cartan = cartan_basis_at(inv, element, seed=seed)
    calls = _recording_brackets(monkeypatch)
    found = search_polynomial_completion(inv, cartan, element, degree=2,
                                         seed=seed)
    assert len(found) == 2
    assert calls == []


def _count_evaluations(monkeypatch):
    """The states passed to the invariant sets' compiled member-and-gradient
    functions, in order: one per computation, below the sampled-point memo."""
    states = []

    def compile_counting(*args, **kwargs):
        fn = compile_functions(*args, **kwargs)

        def counting(y):
            states.append(tuple(y))
            return fn(y)

        return counting

    monkeypatch.setattr(algebra, "compile_functions", compile_counting)
    return states


def test_fit_evaluates_each_screened_point_once(monkeypatch):
    # the values and Jacobians that screen the sampled points are the ones
    # the fit uses; vortices3 rejects none of the 60 points
    inv = get_system("vortices3").invariants
    points = _count_evaluations(monkeypatch)
    fit_structure_constants(inv, samples=60)
    assert len(points) == 60


def test_analyze_chain_evaluates_each_sampled_state_once(monkeypatch):
    # analyze's fit, then the six probes that rank, the dimension condition
    # and the independence check read: the probes are a prefix of the
    # fit's seed-42 draw, so no verdict computes a sampled point again
    system = get_system("vortices3")
    inv = system.invariants
    points = _count_evaluations(monkeypatch)
    fit_structure_constants(inv, 60, 42, allow_central=True)
    probes = probe_points(system, 6, 42)
    algebra_rank(inv, probes)
    mishchenko_fomenko_check(inv, probes)
    functional_independence(inv, probes)
    assert len(points) == len(set(points)) == 60


def test_sampled_values_and_jacobians_are_read_only():
    # the memo hands the same arrays to every verdict, so none may write
    inv = get_system("vortices3").invariants
    u = inv.sample_points(1, 0)[0]
    for shared in (inv.member_values(u), inv.jacobian_at(u)):
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_cartan_and_completion_evaluate_each_screened_point_once(monkeypatch):
    # the Cartan check's 5 points and the completion's 60-point fit are
    # prefixes of the seed-0 draw memoised on the set, so after a 60-point
    # fit at seed 0 only the witness is new; the completion system itself
    # reads the fitted constants and no phase-space point
    system = get_system("vortices3")
    u = probe_points(system, 1)[0]
    points = _count_evaluations(monkeypatch)
    for fitted, cartan_count, completion_count in [(False, 6, 55),
                                                   (True, 1, 0)]:
        inv = get_system("vortices3").invariants
        element = find_level_point(inv, inv.member_values(u), u)
        points.clear()
        if fitted:
            fit_structure_constants(inv, 60, seed=0)
            assert len(points) == 60
        before = len(points)
        cartan = cartan_basis_at(inv, element)
        assert len(points) - before == cartan_count
        before = len(points)
        search_polynomial_completion(inv, cartan, element)
        assert len(points) - before == completion_count
        assert len(set(points)) == len(points)


def _states(points):
    return [u.q + u.p for u in points]


def _screened(inv, count, seed):
    """(points, values (count, k), Jacobians (count, k, 2n)) of a
    sample_points request, read through _evaluate as the verdicts read them."""
    points = inv.sample_points(count, seed)
    values, jacobians = zip(*map(inv._evaluate, points))
    return points, np.array(values), np.array(jacobians)


def _sqrt_set():
    # sqrt(q1) leaves the domain wherever the band draws q1 < 0: about half
    # of the points
    s = SymplecticStructure.canonical(1)
    return InvariantSet(s, ("F",), (parse("sqrt(q1) + p1^2", 1),))


def _sparse_set():
    # about one band point in eight has q1, q2, q3 > 0
    s = SymplecticStructure.canonical(3)
    return InvariantSet(s, ("F", "G"),
                        (parse("sqrt(q1) + sqrt(q2) + sqrt(q3)", 3),
                         parse("p1^2 + g*p2", 3)), params={"g": 0.5})


def _screen_like_reference(make, requests):
    """Runs the (count, seed) requests in order on one fresh set through
    the memo and on another through the reference loop; returns the memo's
    results, None where the reference raised SamplingError."""
    memo, ref = make(), make()
    results = []
    for count, seed in requests:
        try:
            want = reference_screened_samples(ref, count, seed)
        except SamplingError as exc:
            with pytest.raises(SamplingError, match=str(exc)):
                memo.sample_points(count, seed)
            results.append(None)
            continue
        got = _screened(memo, count, seed)
        assert _states(got[0]) == _states(want[0])
        assert np.array_equal(_bits(got[1]), _bits(want[1]))
        assert np.array_equal(_bits(got[2]), _bits(want[2]))
        results.append(got)
    return results


def test_rejected_sample_raises_its_kept_domain_error(monkeypatch):
    # a drawn point that left the domain is not computed again: _evaluate
    # raises the DomainError message the screening kept
    inv, fresh = _sqrt_set(), _sqrt_set()
    states = _count_evaluations(monkeypatch)
    good = _states(inv.sample_points(5, 0))
    rejected = [u for u in sample_eval_points(1, 5, 0)
                if u.q + u.p not in good]
    assert rejected
    for u in rejected:
        with pytest.raises(DomainError) as want:
            fresh._evaluate(u)
        before = len(states)
        with pytest.raises(DomainError) as got:
            inv._evaluate(u)
        assert str(got.value) == str(want.value)
        assert len(states) == before


@pytest.mark.parametrize("make", [lambda: get_system("vortices3").invariants,
                                  lambda: get_system("central_field").invariants,
                                  _sqrt_set, _sparse_set],
                         ids=["vortices3", "central_field", "sqrt", "sparse"])
@pytest.mark.parametrize("requests", [
    [(5, 0), (60, 0), (56, 0), (20, 1)],
    [(60, 0), (5, 0), (20, 1), (56, 0)],
    [(20, 1), (1, 0), (56, 0), (60, 0), (5, 0)],
])
def test_memoised_screening_matches_reference_loop(make, requests):
    _screen_like_reference(make, requests)


def test_memoised_screening_refills_from_later_seeds():
    # half the seed-0 batch of 5 leaves the domain, so the request reads the
    # seed-1 batch too, as the reference loop does
    got = _screen_like_reference(_sqrt_set, [(5, 0), (2, 1), (8, 0)])
    for (points, _, _), count in [(got[0], 5), (got[2], 8)]:
        first_batch = _states(sample_eval_points(1, count, 0))
        assert not set(_states(points)) <= set(first_batch)


def test_memoised_screening_raises_sampling_error_with_the_reference():
    # seeds 1184..1194 all draw a first point with q1 < 0, so a 1-point
    # request at 1184 or 1185 gives up after 10 draws; the 3-point request
    # fills longer batches of the same seeds first
    assert _screen_like_reference(_sqrt_set, [(3, 1184), (1, 1184), (1, 1185),
                                              (2, 1184), (1, 1186)])[1] is None
    for counts in [range(1, 9), range(8, 0, -1)]:
        results = _screen_like_reference(_sparse_set, [(c, 80) for c in counts])
        outcomes = {c: r is None for c, r in zip(counts, results)}
        assert outcomes[2] and not outcomes[1]


@pytest.mark.parametrize("make, count, seed", [
    (lambda: get_system("vortices3").invariants, 60, 0),
    (_sqrt_set, 5, 0), (_sqrt_set, 56, 3), (_sparse_set, 6, 80),
    (_sparse_set, 7, 80)], ids=["vortices3", "sqrt-5", "sqrt-56", "sparse-6",
                                "sparse-7-raises"])
def test_cold_screening_evaluates_the_reference_states_only(monkeypatch, make,
                                                            count, seed):
    # no look-ahead: a cold request evaluates exactly the points the
    # reference loop evaluates, in its order, also when both give up
    points = _count_evaluations(monkeypatch)
    outcomes = []
    for screen in (lambda inv: reference_screened_samples(inv, count, seed),
                   lambda inv: inv.sample_points(count, seed)):
        points.clear()
        try:
            screen(make())
            outcomes.append((True, list(points)))
        except SamplingError:
            outcomes.append((False, list(points)))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][1]) >= count


@pytest.mark.parametrize("used_first", [False, True])
def test_invariant_set_owns_its_parameter_binding(used_first):
    # the set copies params at construction, so editing the caller's dict,
    # before or after first use, changes no value, Jacobian or batch; g also
    # decides which band points sqrt(q1 - g) screens out
    s = SymplecticStructure.canonical(1)
    names, exprs = ("A", "B"), (parse("g*q1*p1", 1),
                                parse("sqrt(q1 - g) + g*p1^2", 1))
    want = InvariantSet(s, names, exprs, params={"g": 0.6})
    binding = {"g": 0.6}
    inv = InvariantSet(s, names, exprs, params=binding)
    u = EvalPoint((3.0,), (0.5,))
    if used_first:
        inv.member_values(u)
        inv.sample_points(4, seed=3)
    binding["g"] = -5.0
    assert inv.params == {"g": 0.6}
    assert inv.member_values(u)[0] == 0.6 * 3.0 * 0.5
    assert inv.jacobian_at(u)[0].tolist() == [0.6 * 0.5, 0.6 * 3.0]
    assert np.array_equal(_bits(inv.member_values(u)),
                          _bits(want.member_values(u)))
    assert np.array_equal(_bits(inv.jacobian_at(u)), _bits(want.jacobian_at(u)))
    bracket = compile_functions([poisson_bracket(*exprs, s)], 1, {"g": 0.6})
    assert bracket_matrix_at(inv, u)[0, 1] == pytest.approx(
        bracket((3.0, 0.5))[0], rel=1e-12)
    got, ref = _screened(inv, 8, 3), _screened(want, 8, 3)
    assert _states(got[0]) == _states(ref[0])
    assert np.array_equal(_bits(got[1]), _bits(ref[1]))
    assert np.array_equal(_bits(got[2]), _bits(ref[2]))
    moved = InvariantSet(s, names, exprs, params=binding)
    assert _states(moved.sample_points(8, 3)) != _states(ref[0])


def test_reduced_svd_keeps_rank_values_and_kernel_bits(monkeypatch):
    # every matrix ranked by a catalog analysis: the structure fit's design,
    # the Casimir systems and the transposed member Jacobians (tall),
    # bracket matrices (square) and completion spans (wide); drift_control
    # does not close, so it has no completion search
    matrices = []
    original = algebra._numeric_rank

    def recording(matrix, rcond=algebra.RANK_RCOND, floor=0.0):
        matrices.append(np.array(matrix))
        return original(matrix, rcond, floor)

    monkeypatch.setattr(algebra, "_numeric_rank", recording)
    for name in list_systems():
        system = get_system(name)
        inv = system.invariants
        is_solvable(fit_structure_constants(inv, 60, system.seed,
                                            allow_central=True))
        probes = probe_points(system, 6)
        algebra_rank(inv, probes)
        functional_independence(inv, probes)
        element = find_level_point(inv, inv.member_values(probes[0]), probes[0])
        cartan = cartan_basis_at(inv, element, system.seed)
        if name != "drift_control":
            search_polynomial_completion(inv, cartan, element, 2, system.seed)
    shapes = {"tall": 0, "square": 0, "wide": 0}
    for m in matrices:
        rows, cols = m.shape
        shapes["tall" if rows > cols else "square" if rows == cols else "wide"] += 1
        _, s_full, vt_full = np.linalg.svd(m, full_matrices=True)
        rank, s, vt = original(m)
        assert rank == _rank(m)
        assert np.array_equal(_bits(s), _bits(s_full))
        assert np.array_equal(_bits(vt), _bits(vt_full))
    assert min(shapes.values()) > 10, shapes


def test_independence_ranks_tall_matrices(monkeypatch):
    # a wide (1, 2n) Jacobian would get the full SVD and its (2n, 2n) basis
    shapes = []
    original = algebra._numeric_rank

    def recording(matrix, rcond=algebra.RANK_RCOND, floor=0.0):
        shapes.append(matrix.shape)
        return original(matrix, rcond, floor)

    monkeypatch.setattr(algebra, "_numeric_rank", recording)
    inv = InvariantSet(SymplecticStructure.canonical(500), ("H",),
                       (parse("0.5*(p1^2 + q1^2)", 500),))
    assert functional_independence(inv, sample_eval_points(500, 3, 1))
    assert shapes and all(rows >= cols for rows, cols in shapes), shapes


def test_invariant_set_walks_each_member_once(monkeypatch):
    walks = [0]
    original = expr_module._postorder

    def counted(roots):
        walks[0] += 1
        return original(roots)

    monkeypatch.setattr(expr_module, "_postorder", counted)
    s = SymplecticStructure.canonical(2)
    InvariantSet(s, ("A", "B", "C"), (parse("q1*p2", 2), parse("a*q2", 2),
                                       parse("b + p1", 2)), {"a": 1.0, "b": 2.0})
    assert walks[0] == 3
    with pytest.raises(ValueError) as err:
        InvariantSet(s, ("A", "B"), (parse("q1", 2), parse("a*p3", 3)))
    assert str(err.value) == "member 'B' uses index 3, beyond dimension 2"
    with pytest.raises(ValueError) as err:
        InvariantSet(s, ("A", "B"), (parse("b*q1", 2), parse("a*p2 + b", 2)))
    assert str(err.value) == "members use unbound parameters: ['a', 'b']"


def test_level_solve_evaluates_each_trial_once(monkeypatch):
    # a trial's one evaluation gives its residual and, once accepted, the
    # Jacobian of the next step: no point is evaluated twice
    s = SymplecticStructure.canonical(1)
    points = _count_evaluations(monkeypatch)
    linear = InvariantSet(s, ("F",), (parse("q1 + p1", 1),))
    find_level_point(linear, (3.0,), EvalPoint((0.0,), (0.0,)))
    assert len(points) == 2 and points[1] == pytest.approx((1.5, 1.5))
    system = get_system("vortices3")
    u = probe_points(system, 1, seed=10)[0]
    guess = EvalPoint(tuple(v + 0.05 for v in u.q), tuple(v - 0.05 for v in u.p))
    for inv, target, start in [
            (InvariantSet(s, ("F",), (parse("sqrt(q1)", 1),)), (0.0,),
             EvalPoint((1.0,), (0.0,))),
            (system.invariants, system.invariants.member_values(u), guess)]:
        points.clear()
        find_level_point(inv, target, start)
        assert len(points) > 2 and len(set(points)) == len(points)


def test_level_solve_rejects_trials_where_a_gradient_leaves_the_domain():
    # sqrt(q1) = 0 holds at q1 = 0, where the gradient 0.5/sqrt(q1) divides
    # by zero; the witness stays inside the domain, so it has a bracket matrix
    s = SymplecticStructure.canonical(1)
    inv = InvariantSet(s, ("F",), (parse("sqrt(q1)", 1),))
    element = find_level_point(inv, (0.0,), EvalPoint((1.0,), (0.0,)))
    assert element.witness.q[0] > 0.0
    assert abs(inv.member_values(element.witness)[0]) <= 1e-10
    assert np.all(np.isfinite(inv.jacobian_at(element.witness)))
    assert cartan_basis_at(inv, element).dimension == 1


# ---------------------------------------------------------------------------
# oracle algebras from linear moment maps: for n x n matrices A_a spanning a
# Lie algebra g in gl(n), the members H_a = sum_ij p_i (A_a)_ij q_j bracket
# as {H_a, H_b} = -H_[A_a, A_b], so every verdict has an exact answer from
# the integer commutator constants


def _e(n, i, j):
    unit = np.zeros((n, n), dtype=np.int64)
    unit[i - 1, j - 1] = 1
    return unit


MOMENT_ALGEBRAS = {
    "sl2": [_e(2, 1, 1) - _e(2, 2, 2), _e(2, 1, 2), _e(2, 2, 1)],
    "so3": [_e(3, 2, 3) - _e(3, 3, 2), _e(3, 3, 1) - _e(3, 1, 3),
            _e(3, 1, 2) - _e(3, 2, 1)],
    "heisenberg": [_e(3, 1, 2), _e(3, 2, 3), _e(3, 1, 3)],
    "upper_triangular": [_e(2, 1, 1), _e(2, 1, 2), _e(2, 2, 2)],
    "solvable4": [_e(3, 1, 1), _e(3, 1, 2), _e(3, 1, 3), _e(3, 2, 3)],
    "abelian": [_e(2, 1, 1), _e(2, 2, 2)],
}


def _moment_set(basis):
    n = basis[0].shape[0]
    exprs = tuple(
        parse("+".join(f"{a[i, j]}*p{i + 1}*q{j + 1}"
                       for i in range(n) for j in range(n) if a[i, j]), n)
        for a in basis)
    names = tuple(f"H{a}" for a in range(1, len(basis) + 1))
    return InvariantSet(SymplecticStructure.canonical(n), names, exprs)


def _commutator_constants(basis):
    """Integer f[s, a, b] with [A_a, A_b] = sum_s f[s, a, b] A_s, checked
    exactly in integer arithmetic."""
    k = len(basis)
    flat = np.array([a.ravel() for a in basis]).T
    f = np.zeros((k, k, k), dtype=np.int64)
    for a, b in itertools.product(range(k), repeat=2):
        comm = basis[a] @ basis[b] - basis[b] @ basis[a]
        coef = np.linalg.lstsq(flat, comm.ravel(), rcond=None)[0]
        f[:, a, b] = np.rint(coef).astype(np.int64)
        assert np.array_equal(flat @ f[:, a, b], comm.ravel())
    return f


def _row_basis(rows):
    """Echelon basis of the rows' span over Q (Fraction elimination)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)]
                for r in rows if r is not pivot]
        basis.append(pivot)
    return basis


def _exact_solvable(f):
    """Derived series over Q from the integer constants."""
    k = f.shape[0]
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    while basis:
        brackets = [[sum(int(f[s, i, j]) * x[i] * y[j]
                         for i in range(k) for j in range(k))
                     for s in range(k)] for x in basis for y in basis]
        derived = _row_basis(brackets)
        if len(derived) == len(basis):
            return False
        basis = derived
    return True


def _exact_index(f, draws=8):
    """k - max rank of C(xi)_ab = sum_s f[s, a, b] xi_s over integer xi."""
    rng = np.random.default_rng(5)
    k = f.shape[0]
    best = max(len(_row_basis(np.einsum("sab,s->ab", f, xi).tolist()))
               for xi in rng.integers(-50, 51, size=(draws, k)))
    return k - best


@pytest.mark.parametrize("name, solvable, index", [
    ("sl2", False, 1), ("so3", False, 1), ("heisenberg", True, 1),
    ("upper_triangular", True, 1), ("solvable4", True, 0),
    ("abelian", True, 2),
])
def test_moment_map_algebras_match_exact_verdicts(name, solvable, index):
    basis = MOMENT_ALGEBRAS[name]
    f = _commutator_constants(basis)
    assert _exact_solvable(f) == solvable
    assert _exact_index(f) == index
    inv = _moment_set(basis)
    constants = fit_structure_constants(inv, 60, 3, allow_central=True)
    assert check_closure(constants)
    assert np.max(np.abs(constants.c + f)) <= 1e-12
    assert np.max(np.abs(constants.c0)) <= 1e-12
    assert is_solvable(constants) == solvable
    probes = inv.sample_points(6, 3)
    assert algebra_rank(inv, probes)[0] == index
    assert functional_independence(inv, probes)
    report = mishchenko_fomenko_check(inv, probes)
    assert report.holds == (inv.k + index == 2 * inv.structure.n)


def test_moment_map_negative_controls():
    # E12 and E21 without their commutator E11 - E22 do not close, and the
    # nine members of gl(3) cannot be independent on a 6-dimensional space
    pair = _moment_set([_e(2, 1, 2), _e(2, 2, 1)])
    assert not check_closure(
        fit_structure_constants(pair, 60, 3, allow_central=True))
    gl3 = _moment_set([_e(3, i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    assert not functional_independence(gl3, gl3.sample_points(9, 3))
