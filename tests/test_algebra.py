"""Lie-algebra decisions: closure, solvability, rank, Cartan data, completions."""
import itertools

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
from liouville.expr import compile_functions, p, parse, q, sample_eval_points
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


def test_find_level_point_vortex_self_consistency():
    system = get_system("vortices3")
    inv = system.invariants
    u = probe_points(system, 1, seed=10)[0]
    target = inv.member_values(u)
    guess = EvalPoint(tuple(v + 0.05 for v in u.q),
                      tuple(v - 0.05 for v in u.p))
    element = find_level_point(inv, target, guess)
    assert np.max(np.abs(inv.member_values(element.witness) - target)) <= 1e-10


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
                    for g in inv.gradient_exprs(i)]
                   for i in range(inv.k)]
            assert np.array_equal(_bits(inv.member_values(u)), _bits(values)), name
            assert np.array_equal(_bits(inv.jacobian_at(u)), _bits(jac)), name


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


def _count_evaluations(monkeypatch):
    """The states (q + p) of the InvariantSet._evaluate calls, in order."""
    points = []
    original = InvariantSet._evaluate

    def counting(self, point):
        points.append(point.q + point.p)
        return original(self, point)

    monkeypatch.setattr(InvariantSet, "_evaluate", counting)
    return points


def test_fit_evaluates_each_screened_point_once(monkeypatch):
    # the values and Jacobians that screen the sampled points are the ones
    # the fit uses; vortices3 rejects none of the 60 points
    inv = get_system("vortices3").invariants
    points = _count_evaluations(monkeypatch)
    fit_structure_constants(inv, samples=60)
    assert len(points) == 60


def test_cartan_and_completion_evaluate_each_screened_point_once(monkeypatch):
    # the Cartan check's 5 points and the completion's 4 * 14 = 56 are
    # prefixes of the seed-0 batch memoised on the set, so after a 60-point
    # fit at seed 0 only the witness and the 20 seed-1 check points are new
    system = get_system("vortices3")
    u = probe_points(system, 1)[0]
    points = _count_evaluations(monkeypatch)
    for fitted, cartan_count, completion_count in [(False, 6, 51 + 20),
                                                   (True, 1, 20)]:
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
                memo._screened_samples(count, seed)
            results.append(None)
            continue
        got = memo._screened_samples(count, seed)
        assert _states(got[0]) == _states(want[0])
        assert np.array_equal(_bits(got[1]), _bits(want[1]))
        assert np.array_equal(_bits(got[2]), _bits(want[2]))
        results.append(got)
    return results


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
                   lambda inv: inv._screened_samples(count, seed)):
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
    got, ref = inv._screened_samples(8, 3), want._screened_samples(8, 3)
    assert _states(got[0]) == _states(ref[0])
    assert np.array_equal(_bits(got[1]), _bits(ref[1]))
    assert np.array_equal(_bits(got[2]), _bits(ref[2]))
    moved = InvariantSet(s, names, exprs, params=binding)
    assert _states(moved.sample_points(8, 3)) != _states(ref[0])


def test_reduced_svd_keeps_rank_values_and_kernel_bits(monkeypatch):
    # every matrix ranked by a catalog analysis: the structure fit's design
    # and the completion systems (tall), bracket matrices (square), member
    # Jacobians and completion spans (wide)
    matrices = []
    original = algebra._numeric_rank

    def recording(matrix, rcond=algebra.RANK_RCOND):
        matrices.append(np.array(matrix))
        return original(matrix, rcond)

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
