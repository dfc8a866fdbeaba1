"""Branch solving, turning points, actions, time maps, and frequencies."""
import math
from pathlib import Path

import numpy as np
import pytest

from liouville import action_angle
from liouville.action_angle import (
    ChartDegree,
    ChartError,
    NoRealRootError,
    QuadratureError,
    SeparableChart,
    action_spectrum,
    action_variable,
    frequency_matrix,
    picard_fuchs_residual,
    solve_branch,
    time_map,
    turning_points,
)
from liouville.catalog import get_system, list_systems
from liouville.expr import (
    EvalPoint, Param, _binder_from_source, const, differentiate, p,
    parameters_of, parse, q, simplify, substitute_param, to_string,
)
from liouville.flows import IntegratorConfig, integrate
from liouville.sysfile import loads_system
from test_expr_trees import _random_tree

W = Param("w")
LAM = Param("lam")
H1 = Param("h_1")
H2 = Param("h_2")


@pytest.fixture(scope="module")
def osc():
    return get_system("oscillator").chart


@pytest.fixture(scope="module")
def quartic():
    return get_system("quartic_oscillator").chart


@pytest.fixture(scope="module")
def uncoupled():
    # default frequencies (1, 2)
    return get_system("uncoupled_oscillators").chart


def test_solve_branch_oscillator(osc):
    w = solve_branch(osc, 1, 0.0, [0.5])
    assert w == pytest.approx(1.0, abs=1e-10)
    w = solve_branch(osc, 1, 0.37, [0.5])
    assert abs(w * w + 0.37 ** 2 - 1.0) <= 1e-10


def test_solve_branch_outside_allowed_region(osc):
    # the turning point for h = 0.5 sits at lam = 1
    with pytest.raises(NoRealRootError):
        solve_branch(osc, 1, 1.1, [0.5])


def test_solve_branch_quartic(quartic):
    assert solve_branch(quartic, 1, 0.0, [1.0]) == pytest.approx(
        math.sqrt(2.0), abs=1e-10)


def test_solve_branch_negative_sign():
    deg = ChartDegree(simplify(W ** 2 + LAM ** 2 - 2 * H1),
                      bracket=(-8.0, 8.0), branch_sign=-1)
    chart = SeparableChart((deg,), h_dim=1)
    assert solve_branch(chart, 1, 0.0, [0.5]) == pytest.approx(-1.0,
                                                               abs=1e-10)


def _residual_chart(text: str, branch_sign: int = 1) -> SeparableChart:
    return SeparableChart((ChartDegree(parse(text, 0), (-8.0, 8.0),
                                       branch_sign),), h_dim=1)


@pytest.mark.parametrize("text, sign, want", [
    # roots in the grid cells near 1e-9 * 2^30, 2^33 and 2^37
    ("(w-1)*(w-10)*(w-100)", 1, 1.0),
    ("(w+1)*(w+10)*(w+100)", -1, -1.0),
    # both roots inside one cell: no grid point sees a sign change, and
    # the golden-section minimum re-brackets the smaller one
    ("(w-0.99)*(w-1.01)", 1, 0.99),
    # R raises a DomainError above w = 3, past the root
    ("(w-1)*sqrt(3-w)", 1, 1.0),
], ids=["three_roots", "three_negative_roots", "two_roots_in_one_cell",
        "domain_hole_above_the_root"])
def test_solve_branch_returns_the_smallest_root_of_the_sign(text, sign, want):
    w = solve_branch(_residual_chart(text, sign), 1, 0.0, [0.0])
    assert w == pytest.approx(want, abs=1e-12)


def test_solve_branch_unbounded_branch():
    # R(lam, 0) < 0 and R never crosses zero: the branch escapes to infinity
    with pytest.raises(NoRealRootError, match="branch unbounded"):
        solve_branch(_residual_chart("-w^2-1"), 1, 0.0, [0.0])


@pytest.mark.parametrize("text, match", [
    # the sign change near w = 1.414 is a pole, beside which Newton stalls
    ("1/(w^2-2) + lam^2", "stalled"),
    # the bisection lands on the pole w = 1.1 itself
    ("1/(w-1.1) + lam^2", "pole"),
])
def test_a_pole_in_the_sign_bracket_is_no_real_root(text, match):
    with pytest.raises(NoRealRootError, match=match):
        solve_branch(_residual_chart(text), 1, 0.5, [0.1])


UNDEFINED_AT_ZERO = "1/w + lam^2 - h_1"


def _branch(chart):
    return solve_branch(chart, 1, 0.5, [0.1])


def _turns(chart):
    return turning_points(chart, 1, [0.1])


@pytest.mark.parametrize("text, call, lam", [
    # R(lam, 0) itself is undefined: the branch solve's first read, then
    # the cycle search's first grid point
    (UNDEFINED_AT_ZERO, _branch, "0.5"),
    (UNDEFINED_AT_ZERO, _turns, "-8"),
    (UNDEFINED_AT_ZERO, lambda chart: action_spectrum(chart, [0.1]), "-8"),
    # the tangency search in w runs past the hole above w = 0.7
    ("1 + sqrt(0.7 - w)", _branch, "0.5"),
    # the turning-point bisection lands on the pole between grid points
    ("w^2 + lam^2 - 1 + 1/(lam - 0.9375)", _turns, "0.9375"),
    # no grid point is negative, and the minimum search enters the hole
    # around lam = 0.0625
    ("w^2 + (lam-0.0625)^2 - 0.001 + sqrt((lam-0.0625)^2 - 1e-4)", _turns,
     "0.06"),
], ids=["solve_branch", "turning_points", "action_spectrum",
        "tangency_search", "bisection", "cycle_minimum_search"])
def test_a_residual_leaving_its_domain_is_no_real_root(text, call, lam):
    with pytest.raises(NoRealRootError,
                       match=f"residual undefined at lam={lam}"):
        call(_residual_chart(text))


def test_a_cycle_reaching_the_bracket_ends_is_no_real_root():
    # at h_1 = 2 the turning points are -+2, outside the bracket (-1, 1)
    chart = SeparableChart((ChartDegree(parse("w^2+lam^2-2*h_1", 0),
                                        (-1.0, 1.0)),), h_dim=1)
    with pytest.raises(NoRealRootError, match="bracket endpoints must lie "
                       "outside the classically allowed region"):
        turning_points(chart, 1, [2.0])


@pytest.mark.parametrize("text", [
    "(w-1)*sqrt(3-w)",      # from k0, the walk meets the DomainError hole
    # every sign change lies below k0, so the walk runs off the grid; a
    # tangency search from there would find the root 3
    "(w-0.5)*(w-2)*(w-3)*(w-7)",
    "(w-0.99)*(w-1.01)",    # no grid point sees a sign change
    "-w^2-1",               # an unbounded branch
])
def test_a_warm_walk_that_fails_starts_again_from_zero(text):
    chart = _residual_chart(text)
    g, _ = action_angle._compile_degree(chart, 1, [0.0])
    try:
        want = solve_branch(chart, 1, 0.0, [0.0])
    except NoRealRootError as exc:
        want = str(exc)
    for k0 in (40, 63):
        try:
            got = action_angle._solve_signed(g, 0.0, 1, 1.0, k0)[0]
        except NoRealRootError as exc:
            got = str(exc)
        assert got == want, k0


def test_solve_branch_index_and_level_validation(osc):
    with pytest.raises(ValueError, match="out of range"):
        solve_branch(osc, 2, 0.0, [0.5])
    with pytest.raises(ValueError, match="level values"):
        solve_branch(osc, 1, 0.0, [0.5, 0.3])


def test_turning_points_oscillator(osc):
    a, b = turning_points(osc, 1, [0.5])
    assert a == pytest.approx(-1.0, abs=1e-8)
    assert b == pytest.approx(1.0, abs=1e-8)


def test_turning_points_quartic(quartic):
    a, b = turning_points(quartic, 1, [1.0])
    assert a == pytest.approx(-math.sqrt(2.0), abs=1e-8)
    assert b == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_turning_points_degenerate_level(osc):
    a, b = turning_points(osc, 1, [0.0])
    assert a == b
    assert abs(a) <= 1e-8


def test_solve_branch_at_a_turning_point_lands_on_the_tangency_root(
        osc, quartic, uncoupled):
    # R(lam+-, .) has no sign change there, so the root is the minimiser
    for chart, h in ((osc, [0.7]), (quartic, [0.8]), (uncoupled, [0.6, 0.8])):
        for j in range(1, chart.n + 1):
            for lam in turning_points(chart, j, h):
                assert abs(solve_branch(chart, j, lam, h)) <= 1e-7, (j, lam)


def test_turning_points_failures(osc):
    with pytest.raises(NoRealRootError, match="no sign change"):
        turning_points(osc, 1, [-0.5])


def test_action_variable_oscillator(osc):
    assert abs(action_variable(osc, 1, [0.7]) - 0.7) <= 1e-8


def test_action_variable_uncoupled_mode(uncoupled):
    # gamma_j = E_j / omega_j and the second frequency is 2
    assert abs(action_variable(uncoupled, 2, [0.3, 0.8]) - 0.4) <= 1e-8


def test_action_variable_zero_level(osc):
    assert action_variable(osc, 1, [0.0]) == 0.0


# gamma = C h^(3/4) for H = p^2/2 + q^4/4, C = (2/pi) 4^(1/4) sqrt(2) B with
# B = integral_0^1 sqrt(1 - x^4) dx = Gamma(1/4)^2 / (6 sqrt(2 pi))
QUARTIC_C = (2.0 / math.pi * 4.0 ** 0.25 * math.sqrt(2.0)
             * math.gamma(0.25) ** 2 / (6.0 * math.sqrt(2.0 * math.pi)))


@pytest.mark.parametrize("h", [1e-6, 1e-3, 0.01, 0.5, 2.0, 9.0])
def test_cycle_actions_match_closed_forms(osc, quartic, uncoupled, h):
    # the oscillators' gamma = h / omega (omega = 1, and 2 for the second
    # uncoupled mode); at h = 1e-6 the 1e-14 absolute tolerance governs
    bound = 1e-13 if h < 1e-3 else 1e-14
    for got, want in ((action_variable(osc, 1, [h]), h),
                      (action_variable(uncoupled, 2, [0.5, h]), h / 2.0),
                      (action_variable(quartic, 1, [h]), QUARTIC_C * h ** 0.75)):
        assert abs(got - want) <= bound * want, (got, want)


def _quartic_period(h: float) -> float:
    """T = 4 (4h)^(1/4) / sqrt(2h) * Gamma(1/4)^2 / (4 sqrt(2 pi))."""
    return (4.0 * (4.0 * h) ** 0.25 / math.sqrt(2.0 * h)
            * math.gamma(0.25) ** 2 / (4.0 * math.sqrt(2.0 * math.pi)))


@pytest.mark.parametrize("h", [1e-6, 1e-4, 0.7])
def test_quartic_frequency_and_half_cycle_time_match_closed_forms(quartic, h):
    period = _quartic_period(h)
    omega = frequency_matrix(quartic, [h])[0, 0]
    half = time_map(quartic, [h], [turning_points(quartic, 1, [h])])[0]
    assert abs(omega * period / (2.0 * math.pi) - 1.0) <= 1e-12
    assert abs(half - period / 2.0) <= 1e-12 * period / 2.0


def _pendulum() -> SeparableChart:
    # H = p^2/2 - cos(q) at energy h in (-1, 1) librates with
    # m = (1 + h) / 2: action (8/pi)(E(m) - (1-m) K(m)), period 4 K(m)
    return SeparableChart((ChartDegree(parse("w^2/2-cos(lam)-h_1", 0),
                                       (-3.14159, 3.14159)),), h_dim=1)


@pytest.mark.parametrize("h", [-0.9, 0.0, 0.9, 0.999])
def test_pendulum_libration_matches_elliptic_integrals(h):
    special = pytest.importorskip("scipy.special")
    chart = _pendulum()
    m = (1.0 + h) / 2.0
    k, e = float(special.ellipk(m)), float(special.ellipe(m))
    gamma = 8.0 / math.pi * (e - (1.0 - m) * k)
    period = 4.0 * k
    spectrum = action_spectrum(chart, [h])
    half = time_map(chart, [h], [turning_points(chart, 1, [h])])[0]
    assert abs(spectrum.gammas[0] - gamma) <= 1e-12 * gamma
    assert abs(2.0 * math.pi / spectrum.omega[0, 0] - period) <= 1e-12 * period
    assert abs(2.0 * half - period) <= 1e-12 * period


def test_rate_doubling_stops_at_its_roundoff_floor():
    # near the separatrix the period's midpoint steps stop shrinking at
    # about 1e-11 relative, above the 2e-13 step test; the rule stops there
    # instead of doubling to 4096 nodes and raising
    special = pytest.importorskip("scipy.special")
    for h in (0.9999, 0.99999):
        period = 4.0 * float(special.ellipk((1.0 + h) / 2.0))
        omega = frequency_matrix(_pendulum(), [h])[0, 0]
        assert abs(2.0 * math.pi / omega - period) <= 1e-10 * period, h


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls of the module function ``name`` from here on."""
    calls = [0]
    function = getattr(action_angle, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(action_angle, name, counted)
    return calls


@pytest.mark.parametrize("name, h, spectrum_solves", [
    ("oscillator", 0.5, 15), ("quartic_oscillator", 0.7, 63)])
def test_actions_and_frequencies_share_their_branch_solves(
        monkeypatch, name, h, spectrum_solves):
    # Gauss-Legendre doubling from 16 nodes took 16 + 32 (+ 64) solves for
    # the action alone.  The trapezoid rule from 8 intervals reuses its
    # nodes, and the rates' midpoint sums read the same solves, so a whole
    # action_spectrum takes 15 (oscillator) and 63 (quartic)
    chart = get_system(name).chart
    calls = _count_calls(monkeypatch, "_solve_signed")
    action_spectrum(chart, [h])
    assert 0 < calls[0] <= spectrum_solves


def _count_root_calls(monkeypatch) -> list[int]:
    """Count the calls of every (R, dR/dw) pair compiled from here on."""
    calls = [0]
    compile_pair = action_angle.compile_functions

    def counted_compile(*args):
        pair = compile_pair(*args)

        def counted(y):
            calls[0] += 1
            return pair(y)
        return counted

    monkeypatch.setattr(action_angle, "compile_functions", counted_compile)
    return calls


@pytest.mark.parametrize("name, h, cold_calls", [
    ("oscillator", 0.5, 553), ("quartic_oscillator", 0.7, 2413)])
def test_warm_searches_halve_the_root_function_calls(
        monkeypatch, name, h, cold_calls):
    # cold_calls: the spectrum's integrals, after the cycle search, with
    # every branch solve scanning up from 1e-9 * scale
    chart = get_system(name).chart
    calls = _count_root_calls(monkeypatch)
    turning_points(chart, 1, [h])
    search = calls[0]
    action_spectrum(chart, [h])
    assert 0 < calls[0] - search <= 0.48 * cold_calls


def _op_bits(chart, h, order) -> bytes:
    """Raw bytes of the actions op's results (spectrum, degree 1's turning
    points, its half-cycle time), with the calls made in ``order``."""
    out = {}
    for step in order:
        if step == "spectrum":
            spectrum = action_spectrum(chart, h)
            out[step] = spectrum.gammas + tuple(spectrum.omega.ravel())
        elif step == "turning":
            out[step] = turning_points(chart, 1, h)
        else:
            mu = [turning_points(chart, 1, h)] + [(0.0, 0.0)] * (chart.n - 1)
            out[step] = time_map(chart, h, mu)
    return b"".join(np.array(out[k], dtype=float).tobytes()
                    for k in ("spectrum", "turning", "time") if k in out)


@pytest.mark.parametrize("name, h", [
    ("oscillator", [0.5]), ("uncoupled_oscillators", [0.6, 0.8]),
    ("quartic_oscillator", [0.7])])
def test_chart_memo_gives_the_same_bits_in_any_order(name, h):
    fresh = [_op_bits(get_system(name).chart, h, order) for order in
             (("spectrum", "turning", "time"), ("time", "turning", "spectrum"),
              ("turning", "time", "spectrum"))]
    chart = get_system(name).chart
    shared = [_op_bits(chart, h, ("spectrum", "turning", "time")),
              _op_bits(chart, h, ("time", "turning", "spectrum"))]
    assert len(set(fresh + shared)) == 1


@pytest.mark.parametrize("name, h", [
    ("oscillator", [0.5]), ("uncoupled_oscillators", [0.6, 0.8]),
    ("quartic_oscillator", [0.7]), ("oscillator", [5e-7])])
def test_turning_points_and_time_map_reuse_the_spectrum(monkeypatch, name, h):
    # h = 5e-7 is just above the oscillator's cycle birth at h = 0
    chart = get_system(name).chart
    action_spectrum(chart, h)
    calls = _count_calls(monkeypatch, "_solve_signed")
    root_calls = _count_root_calls(monkeypatch)
    _op_bits(chart, h, ("turning", "time"))
    assert calls[0] == root_calls[0] == 0


def test_an_interior_time_map_reuses_the_spectrum_compiles(monkeypatch):
    # the cycle's memo entry keeps both compiled functions of the degree
    chart = get_system("uncoupled_oscillators").chart
    h = [0.6, 0.8]
    action_spectrum(chart, h)
    compiles = _count_calls(monkeypatch, "compile_functions")
    turning_points(chart, 1, h)
    time_map(chart, h, [(0.0, 0.5), (-0.2, 0.3)])
    assert compiles[0] == 0


def test_a_chart_walks_each_residual_for_its_symbols_once(monkeypatch):
    walks = _count_calls(monkeypatch, "parameters_of")
    chart = SeparableChart((
        ChartDegree(parse("w^2 + lam^2 - 2*h_1", 0), (-8.0, 8.0)),
        ChartDegree(parse("w^2 + 4*lam^2 - 2*h_2", 0), (-8.0, 8.0))),
        h_dim=2)
    action_spectrum(chart, [0.6, 0.8])
    assert walks[0] == 2


def test_chart_memo_tells_negative_zero_from_zero(monkeypatch):
    # h_1 = 0 is a regular level here: turning points -1, 1 and gamma = 0.5
    def chart():
        return SeparableChart((ChartDegree(
            simplify(W ** 2 + LAM ** 2 - 2 * H1 - 1), (-8.0, 8.0)),), h_dim=1)

    want = _op_bits(chart(), [-0.0], ("spectrum", "turning", "time"))
    shared = chart()
    _op_bits(shared, [0.0], ("spectrum", "turning", "time"))
    searches = _count_calls(monkeypatch, "_find_cycle")
    assert _op_bits(shared, [-0.0], ("spectrum", "turning", "time")) == want
    assert searches[0] > 0


def test_time_map_matches_arcsin(osc):
    lam = 0.5
    t = time_map(osc, [0.5], [(0.0, lam)])[0]
    assert abs(t - math.asin(lam)) <= 1e-6


def test_time_map_half_cycle_is_half_period(osc):
    # h = 5e-7 is just above the cycle birth at h = 0
    for h in (0.5, 5e-7):
        a, b = turning_points(osc, 1, [h])
        t = time_map(osc, [h], [(a, b)])[0]
        assert abs(t - math.pi) <= 1e-6, h


def test_root_layer_results_are_python_floats():
    # the turning points, actions and times are computed in floats, from
    # the sign scan (a degenerate cycle too) to the last quadrature sum
    chart = get_system("uncoupled_oscillators").chart
    h = [0.5, 0.8]
    a, b = turning_points(chart, 1, h)
    results = [a, b, *turning_points(chart, 1, [0.0, 0.8]),
               action_variable(chart, 2, h),
               *time_map(chart, h, [(a, b), (0.1, 0.3)]),
               *action_spectrum(chart, h).gammas]
    assert [type(v) for v in results] == [float] * len(results)


def test_time_map_empty_interval(osc):
    assert time_map(osc, [0.5], [(0.3, 0.3)]) == (0.0,)


def test_time_map_untouched_degree_contributes_nothing(uncoupled):
    a, b = turning_points(uncoupled, 1, [0.5, 0.8])
    t1, t2 = time_map(uncoupled, [0.5, 0.8], [(a, b), (0.1, 0.1)])
    assert abs(t1 - math.pi) <= 1e-6
    assert t2 == 0.0


def test_time_map_endpoint_errors(osc):
    with pytest.raises(NoRealRootError, match="interior endpoint"):
        time_map(osc, [0.5], [(0.0, 1.5)])
    with pytest.raises(QuadratureError, match="degenerate"):
        time_map(osc, [0.0], [(0.0, 0.1)])


def test_time_map_to_just_inside_a_turning_point(osc):
    # 5e-7 inside the turning point 1 at h = 0.5, too far to be moved onto
    # it: the integrand's near-singularity is resolved by Gauss-Legendre
    # doubling
    want = math.asin(1.0 - 5e-7)
    t = time_map(osc, [0.5], [(0.0, 1.0 - 5e-7)])[0]
    assert abs(t - want) <= 1e-12 * want


def test_time_map_shape_validation(osc, uncoupled):
    with pytest.raises(ValueError, match="pair per degree"):
        time_map(osc, [0.5], [(0.0, 0.5), (0.0, 0.5)])
    mixed = SeparableChart(
        (ChartDegree(simplify(W ** 2 + LAM ** 2 - H1 - H2),
                     bracket=(-8.0, 8.0)),), h_dim=2)
    with pytest.raises(ValueError, match="per degree"):
        time_map(mixed, [0.25, 0.25], [(0.0, 0.1)])


def test_frequency_matrix_oscillator(osc):
    omega = frequency_matrix(osc, [0.7])
    assert omega.shape == (1, 1)
    assert omega[0, 0] == pytest.approx(1.0, abs=1e-4)


def test_frequency_at_a_cycle_birth(osc, quartic):
    # h = 5e-7 is just above the cycle birth at h = 0
    assert abs(frequency_matrix(osc, [5e-7])[0, 0] - 1.0) <= 1e-8
    assert abs(action_spectrum(osc, [5e-7]).omega[0, 0] - 1.0) <= 1e-8
    # at h = 0 the cycle is a point, which has no period; the quartic's
    # omega(h) -> 0 there as its period grows like h^(-1/4)
    with pytest.raises(QuadratureError, match="degenerate cycle"):
        frequency_matrix(osc, [0.0])
    with pytest.raises(QuadratureError, match="degenerate cycle"):
        frequency_matrix(quartic, [0.0])


def test_frequency_matrix_uncoupled(uncoupled):
    omega = frequency_matrix(uncoupled, [0.5, 0.8])
    assert np.allclose(np.diag(omega), [1.0, 2.0], atol=1e-4)
    assert omega[0, 1] == omega[1, 0] == 0.0


def test_mixed_level_chart_off_diagonal_entries():
    # degree 1 oscillates at frequency 1 with energy h_1 + h_2 / 2, degree
    # 2 at frequency 2 with energy h_2: d gamma / d h = [[1, 1/2], [0, 1/2]]
    chart = SeparableChart((
        ChartDegree(simplify(W ** 2 + LAM ** 2 - 2 * (H1 + 0.5 * H2)),
                    bracket=(-8.0, 8.0)),
        ChartDegree(simplify(W ** 2 + 4 * LAM ** 2 - 2 * H2),
                    bracket=(-8.0, 8.0)),
    ), h_dim=2)
    h = [0.4, 0.6]
    omega = frequency_matrix(chart, h)
    assert np.max(np.abs(omega - [[1.0, -1.0], [0.0, 2.0]])) <= 1e-8
    cycles = [turning_points(chart, j, h) for j in (1, 2)]
    first = time_map(chart, h, [cycles[0], (0.0, 0.0)])
    both = time_map(chart, h, cycles)
    assert np.max(np.abs(np.array(first) / math.pi - [1.0, 0.5])) <= 1e-9
    assert np.max(np.abs(np.array(both) / math.pi - [1.0, 1.0])) <= 1e-9
    gammas = action_spectrum(chart, h).gammas
    assert np.max(np.abs(np.array(gammas) - [0.7, 0.3])) <= 1e-12


def test_frequency_matrix_singular_action_map():
    flat = SeparableChart(
        (ChartDegree(simplify(W ** 2 + LAM ** 2 - const(2.0)),
                     bracket=(-8.0, 8.0)),), h_dim=1)
    with pytest.raises(ChartError, match="not invertible"):
        frequency_matrix(flat, [0.3])


def test_action_spectrum_uncoupled(uncoupled):
    spectrum = action_spectrum(uncoupled, [0.5, 0.8])
    assert spectrum.h == (0.5, 0.8)
    assert spectrum.gammas[0] == pytest.approx(0.5, abs=1e-8)
    assert spectrum.gammas[1] == pytest.approx(0.4, abs=1e-8)
    assert np.allclose(np.diag(spectrum.omega), [1.0, 2.0], atol=1e-4)


def test_oscillator_charts_at_other_frequencies_share_their_compiles():
    # omega^2 is a literal of the residual and the level a parameter, and
    # the compiled source names both: a second omega compiles nothing new
    # (omega = 1 is left out, as a factor 1 simplifies away)
    first = get_system("oscillator", {"omega": 1.3}).chart
    action_spectrum(first, [0.5])
    before = _binder_from_source.cache_info()
    second = get_system("oscillator", {"omega": 0.8}).chart
    spectrum = action_spectrum(second, [0.6])
    after = _binder_from_source.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert spectrum.gammas[0] == pytest.approx(0.6 / 0.8, abs=1e-8)
    assert spectrum.omega[0, 0] == pytest.approx(0.8, abs=1e-6)


def test_picard_fuchs_separable_charts(osc, uncoupled):
    assert picard_fuchs_residual(uncoupled, [0.5, 0.8], [0.1, 0.4]) <= 1e-8
    # a single degree has nothing to compare against
    assert picard_fuchs_residual(osc, [0.5], [0.1]) == 0.0


def _coupled_chart() -> SeparableChart:
    # degree 1 sees h_1 through a w_2 dependent factor, breaking separability
    r1 = simplify(W ** 2 + LAM ** 2
                  - 2 * H1 * (const(1.0) + const(0.5) * Param("w_2") ** 2))
    r2 = simplify(W ** 2 + 4 * LAM ** 2 - 2 * H2)
    return SeparableChart((ChartDegree(r1, bracket=(-8.0, 8.0)),
                           ChartDegree(r2, bracket=(-8.0, 8.0))), h_dim=2)


def test_picard_fuchs_detects_coupling():
    chart = _coupled_chart()
    assert picard_fuchs_residual(chart, [0.5, 0.8], [0.1, 0.3]) >= 1e-2


def test_picard_fuchs_skips_a_probe_whose_branch_meets_a_pole():
    # at lam = 0.5 degree 1 brackets its pole, not a root
    chart = SeparableChart((
        ChartDegree(parse("1/(w^2-2) + lam^2 - h_1 + 0*w_2", 0), (-8.0, 8.0)),
        ChartDegree(parse("w^2 + lam^2 - 2*h_2", 0), (-8.0, 8.0))), h_dim=2)
    assert picard_fuchs_residual(chart, (0.1, 0.5), [1.0]) == 0.0
    assert picard_fuchs_residual(chart, (0.1, 0.5), [0.5, 1.0]) == 0.0
    with pytest.raises(ChartError, match="insufficient probes"):
        picard_fuchs_residual(chart, (0.1, 0.5), [0.5])


def test_picard_fuchs_probe_validation():
    chart = _coupled_chart()
    with pytest.raises(ValueError, match="probe"):
        picard_fuchs_residual(chart, [0.5, 0.8], [])
    with pytest.raises(ChartError, match="insufficient probes"):
        picard_fuchs_residual(chart, [0.5, 0.8], [7.9])


@pytest.mark.parametrize("text, match", [
    # R(lam, 0) = 0, so the branch is w = 0 exactly, where R_w = 0
    ("w^2*(1+lam_1^2)", "dR/dw vanishes on the branch"),
    # dR/dh_2 = 0.5 / sqrt(h_2 - 0.5) divides by zero at h_2 = 0.5
    ("w - lam_1^2 - 1 + sqrt(h_2 - 0.5)", "no level derivative"),
])
def test_picard_fuchs_skips_a_probe_without_a_rate(monkeypatch, text, match):
    chart = SeparableChart((
        ChartDegree(parse("w^2 + lam^2 - 2*h_1", 0), (-8.0, 8.0)),
        ChartDegree(parse(text, 0), (-8.0, 8.0))), h_dim=2)
    rates = action_angle._branch_rates
    raised = []

    def recorded(*args):
        try:
            return rates(*args)
        except QuadratureError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(action_angle, "_branch_rates", recorded)
    with pytest.raises(ChartError, match="insufficient probes for degree 2"):
        picard_fuchs_residual(chart, [0.5, 0.5], [0.0, 0.3])
    assert len(raised) == 2 and all(match in m for m in raised)


def test_action_period_duality_against_flow(quartic):
    """2 pi / Omega matches the period measured on the integrated orbit."""
    h = 0.8
    period = 2.0 * math.pi / frequency_matrix(quartic, [h])[0, 0]
    system = get_system("quartic_oscillator")
    _, b = turning_points(quartic, 1, [h])
    dt = period / 4000.0
    traj = integrate(system.hamiltonian, system.structure,
                     EvalPoint((b,), (0.0,)), 1.2 * period,
                     IntegratorConfig(tolerance=1e-12, sample_dt=dt))
    d2 = np.sum((traj.states - traj.states[0]) ** 2, axis=1)
    idx = int(np.argmin(np.where(traj.times > 0.5 * period, d2, np.inf)))
    # d^2 is locally parabolic in t around the return, so refine the vertex
    ym, y0, yp = d2[idx - 1], d2[idx], d2[idx + 1]
    measured = traj.times[idx] + 0.5 * (ym - yp) / (ym - 2 * y0 + yp) * dt
    assert abs(measured - period) / period <= 1e-4


def test_full_cycle_time_matches_frequency(osc, quartic):
    # both read the same integral of -R_h / R_w over the cycle, so they
    # agree to rounding
    for chart, h in ((osc, 0.7), (quartic, 0.8)):
        a, b = turning_points(chart, 1, [h])
        t_full = 2.0 * time_map(chart, [h], [(a, b)])[0]
        period = 2.0 * math.pi / frequency_matrix(chart, [h])[0, 0]
        assert abs(t_full - period) / period <= 1e-12


def test_action_grows_with_level(osc):
    grid = np.linspace(0.1, 2.0, 9)
    gammas = [action_variable(osc, 1, [h]) for h in grid]
    assert np.all(np.diff(gammas) > 0)


def test_chart_degree_validation():
    residual = simplify(W ** 2 + LAM ** 2 - 2 * H1)
    with pytest.raises(TypeError, match="bracket"):
        ChartDegree(residual)
    with pytest.raises(ValueError, match="branch_sign"):
        ChartDegree(residual, bracket=(-1.0, 1.0), branch_sign=2)
    with pytest.raises(ValueError, match="increasing"):
        ChartDegree(residual, bracket=(1.0, 1.0))
    with pytest.raises(ValueError, match="symbol w"):
        ChartDegree(simplify(LAM ** 2 - H1), bracket=(-1.0, 1.0))


def test_separable_chart_validation():
    residual = simplify(W ** 2 + LAM ** 2 - 2 * H1)
    deg = ChartDegree(residual, bracket=(-8.0, 8.0))
    with pytest.raises(ValueError, match="at least one degree"):
        SeparableChart((), h_dim=1)
    with pytest.raises(ValueError, match="h_dim"):
        SeparableChart((deg,), h_dim=0)
    with pytest.raises(ValueError, match="exceeds h_dim"):
        SeparableChart((ChartDegree(simplify(W ** 2 - Param("h_3")),
                                    bracket=(-1.0, 1.0)),), h_dim=2)
    with pytest.raises(ValueError, match="own state"):
        SeparableChart((ChartDegree(simplify(W ** 2 + Param("w_1") - H1),
                                    bracket=(-1.0, 1.0)),), h_dim=1)
    with pytest.raises(ValueError, match="no degree"):
        SeparableChart((ChartDegree(simplify(W ** 2 + Param("w_5") - H1),
                                    bracket=(-1.0, 1.0)),), h_dim=1)
    with pytest.raises(ValueError, match="unknown symbol"):
        SeparableChart((ChartDegree(simplify(W ** 2 - Param("foo")),
                                    bracket=(-1.0, 1.0)),), h_dim=1)


@pytest.mark.parametrize("name", ["lam", "w", "h_1", "w_2", "lam_1"])
def test_chart_parameters_may_not_take_reserved_names(name):
    # a fixed h_1 would shadow the level it names, and the level
    # derivatives are taken by name
    residual = simplify(W ** 2 + LAM ** 2 - 2 * H1)
    with pytest.raises(ValueError, match="reserved name"):
        SeparableChart((ChartDegree(residual, bracket=(-8.0, 8.0)),),
                       h_dim=1, params={name: 1.0})


def test_chart_params_bind_fixed_symbols():
    residual = simplify(W ** 2 + Param("omega") ** 2 * LAM ** 2 - 2 * H1)
    chart = SeparableChart((ChartDegree(residual, bracket=(-8.0, 8.0)),),
                           h_dim=1, params={"omega": 2.0})
    assert solve_branch(chart, 1, 0.0, [0.5]) == pytest.approx(1.0, abs=1e-10)
    # omega = 2 halves the turning span: lam+ = sqrt(2 h) / omega
    _, b = turning_points(chart, 1, [0.5])
    assert b == pytest.approx(0.5, abs=1e-8)


def test_error_hierarchy():
    assert issubclass(NoRealRootError, ChartError)
    assert issubclass(QuadratureError, ChartError)


def test_chart_pair_matches_substituting_the_derivative_in_w():
    # differentiating R(q1, p1) in p1 gives the tree that substituting both R
    # and dR/dw gives
    def substituted(e):
        return substitute_param(substitute_param(e, "lam", q(1)), "w", p(1))

    rng = np.random.default_rng(27)
    trees = []
    while len(trees) < 2000:
        r = _random_tree(rng, 4, (LAM, W, H1, Param("w_2")))
        if "w" in parameters_of(r):
            trees.append(r)
    charts = [get_system(name).chart for name in list_systems()]
    for r in [deg.residual for chart in charts if chart is not None
              for deg in chart.degrees] + trees:
        pair = ChartDegree(r, (-1.0, 1.0))._trees[:2]
        want = (substituted(r), substituted(differentiate(r, "w")))
        assert repr(pair) == repr(want), to_string(r)


def test_action_of_a_long_chart_residual():
    # 2000 terms of lam^2/2000: the oscillator chart, whose action is h_1
    terms = " + ".join(["0.0005*lam^2"] * 2000)
    residual = parse(f"w^2 + {terms} - 2*h_1", 0)
    chart = SeparableChart((ChartDegree(residual, (-8.0, 8.0)),), h_dim=1)
    assert action_spectrum(chart, [0.7]).gammas[0] == pytest.approx(0.7, abs=1e-12)


def _cold_searches(monkeypatch):
    """Start every branch solve at w = 0."""
    solve = action_angle._solve_signed
    monkeypatch.setattr(action_angle, "_solve_signed",
                        lambda g, lam, sign, scale, k0=0:
                        solve(g, lam, sign, scale))


def _chart_factories():
    for name in ("oscillator", "uncoupled_oscillators", "quartic_oscillator"):
        yield pytest.param(lambda name=name: get_system(name).chart, id=name)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.sys")):
        if loads_system(path.read_text()).chart is not None:
            yield pytest.param(lambda path=path: loads_system(
                path.read_text()).chart, id=path.name)


@pytest.mark.parametrize("fresh", list(_chart_factories()))
def test_warm_searches_give_the_cold_bits(monkeypatch, fresh):
    rng = np.random.default_rng(34)
    h_dim = fresh().h_dim
    # just above a cycle's birth; levels whose turning points sit on a
    # grid point of the bracket (-8, 8); then levels across the
    # benchmark's range and beyond
    levels = [[v] * h_dim for v in (5e-7, 0.25, 0.5, 2.0)] + [
        list(rng.uniform(0.01, 9.0, h_dim)) for _ in range(8)]
    order = ("spectrum", "turning", "time")
    warm = [_op_bits(fresh(), h, order) for h in levels]
    with monkeypatch.context() as cold:
        _cold_searches(cold)
        assert [_op_bits(fresh(), h, order) for h in levels] == warm


def test_chart_memo_stays_within_its_cap(monkeypatch):
    levels = [[0.6, 0.8], [0.3, 1.7], [2.5, 0.2], [0.6, 0.8]]
    order = ("spectrum", "turning", "time")
    want = [_op_bits(get_system("uncoupled_oscillators").chart, h, order)
            for h in levels]
    monkeypatch.setattr(action_angle, "_MEMO_CAP", 3)
    chart = get_system("uncoupled_oscillators").chart
    sizes = []
    for h, bits in zip(levels, want):
        assert _op_bits(chart, h, order) == bits
        sizes.append(len(chart._cycles))
    assert 0 < max(sizes) <= 3


def test_a_cycle_between_two_grid_points_is_found_from_the_minimum():
    # the allowed region (0.06 -+ sqrt(2 h)) = (0.028, 0.092) holds no
    # point of the 129-point grid on (-8, 8), whose spacing is 0.125, so
    # the search refines the grid minimum and bisects from there
    chart = _residual_chart("w^2+(lam-0.06)^2-2*h_1")
    h = 5e-4
    a, b = turning_points(chart, 1, [h])
    assert abs(a - (0.06 - math.sqrt(2.0 * h))) <= 1e-15
    assert abs(b - (0.06 + math.sqrt(2.0 * h))) <= 1e-15
    spectrum = action_spectrum(chart, [h])
    assert abs(spectrum.gammas[0] - h) <= 1e-15
    assert abs(spectrum.omega[0, 0] - 1.0) <= 1e-9
    assert abs(2.0 * time_map(chart, [h], [(a, b)])[0] - 2.0 * math.pi) <= 1e-9


def test_turning_point_bisection_reads_neither_end(monkeypatch):
    # every caller has just read both ends: grid points or the
    # golden-section minimum
    bisect = action_angle._bisect_sign
    calls = []

    def recorded(g, outside, inside):
        reads = []

        def read(y):
            reads.append(y[0])
            return g(y)
        calls.append((outside, inside, reads))
        return bisect(read, outside, inside)

    monkeypatch.setattr(action_angle, "_bisect_sign", recorded)
    for chart, h in ((get_system("oscillator").chart, [0.5]),
                     (get_system("uncoupled_oscillators").chart, [0.6, 0.8]),
                     (_residual_chart("w^2+(lam-0.06)^2-2*h_1"), [5e-4])):
        action_spectrum(chart, h)
    # four degrees, each searched once at h, each with two turning points
    assert len(calls) == 4 * 1 * 2
    for outside, inside, reads in calls:
        assert reads and outside not in reads and inside not in reads
