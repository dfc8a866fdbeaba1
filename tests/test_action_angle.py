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
    QUAD_ABS_TOL,
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
    variables_of,
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


def _residual_chart(text: str) -> SeparableChart:
    return SeparableChart((ChartDegree(parse(text, 0), (-8.0, 8.0)),),
                          h_dim=1)


# residuals outside the class a*w^2 + F, which no chart degree accepts: a
# quartic in w, and a zero term that simplifies away but leaves R
# undefined for w > 1
QUARTIC_IN_W = "w^2+0.1*w^4+lam^2-2*h_1"
SQRT_OF_W = "w^2+0*sqrt(1-w)+lam^2-2*h_1"
# in the class, F = R(lam, 0) has a pole at lam = 0.5 and no real value
# below lam = -7
UNDEFINED_IN_LAM = "w^2 + lam^2 - h_1 + 1/(lam - 0.5) + sqrt(lam + 7)"


def _branch(chart):
    return solve_branch(chart, 1, 0.5, [0.1])


def _turns(chart):
    return turning_points(chart, 1, [0.1])


@pytest.mark.parametrize("text, call, lam", [
    # F itself is undefined: the branch solve's one read, then the cycle
    # search's first grid point
    (UNDEFINED_IN_LAM, _branch, "0.5"),
    (UNDEFINED_IN_LAM, _turns, "-8"),
    (UNDEFINED_IN_LAM, lambda chart: action_spectrum(chart, [0.1]), "-8"),
    # the turning-point bisection lands on the pole between grid points
    ("w^2 + lam^2 - 1 + 1/(lam - 0.9375)", _turns, "0.9375"),
    # no grid point is negative, and the scan of the cell about the grid
    # minimum enters the hole |lam - 0.0625| < 0.01 at its first point there
    ("w^2 + (lam-0.0625)^2 - 0.001 + sqrt((lam-0.0625)^2 - 1e-4)", _turns,
     "0.0527344"),
], ids=["solve_branch", "turning_points", "action_spectrum", "bisection",
        "cycle_minimum_search"])
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


def test_solve_branch_index_and_level_validation(osc):
    with pytest.raises(ValueError, match="out of range"):
        solve_branch(osc, 2, 0.0, [0.5])
    with pytest.raises(ValueError, match="level values"):
        solve_branch(osc, 1, 0.0, [0.5, 0.3])


@pytest.mark.parametrize("call", [
    lambda chart, j: solve_branch(chart, j, 0.1, [0.5]),
    lambda chart, j: turning_points(chart, j, [0.5]),
    lambda chart, j: action_variable(chart, j, [0.5]),
], ids=["solve_branch", "turning_points", "action_variable"])
@pytest.mark.parametrize("j", [0, 2, -1])
def test_a_degree_index_out_of_range_is_refused(osc, call, j):
    # j = 2 read past the one degree, j <= 0 read a degree from the end
    with pytest.raises(ValueError, match=f"degree index {j} out of range 1..1"):
        call(osc, j)


def test_turning_points_oscillator(osc):
    a, b = turning_points(osc, 1, [0.5])
    assert a == pytest.approx(-1.0, abs=1e-8)
    assert b == pytest.approx(1.0, abs=1e-8)


def test_turning_points_quartic(quartic):
    a, b = turning_points(quartic, 1, [1.0])
    assert a == pytest.approx(-math.sqrt(2.0), abs=1e-8)
    assert b == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_turning_points_degenerate_level(osc, quartic):
    # at h = 0 the least F is 0 at lam = 0, a point of every refined cell
    for chart in (osc, quartic):
        assert turning_points(chart, 1, [0.0]) == (0.0, 0.0)


def test_solve_branch_at_a_turning_point_lands_on_the_tangency_root(
        osc, quartic, uncoupled):
    # R(lam+-, 0) is at most ROOT_TOL above 0 there, so the root is w = 0
    for chart, h in ((osc, [0.7]), (quartic, [0.8]), (uncoupled, [0.6, 0.8])):
        for j in range(1, chart.n + 1):
            for lam in turning_points(chart, j, h):
                assert abs(solve_branch(chart, j, lam, h)) <= 1e-7, (j, lam)


def test_turning_points_failures(osc, quartic):
    # below a well's bottom the least F, h_1 or 2 h_1 above 0, is more
    # than the tangency tolerance 1e-10: no cycle, however close to 0
    for chart, h in ((osc, -0.5), (osc, -1e-8), (osc, -1e-9),
                     (quartic, -1e-7), (quartic, -1e-8)):
        with pytest.raises(NoRealRootError, match="no sign change in bracket"):
            turning_points(chart, 1, [h])


def test_action_variable_oscillator(osc):
    assert abs(action_variable(osc, 1, [0.7]) - 0.7) <= 1e-8


def test_action_variable_uncoupled_mode(uncoupled):
    # gamma_j = E_j / omega_j and the second frequency is 2
    assert abs(action_variable(uncoupled, 2, [0.3, 0.8]) - 0.4) <= 1e-8


def test_action_variable_zero_level(osc, quartic):
    for chart in (osc, quartic):
        assert action_variable(chart, 1, [0.0]) == 0.0


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
    solves = _count_calls(monkeypatch, "_branch_value")
    action_spectrum(get_system(name).chart, [h])
    assert 0 < solves[0] <= spectrum_solves


def _count_root_calls(monkeypatch) -> list[int]:
    """Count the calls of every chart function (a degree's F or its rates)
    compiled from here on."""
    calls = [0]
    compile_functions = action_angle.compile_functions

    def counted_compile(*args):
        function = compile_functions(*args)

        def counted(y):
            calls[0] += 1
            return function(y)
        return counted

    monkeypatch.setattr(action_angle, "compile_functions", counted_compile)
    return calls


@pytest.mark.parametrize("name, h", [
    ("oscillator", [0.5]), ("uncoupled_oscillators", [0.6, 0.8]),
    ("quartic_oscillator", [0.7])])
def test_a_closed_form_node_calls_each_chart_function_once(
        monkeypatch, name, h):
    # besides the cycle search's reads of F, every call of a compiled
    # function is one branch solve's F(lam) or one node's rates
    chart = get_system(name).chart
    calls = _count_root_calls(monkeypatch)
    search = [0]
    find_cycle = action_angle._find_cycle

    def counted_search(*args):
        before = calls[0]
        try:
            return find_cycle(*args)
        finally:
            search[0] += calls[0] - before

    monkeypatch.setattr(action_angle, "_find_cycle", counted_search)
    solves = _count_calls(monkeypatch, "_branch_value")
    rates = _count_calls(monkeypatch, "_branch_rates")
    action_spectrum(chart, h)
    assert search[0] > 0 and solves[0] > 0
    assert calls[0] - search[0] == solves[0] + rates[0]


@pytest.mark.parametrize("name, h", [
    ("oscillator", [0.5]), ("uncoupled_oscillators", [0.6, 0.8]),
    ("quartic_oscillator", [0.7])])
def test_turning_points_first_add_no_compiled_call_to_the_spectrum(
        monkeypatch, name, h):
    # turning_points finds and integrates each cycle, keeping one immutable
    # record, so it costs what the spectrum does and the spectrum after it
    # reads only the memo
    calls = _count_root_calls(monkeypatch)
    action_spectrum(get_system(name).chart, h)
    alone, calls[0] = calls[0], 0
    chart = get_system(name).chart
    for j in range(1, chart.n + 1):
        turning_points(chart, j, h)
    found = calls[0]
    action_spectrum(chart, h)
    assert alone > 0 and found == calls[0] == alone
    assert all(type(entry) is tuple and None not in entry
               for entry in chart._cycles.values())


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
    calls = _count_calls(monkeypatch, "_branch_value")
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
    # both ends lie within 1e-7 of the turning point 1, so both are moved
    # onto it and the interval is empty too
    _, b = turning_points(osc, 1, [0.5])
    assert time_map(osc, [0.5], [(b - 5e-8, b + 5e-10)]) == (0.0,)


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


@pytest.mark.xfail(strict=True, reason="an end within 1e-7 of a turning "
                   "point is moved onto it, which drops about sqrt(2d) of "
                   "time for an end d inside it")
def test_time_map_to_1e_8_inside_a_turning_point(osc):
    want = math.asin(1.0 - 1e-8) + 0.5 * math.pi   # pi - 1.4142e-4
    t = time_map(osc, [0.5], [(-1.0, 1.0 - 1e-8)])[0]
    assert abs(t - want) <= 1e-9


def test_a_tiny_level_keeps_its_action_and_refuses_its_rates(osc):
    # at h = 1e-20 the nodes next to the turning points read F within
    # ROOT_TOL of 0, so w = 0 there: the action needs no rate, the rates
    # cannot be had
    h = 1e-20
    assert abs(action_variable(osc, 1, [h]) / h - 1.0) <= 1e-6
    assert abs(action_variable(osc, 1, [1e-30]) - 1e-30) <= QUAD_ABS_TOL
    with pytest.raises(QuadratureError, match="dR/dw vanishes"):
        frequency_matrix(osc, [h])
    with pytest.raises(QuadratureError, match="dR/dw vanishes"):
        time_map(osc, [h], [turning_points(osc, 1, [h])])


def test_a_cycle_narrower_than_the_snap_window_keeps_both_ends(osc):
    # the turning points +-1.4e-8 both lie within 1e-7 of -1.4e-8; each
    # end goes to the nearer one, so the half cycle is not read as empty
    h = 1e-16
    a, b = turning_points(osc, 1, [h])
    with pytest.raises(QuadratureError, match="rates did not converge"):
        time_map(osc, [h], [(a, b)])


def test_time_map_shape_validation(osc, uncoupled):
    with pytest.raises(ValueError, match="pair per degree"):
        time_map(osc, [0.5], [(0.0, 0.5), (0.0, 0.5)])
    mixed = SeparableChart(
        (ChartDegree(simplify(W ** 2 + LAM ** 2 - H1 - H2),
                     bracket=(-8.0, 8.0)),), h_dim=2)
    with pytest.raises(ValueError, match="per degree"):
        time_map(mixed, [0.25, 0.25], [(0.0, 0.1)])


def test_turning_points_rejects_a_non_finite_level(osc):
    with pytest.raises(ValueError, match="level values must be finite"):
        turning_points(osc, 1, [math.nan])


def test_action_spectrum_rejects_a_non_finite_level(osc):
    with pytest.raises(ValueError, match="level values must be finite"):
        action_spectrum(osc, [math.inf])


def test_time_map_rejects_a_non_finite_interval_end(osc):
    with pytest.raises(ValueError, match="interval ends must be finite"):
        time_map(osc, [0.5], [(math.nan, 0.0)])


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
    # at lam = 0.5 degree 1's branch meets the pole of its F
    chart = SeparableChart((
        ChartDegree(parse("w^2 + (lam-1)^2 - h_1 + 0*w_2 + 1e-3/(lam-0.5)", 0),
                    (-8.0, 8.0)),
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


@pytest.mark.parametrize("r2, h, match", [
    # degree 2 reads w_1 in turn, so its states have no environment
    ("w^2+4*lam^2-2*h_2*(1+0.5*w_1^2)", [0.5, 0.8],
     "cannot build environments from coupled degree 2"),
    # at h_2 = 0 degree 2's cycle is a point, whose state cannot be varied
    ("w^2+4*lam^2-2*h_2", [0.5, 0.0],
     "degenerate cycle in degree 2 cannot be varied"),
], ids=["coupled", "degenerate"])
def test_picard_fuchs_needs_an_uncoupled_cycle_to_vary(r2, h, match):
    chart = SeparableChart((_coupled_chart().degrees[0],
                            ChartDegree(parse(r2, 0), (-8.0, 8.0))), h_dim=2)
    with pytest.raises(ChartError, match=match):
        picard_fuchs_residual(chart, h, [0.1])


@pytest.mark.parametrize("text, match", [
    # R(lam, 0) = 0, so the branch is w = 0 exactly, where R_w = 0
    ("w^2+0*lam_1^2", "dR/dw vanishes on the branch"),
    # dF/dh_2 = 0.5 / sqrt(h_2 - 0.5) divides by zero at h_2 = 0.5, where
    # F itself and so the branch values are defined
    ("w^2 - lam_1^2 - 1 + sqrt(h_2 - 0.5)", "no level derivative"),
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
    # both read the same integral of -F_h / (2a*w) over the cycle, so they
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
    # each end is finite, but the width overflows to inf
    with pytest.raises(ValueError, match="width b - a is finite"):
        ChartDegree(residual, bracket=(-1e308, 1e308))
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


@pytest.mark.parametrize("text, levels, couplings", [
    ("w^2+lam^2-2*h_1", (1,), ()),
    ("w^2+lam^2-2*h_3+h_1", (1, 3), ()),
    ("w^2+lam^2+w_2-2*h_1", (1,), (2,)),
    # ordered by index, not by name: "h_10" sorts before "h_2" as text
    ("w^2+lam_3*lam^2+w_2-2*h_10-h_2", (2, 10), (2, 3)),
    ("w^2+omega*lam^2-1", (), ()),
])
def test_a_degree_reads_its_levels_and_couplings_off_its_residual(
        text, levels, couplings):
    deg = ChartDegree(parse(text, 0), bracket=(-8.0, 8.0))
    assert (deg.levels, deg.couplings) == (levels, couplings)
    # one rate tree per level, in the order of levels
    assert len(deg._trees) == 1 + len(levels)


def test_a_ten_degree_chart_orders_its_rates_by_level_index():
    # degree 2 reads h_2 and h_10, so its energy is h_2 + 0.05*h_10: a
    # level index of two digits must pair with its own rate
    degrees = [ChartDegree(parse(f"w^2+lam^2-2*h_{j}"
                                 + ("-0.1*h_10" if j == 2 else ""), 0),
                           bracket=(-8.0, 8.0)) for j in range(1, 11)]
    chart = SeparableChart(tuple(degrees), h_dim=10)
    h = [0.3 + 0.05 * (j - 1) for j in range(1, 11)]
    a = np.eye(10)
    a[1, 9] = 0.05
    assert np.max(np.abs(frequency_matrix(chart, h) - np.linalg.inv(a))) \
        <= 1e-12
    assert action_variable(chart, 2, h) == pytest.approx(
        h[1] + 0.05 * h[9], abs=1e-12)
    mu = [(0.0, 0.0)] * 10
    mu[1] = turning_points(chart, 2, h)
    want = [0.0] * 10
    want[1], want[9] = math.pi, 0.05 * math.pi
    assert np.max(np.abs(np.array(time_map(chart, h, mu)) - want)) <= 1e-12


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
    # and dR/dw gives, for residuals in the class a*w^2 + F and outside it
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
        pair = action_angle._derive(r, ())[:2]
        want = (substituted(r), substituted(differentiate(r, "w")))
        assert repr(pair) == repr(want), to_string(r)


def test_action_of_a_long_chart_residual():
    # 2000 terms of lam^2/2000: the oscillator chart, whose action is h_1
    terms = " + ".join(["0.0005*lam^2"] * 2000)
    residual = parse(f"w^2 + {terms} - 2*h_1", 0)
    chart = SeparableChart((ChartDegree(residual, (-8.0, 8.0)),), h_dim=1)
    assert action_spectrum(chart, [0.7]).gammas[0] == pytest.approx(0.7, abs=1e-12)


def _chart_factories():
    for name in ("oscillator", "uncoupled_oscillators", "quartic_oscillator"):
        yield pytest.param(lambda name=name: get_system(name).chart, id=name)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.sys")):
        if loads_system(path.read_text()).chart is not None:
            yield pytest.param(lambda path=path: loads_system(
                path.read_text()).chart, id=path.name)


# (a, w^2 = -F / a as a function of the level value h_j and lam) of every
# chart degree the catalog and fixtures/ ship, by chart and j
SHIPPED = {
    "oscillator_1": (1.0, lambda h, lam: 2 * h - lam ** 2),
    "quartic_oscillator_1": (0.5, lambda h, lam: 2 * (h - lam ** 4 / 4)),
    "uncoupled_oscillators_1": (1.0, lambda h, lam: 2 * h - lam ** 2),
    "uncoupled_oscillators_2": (1.0, lambda h, lam: 2 * h - 4 * lam ** 2),
    "oscillator.sys_1": (1.0, lambda h, lam: 2 * h - lam ** 2),
}


@pytest.mark.parametrize("fresh", list(_chart_factories()))
def test_closed_form_branches_match_a_50_digit_reference(request, fresh):
    # at the theta-nodes of a 256-interval rule over each cycle, at levels
    # just above a cycle's birth, on turning points that sit on a grid
    # point of the bracket (-8, 8), and across the benchmark's range
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(34)
    chart = fresh()
    levels = [[v] * chart.h_dim for v in (5e-7, 0.25, 0.5, 2.0)] + [
        list(rng.uniform(0.01, 9.0, chart.h_dim)) for _ in range(8)]
    theta = [0.5 * math.pi * (-1.0 + k / 128.0) for k in range(1, 256)]
    for h in levels:
        for j, deg in enumerate(chart.degrees, start=1):
            squared = SHIPPED[f"{request.node.callspec.id}_{j}"][1]
            _, g, _ = action_angle._compile_degree(chart, j, h)
            a, b = turning_points(chart, j, h)
            for t in theta:
                lam = 0.5 * (a + b) + 0.5 * (b - a) * math.sin(t)
                with mpmath.workdps(50):
                    want = mpmath.sqrt(squared(mpmath.mpf(h[j - 1]),
                                               mpmath.mpf(lam)))
                    for sign in (1, -1):
                        got = action_angle._branch_value(deg, g, lam, sign)
                        assert abs(got - sign * want) <= 1e-12 * want, \
                            (h, j, lam)


@pytest.mark.parametrize("h", [0.2, 0.7, 2.0])
def test_quartic_branch_values_match_a_50_digit_reference(quartic, h):
    # w = sqrt(2 (h - lam^4 / 4)) at 50 digits, at the theta-nodes of a
    # 256-interval rule over the cycle
    mpmath = pytest.importorskip("mpmath")
    deg = quartic.degrees[0]
    _, g, _ = action_angle._compile_degree(quartic, 1, [h])
    a, b = turning_points(quartic, 1, [h])
    for k in range(1, 256):
        lam = 0.5 * (a + b) + 0.5 * (b - a) * math.sin(
            0.5 * math.pi * (-1.0 + k / 128.0))
        with mpmath.workdps(50):
            want = mpmath.sqrt(2 * (mpmath.mpf(h) - mpmath.mpf(lam) ** 4 / 4))
            got = action_angle._branch_value(deg, g, lam, 1)
            assert abs(got - want) <= 1e-12 * want, (lam, got)


def _class_cases():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    charts = [(name, get_system(name).chart) for name in list_systems()] + [
        (path.name, loads_system(path.read_text()).chart)
        for path in sorted(fixtures.glob("*.sys"))]
    shipped = [(f"{name}_{j}", deg) for name, chart in charts
               if chart is not None
               for j, deg in enumerate(chart.degrees, start=1)]
    assert sorted(key for key, _ in shipped) == sorted(SHIPPED)
    for key, deg in shipped:
        yield pytest.param(deg.residual, SHIPPED[key][0], id=key)
    for text, want in [
            # a cycle between two grid points of its bracket, a coupled
            # residual that is quadratic in its own w, and a zero term
            # that keeps R a polynomial in w
            ("w^2+(lam-0.06)^2-2*h_1", 1.0),
            ("w^2+lam^2-2*h_1*(1+0.5*w_2^2)", 1.0),
            ("w^2+0*w^3+lam^2-2*h_1", 1.0),
            # an a that is no power of two
            ("w^2/3+lam^2-2*h_1", 1 / 3),
            # a quartic term, a linear term, an a that reads lam or h,
            # a < 0, and a pole
            (QUARTIC_IN_W, None),
            ("w^2+w+lam^2-2*h_1", None),
            ("(1+lam^2)*w^2+lam^2-2*h_1", None),
            ("h_1*w^2+lam^2-1", None),
            ("-w^2-lam^2+2*h_1", None),
            ("1/(w^2-2)+lam^2", None),
            # zero terms that simplify away but leave R undefined for
            # w > 1 and at w = 0
            (SQRT_OF_W, None),
            ("w^2+0*(1/w)+lam^2-2*h_1", None)]:
        yield pytest.param(parse(text, 0), want, id=text)


@pytest.mark.parametrize("residual, want", list(_class_cases()))
def test_the_closed_form_class(residual, want):
    # want is the a of R = a*w^2 + F, or None where the degree is refused
    if want is None:
        with pytest.raises(ValueError, match="residual must be a"):
            ChartDegree(residual, (-8.0, 8.0))
    else:
        assert ChartDegree(residual, (-8.0, 8.0))._a == want


@pytest.mark.parametrize("residual", [
    pytest.param(case.values[0], id=case.id) for case in _class_cases()
    if case.values[1] is not None])
def test_chart_functions_read_lam_alone(residual):
    # F and each F_{h_i} are compiled over q1 = lam; R_w = 2a*w is never
    # compiled, so no chart function reads w (p1)
    trees = ChartDegree(residual, (-8.0, 8.0))._trees
    assert variables_of(*trees) <= {"q1"}


@pytest.mark.parametrize("h", [0.2, 0.7, 2.0])
def test_closed_forms_at_a_non_dyadic_a(h):
    # R = w^2/3 + lam^2 - 2h: w = sqrt(3 (2h - lam^2)), so gamma = sqrt(3) h,
    # Omega = 1 / sqrt(3) and the half cycle takes pi sqrt(3)
    chart = _residual_chart("w^2/3+lam^2-2*h_1")
    spectrum = action_spectrum(chart, [h])
    half = time_map(chart, [h], [turning_points(chart, 1, [h])])[0]
    for got, want in ((spectrum.gammas[0], math.sqrt(3.0) * h),
                      (spectrum.omega[0, 0], 1.0 / math.sqrt(3.0)),
                      (half, math.pi * math.sqrt(3.0))):
        assert abs(got - want) <= 1e-12 * want, (got, want)


DOUBLE_WELL = "w^2+(lam^2-1)^2-2*h_1"


def _double_well(bracket) -> SeparableChart:
    # allowed where (lam^2 - 1)^2 < 2h: for 2h < 1 one well about each of
    # lam = -1 and lam = 1, between sqrt(1 -+ sqrt(2h)) and their negatives
    return SeparableChart((ChartDegree(parse(DOUBLE_WELL, 0), bracket),),
                          h_dim=1)


def test_a_bracket_holding_two_wells_is_refused():
    # the outer ends of the two wells, -+1.332 at h = 0.3, bound no cycle:
    # the branch has no real value at lam = 0 between them
    chart = _double_well((-3.0, 3.0))
    message = ("the bracket holds more than one allowed interval; narrow it "
               "to one cycle")
    for call in (lambda: turning_points(chart, 1, [0.3]),
                 lambda: action_spectrum(chart, [0.3]),
                 # an interval inside one well needs the degree's cycle too
                 lambda: time_map(chart, [0.3], [(0.8, 1.0)])):
        with pytest.raises(NoRealRootError) as info:
            call()
        assert str(info.value) == message


# at h = 0.4999 the gap between the wells, |lam| < 0.0100, falls between
# the grid points -0.0223 and 0.0250 of (-3, 3.05): the grid shows one
# allowed run, and only a quadrature node lands in the gap
GAP_BRACKET, GAP_LEVEL = (-3.0, 3.05), 0.4999


def test_a_gap_between_two_grid_points_is_refused_by_every_quadrature():
    chart = _double_well(GAP_BRACKET)
    for call in (lambda: action_spectrum(chart, [GAP_LEVEL]),
                 lambda: action_variable(chart, 1, [GAP_LEVEL]),
                 lambda: time_map(chart, [GAP_LEVEL], [(-0.5, 0.5)])):
        with pytest.raises(NoRealRootError) as info:
            call()
        assert str(info.value).startswith(
            "the bracket holds more than one allowed interval; narrow it to "
            "one cycle (no real root at lam=")


def test_turning_points_alone_sees_a_gap_between_two_grid_points():
    # each cycle is integrated when it is found, so a call that makes no
    # quadrature of its own refuses the level too
    chart = _double_well(GAP_BRACKET)
    for call in (lambda: turning_points(chart, 1, [GAP_LEVEL]),
                 lambda: time_map(chart, [GAP_LEVEL], [(0.8, 1.0)])):
        with pytest.raises(NoRealRootError) as info:
            call()
        assert str(info.value).startswith(
            "the bracket holds more than one allowed interval")


@pytest.mark.parametrize("n_max, call, message", [
    (16, lambda chart: action_variable(chart, 1, [0.7]),
     "trapezoid doubling did not converge"),
    # the action settles within 32 intervals, its rates do not, nor does
    # Gauss-Legendre doubling to 32 nodes on an interior interval
    (32, lambda chart: time_map(chart, [0.7], [(0.0, 1.0)]),
     "Gauss-Legendre doubling did not converge"),
    (32, lambda chart: (action_variable(chart, 1, [0.7]),
                        frequency_matrix(chart, [0.7])),
     "trapezoid doubling of the rates did not converge"),
], ids=["action", "interval_rates", "cycle_rates"])
def test_quadrature_doubling_that_does_not_converge_is_refused(
        monkeypatch, n_max, call, message):
    monkeypatch.setattr(action_angle, "_N_MAX", n_max)
    with pytest.raises(QuadratureError) as info:
        call(get_system("quartic_oscillator").chart)
    assert str(info.value) == message


@pytest.mark.parametrize("h", [0.1, 0.3, 0.45])
def test_a_bracket_narrowed_to_one_well_matches_a_30_digit_reference(h):
    mpmath = pytest.importorskip("mpmath")
    chart = _double_well((0.0, 3.0))
    a, b = turning_points(chart, 1, [h])
    assert abs(a - math.sqrt(1.0 - math.sqrt(2.0 * h))) <= 1e-12
    assert abs(b - math.sqrt(1.0 + math.sqrt(2.0 * h))) <= 1e-12
    with mpmath.workdps(30):
        # a node of the tanh-sinh rule may round onto a well's end, where
        # 2h - (lam^2 - 1)^2 can come out a few ulps below 0
        two_h = 2 * mpmath.mpf(h)
        want = mpmath.quad(
            lambda lam: mpmath.sqrt(max(0, two_h - (lam ** 2 - 1) ** 2)),
            [mpmath.sqrt(1 + s * mpmath.sqrt(two_h)) for s in (-1, 1)]
        ) / mpmath.pi
    got = action_spectrum(chart, [h]).gammas[0]
    assert abs(got - float(want)) <= 1e-12 * float(want), (got, want)


@pytest.mark.parametrize("text, lam, h, message", [
    (UNDEFINED_IN_LAM, 0.5, 0.1,
     "residual undefined at lam=0.5, w=0: float division by zero"),
    ("w^2+lam^2-2*h_1", 2.0, 0.7, "no real root at lam=2 (min |R| = 2.6)"),
], ids=["undefined_at_0", "no_root_in_the_class"])
def test_branch_solve_error_texts(text, lam, h, message):
    with pytest.raises(NoRealRootError) as info:
        solve_branch(_residual_chart(text), 1, lam, [h])
    assert str(info.value) == message


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
    # each allowed region c -+ sqrt(2 h) holds no point of the 129-point
    # grid on its bracket: (0.028, 0.092) on (-8, 8), spacing 0.125, and
    # (-0.0014, 0.0014) and (-0.014, 0.014) on (-8, 9), whose nearest
    # points are -0.031 and 0.102; so the search scans the cell about the
    # grid minimum and bisects from there
    for text, bracket, c, h in (
            ("w^2+(lam-0.06)^2-2*h_1", (-8.0, 8.0), 0.06, 5e-4),
            ("w^2+lam^2-2*h_1", (-8.0, 9.0), 0.0, 1e-6),
            ("w^2+lam^2-2*h_1", (-8.0, 9.0), 0.0, 1e-4)):
        chart = SeparableChart((ChartDegree(parse(text, 0), bracket),),
                               h_dim=1)
        a, b = turning_points(chart, 1, [h])
        assert abs(a - (c - math.sqrt(2.0 * h))) <= 1e-15, (text, h)
        assert abs(b - (c + math.sqrt(2.0 * h))) <= 1e-15, (text, h)
        spectrum = action_spectrum(chart, [h])
        assert abs(spectrum.gammas[0] - h) <= 1e-15, (text, h)
        # the rate integrals stop at QUAD_REL_TOL = 2e-13
        assert abs(spectrum.omega[0, 0] - 1.0) <= 1e-12, (text, h)
        assert abs(2.0 * time_map(chart, [h], [(a, b)])[0]
                   - 2.0 * math.pi) <= 1e-9, (text, h)


def test_turning_point_bisection_reads_neither_end(monkeypatch):
    # every caller has just read both ends: points of the bracket's grid
    # or of a cell scanned about its minimum
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
