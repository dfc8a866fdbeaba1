"""Branch solving, turning points, actions, time maps, and frequencies."""
import math

import numpy as np
import pytest

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
    EvalPoint, Param, const, differentiate, p, parameters_of, parse, q,
    simplify, substitute_param, to_string,
)
from liouville.flows import IntegratorConfig, integrate
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


def test_time_map_matches_arcsin(osc):
    lam = 0.5
    t = time_map(osc, [0.5], [(0.0, lam)])[0]
    assert abs(t - math.asin(lam)) <= 1e-6


def test_time_map_half_cycle_is_half_period(osc):
    # at h = 5e-7 the lower shifted level is negative and has no cycle, so
    # the time comes from the one-sided difference
    for h in (0.5, 5e-7):
        a, b = turning_points(osc, 1, [h])
        t = time_map(osc, [h], [(a, b)])[0]
        assert abs(t - math.pi) <= 1e-6, h


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
    # just inside the base turning point but outside a shifted level's
    with pytest.raises(QuadratureError, match="interior endpoint"):
        time_map(osc, [0.5], [(0.0, 1.0 - 5e-7)])
    with pytest.raises(QuadratureError, match="degenerate"):
        time_map(osc, [0.0], [(0.0, 0.1)])


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


def test_frequency_matrix_uncoupled(uncoupled):
    omega = frequency_matrix(uncoupled, [0.5, 0.8])
    assert np.allclose(np.diag(omega), [1.0, 2.0], atol=1e-4)
    assert omega[0, 1] == omega[1, 0] == 0.0


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


def test_picard_fuchs_probe_validation():
    chart = _coupled_chart()
    with pytest.raises(ValueError, match="probe"):
        picard_fuchs_residual(chart, [0.5, 0.8], [])
    with pytest.raises(ChartError, match="insufficient probes"):
        picard_fuchs_residual(chart, [0.5, 0.8], [7.9])


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
    for chart, h in ((osc, 0.7), (quartic, 0.8)):
        a, b = turning_points(chart, 1, [h])
        t_full = 2.0 * time_map(chart, [h], [(a, b)])[0]
        period = 2.0 * math.pi / frequency_matrix(chart, [h])[0, 0]
        assert abs(t_full - period) / period <= 1e-4


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
        pair = ChartDegree(r, (-1.0, 1.0))._pair
        want = (substituted(r), substituted(differentiate(r, "w")))
        assert repr(pair) == repr(want), to_string(r)


def test_action_of_a_long_chart_residual():
    # 2000 terms of lam^2/2000: the oscillator chart, whose action is h_1
    terms = " + ".join(["0.0005*lam^2"] * 2000)
    residual = parse(f"w^2 + {terms} - 2*h_1", 0)
    chart = SeparableChart((ChartDegree(residual, (-8.0, 8.0)),), h_dim=1)
    assert action_spectrum(chart, [0.7]).gammas[0] == pytest.approx(0.7, abs=1e-12)
