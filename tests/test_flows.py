"""Flow integration, sample grids, conservation reports, commutativity."""
import io
import math

import numpy as np
import pytest

from liouville import flows
from liouville.algebra import build_combination, cartan_basis_at, find_level_point
from liouville.catalog import get_system, probe_points
from liouville.expr import (
    EvalPoint, _binder_from_source, compile_functions, const, parse,
)
from liouville.flows import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    conservation_report,
    flows_commute,
    integrate,
    trajectory_to_csv,
)
from liouville.symplectic import SymplecticStructure, hamiltonian_vector_field
from oracles import (
    _dopri_step, _error_norm, dopri_reference, rk45_reference,
    symmetric4_reference,
)

S1 = SymplecticStructure.canonical(1)


def _vortex_probe():
    system = get_system("vortices3")
    return system, probe_points(system, 1)[0]


def test_oscillator_returns_after_one_period():
    osc = get_system("oscillator")
    traj = integrate(osc.hamiltonian, osc.structure,
                     EvalPoint((1.0,), (0.0,)), 2.0 * math.pi)
    assert traj.error is None
    assert np.linalg.norm(traj.states[-1] - np.array([1.0, 0.0])) <= 1e-6


def test_vortex_energy_conserved_tightly():
    system, u0 = _vortex_probe()
    traj = integrate(system.hamiltonian, system.structure, u0, 50.0,
                     IntegratorConfig(tolerance=1e-10))
    assert traj.error is None
    assert conservation_report(traj, system.invariants)["H"] <= 1e-7


def test_zero_hamiltonian_gives_constant_trajectory():
    traj = integrate(const(0.0), S1, EvalPoint((1.0,), (0.5,)), 10.0)
    assert traj.error is None
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_conservation_report_vortices():
    system, u0 = _vortex_probe()
    traj = integrate(system.hamiltonian, system.structure, u0, 50.0,
                     IntegratorConfig(tolerance=1e-9))
    report = conservation_report(traj, system.invariants)
    assert set(report) == {"P1", "P2", "P", "H"}
    assert max(report.values()) <= 1e-6


def test_conservation_report_central_field():
    system = get_system("central_field")
    u0 = EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8))
    traj = integrate(system.hamiltonian, system.structure, u0, 50.0,
                     IntegratorConfig(tolerance=1e-9))
    assert max(conservation_report(traj, system.invariants).values()) <= 1e-6


def test_conservation_report_flags_deliberate_drift():
    system = get_system("drift_control")
    traj = integrate(system.hamiltonian, system.structure,
                     EvalPoint((1.0,), (0.0,)), 10.0)
    report = conservation_report(traj, system.invariants)
    assert report["H"] <= 1e-6
    assert report["F"] >= 0.5


def test_flows_commute_central_field_pair():
    system = get_system("central_field")
    u0 = EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8))
    combo = build_combination(system.invariants, (0.0, 0.4, -0.3, 0.8))
    ok, defect = flows_commute(system.hamiltonian, combo, system.structure,
                               u0, 1.0, 1.3)
    assert ok
    assert defect <= 1e-6


def test_flows_commute_counterexample():
    """Energy and dilation close on each other, so their flows interleave."""
    system = get_system("three_particles")
    u0 = EvalPoint((-2.0, 0.5, 3.0), (0.3, -0.2, 0.1))
    ok, defect = flows_commute(system.invariants.exprs[0],
                               system.invariants.exprs[1],
                               system.structure, u0, 0.5, 0.5)
    assert not ok
    assert defect >= 1e-2


def test_flow_commutes_with_itself():
    osc = get_system("oscillator")
    ok, defect = flows_commute(osc.hamiltonian, osc.hamiltonian, S1,
                               EvalPoint((1.0,), (0.0,)), 0.7, 1.1)
    assert ok
    assert defect <= 1e-8


@pytest.mark.parametrize("name,point", [
    ("vortices3", EvalPoint((1.5, -1.2, 0.25), (0.9, 1.4, -0.5))),
    ("central_field", EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8))),
])
def test_cartan_pair_flows_commute(name, point):
    system = get_system(name)
    inv = system.invariants
    element = find_level_point(inv, tuple(inv.member_values(point)), point)
    basis = cartan_basis_at(inv, element, seed=5)
    f1, f2 = basis.combination_exprs(inv)
    ok, defect = flows_commute(f1, f2, system.structure, point, 5.0, 5.0)
    assert ok, defect
    assert defect <= 1e-6


def test_adaptive_sample_grid():
    u0 = EvalPoint((1.0,), (0.0,))
    config = IntegratorConfig(sample_dt=0.5)
    osc = get_system("oscillator")
    traj = integrate(osc.hamiltonian, S1, u0, 10.0, config)
    assert traj.error is None
    assert np.array_equal(traj.times, 0.5 * np.arange(21))
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) <= 1e-7
    assert np.max(np.abs(traj.states[:, 1] + np.sin(traj.times))) <= 1e-7
    still = integrate(const(0.0), S1, u0, 10.0, config)
    assert np.array_equal(still.times, traj.times)
    assert np.array_equal(still.states, np.tile(u0.state(), (21, 1)))


def test_adaptive_sample_grid_sits_at_multiples_of_sample_dt():
    # a running sum of 0.1 drifts off k * 0.1 and misses the row at t_final
    osc = get_system("oscillator")
    traj = integrate(osc.hamiltonian, S1, EvalPoint((1.0,), (0.0,)), 1000.0,
                     IntegratorConfig(sample_dt=0.1))
    assert traj.error is None
    assert len(traj.times) == 10001 and traj.times[-1] == 1000.0
    assert np.array_equal(traj.times, np.arange(10001) * 0.1)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) <= 1e-5


def _ring6():
    xi = (1.0, 0.95, 1.05, 1.0, 0.9, 1.1)
    angles = [2.0 * math.pi * k / 6 + 0.05 * (-1) ** k for k in range(6)]
    return get_system("vortices", {"n": 6, "xi": xi}), EvalPoint(
        tuple(math.cos(a) for a in angles), tuple(math.sin(a) for a in angles))


def _case(name):
    """(H, structure, start, t_final, config) of one adaptive run whose
    every output the component-loop reference must reproduce exactly."""
    if name in ("step_underflow", "domain_error", "probe_domain_error"):
        text, u0, t_final = {
            "step_underflow": ("p1^2/2 + ln(q1)", (1.0, -1.0), 10.0),
            "domain_error": ("p1^2/2 + sqrt(q1)", (0.1, -1.0), 10.0),
            "probe_domain_error": ("p1^2/2 + sqrt(q1)", (1e-12, -1.0), 1.0),
        }[name]
        return (parse(text, 1), S1, EvalPoint((u0[0],), (u0[1],)), t_final,
                IntegratorConfig())
    system, u0, t_final, config = {
        "vortices3": (*_vortex_probe(), 50.0, IntegratorConfig()),
        "central_field": (get_system("central_field"),
                          EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8)),
                          50.0, IntegratorConfig()),
        "ring6": (*_ring6(), 20.0, IntegratorConfig()),
        "oscillator_grid": (get_system("oscillator"), EvalPoint((1.0,), (0.0,)),
                            10.0, IntegratorConfig(sample_dt=0.5)),
        "collision": (*_vortex_probe(), 50.0,
                      IntegratorConfig(collision_threshold=1.05)),
    }[name]
    return system.hamiltonian, system.structure, u0, t_final, config


@pytest.mark.parametrize("name,error,steps", [
    ("vortices3", None, None),
    ("central_field", None, None),
    ("ring6", None, None),
    ("oscillator_grid", None, None),
    ("collision", "collision", None),
    ("step_underflow", flows._UNDERFLOW, 218),
    ("domain_error", "domain_error", None),
    ("probe_domain_error", "domain_error", 0),
])
def test_adaptive_step_matches_component_loop_reference(name, error, steps):
    # the generated step performs the reference's operations in its order,
    # so every output agrees exactly; this comparison never takes a tolerance
    h, structure, u0, t_final, config = _case(name)
    traj = integrate(h, structure, u0, t_final, config)
    times, states, ref_error, ref_steps = dopri_reference(
        h, structure, u0, t_final, config)
    assert traj.error == ref_error == error
    assert traj.accepted_steps == ref_steps
    assert steps is None or ref_steps == steps
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("name", ["oscillator_grid", "central_field", "ring6"])
def test_generated_step_equals_component_loop_step(name):
    # one step at a time, so a change that moves the error norm by an ulp
    # shows even where the controller would round it away
    h, structure, u0, _, _ = _case(name)
    fld = hamiltonian_vector_field(h, structure)
    rhs = compile_functions(fld.dq + fld.dp, structure.n)
    m = 2 * structure.n
    step = flows._binder_from_source(flows._dopri_source(m))(
        rhs, flows._A, flows._B, flows._E, m ** 0.5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        y = (u0.state() + rng.normal(0.0, 0.05, m)).tolist()
        k1 = rhs(y)
        dt = float(10.0 ** rng.uniform(-4.0, -0.5))
        tol = float(10.0 ** rng.uniform(-12.0, -6.0))
        y_new, stages, err = step(y, k1, dt, tol)
        ref_new, ref_stages = _dopri_step(rhs, y, k1, dt)
        assert y_new == ref_new and stages == ref_stages
        assert err == _error_norm(y, ref_new, ref_stages, dt, tol)


def test_adaptive_step_source_is_shared_across_fields():
    # the field is bound per run, not written into the step's source, so a
    # second Hamiltonian of the same dimension compiles no new step
    u0 = EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8))
    first = get_system("central_field")
    integrate(first.hamiltonian, first.structure, u0, 1.0)
    h = parse("(p1^2 + p2^2 + p3^2)/2 + (q1^2 + q2^2 + q3^2)^2/4", 3)
    structure = SymplecticStructure.canonical(3)
    fld = hamiltonian_vector_field(h, structure)
    # the new field and H compile their own sources before the run
    compile_functions(fld.dq + fld.dp, 3)
    compile_functions([h], 3)
    before = _binder_from_source.cache_info()
    integrate(h, structure, u0, 1.0)
    after = _binder_from_source.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("name,point,t_final,sample_dt", [
    ("vortices3", None, 50.0, None),
    ("central_field", EvalPoint((1.0, 0.4, -0.7), (0.3, -0.5, 0.8)), 50.0,
     None),
    ("oscillator", EvalPoint((1.0,), (0.0,)), 10.0, 0.5),
])
def test_adaptive_scheme_matches_scipy_rk45(name, point, t_final, sample_dt):
    pytest.importorskip("scipy")
    system = get_system(name)
    u0 = probe_points(system, 1)[0] if point is None else point
    config = IntegratorConfig(sample_dt=sample_dt)
    traj = integrate(system.hamiltonian, system.structure, u0, t_final, config)
    times, states, steps, error = rk45_reference(
        system.hamiltonian, system.structure, u0, t_final, config.tolerance,
        sample_dt)
    assert traj.error is None and error is None
    assert traj.accepted_steps == steps
    assert traj.times.shape == times.shape and traj.times[-1] == t_final
    # a small error estimate is a difference of nearly equal stage sums, so
    # summing in another order moves each step size by up to ~1e-7 relative;
    # each row is compared after moving it along the field by that offset
    fld = hamiltonian_vector_field(system.hamiltonian, system.structure)
    rhs = compile_functions(fld.dq + fld.dp, system.n)
    offset = times - traj.times
    assert np.max(np.abs(offset)) <= 1e-6
    moved = traj.states + np.array([rhs(row) for row in traj.states]) \
        * offset[:, None]
    assert np.all(np.abs(moved - states) <= 1e-12 * (1 + np.abs(states)))


def test_adaptive_scheme_follows_the_oscillator_at_order_five():
    osc = get_system("oscillator")
    steps = []
    for tolerance in (1e-9, 1e-12):
        traj = integrate(osc.hamiltonian, S1, EvalPoint((1.0,), (0.0,)), 20.0,
                         IntegratorConfig(tolerance=tolerance))
        assert traj.error is None and traj.times[-1] == 20.0
        assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) \
            <= 10 * tolerance
        assert np.max(np.abs(traj.states[:, 1] + np.sin(traj.times))) \
            <= 10 * tolerance
        steps.append(traj.accepted_steps)
    # the step size scales as tolerance^(1/5): 1000^(1/5) = 3.98
    assert 3.5 <= steps[1] / steps[0] <= 4.5


def test_symmetric_scheme_is_order_four():
    osc = get_system("oscillator")
    u0 = EvalPoint((1.0,), (0.0,))
    ref = integrate(osc.hamiltonian, S1, u0, 10.0,
                    IntegratorConfig(tolerance=1e-13))
    errs = []
    for step in (0.1, 0.05):
        traj = integrate(osc.hamiltonian, S1, u0, 10.0,
                         IntegratorConfig(scheme="symmetric4", step=step))
        errs.append(float(np.linalg.norm(traj.states[-1] - ref.states[-1])))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_symmetric_scheme_conserves_separable_energy():
    system = get_system("quartic_oscillator")
    traj = integrate(system.hamiltonian, system.structure,
                     EvalPoint((1.1,), (0.3,)), 10.0,
                     IntegratorConfig(scheme="symmetric4", step=0.01))
    assert traj.error is None
    assert conservation_report(traj, system.invariants)["H"] <= 1e-8


def test_symmetric_scheme_rejects_nonseparable():
    system, u0 = _vortex_probe()
    with pytest.raises(ValueError, match="separable"):
        integrate(system.hamiltonian, system.structure, u0, 1.0,
                  IntegratorConfig(scheme="symmetric4", step=0.01))
    # a coupling far below any sampling tolerance still couples q and p
    weak = parse("p1^2/2 + q1^2/2 + 1e-12*q1*p1", 1)
    with pytest.raises(ValueError, match="separable"):
        integrate(weak, S1, EvalPoint((1.0,), (0.5,)), 1.0,
                  IntegratorConfig(scheme="symmetric4", step=0.01))


def test_symmetric_scheme_matches_full_field_reference():
    # the drift and the kick evaluate the same trees as the whole field, so
    # the composition must reproduce a run on the whole field bit for bit
    system = get_system("uncoupled_oscillators")
    n = system.n
    u0 = EvalPoint((1.0, -0.5), (0.25, 0.75))
    traj = integrate(system.hamiltonian, system.structure, u0, 0.5,
                     IntegratorConfig(scheme="symmetric4", step=0.01))
    fld = hamiltonian_vector_field(system.hamiltonian, system.structure)
    full = compile_functions(fld.dq + fld.dp, n)
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    dt = 0.5 / 50
    y = u0.state()
    for _ in range(50):
        for c in (w1, w0, w1):
            y[n:] += 0.5 * c * dt * np.asarray(full(y)[n:])
            y[:n] += c * dt * np.asarray(full(y)[:n])
            y[n:] += 0.5 * c * dt * np.asarray(full(y)[n:])
    assert traj.error is None and len(traj.times) == 51
    assert np.array_equal(traj.states[-1], y)


@pytest.mark.parametrize("text,u0,t_final", [
    ("p1^2/2 + q1^2/2 + b*q1^4", EvalPoint((1.0,), (0.5,)), 5.0),
    ("p1^2/2 - cos(q1)", EvalPoint((2.0,), (0.0,)), 5.0),
    # the three kick components share the two exponentials as temporaries
    ("(p1^2+p2^2+p3^2)/2 + exp(q1-q2) + exp(q2-q3)",
     EvalPoint((0.5, -0.2, 0.1), (0.3, 0.1, -0.4)), 3.0),
    # q2 turns negative, and the kick's q2^1.5 fails in _pow at row 56
    ("sqrt(1+p1^2) + p2^4/4 + ln(2+sin(q1)) + q2^2.5",
     EvalPoint((0.3, 0.9), (1.2, -0.7)), 7.3),
])
def test_symmetric_scheme_matches_numpy_reference(text, u0, t_final):
    h = parse(text, u0.n)
    structure = SymplecticStructure.canonical(u0.n)
    # binds b of the quartic case; the other cases have no parameters
    params = {"b": 0.37}
    traj = integrate(h, structure, u0, t_final,
                     IntegratorConfig(scheme="symmetric4", step=0.01), params)
    states, error = symmetric4_reference(h, structure, u0, t_final, 0.01,
                                         params)
    assert traj.error == error
    assert np.array_equal(traj.states, states)
    if error is not None:
        assert len(states) == 56


def test_symmetric_step_source_is_shared_across_step_sizes():
    # the step coefficients are bound per run, not written into the source,
    # so a second step size compiles nothing new
    h = parse("p1^2/2 + q1^2/2 + b*q1^4", 1)
    u0 = EvalPoint((1.0,), (0.5,))
    integrate(h, S1, u0, 1.0, IntegratorConfig(scheme="symmetric4", step=0.01),
              {"b": 0.37})
    before = _binder_from_source.cache_info()
    integrate(h, S1, u0, 1.0, IntegratorConfig(scheme="symmetric4", step=0.03),
              {"b": 0.37})
    after = _binder_from_source.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("name,point", [
    ("vortices3", None),
    ("oscillator", EvalPoint((1.0,), (0.0,))),
])
def test_reversibility(name, point):
    """Forward then time-reversed flow lands back within 10x the tolerance."""
    system = get_system(name)
    u0 = probe_points(system, 1)[0] if point is None else point
    config = IntegratorConfig(tolerance=1e-10)
    fwd = integrate(system.hamiltonian, system.structure, u0, 5.0, config)
    back = integrate(const(-1.0) * system.hamiltonian, system.structure,
                     fwd.final_point(), 5.0, config)
    assert np.linalg.norm(back.states[-1] - np.array(u0.state())) <= 1e-9


def test_collision_truncates_with_flag():
    system, u0 = _vortex_probe()
    # initial min pairwise squared distance is about 1.07 and dips below 1
    traj = integrate(system.hamiltonian, system.structure, u0, 50.0,
                     IntegratorConfig(collision_threshold=1.05))
    assert traj.error == "collision"
    assert 0.0 < traj.times[-1] < 50.0
    immediate = integrate(system.hamiltonian, system.structure, u0, 50.0,
                          IntegratorConfig(collision_threshold=100.0))
    assert immediate.error == "collision"
    assert len(immediate.times) == 1
    # two uncoupled oscillators at frequencies 1 and 2 under the fixed step
    h = parse("(p1^2+q1^2)/2 + (p2^2+4*q2^2)/2", 2)
    fixed = integrate(h, SymplecticStructure.canonical(2),
                      EvalPoint((1.0, 0.0), (0.0, 0.5)), 10.0,
                      IntegratorConfig(scheme="symmetric4", step=0.01,
                                       collision_threshold=0.3))
    assert fixed.error == "collision"
    assert fixed.times[-1] == pytest.approx(1.31)


def test_domain_blowup_truncates_with_flag():
    h = parse("p1^2/2 + ln(q1)", 1)
    traj = integrate(h, S1, EvalPoint((1.0,), (-1.0,)), 10.0)
    # the field -1/q1 grows without bound as q1 reaches 0, which H's domain
    # excludes, so the step size shrinks below the spacing of the times
    assert traj.error == ("step_underflow: Required step size is less than "
                          "spacing between numbers.")
    assert traj.accepted_steps == 218
    assert traj.times[-1] < 10.0
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.diff(traj.times) > 0)
    # the kick -1/(2 sqrt(q1)) leaves its domain as q1 crosses zero
    h = parse("p1^2/2 + sqrt(q1)", 1)
    for config in (IntegratorConfig(),
                   IntegratorConfig(scheme="symmetric4", step=0.01)):
        traj = integrate(h, S1, EvalPoint((0.1,), (-1.0,)), 10.0, config)
        assert traj.error == "domain_error", config.scheme
        assert np.all(np.isfinite(traj.states))
    assert traj.times[-1] == pytest.approx(0.08)


def test_adaptive_step_probe_outside_domain_truncates_with_flag():
    # the field is defined at q1 = 1e-12, but the probe state of the
    # initial step-size estimate already has q1 < 0, where sqrt is not
    h = parse("p1^2/2 + sqrt(q1)", 1)
    traj = integrate(h, S1, EvalPoint((1e-12,), (-1.0,)), 1.0)
    assert traj.error == "domain_error"
    assert traj.accepted_steps == 0
    assert traj.times.tolist() == [0.0]
    assert traj.states.tolist() == [[1e-12, -1.0]]


def test_max_steps_truncates_with_flag(monkeypatch):
    monkeypatch.setattr(flows, "MAX_STEPS", 5)
    osc = get_system("oscillator")
    traj = integrate(osc.hamiltonian, S1, EvalPoint((1.0,), (0.0,)), 100.0)
    assert traj.error == "max_steps"
    assert traj.accepted_steps == 5
    assert len(traj.times) == 6
    fixed = integrate(osc.hamiltonian, S1, EvalPoint((1.0,), (0.0,)), 1.0,
                      IntegratorConfig(scheme="symmetric4", step=0.01))
    assert fixed.error == "max_steps"
    assert fixed.accepted_steps == 5
    assert len(fixed.times) == 6


def test_initial_point_outside_domain_raises():
    system = get_system("vortices3")
    coincident = EvalPoint((1.0, 1.0, 0.0), (2.0, 2.0, -1.0))
    with pytest.raises(IntegrationError, match="initial point"):
        integrate(system.hamiltonian, system.structure, coincident, 1.0)


def test_integrate_input_validation(monkeypatch):
    osc = get_system("oscillator")
    u0 = EvalPoint((1.0,), (0.0,))
    with pytest.raises(ValueError, match="positive"):
        integrate(osc.hamiltonian, S1, u0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        integrate(osc.hamiltonian, S1, u0, math.inf,
                  IntegratorConfig(scheme="symmetric4", step=0.01))
    with pytest.raises(ValueError, match="finite"):
        integrate(osc.hamiltonian, S1, EvalPoint((math.nan,), (0.0,)), 1.0)
    monkeypatch.setattr(flows, "MAX_STEPS", 10)
    with pytest.raises(ValueError, match="max_steps"):
        integrate(osc.hamiltonian, S1, u0, 1.0,
                  IntegratorConfig(sample_dt=0.01))
    with pytest.raises(ValueError, match="dimension"):
        integrate(osc.hamiltonian, SymplecticStructure.canonical(2), u0, 1.0)
    with pytest.raises(ValueError, match="unbound"):
        integrate(parse("a*q1", 1), S1, u0, 1.0)


def test_commute_leg_failure_raises():
    h = parse("p1^2/2 + ln(q1)", 1)
    with pytest.raises(IntegrationError, match="flow leg failed"):
        flows_commute(h, parse("q1", 1), S1, EvalPoint((1.0,), (-1.0,)),
                      5.0, 0.1)


def test_parameters_flow_through_trajectory():
    h = parse("a*(p1^2+q1^2)/2", 1)
    u0 = EvalPoint((1.0,), (0.0,))
    # omega = 2, so the period is pi under either scheme
    for config in (IntegratorConfig(),
                   IntegratorConfig(scheme="symmetric4", step=0.01)):
        full = integrate(h, S1, u0, math.pi, config, params={"a": 2.0})
        assert full.error is None
        q1, p1 = full.states[-1]
        assert full.final_point() == EvalPoint((q1,), (p1,))
        assert np.linalg.norm(full.states[-1] - np.array([1.0, 0.0])) <= 1e-6


def test_trajectory_csv_roundtrip():
    osc = get_system("oscillator")
    traj = integrate(osc.hamiltonian, S1, EvalPoint((1.0,), (0.0,)), 1.0)
    text = trajectory_to_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,q1,p1"
    assert lines[1] == "0,1,0"
    assert len(lines) == len(traj.times) + 1
    parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)


def test_csv_header_orders_all_coordinates():
    system, u0 = _vortex_probe()
    traj = integrate(system.hamiltonian, system.structure, u0, 0.5)
    assert trajectory_to_csv(traj).splitlines()[0] == "t,q1,q2,q3,p1,p2,p3"


def test_trajectory_validation():
    with pytest.raises(ValueError, match="align"):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="increase"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    bad = np.zeros((2, 2))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.array([0.0, 1.0]), bad)


def test_config_validation():
    with pytest.raises(ValueError, match="scheme"):
        IntegratorConfig(scheme="euler")
    with pytest.raises(ValueError, match="tolerance"):
        IntegratorConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="step"):
        IntegratorConfig(scheme="symmetric4")
    with pytest.raises(ValueError, match="sample_dt"):
        IntegratorConfig(sample_dt=-0.1)
    with pytest.raises(ValueError, match="adaptive scheme only"):
        IntegratorConfig(scheme="symmetric4", step=0.01, sample_dt=0.5)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        IntegratorConfig(tolerance=math.nan)
    with pytest.raises(ValueError, match="step must be finite"):
        IntegratorConfig(scheme="symmetric4", step=math.inf)
    with pytest.raises(ValueError, match="sample_dt must be finite"):
        IntegratorConfig(sample_dt=math.nan)
    with pytest.raises(ValueError, match="collision_threshold must be finite"):
        IntegratorConfig(collision_threshold=math.inf)
