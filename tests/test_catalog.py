"""Catalog fixtures: shapes, parameter validation, probes, documented algebra."""
import math

import numpy as np
import pytest

from liouville.action_angle import action_variable
from liouville.algebra import check_closure, fit_structure_constants
from liouville.catalog import get_system, list_systems, probe_points
from liouville.expr import EvalPoint, evaluate
from liouville.sysfile import export_system_file
from liouville.symplectic import poisson_bracket

ALL_NAMES = {
    "oscillator", "uncoupled_oscillators", "quartic_oscillator",
    "vortices3", "vortices", "central_field", "three_particles",
    "drift_control",
}

# fixtures whose members are all genuine first integrals of the flow
CONSERVATIVE = (
    "oscillator", "uncoupled_oscillators", "quartic_oscillator",
    "vortices3", "vortices", "central_field",
)


def test_list_systems_contents():
    listing = list_systems()
    assert len(listing) == len(ALL_NAMES)
    assert set(listing) == ALL_NAMES


def test_unknown_system_and_parameter():
    with pytest.raises(ValueError, match="unknown system"):
        get_system("pendulum")
    with pytest.raises(ValueError, match="unknown parameters"):
        get_system("oscillator", {"mass": 2.0})


def test_vortices3_shape():
    system = get_system("vortices3")
    assert system.name == "vortices3"
    assert system.n == 3
    assert system.structure.weights == (1.0, 1.0, -2.0)
    assert system.invariants.names == ("P1", "P2", "P", "H")
    assert system.chart is None
    # the Hamiltonian is the fourth member
    u = probe_points(system, 1)[0]
    assert evaluate(system.hamiltonian, u) == evaluate(
        system.invariants.exprs[3], u)


def test_vortices_scan_defaults():
    for n in (2, 3, 4, 5):
        system = get_system("vortices", {"n": n})
        assert system.name == "vortices"
        assert system.n == n
        assert sum(system.structure.weights) == pytest.approx(0.0)
        assert system.invariants.k == 4


def test_vortices_parameter_validation():
    with pytest.raises(ValueError, match="at least 2"):
        get_system("vortices", {"n": 1})
    with pytest.raises(ValueError, match="length 3"):
        get_system("vortices3", {"xi": (1.0, -1.0)})
    with pytest.raises(ValueError, match="nonzero"):
        get_system("vortices3", {"xi": (1.0, 0.0, -1.0)})


def test_vortex_moment_formula():
    system = get_system("vortices3", {"xi": (1.0, 2.0, -2.0)})
    u = EvalPoint((0.3, -0.7, 1.1), (0.9, 0.2, -0.4))
    moment = sum(w * (qv * qv + pv * pv) / 2.0
                 for w, qv, pv in zip((1.0, 2.0, -2.0), u.q, u.p))
    assert evaluate(system.invariants.exprs[2], u) == pytest.approx(moment)


def test_central_field_members():
    system = get_system("central_field")
    assert system.invariants.names == ("H", "P1", "P2", "P3")
    u = EvalPoint((0.7, -0.3, 1.2), (0.4, 0.9, -0.6))
    q, p = u.q, u.p
    assert evaluate(system.invariants.exprs[1], u) == pytest.approx(
        p[1] * q[2] - p[2] * q[1])
    r2 = sum(v * v for v in q)
    kinetic = sum(v * v for v in p) / 2.0
    assert evaluate(system.hamiltonian, u) == pytest.approx(kinetic + r2 / 2)


def test_central_field_custom_potential():
    system = get_system("central_field", {"potential": "r2/2 + ln(r2)"})
    u = EvalPoint((0.7, -0.3, 1.2), (0.4, 0.9, -0.6))
    r2 = sum(v * v for v in u.q)
    kinetic = sum(v * v for v in u.p) / 2.0
    expected = kinetic + r2 / 2.0 + math.log(r2)
    assert evaluate(system.hamiltonian, u) == pytest.approx(expected)


def test_central_field_potential_validation():
    with pytest.raises(ValueError, match="r2"):
        get_system("central_field", {"potential": "1.5"})
    with pytest.raises(ValueError, match="unbound"):
        get_system("central_field", {"potential": "r2 + alpha"})
    with pytest.raises(ValueError, match="bad potential"):
        get_system("central_field", {"potential": "r2 +"})


def test_oscillator_chart_and_validation():
    system = get_system("oscillator", {"omega": 2.0})
    assert system.invariants.k == 1
    assert system.chart.h_dim == 1
    # gamma = E / omega for the harmonic family
    assert action_variable(system.chart, 1, [0.5]) == pytest.approx(
        0.25, abs=1e-8)
    with pytest.raises(ValueError, match="nonzero"):
        get_system("oscillator", {"omega": 0.0})


def test_quartic_oscillator_shape():
    system = get_system("quartic_oscillator")
    assert system.invariants.names == ("H",)
    assert system.chart.degrees[0].bracket == (-8.0, 8.0)
    u = EvalPoint((1.1,), (0.4,))
    assert evaluate(system.hamiltonian, u) == pytest.approx(
        0.4 ** 2 / 2 + 1.1 ** 4 / 4)


def test_uncoupled_oscillators_shape():
    system = get_system("uncoupled_oscillators", {"omegas": (1.0, 3.0)})
    assert system.invariants.names == ("H1", "H2")
    u = EvalPoint((0.5, -0.8), (1.1, 0.2))
    members = [evaluate(e, u) for e in system.invariants.exprs]
    assert evaluate(system.hamiltonian, u) == pytest.approx(sum(members))
    with pytest.raises(ValueError, match=">= 2"):
        get_system("uncoupled_oscillators", {"omegas": (1.0,)})
    with pytest.raises(ValueError, match="nonzero"):
        get_system("uncoupled_oscillators", {"omegas": (1.0, 0.0)})


def test_three_particles_shape():
    system = get_system("three_particles", {"g": 2.0, "masses": (1.0, 2.0, 4.0)})
    assert system.invariants.names == ("H1", "H2", "H3")
    u = EvalPoint((-1.0, 0.5, 2.0), (0.3, -0.6, 0.9))
    q, p = u.q, u.p
    expected = sum(pv * pv / (2.0 * m) for pv, m in zip(p, (1.0, 2.0, 4.0)))
    for i in range(3):
        for j in range(i + 1, 3):
            expected += 2.0 / (q[i] - q[j]) ** 2
    assert evaluate(system.hamiltonian, u) == pytest.approx(expected)


def test_three_particles_parameter_validation():
    with pytest.raises(ValueError, match="masses"):
        get_system("three_particles", {"masses": (1.0, 2.0)})
    with pytest.raises(ValueError, match="masses"):
        get_system("three_particles", {"masses": (1.0, -2.0, 1.0)})
    with pytest.raises(ValueError, match="nonzero"):
        get_system("three_particles", {"g": 0.0})


@pytest.mark.parametrize("name", CONSERVATIVE)
def test_members_commute_with_hamiltonian(name):
    system = get_system(name)
    points = probe_points(system, 5)
    for expr in system.invariants.exprs:
        bracket = poisson_bracket(system.hamiltonian, expr, system.structure)
        assert max(abs(evaluate(bracket, u)) for u in points) <= 1e-9


def test_three_particles_solvable_relations():
    """The dilation member drifts by design: {H1,H2} = 2 H1 on the nose."""
    system = get_system("three_particles")
    h1, h2, h3 = system.invariants.exprs
    s = system.structure
    points = probe_points(system, 5)
    b12 = poisson_bracket(h1, h2, s)
    b13 = poisson_bracket(h1, h3, s)
    b23 = poisson_bracket(h2, h3, s)
    for u in points:
        assert abs(evaluate(b12, u) - 2.0 * evaluate(h1, u)) <= 1e-9
        assert abs(evaluate(b13, u)) <= 1e-9
        assert abs(evaluate(b23, u) + evaluate(h3, u)) <= 1e-9


def test_drift_control_flags_its_member():
    system = get_system("drift_control")
    assert system.non_invariant == frozenset({"F"})
    bracket = poisson_bracket(system.hamiltonian, system.invariants.exprs[1],
                              system.structure)
    u = EvalPoint((0.7,), (1.2,))
    # {H, q1} = p1 under the canonical weights
    assert evaluate(bracket, u) == pytest.approx(1.2)


@pytest.mark.parametrize("name", CONSERVATIVE + ("three_particles",))
def test_catalog_algebras_close(name):
    system = get_system(name)
    if system.invariants.k < 2:
        return
    constants = fit_structure_constants(system.invariants, samples=50, seed=11)
    assert check_closure(constants), constants.residual
    assert constants.residual <= 1e-8


def test_drift_control_does_not_close():
    system = get_system("drift_control")
    constants = fit_structure_constants(system.invariants, samples=50, seed=11)
    assert not check_closure(constants)


def test_probe_points_deterministic():
    system = get_system("vortices3")
    def states(points):
        return [tuple(u.q) + tuple(u.p) for u in points]

    first = probe_points(system, 4)
    second = probe_points(system, 4)
    assert len(first) == 4
    assert states(first) == states(second)
    assert states(probe_points(system, 4, seed=7)) != states(first)
    for u in first:
        assert math.isfinite(evaluate(system.hamiltonian, u))


def test_export_renders_all_sections():
    text = export_system_file(get_system("oscillator"))
    assert text.index("[system]") < text.index("[invariants]")
    assert "[chart]" in text
    assert "[probes]" in text
    assert "h_dim = 1" in text
    plain = export_system_file(get_system("vortices3"))
    assert "[chart]" not in plain
    assert "weights = 1, 1, -2" in plain
    flagged = export_system_file(get_system("drift_control"))
    assert "non_invariant = F" in flagged
