"""System-file parsing and the command-line interface.

The CLI tests drive main() in-process and parse the JSON reports, so they
cover argument wiring, seed resolution, and exit codes without spawning
subprocesses.
"""
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from liouville import __version__
from liouville.action_angle import action_spectrum
from liouville.catalog import get_system
from liouville.cli import main
from liouville.expr import EvalPoint, evaluate
from liouville.sysfile import (
    SystemFileError, export_system_file, load_system_file, loads_system,
)
from test_action_angle import QUARTIC_IN_W, SQRT_OF_W, _quartic_period

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"
V3 = str(FIXTURES / "vortices3.sys")
V4 = str(FIXTURES / "vortices4.sys")
OSC = str(FIXTURES / "oscillator.sys")

MINIMAL = (
    "[system]\n"
    "dimension = 1\n"
    "hamiltonian = (p1^2+q1^2)/2\n"
    "[invariants]\n"
    "H = (p1^2+q1^2)/2\n"
)


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    # the ambient environment must not leak into seed resolution
    monkeypatch.delenv("LIOUVILLE_SEED", raising=False)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report_of(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# system-file parsing


def test_minimal_file_defaults():
    """Omitted optional keys fall back to documented defaults."""
    system = loads_system(MINIMAL)
    assert system.name == "system"
    assert system.structure.weights == (1.0,)
    assert system.seed == 42
    assert system.chart is None
    assert system.suggested_probes == ()
    assert system.non_invariant == frozenset()


def test_fixture_file_round_trip():
    system = load_system_file(V3)
    assert system.name == "vortices3"
    assert system.invariants.k == 4
    assert system.invariants.names == ("P1", "P2", "P", "H")
    assert system.structure.weights == (1.0, 1.0, -2.0)
    assert system.seed == 42
    assert len(system.suggested_probes) == 3
    # the hamiltonian key repeats the H member verbatim
    u = system.suggested_probes[0]
    assert evaluate(system.hamiltonian, u) == evaluate(
        system.invariants.exprs[3], u)


def test_name_hint_comes_from_file_stem(tmp_path):
    path = tmp_path / "toy_system.sys"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_system_file(str(path)).name == "toy_system"
    named = "[system]\nname = custom\n" + MINIMAL.split("\n", 1)[1]
    path.write_text(named, encoding="utf-8")
    assert load_system_file(str(path)).name == "custom"


def test_out_of_range_variable_carries_line_number():
    text = (
        "[system]\n"
        "dimension = 3\n"
        "hamiltonian = q1\n"
        "[invariants]\n"
        "F = q7+p1\n"
    )
    with pytest.raises(SystemFileError, match="line 5: bad expression"):
        loads_system(text)
    try:
        loads_system(text)
    except SystemFileError as exc:
        assert exc.line == 5
        assert "q7" in str(exc)


def test_comments_and_blank_lines_are_skipped():
    text = "# header comment\n\n[system]\n# inner\ndimension = 1\n" \
           "hamiltonian = q1\n\n[invariants]\nF = q1\n"
    assert loads_system(text).invariants.names == ("F",)


@pytest.mark.parametrize("text, message, line", [
    ("[extras]\nx = 1\n" + MINIMAL, "unknown section", 1),
    (MINIMAL + "[system]\ndimension = 1\n", "duplicate section", 6),
    ("dimension = 1\n" + MINIMAL, "content before the first section", 1),
    ("[system]\ndimension = 1\nhamiltonian q1\n[invariants]\nF = q1\n",
     "expected key = value", 3),
    ("[invariants]\nF = q1\n", r"missing \[system\] section", None),
    ("[system]\ndimension = 1\nhamiltonian = q1\n[invariants]\n",
     r"missing or empty \[invariants\] section", None),
    ("[system]\ndimension = 1\nhamiltonian = q1\n",
     r"missing or empty \[invariants\] section", None),
])
def test_section_structure_errors(text, message, line):
    with pytest.raises(SystemFileError, match=message) as info:
        loads_system(text)
    assert info.value.line == line


@pytest.mark.parametrize("text, message, line", [
    ("[system]\ndimension = 1\ndimension = 2\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "duplicate key 'dimension'", 3),
    ("[system]\nhamiltonian = q1\n[invariants]\nF = q1\n",
     r"\[system\] needs dimension", None),
    ("[system]\ndimension = x\nhamiltonian = q1\n[invariants]\nF = q1\n",
     "bad dimension: 'x'", 2),
    ("[system]\ndimension = 0\nhamiltonian = q1\n[invariants]\nF = q1\n",
     "dimension must be positive", 2),
    ("[system]\ndimension = 1\n[invariants]\nF = q1\n",
     r"\[system\] needs hamiltonian", None),
    ("[system]\ndimension = 1\ncolor = red\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "unknown \\[system\\] key 'color'", 3),
    ("[system]\ndimension = 1\nseed = x\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "bad seed: 'x'", 3),
    ("[system]\ndimension = 1\nseed = -3\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "seed must be non-negative", 3),
    ("[system]\ndimension = 1\nparam.a = x\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "bad parameter: 'x'", 3),
    ("[system]\ndimension = 1\nweights = 1, 2\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "expected 1 weights, got 2", 3),
    ("[system]\ndimension = 1\nweights = 0\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "weights must be nonzero", 3),
    ("[system]\ndimension = 1\nnon_invariant = G\nhamiltonian = q1\n"
     "[invariants]\nF = q1\n", "non_invariant names not in", 3),
    ("[system]\ndimension = 1\nhamiltonian = q1\n"
     "[invariants]\nF = q1\nF = p1\n", "duplicate invariant 'F'", 6),
    ("[system]\ndimension = 1\nparam.a = 1\nhamiltonian = a*q1\n"
     "[invariants]\nF = a*q1\nG = b*p1\nK = c*q1\n",
     r"members use unbound parameters: \['b', 'c'\]", 7),
])
def test_system_key_errors(text, message, line):
    with pytest.raises(SystemFileError, match=message) as info:
        loads_system(text)
    assert info.value.line == line


def test_parameters_bind_expressions_and_probes():
    text = (
        "[system]\n"
        "dimension = 1\n"
        "param.a = 2.5\n"
        "seed = 7\n"
        "hamiltonian = a*(p1^2+q1^2)/2\n"
        "[invariants]\n"
        "H = a*(p1^2+q1^2)/2\n"
        "[probes]\n"
        "point = 1.0 | -2.0\n"
    )
    system = loads_system(text, name_hint="toy")
    assert system.seed == 7
    assert system.invariants.params == {"a": 2.5}
    u = system.suggested_probes[0]
    assert u == EvalPoint((1.0,), (-2.0,))
    assert system.invariants.member_values(u)[0] == pytest.approx(6.25)


def test_chart_section_with_bracket_branch_and_params():
    text = MINIMAL + (
        "[chart]\n"
        "h_dim = 1\n"
        "param.omega = 2\n"
        "residual_1 = w^2+omega*lam^2-2*h_1\n"
        "bracket_1 = -4, 4.5\n"
        "branch_1 = -1\n"
    )
    chart = loads_system(text).chart
    assert chart.h_dim == 1
    assert chart.params == {"omega": 2.0}
    degree = chart.degrees[0]
    assert degree.branch_sign == -1
    assert degree.bracket == (-4.0, 4.5)


@pytest.mark.parametrize("chart_text, message, line", [
    ("residual_1 = w^2-2*h_1\n", "chart needs h_dim", 7),
    ("h_dim = x\nresidual_1 = w^2-2*h_1\n", "bad h_dim: 'x'", 7),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbranch_1 = 2\n",
     "branch must be 1 or -1", 9),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = -8\n",
     "bracket needs two values", 9),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = -8, 8\n"
     "bracket_2 = -8, 8\n", r"cycle keys without residual: \[2\]", None),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = -8, 8\n"
     "residual_0 = w^2+lam^2-2*h_1\n", "bad degree index in 'residual_0'", 10),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = -8, 8\n"
     "residual_-1 = w^2\n", "bad degree index in 'residual_-1'", 10),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nresidual_3 = w^2-2*h_3\n"
     "bracket_1 = -8,8\nbracket_3 = -8,8\n", "missing residual_2", None),
    ("h_dim = 1\nwhatever = 3\nresidual_1 = w^2-2*h_1\nbracket_1 = -8,8\n",
     "unknown chart key 'whatever'", 8),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbranch_1 = -1\n",
     "chart is missing bracket_1", 8),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nloop_1 = 0,1; 1,0; 0,-1\n",
     "unknown chart key 'loop_1'", 9),
    ("h_dim = 1\nbracket_1 = -8, 8\n", "chart needs residual_1", None),
    ("h_dim = 1\nresidual_x = w^2-2*h_1\n",
     "bad degree index in 'residual_x'", 8),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = -8,,8\n",
     "bad bracket: '-8,,8'", 9),
    ("h_dim = 1\nresidual_1 = w^2-2*h_1\nbracket_1 = 8, -8\n",
     "degree 1: bracket must be a finite increasing pair", 8),
    ("h_dim = 1\nresidual_1 = w^2-2*h_2\nbracket_1 = -8, 8\n",
     "bad chart: degree 1: h_2 exceeds h_dim", None),
    ("h_dim = 1\nresidual_1 = lam^2-2*h_1\nbracket_1 = -8, 8\n",
     "degree 1: residual must involve the symbol w", 8),
    # two spellings of one degree's key
    ("h_dim = 1\nresidual_1 = w^2+lam^2-2*h_1\nresidual_01 = w^2-2*h_1\n"
     "bracket_1 = -8, 8\n",
     "duplicate key 'residual_01' in \\[chart\\]: 'residual_1' names "
     "degree 1 too", 9),
    ("h_dim = 1\nresidual_1 = w^2+lam^2-2*h_1\nbracket_+1 = -2, 2\n"
     "bracket_1 = -8, 8\n",
     "duplicate key 'bracket_1' in \\[chart\\]: 'bracket_\\+1' names "
     "degree 1 too", 10),
])
def test_chart_errors(chart_text, message, line):
    with pytest.raises(SystemFileError, match=message) as info:
        loads_system(MINIMAL + "[chart]\n" + chart_text)
    assert info.value.line == line


@pytest.mark.parametrize("probe_text, message", [
    ("pt = 1 | 2\n", "unknown \\[probes\\] key 'pt'"),
    ("point = 1, 2\n", "probe points are written"),
    ("point = 1, 2 | 3\n", "probe point needs 1 q and 1 p"),
])
def test_probe_errors(probe_text, message):
    with pytest.raises(SystemFileError, match=message) as info:
        loads_system(MINIMAL + "[probes]\n" + probe_text)
    assert info.value.line == 7


def test_readme_system_file_loads_verbatim():
    # the README's example carries comments after values and on their own
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    (text,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    system = loads_system(text)
    assert system.name == "oscillator"
    assert system.suggested_probes == (EvalPoint((0.5,), (-0.25,)),)
    spectrum = action_spectrum(system.chart, [0.5])
    assert spectrum.gammas[0] == pytest.approx(0.5, abs=1e-12)


PARAMETERISED = (
    "[system]\n"
    "dimension = 1\n"
    "param.a = 2\n"
    "hamiltonian = a*(p1^2+q1^2)/2\n"
    "[invariants]\n"
    "H = a*(p1^2+q1^2)/2\n"
    "[probes]\n"
    "point = 0.5 | -0.25\n"
)


@pytest.mark.parametrize("name", [
    "oscillator", "central_field", "three_particles", "drift_control",
    "parameterised",
])
def test_export_then_load_round_trip(name):
    """export_system_file output parses back to an equivalent definition."""
    src = (loads_system(PARAMETERISED) if name == "parameterised"
           else get_system(name))
    back = loads_system(export_system_file(src), name_hint="x")
    assert back.invariants.names == src.invariants.names
    assert back.invariants.params == src.invariants.params
    probe = back.suggested_probes[0]
    assert np.array_equal(back.invariants.member_values(probe),
                          src.invariants.member_values(probe))
    assert back.structure.weights == src.structure.weights
    assert back.non_invariant == src.non_invariant
    assert len(back.suggested_probes) == 3
    if src.chart is not None:
        assert back.chart.h_dim == src.chart.h_dim
        assert back.chart.degrees[0].bracket == src.chart.degrees[0].bracket


def test_export_then_load_keeps_chart_parameters_and_branch_sign():
    text = MINIMAL + (
        "[chart]\n"
        "h_dim = 1\n"
        "param.omega = 2.5\n"
        "residual_1 = w^2+omega*lam^2-2*h_1\n"
        "bracket_1 = -4, 4.5\n"
        "branch_1 = -1\n"
    )
    src = loads_system(text)
    exported = export_system_file(src)
    assert "param.omega = 2.5\n" in exported
    assert "branch_1 = -1\n" in exported
    back = loads_system(exported).chart
    assert back.params == {"omega": 2.5}
    assert back.degrees == src.chart.degrees
    assert back.degrees[0].branch_sign == -1


# ---------------------------------------------------------------------------
# CLI subcommands


def test_analyze_vortices3():
    report = report_of(["analyze", V3])
    assert report["command"] == "analyze"
    assert report["seed"] == 42
    assert report["version"] == __version__
    assert report["verdict"] is True
    assert report["warnings"] == []
    assert report["input"]["path"] == V3
    assert len(report["input"]["sha256"]) == 64
    results = report["results"]
    assert results["members"] == ["P1", "P2", "P", "H"]
    assert results["k"] == 4
    assert results["closed"] is True
    assert results["residual"] < 1e-9
    assert results["max_central_term"] < 1e-9
    assert results["jacobi_defect"] < 1e-12
    assert results["independent"] is True
    # zero-sum weights kill {P1,P2}, so the derived series is
    # span{P1,P2,P,H} -> span{P1,P2} -> 0 and the algebra is solvable
    assert results["solvable"] is True


def test_reports_are_byte_identical_under_fixed_seed():
    _, first, _ = run_cli(["analyze", V3])
    _, second, _ = run_cli(["analyze", V3])
    assert first == second
    _, first, _ = run_cli(["rank", V3, "--seed", "3"])
    _, second, _ = run_cli(["rank", V3, "--seed", "3"])
    assert first == second


def test_rank_vortices3():
    report = report_of(["rank", V3])
    assert report["results"] == {
        "k": 4, "rank": 2, "constant_rank": True, "probes": 6}
    assert report["verdict"] is True


def test_mf_check_verdicts_and_exit_codes():
    report = report_of(["mf-check", V3])
    assert report["results"] == {
        "dim_g": 4, "rank_g": 2, "dim_m": 6, "holds": True}

    code, out, _ = run_cli(["mf-check", V4])
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"dim_g": 4, "rank_g": 2, "dim_m": 8, "holds": False}

    # --strict turns the negative verdict into exit 1
    code, out, _ = run_cli(["mf-check", V4, "--strict"])
    assert code == 1
    assert json.loads(out)["verdict"] is False

    code, _, _ = run_cli(["mf-check", V3, "--strict"])
    assert code == 0


def test_analyze_one_member_is_closed():
    # {H,H} = 0 identically: the table of a single member is zero
    report = report_of(["analyze", OSC])
    assert report["verdict"] is True
    results = report["results"]
    assert results["k"] == 1 and results["members"] == ["H"]
    assert results["residual"] == 0.0 and results["closed"] is True
    assert results["structure_constants"] == [[[0.0]]]
    assert results["central_terms"] == [[0.0]]
    assert results["jacobi_defect"] == 0.0 and results["solvable"] is True


def _vortex_file(tmp_path, n: int) -> str:
    path = tmp_path / f"vortices{n}.sys"
    path.write_text(export_system_file(get_system("vortices", {"n": n})),
                    encoding="utf-8")
    return str(path)


def _assert_vortex_verdicts(path: str, n: int) -> None:
    results = report_of(["analyze", path])["results"]
    assert results["k"] == 4 and results["closed"] is True
    assert results["residual"] < 1e-9 and results["jacobi_defect"] < 1e-9
    assert results["solvable"] is True and results["independent"] is True
    report = report_of(["mf-check", path])
    assert report["results"] == {
        "dim_g": 4, "rank_g": 2, "dim_m": 2 * n, "holds": False}
    code, out, _ = run_cli(["mf-check", path, "--strict"])
    assert code == 1 and json.loads(out)["verdict"] is False


def test_analyze_and_mf_check_sixteen_vortices(tmp_path):
    _assert_vortex_verdicts(_vortex_file(tmp_path, 16), 16)


def test_analyze_and_mf_check_twenty_four_vortices(tmp_path):
    _assert_vortex_verdicts(_vortex_file(tmp_path, 24), 24)


def test_simulate_twenty_four_vortices(tmp_path):
    report = report_of(["simulate", _vortex_file(tmp_path, 24), "--t", "0.1"])
    results = report["results"]
    assert report["verdict"] is True and results["error"] is None
    assert results["t_final"] == pytest.approx(0.1)
    assert len(results["final_state"]) == 48
    # P1, P2, P and H are invariants of the flow
    assert set(results["drift"]) == {"P1", "P2", "P", "H"}
    assert all(v <= 1e-7 for v in results["drift"].values())


def _vortex_level_arg():
    system = load_system_file(V3)
    u = EvalPoint((1.5, -1.2, 0.25), (0.9, 1.4, -0.5))
    values = [evaluate(e, u) for e in system.invariants.exprs]
    # the leading value is negative, so only the --h=... form parses
    return values, "--h=" + ",".join(repr(v) for v in values)


def test_cartan_subcommand():
    values, harg = _vortex_level_arg()
    report = report_of(["cartan", V3, harg])
    results = report["results"]
    assert results["h"] == pytest.approx(values)
    assert results["dimension"] == 2
    vectors = np.asarray(results["vectors"])
    assert vectors.shape == (2, 4)
    assert len(results["witness"]["q"]) == 3
    assert len(results["witness"]["p"]) == 3
    assert all(np.isfinite(results["witness"]["q"]))
    combos = results["combinations"]
    assert len(combos) == 2
    # one Cartan direction is the Hamiltonian itself, the other mixes the
    # momenta; both come back as parseable expression strings
    assert any("ln(" in text for text in combos)
    assert any("q1+q2+-2*q3" in text or "p1+p2+-2*p3" in text
               for text in combos)


def test_complete_subcommand():
    _, harg = _vortex_level_arg()
    report = report_of(["complete", V3, harg])
    results = report["results"]
    assert results["degree"] == 2
    assert report["verdict"] is True
    assert results["dimension"] == len(results["invariants"]) >= 1
    # the quadratic completion family contains P1^2 + P2^2
    assert any("(q1+q2+-2*q3)^2" in text and "(p1+p2+-2*p3)^2" in text
               for text in results["invariants"])


@pytest.mark.parametrize("degree, monomials", [
    (6, 209), (30, 46375), (2000, 670005837500)])
def test_complete_refuses_an_oversized_ansatz(degree, monomials):
    # the dense SVD of the ansatz system grows with the square of its rows;
    # the count is checked before any monomial is enumerated
    _, harg = _vortex_level_arg()
    _assert_one_error_line(*run_cli(
        ["complete", V3, harg, "--degree", str(degree)]),
        f"gives {monomials} monomials")


def test_complete_degree_0_exits_2():
    _, harg = _vortex_level_arg()
    code, out, err = run_cli(["complete", V3, harg, "--degree", "0"])
    assert (code, out, err) == (2, "", "error: degree must be at least 1\n")


def test_actions_oscillator():
    report = report_of(["actions", OSC, "--h", "0.5"])
    results = report["results"]
    assert results["h"] == [0.5]
    assert results["gammas"][0] == pytest.approx(0.5, abs=1e-8)
    assert results["omega"][0][0] == pytest.approx(1.0, abs=1e-6)


def test_actions_at_a_cycle_birth():
    # h = 5e-7 is just above the cycle birth at h = 0
    results = report_of(["actions", OSC, "--h", "5e-7"])["results"]
    assert results["omega"][0][0] == pytest.approx(1.0, abs=1e-8)


def test_actions_quartic_frequency_at_a_small_level(tmp_path):
    # a small level, where omega(h) -> 0 like h^(1/4)
    path = tmp_path / "quartic.sys"
    path.write_text(export_system_file(get_system("quartic_oscillator")),
                    encoding="utf-8")
    omega = report_of(["actions", str(path), "--h", "1e-6"])["results"][
        "omega"][0][0]
    assert abs(omega - 2.0 * math.pi / _quartic_period(1e-6)) <= 1e-9


def test_actions_on_a_coupled_chart_exits_2(tmp_path):
    path = tmp_path / "coupled.sys"
    path.write_text(
        "[system]\ndimension = 2\n"
        "hamiltonian = (p1^2+q1^2)/2 + (p2^2+q2^2)/2\n"
        "[invariants]\nH1 = (p1^2+q1^2)/2\nH2 = (p2^2+q2^2)/2\n"
        "[chart]\nh_dim = 2\n"
        "residual_1 = w^2+lam^2-2*h_1+w_2\nbracket_1 = -8, 8\n"
        "residual_2 = w^2+lam^2-2*h_2\nbracket_2 = -8, 8\n",
        encoding="utf-8")
    code, out, err = run_cli(["actions", str(path), "--h", "0.5,0.8"])
    _assert_one_error_line(code, out, err, "w_2")
    assert "another degree's state" in err


def test_actions_on_a_bracket_holding_two_wells_exits_2(tmp_path):
    # (-3, 3) holds both wells of the double well at h = 0.3, so the
    # error names the bracket, not a branch lost between the wells
    path = tmp_path / "double_well.sys"
    path.write_text(
        "[system]\ndimension = 1\nhamiltonian = p1^2/2+(q1^2-1)^2/2\n"
        "[invariants]\nH = p1^2/2+(q1^2-1)^2/2\n"
        "[chart]\nh_dim = 1\n"
        "residual_1 = w^2+(lam^2-1)^2-2*h_1\nbracket_1 = -3, 3\n",
        encoding="utf-8")
    assert run_cli(["actions", str(path), "--h", "0.3"]) == (
        2, "", "error: the bracket holds more than one allowed interval; "
        "narrow it to one cycle\n")


def test_actions_on_a_gap_between_two_grid_points_exits_2(tmp_path):
    # on (-3, 3.05) at h = 0.4999 the gap between the wells falls between
    # two grid points; a quadrature node in it gives the same refusal
    path = tmp_path / "double_well.sys"
    path.write_text(
        "[system]\ndimension = 1\nhamiltonian = p1^2/2+(q1^2-1)^2/2\n"
        "[invariants]\nH = p1^2/2+(q1^2-1)^2/2\n"
        "[chart]\nh_dim = 1\n"
        "residual_1 = w^2+(lam^2-1)^2-2*h_1\nbracket_1 = -3, 3.05\n",
        encoding="utf-8")
    _assert_one_error_line(
        *run_cli(["actions", str(path), "--h", "0.4999"]),
        "error: the bracket holds more than one allowed interval; narrow it "
        "to one cycle (no real root at lam=")


def _assert_residual_refused(tmp_path, residual):
    """``actions`` on a chart of ``residual``, outside the class a*w^2 + F,
    exits 2 naming the residual's line and the rule."""
    path = tmp_path / "chart.sys"
    path.write_text(
        MINIMAL + "[chart]\nh_dim = 1\n"
        f"residual_1 = {residual}\nbracket_1 = -8, 8\n", encoding="utf-8")
    _assert_one_error_line(
        *run_cli(["actions", str(path), "--h", "0.1"]),
        "error: line 8: degree 1: residual must be a*w^2 + F with a "
        "constant a > 0 and F free of w")


def test_actions_on_a_residual_undefined_at_w_0_exits_2(tmp_path):
    _assert_residual_refused(tmp_path, "1/w + lam^2 - h_1")


@pytest.mark.parametrize("residual", [QUARTIC_IN_W, SQRT_OF_W])
def test_actions_on_a_residual_outside_the_class_exits_2(tmp_path, residual):
    _assert_residual_refused(tmp_path, residual)


@pytest.mark.parametrize("key", ["residual_0", "residual_-1"])
def test_actions_with_a_residual_below_degree_1_exits_2(tmp_path, key):
    # loading used to drop the key and report degree 1 alone
    path = tmp_path / "stray.sys"
    path.write_text(Path(OSC).read_text(encoding="utf-8").replace(
        "bracket_1 = -8, 8\n", f"bracket_1 = -8, 8\n{key} = w^2 + nonsense\n"),
        encoding="utf-8")
    _assert_one_error_line(*run_cli(["actions", str(path), "--h", "0.5"]),
                           f"line 15: bad degree index in '{key}'")


def test_two_spellings_of_one_degree_key_are_refused(tmp_path):
    # residual_01 and bracket_+1 name degree 1 too; the later line used to
    # win, loading w^2+4*lam^2-2*h_1 on (-2, 2)
    text = (MINIMAL + "[chart]\nh_dim = 1\n"
            "residual_1 = w^2+lam^2-2*h_1\nresidual_01 = w^2+4*lam^2-2*h_1\n"
            "bracket_1 = -8, 8\nbracket_+1 = -2, 2\n")
    message = ("line 9: duplicate key 'residual_01' in [chart]: 'residual_1' "
               "names degree 1 too")
    with pytest.raises(SystemFileError) as info:
        loads_system(text)
    assert str(info.value) == message
    path = tmp_path / "twice.sys"
    path.write_text(text, encoding="utf-8")
    _assert_one_error_line(*run_cli(["actions", str(path), "--h", "0.5"]),
                           f"error: {message}")


def test_simulate_writes_csv(tmp_path):
    csv_path = tmp_path / "traj.csv"
    report = report_of(["simulate", V3, "--t", "5", "--csv", str(csv_path)])
    results = report["results"]
    assert results["error"] is None
    assert report["verdict"] is True
    assert results["t_final"] == pytest.approx(5.0)
    assert results["samples"] >= 2
    assert results["non_invariant_members"] == []
    assert set(results["drift"]) == {"P1", "P2", "P", "H"}
    assert all(v <= 1e-6 for v in results["drift"].values())
    assert results["csv_path"] == str(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert len(lines) == results["samples"] + 1


def test_simulate_flags_change_the_run():
    report = report_of([
        "simulate", OSC, "--t", "6.4", "--scheme", "symmetric4",
        "--step", "0.01", "--from", "1.0 | 0.0"])
    results = report["results"]
    assert results["error"] is None
    assert results["drift"]["H"] <= 1e-8
    # the circle at H = 1/2 returns near the start after one period
    state = np.asarray(results["final_state"])
    expected = np.array([np.cos(6.4), -np.sin(6.4)])
    assert np.max(np.abs(state - expected)) <= 1e-4


PARAM_OSCILLATOR = (
    "[system]\n"
    "dimension = 1\n"
    "param.a = 2\n"
    "hamiltonian = a*(p1^2+q1^2)/2\n"
    "[invariants]\n"
    "H = a*(p1^2+q1^2)/2\n"
)


@pytest.mark.parametrize("scheme", [[], ["--scheme", "symmetric4",
                                         "--step", "0.01"]],
                         ids=["adaptive", "symmetric4"])
def test_simulate_binds_file_parameters(tmp_path, scheme):
    # param.a binds H, so the frequency is a = 2 and the period is pi
    path = tmp_path / "param_oscillator.sys"
    path.write_text(PARAM_OSCILLATOR)
    report = report_of(["simulate", str(path), "--from", "1 | 0",
                        "--t", "3.141592653589793", *scheme])
    results = report["results"]
    assert results["error"] is None
    assert results["drift"]["H"] <= 1e-8
    assert np.max(np.abs(np.asarray(results["final_state"])
                         - [1.0, 0.0])) <= 1e-6


def test_analyze_and_rank_bind_file_parameters(tmp_path):
    path = tmp_path / "param_modes.sys"
    path.write_text(
        "[system]\n"
        "dimension = 2\n"
        "param.a = 2\n"
        "param.b = 0.5\n"
        "hamiltonian = a*(p1^2+q1^2)/2 + b*(p2^2+q2^2)\n"
        "[invariants]\n"
        "H1 = a*(p1^2+q1^2)/2\n"
        "H2 = b*(p2^2+q2^2)\n")
    assert report_of(["analyze", str(path)])["results"]["closed"] is True
    assert report_of(["rank", str(path)])["results"]["rank"] == 2


LOG_SYSTEM = (
    "[system]\n"
    "dimension = 1\n"
    "hamiltonian = p1^2/2 + ln(q1)\n"
    "[invariants]\n"
    "H = p1^2/2 + ln(q1)\n"
)
# the drift p1 and the kick -1/q1 are both defined past q1 = 0; H is not
LOG_RUN = ["--scheme", "symmetric4", "--step", "0.01", "--t", "10",
           "--from", "1 | -1"]


def test_simulate_symmetric_truncates_where_h_leaves_its_domain(tmp_path):
    path = tmp_path / "log.sys"
    path.write_text(LOG_SYSTEM, encoding="utf-8")
    report = report_of(["simulate", str(path), *LOG_RUN])
    results = report["results"]
    assert report["verdict"] is False
    assert report["warnings"] == ["trajectory truncated: domain_error"]
    assert results["error"] == "domain_error"
    assert results["samples"] == 66
    assert results["t_final"] == pytest.approx(0.65)
    assert results["final_state"][0] > 0.0


def test_simulate_symmetric_domain_truncation_fails_strict(tmp_path):
    path = tmp_path / "log.sys"
    path.write_text(LOG_SYSTEM, encoding="utf-8")
    code, out, err = run_cli(["simulate", str(path), *LOG_RUN, "--strict"])
    assert code == 1, err
    assert json.loads(out)["results"]["error"] == "domain_error"


SQRT_SYSTEM = (
    "[system]\n"
    "dimension = 1\n"
    "hamiltonian = p1^2/2 + sqrt(q1)\n"
    "[invariants]\n"
    "H = p1^2/2 + sqrt(q1)\n"
)
# H and the field are defined at the start; the adaptive scheme's first
# step-size probe is not
SQRT_RUN = ["--t", "1", "--from", "1e-12 | -1"]


def test_simulate_adaptive_truncates_where_the_step_probe_leaves_the_domain(tmp_path):
    path = tmp_path / "sqrt.sys"
    path.write_text(SQRT_SYSTEM, encoding="utf-8")
    report = report_of(["simulate", str(path), *SQRT_RUN])
    results = report["results"]
    assert report["verdict"] is False
    assert report["warnings"] == ["trajectory truncated: domain_error"]
    assert results["error"] == "domain_error"
    assert results["accepted_steps"] == 0 and results["samples"] == 1
    assert results["final_state"] == [1e-12, -1.0]
    code, out, err = run_cli(["simulate", str(path), *SQRT_RUN, "--strict"])
    assert code == 1, err
    assert json.loads(out)["results"]["error"] == "domain_error"


@pytest.mark.parametrize("scheme", ["adaptive", "symmetric4"])
def test_simulate_start_outside_h_domain_exits_2(tmp_path, scheme):
    # the field is defined at q1 = -1, H = p1^2/2 + ln(q1) is not
    path = tmp_path / "log.sys"
    path.write_text(LOG_SYSTEM, encoding="utf-8")
    _assert_one_error_line(*run_cli(
        ["simulate", str(path), "--scheme", scheme, "--step", "0.01",
         "--from", "-1 | 0.5", "--t", "1"]),
        "initial point outside the domain: math domain error")


def test_seed_resolution_order(monkeypatch):
    """Flag beats environment beats file seed."""
    assert report_of(["rank", V3])["seed"] == 42
    monkeypatch.setenv("LIOUVILLE_SEED", "9")
    assert report_of(["rank", V3])["seed"] == 9
    assert report_of(["rank", V3, "--seed", "7"])["seed"] == 7
    monkeypatch.setenv("LIOUVILLE_SEED", "xx")
    code, _, err = run_cli(["rank", V3])
    assert code == 2
    assert "bad LIOUVILLE_SEED value" in err


@pytest.mark.parametrize("argv, fragment", [
    (["analyze", "no_such_file.sys"], "No such file"),
    (["simulate", V3, "--t", "-1"], "--t must be positive"),
    (["actions", V3, "--h", "0.5"], r"no [chart] section"),
    (["cartan", V3, "--h", "1,2"], "one target value per member"),
    (["actions", OSC, "--h", "abc"], "bad --h"),
])
def test_errors_exit_2_with_message(argv, fragment):
    code, out, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ")
    assert fragment in err
    assert out == ""


@pytest.mark.parametrize("flag, env, file_seed, fragment", [
    ("-1", None, 5, "--seed must be non-negative, got -1"),
    (None, "-2", 5, "LIOUVILLE_SEED must be non-negative, got -2"),
    (None, None, -3, "line 3: seed must be non-negative"),
], ids=["flag", "environment", "file"])
def test_negative_seeds_exit_2_naming_their_source(tmp_path, monkeypatch,
                                                  flag, env, file_seed,
                                                  fragment):
    # numpy refuses them only later, with a message naming neither
    path = tmp_path / "seeded.sys"
    path.write_text(MINIMAL.replace(
        "dimension = 1\n", f"dimension = 1\nseed = {file_seed}\n"),
        encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("LIOUVILLE_SEED", env)
    argv = ["rank", str(path)] + (["--seed", flag] if flag else [])
    _assert_one_error_line(*run_cli(argv), fragment)


def _assert_one_error_line(code, out, err, fragment):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_infinite_weight_exits_2(tmp_path):
    # 1/inf = 0 would silently zero every bracket through that degree
    path = tmp_path / "inf.sys"
    path.write_text(Path(V3).read_text(encoding="utf-8").replace(
        "weights = 1, 1, -2", "weights = inf, 1, 1"), encoding="utf-8")
    _assert_one_error_line(*run_cli(["rank", str(path)]),
                           "line 4: weights must be finite")


def test_overflowing_literal_exits_2_with_line_and_column(tmp_path):
    # an infinite constant would only surface later as a sampling failure
    path = tmp_path / "overflow.sys"
    path.write_text(MINIMAL.replace("hamiltonian = (p1^2+q1^2)/2",
                                    "hamiltonian = p1^2/2 + 1e999*q1^2"),
                    encoding="utf-8")
    _assert_one_error_line(*run_cli(["rank", str(path)]),
                           "line 3: bad expression: numeric literal "
                           "overflows (column 10)")


def test_unbound_hamiltonian_parameter_exits_2_at_load(tmp_path):
    # the members bind no parameter, so only the Hamiltonian's check sees c
    path = tmp_path / "unbound.sys"
    path.write_text(MINIMAL.replace("hamiltonian = (p1^2+q1^2)/2",
                                    "hamiltonian = c*(p1^2+q1^2)/2"),
                    encoding="utf-8")
    _assert_one_error_line(*run_cli(["analyze", str(path)]),
                           "line 3: Hamiltonian uses unbound parameters: ['c']")


def test_complete_on_an_open_set_exits_2(tmp_path):
    # drift_control's members do not close, so they have no Casimirs
    path = tmp_path / "drift_control.sys"
    path.write_text(export_system_file(get_system("drift_control")),
                    encoding="utf-8")
    system = load_system_file(str(path))
    values = system.invariants.member_values(system.suggested_probes[0])
    harg = "--h=" + ",".join(repr(float(v)) for v in values)
    _assert_one_error_line(*run_cli(["complete", str(path), harg]),
                           "do not close")


def test_cartan_on_an_open_set_exits_2(tmp_path):
    # drift_control's members do not close, so no Cartan basis is reported
    path = tmp_path / "drift_control.sys"
    path.write_text(export_system_file(get_system("drift_control")),
                    encoding="utf-8")
    _assert_one_error_line(*run_cli(
        ["cartan", str(path), "--h=2.0502008974535126,-1.660934072833945"]),
        "do not close")


@pytest.mark.parametrize("command", ["cartan", "complete"])
def test_open_set_is_refused_before_the_level_search(tmp_path, command):
    # no level point reaches h = (100, -100), so only a closure check made
    # before the search reports the open set
    path = tmp_path / "drift_control.sys"
    path.write_text(export_system_file(get_system("drift_control")),
                    encoding="utf-8")
    _assert_one_error_line(*run_cli([command, str(path), "--h=100,-100"]),
                           "do not close")


def test_analyze_reports_no_algebra_verdicts_for_an_open_set(tmp_path):
    # drift_control's fitted table does not close, so it has no abstract
    # algebra to be solvable or to satisfy Jacobi; the tables stay as the
    # diagnostic
    path = tmp_path / "drift_control.sys"
    path.write_text(export_system_file(get_system("drift_control")),
                    encoding="utf-8")
    report = report_of(["analyze", str(path)])
    results = report["results"]
    assert results["closed"] is False and results["residual"] > 1e-6
    assert results["solvable"] is None and results["jacobi_defect"] is None
    assert np.any(results["structure_constants"])
    assert report["verdict"] is False


def test_sample_dt_under_symmetric4_exits_2():
    # the fixed-step loop has no interpolant to honour the grid
    _assert_one_error_line(*run_cli(
        ["simulate", OSC, "--t", "1", "--scheme", "symmetric4", "--step",
         "0.01", "--sample-dt", "0.5"]),
        "sample_dt applies to the adaptive scheme only")


@pytest.mark.parametrize("argv, fragment", [
    (["simulate", OSC, "--t", "1", "--sample-dt", "nan"],
     "sample_dt must be finite"),
    (["cartan", V3, "--h=nan,3.3,2.9175,0.634"],
     "--h must be finite, got 'nan'"),
])
def test_non_finite_flag_exits_2(argv, fragment):
    _assert_one_error_line(*run_cli(argv), fragment)


def _subprocess_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path
                                                   if path else ""))


def test_input_hash_is_of_the_bytes_read_from_a_pipe():
    data = Path(OSC).read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "liouville.cli", "actions", "/dev/stdin",
         "--h", "0.5"],
        input=data, capture_output=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["input"]["sha256"] == hashlib.sha256(data).hexdigest()
    assert report_of(["actions", OSC, "--h", "0.5"])["input"]["sha256"] == \
        hashlib.sha256(data).hexdigest()


def test_infinite_final_time_exits_2():
    # without the check an adaptive run to t = inf stops only at its step
    # budget, minutes later; a subprocess bounds the wait
    proc = subprocess.run(
        [sys.executable, "-m", "liouville.cli", "simulate", OSC, "--t", "inf"],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    _assert_one_error_line(proc.returncode, proc.stdout, proc.stderr,
                           "--t must be positive and finite")


def test_overflowing_bracket_prints_one_error_line(tmp_path):
    # gradients near 1e263 overflow the bracket product; numpy's overflow
    # warning must not reach stderr beside the error line
    path = tmp_path / "big.sys"
    path.write_text("[system]\ndimension = 1\nhamiltonian = exp(300*q1)\n"
                    "[invariants]\nA = exp(300*q1)\nB = exp(300*p1)\n",
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "liouville.cli", "analyze", str(path)],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    _assert_one_error_line(proc.returncode, proc.stdout, proc.stderr,
                           "non-finite bracket matrix")


def test_import_leaves_scipy_unloaded():
    # neither the import nor any subcommand, adaptive flows included, loads
    # scipy
    _, harg = _vortex_level_arg()
    runs = [["analyze", V3], ["rank", V3], ["mf-check", V3],
            ["cartan", V3, harg], ["complete", V3, harg],
            ["actions", OSC, "--h", "0.5"],
            ["simulate", OSC, "--t", "1", "--scheme", "symmetric4",
             "--step", "0.01"],
            ["simulate", V3, "--t", "2"],
            ["simulate", OSC, "--t", "10", "--sample-dt", "0.5"]]
    script = (
        "import contextlib, io, sys, liouville\n"
        "print('scipy' in sys.modules)\n"
        "from liouville.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    if code != 0:\n"
        "        sys.exit(f'{argv} exited {code}')\n"
        "print('scipy' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_out_flag_writes_report_file(tmp_path):
    out_path = tmp_path / "rank.json"
    code, stdout, _ = run_cli(["rank", V3, "--out", str(out_path)])
    assert code == 0
    assert stdout == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    report = json.loads(text)
    assert set(report) == {"command", "input", "results", "seed",
                           "verdict", "version", "warnings"}


def test_verify_paper_prints_table(tmp_path):
    out_path = tmp_path / "verify.json"
    code, stdout, _ = run_cli(["verify-paper", "--out", str(out_path)])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 10
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"PASS criterion {i}: ")
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["command"] == "verify-paper"
    assert len(report["results"]) == 10
    assert all(item["passed"] for item in report["results"])
    assert all(item["details"] for item in report["results"])


# ---------------------------------------------------------------------------
# long expressions and the error contract


def _long_sum_system(terms: int) -> str:
    # p1^2/2 plus (terms - 1) equal slices of q1^2/2: an oscillator written
    # as one long sum, for both the Hamiltonian and its invariant
    c = 0.5 / (terms - 1)
    text = "p1^2/2 + " + " + ".join([f"{c!r}*q1^2"] * (terms - 1))
    return ("[system]\ndimension = 1\n"
            f"hamiltonian = {text}\n"
            f"[invariants]\nH = {text}\n")


def test_simulate_long_sum_hamiltonian(tmp_path):
    path = tmp_path / "long.sys"
    path.write_text(_long_sum_system(250), encoding="utf-8")
    code, out, err = run_cli(["simulate", str(path), "--t", "1",
                              "--from", "1 | 0"])
    assert code == 0, err
    drift = json.loads(out)["results"]["drift"]["H"]
    assert np.isfinite(drift) and drift <= 1e-8


def test_very_deep_sum_is_ranked_analysed_and_simulated(tmp_path):
    # a 3000-term sum is deeper than the recursion limit; differentiation
    # and simplification walk a sum's spine in a loop
    path = tmp_path / "deep.sys"
    path.write_text(_long_sum_system(3000), encoding="utf-8")
    path = str(path)
    rank = report_of(["rank", path])["results"]
    assert (rank["rank"], rank["constant_rank"]) == (1, True)
    assert report_of(["mf-check", path])["results"]["holds"] is True
    analysis = report_of(["analyze", path])["results"]
    assert analysis["closed"] is True and analysis["independent"] is True
    report = report_of(["simulate", path, "--t", "1", "--from", "1 | 0"])
    drift = report["results"]["drift"]["H"]
    assert np.isfinite(drift) and drift <= 1e-8


def test_very_deep_sum_is_printed_by_cartan(tmp_path):
    # cartan prints its combinations; the printer walks an explicit stack
    path = tmp_path / "deep.sys"
    path.write_text(_long_sum_system(3000), encoding="utf-8")
    results = report_of(["cartan", str(path), "--h", "0.5"])["results"]
    assert results["dimension"] == 1
    (combination,) = results["combinations"]
    assert combination.startswith("p1^2/2+")
    assert combination.count("*q1^2") == 2999


def test_very_deep_expression_exits_2_with_one_error_line(tmp_path):
    # simplifying a product's derivative still recurses once per factor
    product = "p1^2/2 + " + "*".join(["q1"] * 3000)
    path = tmp_path / "deep.sys"
    path.write_text("[system]\ndimension = 1\n"
                    f"hamiltonian = {product}\n[invariants]\nH = {product}\n",
                    encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RecursionError" in err and "Traceback" not in err


@pytest.mark.parametrize("exc, line", [
    (np.linalg.LinAlgError("SVD did not converge\nin the solver"),
     "error: SVD did not converge in the solver\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
])
def test_unexpected_exception_exits_2(monkeypatch, exc, line):
    from liouville import cli

    def broken(system, args, seed):
        raise exc

    monkeypatch.setattr(cli, "_cmd_rank", broken)
    code, out, err = run_cli(["rank", V3, "--strict"])
    assert code == 2
    assert out == ""
    assert err == line


def test_verify_paper_report_has_no_seed(tmp_path, monkeypatch):
    from liouville import acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda: [
        acceptance.CriterionResult(1, "stub", True, "ok")])
    out_path = tmp_path / "verify.json"
    code, stdout, _ = run_cli(["verify-paper", "--seed", "5",
                               "--out", str(out_path)])
    assert code == 0
    assert stdout == "PASS criterion 1: stub\n"
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert "seed" not in report
