"""Output-identity gate: one sha256 over CLI reports and library results.

The CLI part runs ``main`` in-process on copies of ``fixtures/`` and hashes
each argv with its exit code, stdout, stderr and every file it wrote.  The
library part hashes the raw float bytes of seeded catalog results: fitted
structure constants, rank, Cartan vectors, completions, one trajectory per
integrator scheme and one action spectrum.  Any changed byte changes the
digest.  Change OUTPUT_DIGEST only together with a deliberate change of
outputs, under the same rule as ``STRUCTURAL_DIGEST`` in test_expr.py.
"""
import hashlib
import shutil
from pathlib import Path

import numpy as np

from liouville import (
    IntegratorConfig, action_spectrum, algebra_rank, cartan_basis_at,
    find_level_point, fit_structure_constants, get_system, integrate,
    probe_points, search_polynomial_completion, to_string,
)
from liouville.cli import main
from liouville.sysfile import load_system_file

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

OUTPUT_DIGEST = "442f348d45bc4f87a2cbf00278bc09f6279ea149192f07307f9df8a2c26183ed"


def _level_arg(path: str) -> str:
    """--h at the member values of the fixture's first probe point."""
    system = load_system_file(path)
    inv = system.invariants
    values = inv.member_values(system.suggested_probes[0])
    return "--h=" + ",".join(repr(float(v)) for v in values)


def _cli_invocations() -> list[list[str]]:
    osc, v3, v4 = ("fixtures/oscillator.sys", "fixtures/vortices3.sys",
                   "fixtures/vortices4.sys")
    runs = [[cmd, path] for cmd in ("analyze", "rank", "mf-check")
            for path in (osc, v3, v4)]
    runs.append(["mf-check", v4, "--strict"])
    for path in (v3, v4):
        level = _level_arg(path)
        runs += [["cartan", path, level], ["complete", path, level]]
    runs += [
        ["simulate", v3, "--t", "2"],
        ["simulate", osc, "--t", "3", "--scheme", "symmetric4",
         "--step", "0.01", "--csv", "osc.csv"],
        ["simulate", osc, "--t", "10", "--sample-dt", "0.5"],
        ["actions", osc, "--h", "0.5"],
        ["actions", v3, "--h", "0.5"],
        ["analyze", "fixtures/missing.sys"],
        ["verify-paper", "--out", "verify.json"],
    ]
    return runs


def _add_cli(digest, workdir: Path, capsys) -> None:
    for argv in _cli_invocations():
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update("\0".join(argv + [str(code), out, err]).encode())
        for written in sorted(p for p in workdir.iterdir() if p.is_file()):
            digest.update(written.name.encode() + b"\0" + written.read_bytes())
            written.unlink()


def _add_library(digest) -> None:
    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())

    vortices = get_system("vortices3")
    inv = vortices.invariants
    constants = fit_structure_constants(inv, samples=40, seed=5,
                                        allow_central=True)
    add(constants.c, constants.c0, constants.residual)
    rank, constant = algebra_rank(inv, probe_points(vortices, 6, 5))
    digest.update(f"rank {rank} {constant}\n".encode())

    central = get_system("central_field")
    inv = central.invariants
    u = probe_points(central, 1, seed=21)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=21)
    add(element.witness.state(), basis.vectors)
    for e in search_polynomial_completion(inv, basis, element, degree=2,
                                          seed=21):
        digest.update(to_string(e).encode() + b"\n")

    u0 = probe_points(vortices, 1, seed=3)[0]
    traj = integrate(vortices.hamiltonian, vortices.structure, u0, 1.0)
    add(traj.times, traj.states)
    u0 = probe_points(central, 1, seed=3)[0]
    traj = integrate(central.hamiltonian, central.structure, u0, 1.0,
                     IntegratorConfig(scheme="symmetric4", step=0.01))
    add(traj.times, traj.states)

    spectrum = action_spectrum(get_system("quartic_oscillator").chart, [0.7])
    add(spectrum.gammas, spectrum.omega)


def _output_digest(tmp_path: Path, monkeypatch, capsys) -> str:
    monkeypatch.delenv("LIOUVILLE_SEED", raising=False)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    _add_cli(digest, tmp_path, capsys)
    _add_library(digest)
    return digest.hexdigest()


def test_output_digest_is_unchanged(tmp_path, monkeypatch, capsys):
    assert _output_digest(tmp_path, monkeypatch, capsys) == OUTPUT_DIGEST
