"""Output-identity gate: one sha256 over CLI reports and library results.

The CLI part runs ``main`` in-process on copies of ``fixtures/`` and hashes
each argv with its exit code, stdout, stderr and every file it wrote.  The
library part hashes the raw float bytes of seeded catalog results: fitted
structure constants, rank, Cartan vectors, completions, one trajectory per
integrator scheme and one action spectrum.  Any changed byte changes the
digest.  Change OUTPUT_DIGEST only together with a deliberate change of
outputs, under the same rule as ``STRUCTURAL_DIGEST`` in test_expr.py.

Each CLI run and each library result is one labelled item, fed to the
digest in order.  Running this file as a script prints one
``sha256  label`` line per item, so a re-record shows which items moved:
``PYTHONPATH=src python tests/test_output_digest.py``.
"""
import hashlib
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
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

OUTPUT_DIGEST = "83839f43b736cea163ba5adcca578ee12b4adc3682894cdb3b042e1f215216b3"


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


def _cli_items(workdir: Path):
    """(argv, bytes) per CLI run: argv, exit code, stdout, stderr and every
    file the run wrote, which is then removed."""
    for argv in _cli_invocations():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        chunks = ["\0".join(argv + [str(code), out.getvalue(),
                                     err.getvalue()]).encode()]
        for written in sorted(p for p in workdir.iterdir() if p.is_file()):
            chunks.append(written.name.encode() + b"\0" + written.read_bytes())
            written.unlink()
        yield " ".join(argv), b"".join(chunks)


def _library_items():
    """(label, bytes) per seeded library result, floats as raw bytes."""
    def raw(*arrays) -> bytes:
        return b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                        for a in arrays)

    vortices = get_system("vortices3")
    inv = vortices.invariants
    constants = fit_structure_constants(inv, samples=40, seed=5,
                                        allow_central=True)
    yield "vortices3 structure constants", raw(
        constants.c, constants.c0, constants.residual)
    rank, constant = algebra_rank(inv, probe_points(vortices, 6, 5))
    yield "vortices3 rank", f"rank {rank} {constant}\n".encode()

    central = get_system("central_field")
    inv = central.invariants
    u = probe_points(central, 1, seed=21)[0]
    element = find_level_point(inv, inv.member_values(u), u)
    basis = cartan_basis_at(inv, element, seed=21)
    yield "central_field witness and Cartan vectors", raw(
        element.witness.state(), basis.vectors)
    found = search_polynomial_completion(inv, basis, element, degree=2,
                                         seed=21)
    yield "central_field completions", b"".join(
        to_string(e).encode() + b"\n" for e in found)

    u0 = probe_points(vortices, 1, seed=3)[0]
    traj = integrate(vortices.hamiltonian, vortices.structure, u0, 1.0)
    yield "vortices3 adaptive trajectory", raw(traj.times, traj.states)
    u0 = probe_points(central, 1, seed=3)[0]
    traj = integrate(central.hamiltonian, central.structure, u0, 1.0,
                     IntegratorConfig(scheme="symmetric4", step=0.01))
    yield "central_field symmetric4 trajectory", raw(traj.times, traj.states)

    spectrum = action_spectrum(get_system("quartic_oscillator").chart, [0.7])
    yield "quartic_oscillator action spectrum", raw(spectrum.gammas,
                                                    spectrum.omega)


def _digest_items(workdir: Path):
    """Every labelled item in digest order; run with ``workdir`` holding a
    copy of ``fixtures/`` as the current directory."""
    yield from _cli_items(workdir)
    yield from _library_items()


def _prepare(workdir: Path) -> None:
    shutil.copytree(FIXTURES, workdir / "fixtures")


def _output_digest(tmp_path: Path, monkeypatch) -> str:
    monkeypatch.delenv("LIOUVILLE_SEED", raising=False)
    _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for _, data in _digest_items(tmp_path):
        digest.update(data)
    return digest.hexdigest()


def test_output_digest_is_unchanged(tmp_path, monkeypatch):
    assert _output_digest(tmp_path, monkeypatch) == OUTPUT_DIGEST


if __name__ == "__main__":
    # one "sha256  label" line per item, so that two trees' listings can be
    # diffed item by item: PYTHONPATH=src python tests/test_output_digest.py
    import os
    import tempfile

    os.environ.pop("LIOUVILLE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        _prepare(Path(tmp))
        os.chdir(tmp)
        for label, data in _digest_items(Path(tmp)):
            print(f"{hashlib.sha256(data).hexdigest()}  {label}")
