"""Command-line interface: system-file ingestion and JSON reports.

Every subcommand is a thin shell over the library modules; no numeric
logic lives here.  Reports serialize with sorted keys so identical inputs
and seed produce byte-identical output.

Exit codes: 0 for a report, 1 only for a negative verdict under
``--strict`` (or a failed ``verify-paper`` criterion), and 2 for any
error, which is reported as a single ``error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .expr import ExprError, to_string
from .algebra import (
    AlgebraError, _closed_fit, cartan_basis_at, algebra_rank, check_closure,
    find_level_point, fit_structure_constants, functional_independence,
    is_solvable, mishchenko_fomenko_check, search_polynomial_completion,
)
from .flows import (
    IntegrationError, IntegratorConfig, conservation_report, integrate,
    trajectory_to_csv,
)
from .action_angle import ChartError, action_spectrum
from .catalog import SystemDefinition, probe_points
from .sysfile import SystemFileError, _float_list, _point, load_system_file

__all__ = ["main"]


def _resolve_seed(flag: int | None, file_seed: int) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("LIOUVILLE_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"bad LIOUVILLE_SEED value {env!r}") from None
    return file_seed


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _witness_element(system: SystemDefinition, values, seed: int):
    guess = probe_points(system, 1, seed)[0]
    return find_level_point(system.invariants, values, guess)


# ---------------------------------------------------------------------------
# subcommand handlers: (system, args, seed) -> (results, verdict, warnings)


def _cmd_analyze(system: SystemDefinition, args, seed: int):
    inv = system.invariants
    constants = fit_structure_constants(inv, samples=60, seed=seed,
                                        allow_central=True)
    probes = probe_points(system, max(inv.k, 6), seed)
    closed = check_closure(constants)
    results = {
        "members": list(inv.names),
        "k": inv.k,
        "residual": constants.residual,
        "closed": closed,
        "max_central_term": float(np.max(np.abs(constants.c0))),
        "structure_constants": _listify(constants.c),
        "central_terms": _listify(constants.c0),
        "jacobi_defect": constants.jacobi_defect() if closed else None,
        "solvable": is_solvable(constants) if closed else None,
        "independent": functional_independence(inv, probes),
    }
    return results, closed, []


def _cmd_rank(system: SystemDefinition, args, seed: int):
    probes = probe_points(system, 6, seed)
    rank, constant = algebra_rank(system.invariants, probes)
    results = {
        "k": system.invariants.k,
        "rank": rank,
        "constant_rank": constant,
        "probes": len(probes),
    }
    return results, constant, []


def _cmd_cartan(system: SystemDefinition, args, seed: int):
    values = _float_list(args.h, "--h")
    _closed_fit(system.invariants, seed)
    element = _witness_element(system, values, seed)
    basis = cartan_basis_at(system.invariants, element, seed=seed)
    results = {
        "h": values,
        "witness": {"q": _listify(element.witness.q),
                    "p": _listify(element.witness.p)},
        "dimension": basis.dimension,
        "vectors": _listify(basis.vectors),
        "combinations": [to_string(e)
                         for e in basis.combination_exprs(system.invariants)],
    }
    return results, True, []


def _cmd_mf_check(system: SystemDefinition, args, seed: int):
    probes = probe_points(system, 6, seed)
    report = mishchenko_fomenko_check(system.invariants, probes)
    results = {
        "dim_g": report.dim_g,
        "rank_g": report.rank_g,
        "dim_m": report.dim_m,
        "holds": report.holds,
    }
    return results, report.holds, []


def _cmd_complete(system: SystemDefinition, args, seed: int):
    values = _float_list(args.h, "--h")
    element = _witness_element(system, values, seed)
    basis = cartan_basis_at(system.invariants, element, seed=seed)
    found = search_polynomial_completion(system.invariants, basis, element,
                                         degree=args.degree, seed=seed)
    results = {
        "h": values,
        "degree": args.degree,
        "dimension": len(found),
        "invariants": [to_string(e) for e in found],
    }
    return results, bool(found), []


def _cmd_simulate(system: SystemDefinition, args, seed: int):
    if not (math.isfinite(args.t) and args.t > 0):
        raise ValueError("--t must be positive and finite")
    if args.start is not None:
        u0 = _point(args.start, system.n, "point")
    else:
        u0 = probe_points(system, 1, seed)[0]
    config = IntegratorConfig(
        scheme=args.scheme, tolerance=args.tolerance, step=args.step,
        sample_dt=args.sample_dt, collision_threshold=args.collision)
    traj = integrate(system.hamiltonian, system.structure, u0, args.t, config,
                     system.invariants.params)
    drift = conservation_report(traj, system.invariants)
    warnings = []
    if traj.error is not None:
        warnings.append(f"trajectory truncated: {traj.error}")
    results = {
        "t_final": traj.times[-1],
        "samples": len(traj.times),
        "accepted_steps": traj.accepted_steps,
        "error": traj.error,
        "drift": {name: drift[name] for name in sorted(drift)},
        "non_invariant_members": sorted(system.non_invariant),
        "final_state": _listify(traj.states[-1]),
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(trajectory_to_csv(traj))
        results["csv_path"] = args.csv
    return results, traj.error is None, warnings


def _cmd_actions(system: SystemDefinition, args, seed: int):
    if system.chart is None:
        raise ValueError("the system file has no [chart] section")
    values = _float_list(args.h, "--h")
    spectrum = action_spectrum(system.chart, values)
    results = {
        "h": list(spectrum.h),
        "gammas": list(spectrum.gammas),
        "omega": _listify(spectrum.omega),
    }
    return results, True, []


_HANDLERS = {
    "analyze": _cmd_analyze,
    "rank": _cmd_rank,
    "cartan": _cmd_cartan,
    "mf-check": _cmd_mf_check,
    "complete": _cmd_complete,
    "simulate": _cmd_simulate,
    "actions": _cmd_actions,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: LIOUVILLE_SEED, file "
                             "seed, then 42)")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 on a negative analysis verdict")
    common.add_argument("--out", default=None,
                        help="write the JSON report to this path instead of "
                             "stdout")
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Lie-algebra integrability analysis of finite "
                    "invariant sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_file=True):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if needs_file:
            sp.add_argument("file", help="system file (.sys)")
        return sp

    add("analyze", "closure, structure constants, solvability, independence")
    add("rank", "bracket-matrix rank over probe points")
    sp = add("cartan", "Cartan basis at a regular level")
    sp.add_argument("--h", required=True, help="level values, comma separated")
    add("mf-check", "dimension condition dim G + rank G = dim M")
    sp = add("complete", "polynomial completion over the Cartan basis")
    sp.add_argument("--h", required=True, help="level values, comma separated")
    sp.add_argument("--degree", type=int, default=2)
    sp = add("simulate", "integrate the Hamiltonian flow")
    sp.add_argument("--t", type=float, required=True, help="final time")
    sp.add_argument("--from", dest="start", default=None,
                    help="initial point q1,.. | p1,..")
    sp.add_argument("--scheme", choices=("adaptive", "symmetric4"),
                    default="adaptive")
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--sample-dt", dest="sample_dt", type=float, default=None)
    sp.add_argument("--collision", type=float, default=None,
                    help="abort below this minimum pairwise squared distance")
    sp.add_argument("--csv", default=None, help="trajectory CSV output path")
    sp = add("actions", "action variables and frequency matrix")
    sp.add_argument("--h", required=True, help="level values, comma separated")
    add("verify-paper", "run the acceptance suite and print a pass/fail "
                        "table", needs_file=False)
    return parser


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run_verify(args) -> int:
    # the criteria pin their own seeds and tuned bounds, so --seed has no
    # effect here and the report carries no seed
    from .acceptance import run_all
    outcomes = run_all()
    for item in outcomes:
        status = "PASS" if item.passed else "FAIL"
        print(f"{status} criterion {item.index}: {item.title}")
    failed = [item.index for item in outcomes if not item.passed]
    if args.out:
        report = {
            "command": "verify-paper",
            "version": __version__,
            "results": [{"index": item.index, "title": item.title,
                         "passed": item.passed, "details": item.details}
                        for item in outcomes],
            "warnings": [],
        }
        _emit_report(report, args.out)
    return 1 if failed else 0


def _run(args) -> int:
    if args.command == "verify-paper":
        return _run_verify(args)
    system = load_system_file(args.file)
    seed = _resolve_seed(args.seed, system.seed)
    handler = _HANDLERS[args.command]
    results, verdict, warnings = handler(system, args, seed)
    report = {
        "command": args.command,
        "input": {"path": args.file, "sha256": _digest(args.file)},
        "seed": seed,
        "version": __version__,
        "results": results,
        "verdict": verdict,
        "warnings": warnings,
    }
    _emit_report(report, args.out)
    return 0 if (verdict or not args.strict) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SystemFileError, AlgebraError, ChartError, IntegrationError,
            ExprError, ValueError, OSError) as exc:
        message = str(exc)
    except Exception as exc:
        # anything unforeseen (say a RecursionError on a very deep
        # expression) is still an error: one line, never a traceback, and
        # never exit 1, which is the --strict verdict code
        message = f"{type(exc).__name__}: {exc}"
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
