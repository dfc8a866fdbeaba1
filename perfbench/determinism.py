"""Check that a traced run's counts repeat exactly.

Runs ``run.py --trace 1`` twice per workload on the same seed and compares
every ``*.calls`` and ``*.count`` metric.  Prints one line per workload
with the number of counts compared, any that differ, and the tracing
overhead of each run; exits 1 if any count differs.

    python3 perfbench/determinism.py --seed 1 [--workload flows ...]
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analysis", "flows", "actions")


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
        timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run reported failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    differ = False
    for workload in args.workload or WORKLOADS:
        first = traced_metrics(workload, args.seed)
        second = traced_metrics(workload, args.seed)
        counts = [k for k in first if k.endswith((".calls", ".count"))]
        changed = [k for k in counts if first[k] != second[k]]
        differ = differ or bool(changed)
        print(f"{workload}: {len(counts)} counts, "
              f"{len(changed)} differ {changed}; trace.overhead_frac "
              f"{first['trace.overhead_frac']:.3f} / "
              f"{second['trace.overhead_frac']:.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
