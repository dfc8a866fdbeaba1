"""The liouville benchmark: one command, three seeded workloads.

Run from the root of a source checkout (nothing needs installing)::

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``analysis``, ``flows`` and ``actions``.
Each times whole rounds of its classes, at least the workload's
``min_cycles`` and until ``--seconds`` have passed.  ``analysis`` and
``flows`` need about 25 s of ops for their minimum rounds, so at
``--seconds 10`` they run that fixed number of rounds.
Every op's output is checked against an oracle computed outside the
library.  The default seed is 1; seed 7 is held out for confirming a
claimed gain.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics: ``ops_per_s``, ``latency_p50_s``, ``latency_tail_s``,
``ok_frac``, ``setup_s`` and ``peak_rss_mb``.  ``setup_s`` is the median
over ``SETUP_RUNS`` worker processes of the wall time from process start
to the first timed op.  With ``--trace 1`` it holds the per-layer metrics
of a traced run instead, including interpreter start, ``import
liouville`` and one run of each CLI subcommand, and the spans are saved
under ``.perfbench/``.
The line before it holds the run's provenance.  A copy of both goes to
``.perfbench/result-<workload>-<seed>-trace<t>.json``.

Exits 2 without a result if the checkout has no ``src/liouville``.

``determinism.py`` checks that a traced run's counts repeat exactly;
``tests/test_smoke.py`` runs every workload once in both modes.  Which
layer metric should move which end-to-end metric is in
``interactions.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("analysis", "flows", "actions")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_RUNS = 3
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    # fixed string hashing keeps set iteration, and so traced counts, equal
    # across processes
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran past its deadline")
        return left


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _worker(args, deadline: Deadline, setup_only: bool) -> tuple[float, dict]:
    """(set-up seconds, RESULT payload or {}) of one worker process."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(OUT / f"{args.workload}-{args.seed}")]
    if args.cycles:
        argv += ["--cycles", str(args.cycles)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    # a session of its own, so the watchdog also ends a cli op it started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(deadline.left(), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        setup_s = None
        payload = {}
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                payload = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or not (payload or setup_only):
        raise RuntimeError(f"worker exited with code {code}")
    return setup_s, payload


def _timed_child(code: str, deadline: Deadline) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), cwd=ROOT, check=True,
                          timeout=deadline.left())
    return time.perf_counter() - start, proc.stdout


def import_metrics(deadline: Deadline, repeats: int = 3) -> dict:
    """Interpreter start, `import liouville` and module count, as medians."""
    bare = [_timed_child("pass", deadline)[0] for _ in range(repeats)]
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "t = time.perf_counter(); import liouville; "
            "print(time.perf_counter() - t, len(sys.modules))")
    runs = [_timed_child(code, deadline)[1].split() for _ in range(repeats)]
    return {
        "import.interpreter.s": (statistics.median(bare), "s"),
        "import.liouville.s": (statistics.median(float(r[0]) for r in runs),
                               "s"),
        "import.modules.count": (int(runs[0][1]), "count"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "liouville").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, payload: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "versions": payload.get("versions"),
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpus": payload.get("worker_cpus"),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "ops_per_class": payload.get("ops_per_class"),
        "samples": payload.get("samples"),
        "tail_percentile": payload.get("tail_percentile"),
        "class_p50_s": payload.get("class_p50_s"),
        "unscaled_p50_s": payload.get("unscaled_p50_s"),
        "failures": payload.get("failures"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="rounds per run instead of the workload's own "
                             "minimum (for smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "liouville" / "__init__.py").is_file():
        print(f"error: no liouville sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = Deadline(DEADLINE_S)
    try:
        if args.trace:
            metrics = import_metrics(deadline)
            _, payload = _worker(args, deadline, setup_only=False)
            metrics.update(payload["metrics"])
        else:
            setups = [_worker(args, deadline, setup_only=True)[0]
                      for _ in range(SETUP_RUNS - 1)]
            setup_s, payload = _worker(args, deadline, setup_only=False)
            metrics = dict(payload["metrics"])
            metrics["setup_s"] = (statistics.median(setups + [setup_s]), "s")
    except (RuntimeError, TimeoutError, subprocess.SubprocessError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    header = provenance(args, payload)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": header, "result": result,
                                "latencies": payload.get("latencies")},
                               indent=1) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
