"""One benchmark process: set up one workload, then time it or trace it.

Started by ``run.py``, never by hand.  It prints ``READY`` once set-up is
done (imports, inputs, one untimed warm-up op per class), so the parent
can time set-up from process start.  A ``--setup-only`` worker exits
there.  Otherwise it prints one ``RESULT <json>`` line and exits.

The timed loop runs whole rounds of the workload's classes, at least
``min_cycles`` of them and until ``--seconds`` have passed.  A traced run
instead makes two passes over the same ``trace_cycles`` rounds of inputs,
first plain and then with every wrapper of ``tracing.py`` installed, and
then runs each cli probe once.

Speed scaling.  On a shared virtual machine the speed of the whole host
drifts by 30 % or more for seconds at a time, and that swamps the
run-to-run comparison the benchmark exists for.  So a fixed reference
kernel (plain Python and small numpy work, no liouville code) is timed
between consecutive ops, and every op's wall time is scaled by
``REF_S / mean(kernel time just before, kernel time just after)``.  Timed
metrics therefore read as seconds on a host where the kernel takes
``REF_S``.  Unscaled figures are kept in the result file.

The worker pins itself to one CPU, after its imports, so the ops, the
kernel and any cli child all run on the CPU the kernel times.  Every
timed figure is therefore single-CPU; the result reports the CPUs the
worker kept as ``worker_cpus``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import liouville  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_INDEX = 1_000_000
REF_S = 1e-3


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(1500):
        pair = (i * 0.37, i * 1.3)
        acc += math.sin(pair[0]) * pair[1]
        table[i & 63] = [pair, acc]
    arr = np.arange(64.0)
    for _ in range(100):
        arr = arr * 1.0000001 + 0.5
    return acc + float(arr[0])


def reference_s() -> float:
    """Best of three timings of the reference kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def _run_one(cls, ctx, index, tracer=None):
    """(wall seconds, failure reason or None) of one op of one class."""
    inp = cls.make(ctx, index)
    start = time.perf_counter()
    try:
        if tracer is None:
            out = cls.run(inp)
        else:
            out = tracer.run_op(index, f"op.{cls.name}", cls.run, inp)
    except Exception as exc:  # a failing op is counted, never fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return latency, cls.check(inp, out)


class Record:
    """Per-class op times, scaled and raw, and the reasons ops failed.

    A failed op's scaled time is infinite: it misses every latency limit.
    """

    def __init__(self, classes):
        self.scaled = {cls.name: [] for cls in classes}
        self.raw = {cls.name: [] for cls in classes}
        self.failures: list[str] = []

    def add(self, cls, raw, scaled, reason):
        if reason is not None:
            self.failures.append(f"{cls.name}: {reason}")
            scaled = math.inf
        self.raw[cls.name].append(raw)
        self.scaled[cls.name].append(scaled)

    def extend(self, other: "Record") -> None:
        for name in other.raw:
            self.raw.setdefault(name, []).extend(other.raw[name])
            self.scaled.setdefault(name, []).extend(other.scaled[name])
        self.failures.extend(other.failures)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.raw.values())

    def all_scaled(self) -> np.ndarray:
        return np.array([v for vs in self.scaled.values() for v in vs])


def _rounds(workload, ctx, record, cycles, seconds, tracer=None) -> None:
    start = time.perf_counter()
    ref = reference_s()
    done = 0
    while done < cycles or time.perf_counter() - start < seconds:
        for k, cls in enumerate(workload.classes):
            index = done * len(workload.classes) + k
            raw, reason = _run_one(cls, ctx, index, tracer)
            ref_after = reference_s()
            record.add(cls, raw, raw * REF_S / (0.5 * (ref + ref_after)),
                       reason)
            ref = ref_after
        done += 1


def tail_percentile(min_ops: int) -> float:
    """Highest percentile with ten samples beyond it at the minimum op count.

    Fixing it from the minimum, not the count a run happened to reach,
    keeps it the same percentile on every commit; a run never has fewer
    samples than that.  Below 20 samples it falls back to the median.
    """
    return max(50.0, math.floor(1000.0 * (1.0 - 10.0 / min_ops)) / 10.0)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def _median_or_none(values) -> float | None:
    return float(np.median(values)) if values and np.all(np.isfinite(values)) \
        else None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, ctx, record, seconds, cycles) -> dict:
    """End-to-end metrics of the timed loop.

    ``ops_per_s`` is the ops that passed their oracle over the scaled time
    they took: the throughput of one closed-loop client.
    """
    _rounds(workload, ctx, record, cycles, seconds)
    lat = record.all_scaled()
    raw = np.array([v for vs in record.raw.values() for v in vs])
    tail_p = tail_percentile(cycles * len(workload.classes))
    ok = lat[np.isfinite(lat)]
    return {
        "metrics": {
            "ops_per_s": (len(ok) / float(ok.sum()) if len(ok) else 0.0,
                          "1/s"),
            "latency_p50_s": (_finite(float(np.percentile(lat, 50))), "s"),
            "latency_tail_s": (_finite(float(np.percentile(lat, tail_p))),
                               "s"),
            "ok_frac": (float(np.mean(np.isfinite(lat))), "frac"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        "tail_percentile": tail_p,
        "samples": len(lat),
        "unscaled_p50_s": float(np.percentile(raw, 50)),
        "class_p50_s": {name: _median_or_none(v)
                        for name, v in record.scaled.items()},
        "latencies": {"scaled": {name: [_finite(v) for v in vs]
                                 for name, vs in record.scaled.items()},
                      "raw": record.raw},
    }


def traced(workload, ctx, record, cycles, spans_path) -> dict:
    """Plain pass, then the same inputs traced, then the cli probes."""
    plain = Record(workload.classes)
    _rounds(workload, ctx, plain, cycles, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    traced_ops = Record(workload.classes)
    _rounds(workload, ctx, traced_ops, cycles, 0.0, tracer)
    tracer.write(spans_path)
    probes = Record(workloads.CLI_PROBES)
    for index, cls in enumerate(workloads.CLI_PROBES):
        raw, reason = _run_one(cls, ctx, index)
        probes.add(cls, raw, raw, reason)
    for part in (plain, traced_ops, probes):
        record.extend(part)

    metrics = {}
    for label, _, _ in tracing.TRACED:
        if label not in tracing.SELF_ONLY:
            metrics[f"{label}.calls"] = (tracer.calls[label], "count")
        metrics[f"{label}.self_s"] = (tracer.self_s[label], "s")
    metrics[tracing.COMPILED + ".calls"] = (tracer.calls[tracing.COMPILED],
                                            "count")
    metrics[tracing.COMPILED + ".self_s"] = (tracer.self_s[tracing.COMPILED],
                                             "s")
    for name in tracing.COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    for name, (raw,) in probes.raw.items():
        metrics[f"cli.{name}.s"] = (raw, "s")
    # scaled op seconds, so a drift in host speed between the passes does
    # not read as tracing cost
    metrics["trace.overhead_frac"] = (
        float(np.sum(traced_ops.all_scaled()))
        / float(np.sum(plain.all_scaled())) - 1.0, "frac")
    return {"metrics": metrics, "samples": record.attempted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if Path(liouville.__file__).resolve().parent != SRC / "liouville":
        print(f"error: liouville imported from {liouville.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # one CPU for the ops, the speed kernel and any cli child, so the
    # kernel times the CPU the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seed, workdir)
    if args.workload == "actions":
        ctx.quartic_b       # the quartic oracle is part of input generation
    record = Record(workload.classes)
    for k, cls in enumerate(workload.classes[:workload.warmups]):
        raw, reason = _run_one(cls, ctx, WARMUP_INDEX + k)
        if reason is not None:
            record.add(cls, raw, raw, reason)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        cycles = args.cycles or workload.trace_cycles
        result = traced(workload, ctx, record, cycles,
                        workdir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        cycles = args.cycles or workload.min_cycles
        result = timed(workload, ctx, record, args.seconds, cycles)
    result["attempted"] = record.attempted
    result["failed"] = len(record.failures)
    result["failures"] = record.failures[:20]
    result["ops_per_class"] = {k: len(v) for k, v in record.raw.items()}
    result["worker_cpus"] = len(os.sched_getaffinity(0))
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "liouville": liouville.__version__}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
