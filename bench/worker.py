"""One workload in one process: set up, time whole passes, then check.

Started by ``run.py`` with one BLAS/OpenMP thread and a fixed hash seed
already in the environment.  Protocol on stdout: a line ``ready`` once
bellcert is imported and the inputs are built (the parent times interpreter
start to this line as set-up), then with ``--probe`` nothing more, else one
JSON line with the run's counts, metrics and machine record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import bellcert  # noqa: E402
import bellcert.cli  # noqa: E402,F401

import reference  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas,
            "git_sha": git_sha(), "python": sys.version.split()[0],
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "cpu": sorted(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else None}


def same_output(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and np.array_equal(a, b))
    return a == b


def run_pass(workload, tracer: Tracer | None, kept: list, durations: list,
             first_seen: dict) -> float:
    """One pass over the operation list; returns its summed operation time.

    An output equal to the one the same operation gave in an earlier pass
    is kept as a reference to that first output and the new copy is freed,
    so the kept outputs, and with them peak RSS, do not grow with the
    number of passes a run manages.
    """
    gc.collect()
    total = 0.0
    for index, (key, op) in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = index
        error = None
        start = time.perf_counter()
        try:
            output = op()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        total += elapsed
        durations.append((key, elapsed))
        if error:
            kept.append((key, error, True))
            continue
        output = workload.keep(key, output)
        earlier = first_seen.setdefault(key, output)
        kept.append((key, earlier if same_output(earlier, output) else output, False))
    return total


def passes_until(workload, until: float, t0: float, tracer, kept, durations,
                 first_seen, layer_passes=None) -> list[float]:
    """Whole passes until ``until`` seconds after ``t0`` (at least one).

    A further pass starts only if the last one, repeated, would end less
    than half a pass after ``until``, so a run ends near its length
    however long a pass takes.
    """
    walls = []
    last = 0.0
    while not walls or time.perf_counter() - t0 + last / 2 < until:
        begun = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        walls.append(run_pass(workload, tracer, kept, durations, first_seen))
        last = time.perf_counter() - begun
        if tracer is not None:
            layer_passes.append(tracer.pass_metrics())
    return walls


def run(workload, seconds: float, trace: bool, spans_path: str | None) -> dict:
    kept: list = []
    durations: list[tuple] = []     # (operation key, seconds)
    first_seen: dict = {}
    tracer = Tracer() if trace else None
    cpu0, t0 = time.process_time(), time.perf_counter()
    walls = passes_until(workload, seconds / 2 if trace else seconds, t0,
                         None, kept, durations, first_seen)
    traced_walls: list[float] = []
    layer_passes: list = []
    if trace:
        tracer.install()
        try:
            traced_walls = passes_until(workload, seconds, t0, tracer, kept, [],
                                        first_seen, layer_passes)
        finally:
            tracer.uninstall()
    cpu_over_wall = (time.process_time() - cpu0) / (time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = reference.self_check()
    failed = 0
    wrong = 0
    n_ops = len(workload.ops)
    reasons: dict = {}   # (key, id of a kept output) -> why it is wrong, or None
    for start in range(0, len(kept), n_ops):
        chunk = kept[start:start + n_ops]
        by_key = {key: out for key, out, raised in chunk if not raised}
        cross = workload.check_pass(by_key)
        for key, out, raised in chunk:
            if raised:
                reason = out
            else:
                memo = (key, id(out))
                if memo not in reasons:
                    reasons[memo] = workload.check(key, out)
                reason = reasons[memo] or cross.get(key)
            if reason:
                failed += 1
                wrong += not raised
                print(f"{workload.name} {key}: {reason}", file=sys.stderr)

    result = {"attempted": len(kept), "failed": failed,
              "correct": not problems and wrong == 0,
              "passes": len(walls) + len(traced_walls),
              "cpu_over_wall": cpu_over_wall,
              "pass_seconds": walls,
              "op_seconds": [[str(key), d] for key, d in durations]}
    for p in problems:
        print(f"reference self-check failed: {p}", file=sys.stderr)
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(d for _, d in durations),
            "peak_rss_mb": peak_rss_mb,
        }
        return result
    times = {k: statistics.fmean(t[k] for t, _ in layer_passes)
             for k in layer_passes[0][0]}
    counts = layer_passes[0][1]
    if any(c != counts for _, c in layer_passes):
        print("layer counts differ between traced passes", file=sys.stderr)
    values = {**times, **counts}
    for kind in ("clean", "noisy"):
        secs = times[f"sim.{kind}.seconds"]
        values[f"sim.{kind}.shots_per_s"] = (counts[f"sim.{kind}.shots"] / secs
                                             if secs > 0 else 0.0)
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(walls))
    result["metrics"] = {name: values.get(name, 0) for name, _ in LAYER_METRICS}
    if spans_path:
        tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (set-up timing only)")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)

    # One process on one CPU: left to the scheduler, the workload moves
    # between the vCPUs of a shared host, whose speeds can differ by several
    # percent at a time.  The highest-numbered CPU is the one least likely
    # to serve interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](bellcert, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(workload, args.seconds, bool(args.trace), args.spans)
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
