"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  bellcert is imported from ``src/`` of the
same tree, in child processes that get one BLAS/OpenMP thread and a fixed
PYTHONHASHSEED before NumPy loads.  Set-up time is measured six times,
by starting the workload process afresh and timing it until its inputs are
ready, and reported as the median.  With ``--trace 1`` the run reports the
per-layer metrics from a traced run instead of the end-to-end metrics.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine.  Results and spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "deduce", "sample_clean", "sample_noisy")
SETUP_PROBES = 5
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MiB"}
STEADY_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def start_worker(args, extra: list[str], deadline: float):
    """Start the workload process and time interpreter start to ``ready``.

    A watchdog kills the process at the run's deadline, so that neither the
    wait for ``ready`` nor the wait for the result can outlast it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = {**os.environ, **STEADY_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    proc.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError("workload process did not get ready")
    return proc, setup


def finish(proc) -> str:
    """Wait for the process to end; its remaining stdout."""
    out, _ = proc.communicate()
    proc.watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bellcert" / "__init__.py").is_file():
        print(f"error: no bellcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_worker(args, ["--probe"], deadline)
                finish(proc)
                setups.append(setup)
        extra = ["--spans", str(out_dir / f"{stem}-spans.json")] if args.trace else []
        proc, setup = start_worker(args, extra, deadline)
        setups.append(setup)
        lines = finish(proc).strip().splitlines()
        report = json.loads(lines[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if args.trace:
        units = dict(LAYER_METRICS)
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {**vars(args), **report, "setup_samples_s": setups, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": report["machine"], "passes": report["passes"],
                      "cpu_over_wall": report["cpu_over_wall"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
