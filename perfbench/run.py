"""spingap benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload beg-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` (no install step).  Set-up time is the median wall time of
``import spingap.cli`` over three fresh interpreters: two that only
import, and the one that then runs the workload (workload.py), which
calls ``spingap.cli.main`` in-process, closed-loop, for ``--seconds``
and checks every command's output.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 2          # extra fresh interpreters timing the import
CHILD_TIMEOUT_S = 170

IMPORT_PROBE = ("import time; t = time.perf_counter(); import spingap.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    """src on the path; BLAS and OpenMP pools no wider than the CPUs we may use."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    return env


def time_import(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "spingap" / "cli.py").is_file():
        print(f"error: no spingap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = child_env()
    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)

    setup = [] if args.trace else [time_import(env) for _ in range(SETUP_SAMPLES)]
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    timeout = CHILD_TIMEOUT_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    child = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    metrics = child["metrics"]
    if not args.trace:
        setup.append(child["import_s"])
        value = statistics.median(setup)
        metrics["setup_s"] = {"value": value, "unit": "s"}
        print(f"setup_s: median {value:.6g} over {len(setup)} interpreters "
              f"({', '.join(f'{s:.4g}' for s in setup)})")
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
