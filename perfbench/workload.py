"""Run one workload in this fresh interpreter by calling spingap.cli.main in-process.

Started by run.py with ``src`` on PYTHONPATH.  Prints a few readable
lines and, last, one JSON object: the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``), with the operation counts.
"""

from time import perf_counter

_t0 = perf_counter()
import spingap.cli  # noqa: E402  (the import is what setup_s times)
IMPORT_S = perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import outputs  # noqa: E402
from layers import UNITS, Shims, Tracer, median_summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded, by library file."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                out[os.path.basename(path)] = int(getattr(lib, name)())
                break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs cycles of one workload and checks every command's output."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = outputs.load_reference()
        self.attempted = 0
        self.failed = 0

    def argv(self, cmd, i: int, cycle: int) -> list:
        argv = list(cmd.argv) + ["--out", str(self.workdir / f"cmd{i}")]
        if cmd.seeded:
            seq = np.random.SeedSequence([self.seed, cycle, i])
            argv += ["--seed", str(int(seq.generate_state(1)[0]))]
        return argv

    def call(self, argv: list) -> tuple:
        """(exit code or None after an exception, seconds)."""
        t = perf_counter()
        try:
            rc = spingap.cli.main(argv)
        except Exception:  # a crashing command fails its operations, the run goes on
            traceback.print_exc()
            rc = None
        return rc, perf_counter() - t

    def warm_up(self) -> None:
        for i, cmd in enumerate(self.workload.warmup):
            rc, _ = self.call(self.argv(cmd, i, 0))
            if rc != 0:
                raise SystemExit(f"warm-up command failed ({rc}): {' '.join(cmd.argv)}")

    def cycle(self, cycle: int) -> dict:
        """One pass over the commands: wall time, work done, grid and byte counts."""
        wall = work = cells = underflow = written = 0
        for i, cmd in enumerate(self.workload.commands):
            out = self.workdir / f"cmd{i}"
            shutil.rmtree(out, ignore_errors=True)
            rc, seconds = self.call(self.argv(cmd, i, cycle))
            wall += seconds
            ops, failed, rows = self.check(cmd, out, rc)
            self.attempted += ops
            self.failed += failed
            work += cmd.steps if cmd.seeded else ops
            if not cmd.seeded:
                cells += ops
                underflow += sum(r[3] for r in rows)
            written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        return {"wall_s": wall, "work": work, "verify.cells": cells,
                "verify.underflow_cells": underflow, "cli.bytes_written": written}

    def check(self, cmd, out: Path, rc) -> tuple:
        """(operations attempted, operations failed, grid rows read) for one command."""
        ref = self.reference[cmd.key]
        ops = 1 if cmd.seeded else len(ref)
        if rc != 0:
            return ops, ops, []
        try:
            if cmd.seeded:
                z = outputs.simulate_z(out / cmd.artifact, ref)
                if abs(z) <= outputs.MAX_Z:
                    return 1, 0, []
                print(f"{cmd.label}: estimate {z:+.2f} standard errors from the exact "
                      "mean", file=sys.stderr)
                return 1, 1, []
            rows = outputs.read_grid(out / cmd.artifact)
        except (OSError, KeyError, TypeError, ValueError) as e:  # missing or malformed
            print(f"{cmd.key}: unreadable {cmd.artifact}: {e!r}", file=sys.stderr)
            return ops, ops, []
        return ops, outputs.grid_failures(ref, rows), rows


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(spingap.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"spingap was imported from {spingap.cli.__file__}, not {src}")
    workdir = Path(args.workdir)
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir / args.workload)
    outputs.self_test(runner.reference, workdir / "selftest")
    print("env " + json.dumps(environment(), sort_keys=True))
    runner.warm_up()

    plain, traced = [], []
    tracer = Tracer()
    start = perf_counter()
    rounds = 0
    while True:
        rounds += 1
        # seeds: cycle 0 is the warm-up; traced cycles get their own numbers
        plain.append(runner.cycle(2 * rounds - 1))
        if args.trace:
            tracer.begin_cycle()
            with Shims(tracer):
                row = runner.cycle(2 * rounds)
            row.update(tracer.summary(row["wall_s"]))
            traced.append(row)
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:  # the next round would not fit
            break

    walls = [c["wall_s"] for c in plain]
    rates = [c["work"] / c["wall_s"] for c in plain]
    if args.trace:
        layer = median_summary(traced)
        layer["trace.wall_s"] = layer["wall_s"]
        layer["trace.overhead_s"] = layer["wall_s"] - statistics.median(walls)
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in UNITS.items()}
        (workdir / f"spans-{args.workload}.json").write_text(json.dumps(tracer.dump()))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                   "peak_rss_mb": {"value": peak, "unit": "MB"}}
        for name, values in (("wall_s", walls), ("ops_per_s", rates)):
            lo, hi = quartiles(values)
            print(f"{name}: median {statistics.median(values):.6g} "
                  f"quartiles {lo:.6g}..{hi:.6g} over {len(values)} cycles: "
                  + " ".join(f"{v:.6g}" for v in values))
    fail_frac = runner.failed / runner.attempted
    print(f"fail_frac: {fail_frac:.6g} ({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({"import_s": IMPORT_S, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
