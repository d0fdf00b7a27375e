"""Record the benchmark for a change against its parent, in alternating pairs.

    python tools/benchrecord.py --parent HEAD~1 --change HEAD --out BENCH_10.json \\
        --pairs sampler=10 --pairs audit-readme=5 --pairs beg-dense=5 \\
        --trace-pairs sampler=3

Exports both commits with ``git archive`` into a temporary directory (an
export registers nothing in ``.git``, so an interrupted run leaves no
stale worktree behind) and runs ``perfbench/run.py`` from each export,
as the benchmark runs it, for ``BENCHMARK.json``'s ``run_seconds``.
Pair i (from 1) runs the workload with ``--seed i`` on both sides, one
side right after the other; which side goes first alternates from pair
to pair, and the workloads take turns, so a slow spell on the host
lands on both sides.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
output holds both sides' median and quartiles, the pair count, the
pairs the change won (on the metric's ``better`` side) and every value;
``--trace-pairs`` adds the per-layer metrics of ``--trace 1`` runs the
same way.  It also holds the ``env`` line of the runs and both commit
ids.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result line, env line) of one perfbench/run.py process in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: list, declared: dict) -> dict:
    """Per metric: both sides' spread, the pair count, the change's wins, the values."""
    out = {}
    for name, spec in declared.items():
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent, change = (list(side) for side in zip(*pairs))
        lower = spec["better"] == "lower"
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "pairs": len(pairs),
            "wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "parent": spread(parent), "change": spread(change),
            "parent_values": parent, "change_values": change,
        }
    return out


def parse_counts(items: list) -> dict:
    counts = {}
    for item in items:
        name, _, n = item.partition("=")
        counts[name] = int(n)
    return counts


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--trace-pairs", action="append", default=[], metavar="WORKLOAD=N")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    plan = [(0, w, n) for w, n in parse_counts(args.pairs).items()]
    plan += [(1, w, n) for w, n in parse_counts(args.trace_pairs).items()]
    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    record = {"parent": commits["parent"], "change": commits["change"], "seconds": seconds,
              "env": None, "workloads": {}, "traced": {}}
    runs = {(trace, w): [] for trace, w, _ in plan}
    with tempfile.TemporaryDirectory(prefix="benchrecord-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for i in range(max(n for *_, n in plan)):
            for trace, workload, n in plan:
                if i >= n:
                    continue
                seed = 1 + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                result = {}
                for side in order:
                    result[side], env = run_once(trees[side], workload, seed, seconds, trace)
                    record["env"] = record["env"] or env
                    values = {k: v["value"] for k, v in result[side]["metrics"].items()}
                    print(f"{workload} trace={trace} pair {i + 1}/{n} {side}: "
                          + json.dumps(values), file=sys.stderr, flush=True)
                runs[trace, workload].append((result["parent"], result["change"]))
                done = runs[trace, workload]
                entry = {"correct": all(r["correct"] for pair in done for r in pair),
                         "failed": sum(r["failed"] for pair in done for r in pair),
                         "metrics": summary(done, per_layer if trace else end_to_end)}
                record["traced" if trace else "workloads"][workload] = entry
                args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
