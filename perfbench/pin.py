"""Write reference.json: what every checked command must reproduce.

    PYTHONPATH=src python3 perfbench/pin.py

Run once on the commit whose output is the reference.  Each grid command
of every workload runs once in-process; its gap, lambda1, lambda_min and
underflow columns are stored under the command's text.  Each simulate
command gets the exact class-table mean of its observable instead.
"""

import json
import sys
import tempfile
from pathlib import Path

import spingap.cli
import spingap.models

import outputs
from workloads import WORKLOADS


def exact_mean(spec, observable: str) -> float:
    """Expectation of a class observable under the exact class table."""
    table = spingap.models.class_table(spec)
    value = {
        "quad": lambda c: c.r / spec.N,
        "mag": lambda c: c.sign * c.s / spec.N,
        "abs_mag": lambda c: c.s / spec.N,
    }[observable]
    return float(sum(p * value(c) for p, c in zip(table.probabilities(), table.classes)))


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                if cmd.key in reference:
                    continue
                if cmd.seeded:
                    model, kwargs, observable = cmd.exact
                    spec = getattr(spingap.models, model)(**kwargs)
                    reference[cmd.key] = exact_mean(spec, observable)
                    continue
                rc = spingap.cli.main(list(cmd.argv) + ["--out", tmp])
                if rc != 0:
                    raise SystemExit(f"exit {rc}: {cmd.key}")
                reference[cmd.key] = outputs.read_grid(Path(tmp) / cmd.artifact)
    lines = [f"{json.dumps(key)}: {json.dumps(rows)}" for key, rows in reference.items()]
    outputs.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(reference)} commands pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
