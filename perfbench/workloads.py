"""The benchmark's workloads: CLI command lists run closed-loop, one caller.

A cycle runs a workload's commands in order, each one starting when the
previous one returns.  Grid commands are deterministic; every simulate
command takes its ``--seed`` from the benchmark seed and the cycle number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Command:
    argv: tuple                      # CLI arguments, without --out and --seed
    artifact: str                    # the file whose rows are checked
    label: str = ""                  # sampler run label used in metric names
    steps: int = 0                   # simulate steps (0 for grid commands)
    exact: Optional[tuple] = None    # simulate: (model, spec kwargs, observable)

    @property
    def key(self) -> str:
        """The command's entry in reference.json."""
        return " ".join(self.argv)

    @property
    def seeded(self) -> bool:
        return self.argv[0] == "simulate"


@dataclass(frozen=True)
class Workload:
    commands: tuple
    warmup: tuple                    # run once before timing, never recorded


def _grid(line: str, artifact: str) -> Command:
    return Command(argv=tuple(line.split()), artifact=artifact)


def _verify(line: str) -> Command:
    return _grid("verify " + line, "report.csv")


def _scan(line: str) -> Command:
    return _grid("gap-scan " + line + " --jobs 1", "gaps.csv")


def _simulate(line: str, label: str, steps: int, exact: tuple) -> Command:
    argv = tuple(f"simulate {line} --steps {steps}".split())
    return Command(argv=argv, artifact="runstats.json", label=label, steps=steps,
                   exact=exact)


BEG_N30 = dict(N=30, beta=1.0, K=1.0, p1=0.5, p2=0.25)
BEG_N1000 = dict(N=1000, beta=1.0, K=1.0, p1=0.5, p2=0.25)
ISING_N1000 = dict(N=1000, beta=0.5)

WORKLOADS = {
    # dense O(n^3) eigensolves on BEG signed chains up to 3321 states; every
    # naive gap sits under the 1e-12 floor, so the underflow path runs too
    "beg-dense": Workload(
        commands=(
            _verify("beg-fast --beta-k 1:1 --n 30..80..10 --p1 0.5 --p2 0.25"),
            _scan("--model beg --kind naive --beta 1.5 --k 2 --n 30..70..10"),
        ),
        warmup=(
            _verify("beg-fast --beta-k 1:1 --n 6..16..2 --p1 0.5 --p2 0.25"),
            _scan("--model beg --kind naive --beta 1.5 --k 2 --n 10..20..10"),
        ),
    ),
    # the README audit grids: hundreds of small cells, where Python chain
    # construction and projection outweigh the eigensolves
    "audit-readme": Workload(
        commands=(
            _verify("ising-fast --beta 0.5,1,2,4 --n 10..200..2 --p1 0.5 --p2 0.25"),
            _verify("warmup --theta 2 --epsilon 0.3 --n 10..200..2"),
            _verify("beg-slow --beta-k 3:5,1.5:2 --deep 3:5,1.5:2 --n 6..24..2"),
            _verify("beg-fast --beta-k 1:1 --n 6..30..2 --p1 0.5 --p2 0.25"),
            _scan("--model ising --kind equi-energy --beta 2 --n 10..60..2 "
                  "--p1 0.5 --p2 0.25"),
            _verify("ising-slow --beta 2 --n 10..120..2"),
        ),
        warmup=(
            _verify("ising-fast --beta 0.5,2 --n 10..30..2 --p1 0.5 --p2 0.25"),
            _verify("warmup --theta 2 --epsilon 0.3 --n 10..30..2"),
            _verify("ising-slow --beta 2 --n 10..40..2"),
        ),
    ),
    # the only workload that steps the samplers: the trace sink and CSV
    # writing dominate the N=30 run, flips and O(N) orbit draws the N=1000 runs
    "sampler": Workload(
        commands=(
            # the README command with 1e5 steps in place of 1e6
            _simulate("--model beg --n 30 --beta 1 --k 1 --p1 0.5 --p2 0.25 "
                      "--observable quad --trace", "beg-n30", 100_000,
                      ("beg", BEG_N30, "quad")),
            # thinning stretches each batch-means batch past ten thousand
            # steps, several autocorrelation times at N=1000
            _simulate("--model beg --n 1000 --beta 1 --k 1 --p1 0.5 --p2 0.25 "
                      "--observable quad --thin 300", "beg-n1000", 400_000,
                      ("beg", BEG_N1000, "quad")),
            _simulate("--model ising --kind naive --n 1000 --beta 0.5 "
                      "--observable mag --thin 300", "ising-n1000", 400_000,
                      ("ising", ISING_N1000, "mag")),
        ),
        warmup=(
            _simulate("--model beg --n 30 --beta 1 --k 1 --p1 0.5 --p2 0.25 "
                      "--observable quad --trace", "beg-n30", 10_000,
                      ("beg", BEG_N30, "quad")),
            _simulate("--model ising --kind naive --n 1000 --beta 0.5 "
                      "--observable mag", "ising-n1000", 10_000,
                      ("ising", ISING_N1000, "mag")),
        ),
    ),
}

SAMPLER_LABELS = tuple(c.label for c in WORKLOADS["sampler"].commands)
