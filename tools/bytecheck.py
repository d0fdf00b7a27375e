"""Byte check: hash everything a fixed list of CLI commands leaves behind.

    python tools/bytecheck.py OUTDIR

Runs each command with ``python -m spingap.cli``, importing the sources
under ``src/`` next to this script, in a fresh directory ``OUTDIR/NN``,
and prints one ``sha256  path`` line for each file it wrote, its stdout,
its stderr and its exit code (paths relative to OUTDIR).  In stderr each
Python warning from the package is cut to ``spingap/<module>.py:
<Category>Warning: ...``, without the checkout's path, the line number
and the source line printed under it, so that neither where the tree
lives nor an edit above the warning moves the hash.  The commands
are the README's ``spingap`` lines, the grids and gap-scans whose digests
``tests/test_cli.py`` pins, a longer ising-slow grid, three exports
refused by the dense cap, two exhaustive conductances refused by their
24-state cap, interval-cut conductances in all three spaces (one on a
signed table past the dense cap, one on the BEG N = 8 full space), three
full-space exports that go through ``metropolize`` (an ising one, a BEG
one in which a one-site move and the global flip reach the same state,
so their proposal masses merge, and a small-world warm-up one), an
unsigned one that goes through ``lumped_projection``, a signed naive
warm-up export and a small-world warm-up interval conductance on the
signed classes (an interval cut sums a table's flows in move order, so
it is where the layout of a warm-up table would show), three BEG grids
whose sectors outgrow ``DENSE_SECTOR_MAX`` and go to Lanczos iteration
(one of them at N = 120
and 200, sectors of thousands of states), the same cell at N = 300
(45,451 classes), a Lanczos gap-scan of the
double-peaked BEG cell beta = 2.5, K = 1.082, whose even lambda_1 lies
1.7e-4 (N = 40) to 2e-6 (N = 120) below the eigenvalue 1 that the
Lanczos shift moves, a BEG gap-scan whose beta and K change between
the stacks its class chains are built in, an Ising gap-scan whose N
run spans a dozen stacks, ``--jobs 2`` twins of
the README gap-scan and of the BEG naive gap-scan (the worker-pool
route), three chains that their model does not have or cannot build,
a warm-up and an ising-slow grid
in which every naive gap underflows, a beg-slow grid with too few
resolvable gaps to fit, a ``--deep`` cell outside its grid, two
failing beg-fast grids, a beg-fast grid that skips its double-peaked
cell and passes on the other, an ising unimodality scan that succeeds,
four profile scans and audits at N < 1, six audit grids that
repeat a value, three
``simulate`` step counts too large to hold, a fractional ``--steps`` and
``--burn-in``, a ``--thin`` in float notation, a negative ``--seed``, a
``--beta-k`` item without its ``:K`` or with an empty ``K``, a ``--beta``
item that is not a number, five commands that name a real-valued
option nan or inf (a single value, a list, a ``--beta-k`` pair and a
verifier's slope bar), six whose finite beta = 1e308 overflows the
log weights (an export, a conductance, a gap-scan, both profile scans
and a ``simulate`` run), three grids that overflow in their first stack
of class chains (an Ising gap-scan, a BEG gap-scan at K = 1e308 and a
beg-slow audit at beta = 1e308), ten deep grids whose downhill rates
underflow to subnormals or 0 (gap-scans of the Ising naive and
equi-energy and the BEG equi-energy chains and ising-slow audits at
beta = 400 and 1000, a beg-slow audit at beta = 300, K = 5, and an
ising-slow audit at beta = 1e5 whose every cut is -inf), and short ``simulate`` runs
of every (model, kind) with default, thinned and burn-in settings, most
with a trace.
After them it runs each script under ``demos/``, copied into its own
directory so that the ``out/`` it writes lands under OUTDIR; the copy
itself is not hashed.  Every command runs with one BLAS and OpenMP
thread, since byte identity holds only at a fixed BLAS thread count.

To compare two source trees, run a copy of this script from each tree
and diff the two manifests: every line that differs names an artifact,
stream or exit code that changed.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXTRA_COMMANDS = (
    "verify warmup --theta 2 --epsilon 0.3 --n 10..40..2",
    "verify ising-slow --beta 2 --n 10..60..2",
    "verify beg-slow --beta-k 3:5,1.5:2 --deep 3:5,1.5:2 --n 6..16..2",
    "gap-scan --model warmup --kind small-world --theta 2 --epsilon 0.3 --n 10..400..10",
    "gap-scan --model warmup --kind naive --theta 1.5 --n 10..60..10",
    "verify ising-slow --beta 2 --n 10..200..2",
    "export-kernel --model warmup --n 5000 --theta 2 --kind naive --space full",
    "export-kernel --space unsigned --model beg --n 400 --beta 1 --k 1",
    "export-kernel --space signed --model beg --n 200 --beta 1 --k 1 --kind naive",
    "conductance --model ising --n 12 --beta 1 --kind naive",
    "conductance --model beg --n 8 --beta 1 --k 1",
    "conductance --model beg --n 6 --beta 1 --k 1 --interval",
    "conductance --model ising --n 40 --beta 2 --space unsigned --interval",
    "conductance --model ising --n 60 --beta 2 --kind naive --space signed --interval",
    "conductance --model beg --n 200 --beta 1 --k 1 --kind naive --space signed --interval",
    "export-kernel --space full --model ising --n 6 --beta 1 --kind equi-energy",
    "export-kernel --space unsigned --model beg --n 20 --beta 1 --k 1",
    "export-kernel --space full --model beg --n 4 --beta 1 --k 1",
    "export-kernel --space full --model warmup --n 30 --theta 2 --epsilon 0.3",
    "export-kernel --space signed --model warmup --n 30 --theta 2 --kind naive",
    "conductance --model warmup --n 40 --theta 2 --epsilon 0.3 --kind small-world --space signed "
    "--interval",
    "conductance --model beg --n 8 --beta 1 --k 1 --interval",
    "verify beg-fast --beta-k 1:1 --n 30..80..10 --p1 0.5 --p2 0.25",
    "gap-scan --model beg --kind naive --beta 1.5 --k 2 --n 30..70..10 --jobs 1",
    "gap-scan --model beg --kind naive --beta 1.5 --k 2 --n 30..70..10 --jobs 2",
    "gap-scan --model beg --kind equi-energy --beta 1 --k 1 --n 120,200 --p1 0.5 --p2 0.25",
    "gap-scan --model beg --kind equi-energy --beta 1 --k 1 --n 300 --p1 0.5 --p2 0.25",
    "gap-scan --model beg --kind equi-energy --beta 2.5 --k 1.082 --n 40..120..40 "
    "--p1 0.5 --p2 0.25",
    "gap-scan --model ising --kind equi-energy --beta 2 --n 10..60..2 --p1 0.5 --p2 0.25 "
    "--out out/scan --jobs 2",
    "gap-scan --model beg --kind equi-energy --beta 0.5,1 --k 1,2 --n 6..16..2 --p1 0.5 --p2 0.25",
    "gap-scan --model ising --kind naive --beta 1.5 --n 10..400..10",
    "gap-scan --model ising --kind small-world --beta 1 --n 4",
    "simulate --model warmup --kind equi-energy --theta 2 --n 4 --steps 10",
    "gap-scan --model warmup --kind small-world --theta 2 --n 4",
    "verify warmup --theta 2 --epsilon 0.3 --n 8200,8300,8400",
    "verify ising-slow --beta 2 --n 100..200..10",
    "verify beg-slow --beta-k 1.5:2 --n 20..44..4",
    "verify beg-slow --beta-k 3:5 --deep 1:1 --n 6..10..2",
    "verify beg-fast --beta-k 1:1 --n 6..16..2 --slope-floor 0",
    "verify beg-fast --beta-k 1:1 --n 2..4..2",
    "verify beg-fast --beta-k 2.5:1.082,1:1 --n 6..16..2 --p1 0.5 --p2 0.25",
    "unimodality-scan --model ising --beta 0.5,2 --n 10..40..10",
    "unimodality-scan --model ising --beta 2 --n 0",
    "unimodality-scan --model ising --beta 2 --n -2",
    "unimodality-scan --model beg --beta-k 1:1 --n 0",
    "verify beg-fast --beta-k 1:1 --n 0,2,4",
    "verify ising-slow --beta 2 --n 10,10,10",
    "verify warmup --theta 2 --epsilon 0.3 --n 10,10,10",
    "verify beg-slow --beta-k 3:5 --n 6,6,6",
    "verify ising-fast --beta 0.5 --n 10,10,10,10,10,10",
    "verify beg-fast --beta-k 1:1 --n 6,6,6,6,6,6",
    "verify ising-fast --beta 0.5,0.5 --n 10..30..2",
    *(f"simulate --model ising --n 4 --beta 1 --steps {steps}"
      for steps in ("1e15", "1e20", "1e400")),
    *(f"simulate --model ising --n 4 --beta 1 {count}"
      for count in ("--steps 1.7", "--burn-in 0.5", "--steps 1e5 --thin 1e2", "--seed -1")),
    "verify beg-slow --beta-k 3",
    "verify beg-slow --beta-k 3:",
    "verify ising-slow --beta 0.5,x",
    "export-kernel --model ising --n 4 --beta nan",
    "simulate --model warmup --n 10 --theta nan --epsilon 0.3 --steps 2000",
    "conductance --model ising --n 4 --beta inf --interval --space signed",
    "unimodality-scan --model beg --beta-k nan:1 --n 5..10..5",
    "verify ising-slow --beta 2 --n 10..20..2 --slope-threshold nan",
    "export-kernel --model ising --n 4 --beta 1e308",
    "conductance --model ising --n 4 --beta 1e308 --interval --space signed",
    "gap-scan --model ising --beta 1e308 --n 10",
    "unimodality-scan --model ising --beta 1e308 --n 10..20..10",
    "unimodality-scan --model beg --beta-k 1e308:1 --n 5",
    "simulate --model ising --n 4 --beta 1e308 --steps 100",
    "gap-scan --model ising --beta 1e308 --n 10..30..10",
    "gap-scan --model beg --beta 1 --k 1e308 --n 6..12..2",
    "verify beg-slow --beta-k 1e308:1 --n 6..12..2",
    "gap-scan --model ising --kind naive --beta 400 --n 10..40..10",
    "gap-scan --model ising --kind equi-energy --beta 400 --n 10..40..10",
    "gap-scan --model beg --kind equi-energy --beta 400 --k 1 --n 6..12..2",
    "gap-scan --model ising --kind naive --beta 1000 --n 10..40..10",
    "gap-scan --model ising --kind equi-energy --beta 1000 --n 10..40..10",
    "gap-scan --model beg --kind equi-energy --beta 1000 --k 1 --n 6..12..2",
    "verify ising-slow --beta 400 --n 10..30..2",
    "verify ising-slow --beta 1000 --n 10..30..2",
    "verify beg-slow --beta-k 300:5 --n 6..16..2",
    "verify ising-slow --beta 1e5 --n 10..30..2",
    *(f"simulate {chain} --steps 20000 {variant}"
      for chain, observable in (
          ("--model ising --kind naive --n 20 --beta 1.2", "abs_mag"),
          ("--model ising --kind equi-energy --n 20 --beta 1.2 --p1 0.4 --p2 0.3", "abs_mag"),
          ("--model beg --kind naive --n 12 --beta 1 --k 1.5", "quad"),
          ("--model beg --kind equi-energy --n 12 --beta 1 --k 1.5", "quad"),
          ("--model warmup --kind naive --n 8 --theta 1.7", "abs_mag"),
          ("--model warmup --kind small-world --n 8 --theta 1.7 --epsilon 0.2", "abs_mag"))
      for variant in ("--seed 3",
                      "--seed 4 --thin 7 --burn-in 0 --trace",
                      f"--seed 5 --burn-in 1234 --observable {observable} --trace")),
)


def readme_commands() -> list[list[str]]:
    """The README's fenced ``spingap`` block, one argv per (joined) line."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```\n(spingap .*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


#: a warning as Python prints it: the source file and line, then the source line
WARNING = re.compile(rb"^[^\n]*/(spingap/\w+\.py):\d+: (\w*Warning: [^\n]*\n)(?:  [^\n]*\n)?",
                     re.M)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/bytecheck.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    env = {k: v for k, v in os.environ.items() if k != "SPINGAP_OUTDIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # a threaded BLAS may sum a dense eigensolve's blocks in another order:
    # BEG sectors of about 240-256 states then differ in the last bits
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # (command file text, interpreter arguments, demo script to copy or None)
    jobs = [(shlex.join(args), ["-m", "spingap.cli", *args], None)
            for args in readme_commands() + [line.split() for line in EXTRA_COMMANDS]]
    jobs += [(f"demos/{script.name}", [script.name], script)
             for script in sorted((ROOT / "demos").glob("*.py"))]
    for i, (label, args, script) in enumerate(jobs, start=1):
        run_dir = outdir / f"{i:02d}"
        run_dir.mkdir(parents=True)  # refuses a directory left by an earlier run
        if script:
            shutil.copy(script, run_dir)
        proc = subprocess.run([sys.executable, *args], cwd=run_dir, env=env,
                              capture_output=True)
        if script:
            (run_dir / script.name).unlink()
        (run_dir / "command").write_text(label + "\n")
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(WARNING.sub(rb"\1: \2", proc.stderr))
        (run_dir / "exit").write_text(f"{proc.returncode}\n")
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            print(f"{sha256(path)}  {path.relative_to(outdir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
