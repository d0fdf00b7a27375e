"""Reach table: the exact gap of the BEG reach cell, timed stage by stage.

    python tools/reach.py N [N ...]

For each N, in a fresh interpreter with one BLAS and OpenMP thread that
imports the sources under ``src/`` next to this script, it builds the
signed class chain of BEG beta = 1, K = 1, equi-energy with p1 = 0.5 and
p2 = 0.25 (``kernels.signed_move_table``), assembles its flip sectors
(one ``spectral._flip_sectors`` call) and solves each sector (one
``spectral._sector_extremes`` call each).  It prints one markdown row of
the ROADMAP reach table per N: classes, moves, the build, assembly and
two solve times (single ``time.perf_counter`` readings), the peak
``ru_maxrss`` of the interpreter, gap * N, and the first 16 hex digits of
a sha256 over the sector arrays: the dtype and bytes of both sectors'
values (and CSR indices and indptr) and of sqrt(pi).  Two source trees
that give the same digest assembled the same sectors bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEADER = ("| N | classes | moves | table | assembly | even sector | odd sector | peak RSS "
          "| gap·N | sectors sha256 |\n|---|---|---|---|---|---|---|---|---|---|")


def row(N: int) -> str:
    """The reach-table row of one N, measured in this interpreter."""
    # scipy's solvers are imported before the clock starts, as in a long run,
    # so that no stage is billed for the import
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    from spingap import kernels, spectral
    from spingap.models import beg

    t0 = time.perf_counter()
    table = kernels.signed_move_table(beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    t1 = time.perf_counter()
    ((even, odd, root),) = spectral._flip_sectors(table, [table.n])
    t2 = time.perf_counter()
    ends, solves = [], []
    for M, u in ((even, root), (odd, None)):
        start = time.perf_counter()
        ends.append(spectral._sector_extremes(M, u))
        solves.append(time.perf_counter() - start)
    gap = spectral.SectorSpectrum(even_lambda1=ends[0][0], odd_lambda1=ends[1][0],
                                  lambda_min=min(ends[0][1], ends[1][1]), dim=table.n).gap
    digest = hashlib.sha256()
    for x in (*(M if isinstance(M, tuple) else (M.data, M.indices, M.indptr)
                for M in (even, odd)), (root,)):
        for a in x:
            digest.update(a.dtype.str.encode())
            digest.update(a.tobytes())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"| {N} | {table.n} | {len(table.rows)} | {t1 - t0:.2f} s | {t2 - t1:.2f} s "
            f"| {solves[0]:.2f} s | {solves[1]:.2f} s | {rss:.0f} MB | {gap * N:.4f} "
            f"| {digest.hexdigest()[:16]} |")


def main(argv: list[str]) -> int:
    if not argv or not all(a.isdigit() and int(a) > 0 for a in argv):
        print("usage: python tools/reach.py N [N ...]", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    print(HEADER, flush=True)
    for N in argv:
        proc = subprocess.run([sys.executable, "-c", f"import reach; print(reach.row({int(N)}))"],
                              cwd=Path(__file__).parent, env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(proc.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
