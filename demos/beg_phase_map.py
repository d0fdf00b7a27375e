"""Blume-Emery-Griffiths model: phase structure, slow cells, fast cells.

The three-letter model carries two statistics (magnetization S and
quadrupole R = number of nonzero spins).  Its large-deviation rate
function has two symmetric minimizers when K exceeds a beta-dependent
threshold that tends to ~1.082; there the single-move chain collapses
exponentially.  Orbit jumps restore polynomial mixing wherever the
quadrupole row-weight profile q(r) is single-peaked.

The script maps rate-function minimizers over a grid, draws q(r)
profiles at N=15 (single- and double-peaked), and compares naive vs
orbit-jump gaps.  Exact gaps come from the signed (S, R)-class chains;
cells too deep for float64 are bounded through the negative-side cut
evaluated in log space.
"""

import math
import pathlib

from spingap import (
    beg,
    beg_lumped,
    beg_row_log_profile,
    gap,
    is_unimodal,
    rate_function_argmin,
    signed_lumped_chain,
    signed_move_table,
    spectrum,
)
from spingap.verify import _negative_side_cut_log

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

print("rate-function minimizers (0 = single phase):")
print(f"{'beta':>6} {'K':>6} {'z*':>9}")
for beta in (0.5, 1.0, 2.0, 3.0):
    for K in (0.5, 1.0, 1.2, 2.0, 5.0):
        zs = rate_function_argmin(beta, K)
        print(f"{beta:>6} {K:>6} {zs[-1]:>9.4f}")

print("\nq(r) profiles at N=15 (log scale, written to demos/out/):")
for beta, K in ((1.0, 1.0), (2.5, 1.082), (3.0, 5.0), (1.0, 0.5)):
    prof = beg_row_log_profile(15, beta, K)
    shape = "single peak" if is_unimodal(prof) else "double peak"
    print(f"  beta={beta}, K={K}: {shape}")
    tagb = str(beta).replace(".", "p")
    tagk = str(K).replace(".", "p")
    with open(OUT / f"beg_qprofile_beta{tagb}_K{tagk}_N15.dat", "w") as fh:
        fh.writelines(f"{r} {v:.17g}\n" for r, v in enumerate(prof))

print("\nnaive vs orbit-jump gaps:")
p1, p2 = 0.5, 0.25
print(f"{'beta':>5} {'K':>5} {'N':>4} {'gap naive':>12} {'gap orbit-jump':>15}")
for beta, K in ((1.0, 1.0), (1.5, 2.0)):
    for N in (8, 16, 24):
        g_naive = gap(spectrum(signed_lumped_chain(beg(N, beta=beta, K=K), "naive")))
        spec = beg(N, beta=beta, K=K, p1=p1, p2=p2)
        g_fast = gap(spectrum(signed_lumped_chain(spec, "equi-energy")))
        print(f"{beta:>5} {K:>5} {N:>4} {g_naive:>12.3e} {g_fast:>15.3e}")

# (3,5) sits so deep in the two-phase region that every float64 gap
# underflows; the cut bound gap <= 2h is still exact in log space
print("\ndeep cell (beta,K)=(3,5): log10 of the cut bound on the naive gap")
for N in (6, 12, 18, 24):
    spec = beg(N, beta=3.0, K=5.0)
    log2h = _negative_side_cut_log(signed_move_table(spec, "naive"))
    print(f"  N={N}: gap <= 10^{log2h / math.log(10):.1f}")

# the projection onto unsigned classes drives the fast-mixing estimate
spec = beg(20, beta=1.0, K=1.0, p1=p1, p2=p2)
bar = beg_lumped(spec).to_kernel()
print(f"\nunsigned projection at N=20, (beta,K)=(1,1): "
      f"{bar.n} classes, gap = {gap(spectrum(bar)):.4e}")
