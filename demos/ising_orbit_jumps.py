"""Mean-field Ising: single-flip Metropolis vs orbit jumps.

Below the critical temperature (beta > 1) the magnetization histogram
is bimodal and the single-flip chain takes exponentially long to cross
S = 0.  Adding jumps that stay inside the current energy level (uniform
resampling of the signed class, plus the global flip x -> -x) makes the
gap polynomial in 1/N for every beta.

Everything here is exact: the chains are reduced to their signed
magnetization classes (N+1 states), whose spectra are subsets of the
full 2^N-state spectra.
"""

import pathlib

import numpy as np

from spingap import (
    bd_path_bound,
    gap,
    gershgorin_bound,
    ising,
    ising_fast_bound,
    sector_spectrum,
    signed_lumped_chain,
    spectrum,
    unsigned_lumped_chain,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

p1, p2 = 0.5, 0.25
print(f"p1 = {p1}, p2 = {p2}")
for beta in (0.5, 2.0):
    print(f"\nbeta = {beta}")
    print(f"{'N':>4} {'gap naive':>12} {'gap orbit-jump':>15} {'theorem bound':>14}")
    naive_pts, fast_pts = [], []
    for N in range(10, 121, 10):
        g_naive = gap(spectrum(signed_lumped_chain(ising(N, beta=beta), "naive")))
        spec = ising(N, beta=beta, p1=p1, p2=p2)
        g_fast = gap(spectrum(signed_lumped_chain(spec, "equi-energy")))
        bound = ising_fast_bound(N, p1, p2)
        print(f"{N:>4} {g_naive:>12.3e} {g_fast:>15.3e} {bound:>14.3e}")
        if g_naive > 1e-12:
            naive_pts.append((N, g_naive))
        fast_pts.append((N, g_fast))
    tag = str(beta).replace(".", "p")
    with open(OUT / f"ising_gap_naive_beta{tag}.dat", "w") as fh:
        fh.writelines(f"{N} {g:.17g}\n" for N, g in naive_pts)
    with open(OUT / f"ising_gap_orbitjump_beta{tag}.dat", "w") as fh:
        fh.writelines(f"{N} {g:.17g}\n" for N, g in fast_pts)

# the projection onto |S| is a birth-death chain with closed-form rates;
# its path bound gives the N^-3 estimate behind the theorem
spec = ising(40, beta=0.5, p1=p1, p2=p2)
bd = unsigned_lumped_chain(spec, "equi-energy")
k = int(np.argmax(bd.log_pi))  # the peak of pi, first on ties
ev = bd_path_bound(bd, A=p1 / 8, q=1.0, B=2.0, k=k)
s = sector_spectrum(bd)
lam1 = s.lambda1
print(f"\n|S|-projection at N=40, beta=0.5:")
print(f"  path bound lambda_1 <= {ev.value:.8f} (hypotheses ok: {ev.hypotheses_ok})")
print(f"  exact lambda_1       = {lam1:.8f}")
print(f"  Gershgorin floor lambda_min >= {gershgorin_bound(bd):.4f} "
      f"(exact {s.lambda_min:.4f})")

# at strong coupling and small N the path-bound hypotheses genuinely
# fail (the down-rates dip under the A n^-q floor); the record says so
spec_hard = ising(4, beta=2.0, p1=p1, p2=p2)
bd_hard = unsigned_lumped_chain(spec_hard, "equi-energy")
ev_hard = bd_path_bound(bd_hard, A=p1 / 8, q=1.0, B=2.0,
                        k=int(np.argmax(bd_hard.log_pi)), strict=False)
print(f"\nN=4, beta=2: bound value {ev_hard.value:.6f}, "
      f"hypotheses ok: {ev_hard.hypotheses_ok}")
print(f"  violation: {ev_hard.detail}")
