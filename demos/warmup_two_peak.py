"""Two-peak warm-up chain: why the local walk stalls and reflections fix it.

The target on {-N..N} puts weight theta^|x| on each state, so almost all
mass sits at the two endpoints.  The +-1 walk has to cross the valley at
0; mixing it with an occasional reflection x -> -x teleports across.
This script computes exact spectra for both chains, locates the
bottleneck with the exact conductance, and evaluates the decomposition
lower bound on the reflected chain.

Writes gap-vs-N series to demos/out/ and prints a short table.
"""

import math
import pathlib

from spingap import (
    cheeger_interval,
    conductance_exact,
    decomposition_bound,
    gap,
    metropolis_chain,
    spectrum,
    warmup,
    warmup_block_partition,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

theta, eps = 2.0, 0.3

print(f"theta = {theta}, epsilon = {eps}")
print(f"{'N':>4} {'gap naive':>12} {'gap reflected':>14} {'gap*N^2':>10}")
rows = []
for N in range(5, 61, 5):
    spec = warmup(N, theta=theta, epsilon=eps)
    g_naive = gap(spectrum(metropolis_chain(spec, "naive").to_kernel()))
    g_fast = gap(spectrum(metropolis_chain(spec, "small-world").to_kernel()))
    rows.append((N, g_naive, g_fast))
    print(f"{N:>4} {g_naive:>12.3e} {g_fast:>14.3e} {g_fast * N * N:>10.3f}")

with open(OUT / "warmup_gap_naive.dat", "w") as fh:
    for N, g, _ in rows:
        if g > 1e-12:
            fh.write(f"{N} {g:.17g}\n")
with open(OUT / "warmup_gap_reflected.dat", "w") as fh:
    for N, _, g in rows:
        fh.write(f"{N} {g:.17g}\n")

# the bottleneck of the naive chain is the cut at zero, and the exact
# conductance matches the half-line bound pi(0)/(1 - pi(0))
spec = warmup(8, theta=theta, epsilon=eps)
M = metropolis_chain(spec, "naive").to_kernel()
h, members = conductance_exact(M)
pi = M.stationary()
print(f"\nN=8 naive conductance h = {h:.3e}")
print(f"half-line bound pi(0)/(1-pi(0)) = {pi[spec.N] / (1 - pi[spec.N]):.3e}")
print(f"minimizing set: {sorted(M.labels[i] for i in members)}")
lo, hi = cheeger_interval(h)
lam1 = spectrum(M).eigenvalues[1]
print(f"Cheeger sandwich: {lo:.6f} <= lambda_1 = {lam1:.6f} <= {hi:.6f}")

# decomposition bound on the reflected chain: blocks {-1,0,1}, {-i,i}
Mf = metropolis_chain(spec, "small-world")
b = decomposition_bound(Mf, warmup_block_partition(spec))
print(f"\nreflected chain: Gap = {gap(spectrum(Mf.to_kernel())):.4f} >= "
      f"decomposition bound {b.value:.4f}")
print(f"  projection gap {b.projection_gap:.4f}, "
      f"worst block gap {b.min_restriction_gap:.4f}")
print(f"naive gap decays like theta^-N = {theta}^-N "
      f"(slope {math.log(theta):.3f} per site)")
