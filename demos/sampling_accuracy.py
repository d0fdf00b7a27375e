"""Trajectory sampling beyond matrix scale, with its accounting.

At N in the hundreds no matrix exists; the samplers walk the chain with
O(1) statistics updates.  This script runs the orbit-jump sampler on a
bimodal Ising target where the single-flip sampler would be stuck,
checks a trajectory average against the exact class-table expectation,
reconciles batch-means and spectral asymptotic variance on a small
chain, and shows the per-step cost accounting (direct O(N) orbit draws
vs the sequential ball-placement scheme billed at O(n k)).
"""

import math

import numpy as np

from spingap import (
    RunConfig,
    avar_spectral,
    batch_means_avar,
    bose_einstein_sample,
    class_table,
    cost_profile,
    ising,
    metropolis_chain,
    run_estimate,
)
from spingap.models import enumerate_states
from spingap.sampling import simulate_kernel

# --- large-N estimate against the exact table ------------------------------
spec = ising(100, beta=2.0, p1=0.5, p2=0.25)
table = class_table(spec)
exact = sum(p * c.s / spec.N for p, c in zip(table.probabilities(), table.classes))
cfg = RunConfig(steps=300_000, seed=42, observable="abs_mag")
stats = run_estimate(spec, "equi-energy", cfg)
se = math.sqrt(stats.batch_means_avar / stats.n_samples)
print(f"N=100, beta=2: E|S|/N exact = {exact:.6f}")
print(f"  trajectory estimate = {stats.estimate:.6f} +- {se:.6f} "
      f"({stats.n_samples} samples)")
print(f"  acceptance rates: " + ", ".join(
    f"{k}={v['rate']:.3f}" for k, v in stats.acceptance.items() if v["proposed"]))

prof = cost_profile(stats)
print(f"  mean ops/step {prof.mean_ops_per_step:.1f} (direct draws), "
      f"{prof.mean_ops_sequential_per_step:.1f} (sequential billing), "
      f"ratio to N: {prof.ops_per_step_over_N:.2f}")

# --- batch means vs spectral asymptotic variance ----------------------------
small = ising(6, beta=1.5, p1=0.5, p2=0.25)
M = metropolis_chain(small, "equi-energy").to_kernel()
f = enumerate_states(small).sum(axis=1) / small.N
res = avar_spectral(M, f)
rng = np.random.default_rng(7)
traj = simulate_kernel(M.P, 500_000, rng)
bm = batch_means_avar(f[traj])
print(f"\nN=6 magnetization observable:")
print(f"  spectral AVar = {res.avar:.4f} (gap bound {res.gap_bound:.4f})")
print(f"  batch-means AVar = {bm:.4f} from 5e5 steps")

# --- the sequential placement scheme ----------------------------------------
rng = np.random.default_rng(0)
print("\nBose-Einstein draws, 8 balls in 4 boxes (uniform over compositions):")
for _ in range(5):
    print("  ", [int(v) for v in bose_einstein_sample(8, 4, rng)])
