"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; nothing defers to later calibration.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from spingap import kernels, models, verify
from spingap.cli import main as cli_main
from spingap.kernels import (
    beg_lumped,
    ising_lumped_bd,
    metropolis_chain,
    partition_by,
    restrictions,
    signed_lumped_chain,
    equi_energy_proposal,
    warmup_block_partition,
)
from spingap.models import EnergyClass, beg, ising, warmup
from spingap.sampling import batch_means_avar, simulate_kernel
from spingap.spectral import (
    avar_spectral,
    cheeger_interval,
    conductance_exact,
    decomposition_bound,
    gap,
    spectrum,
)

import oracles
from oracles import (
    bd_kernel,
    beg_rate_discrepancies,
    check_kernel,
    kernel_table,
    sample_uniform_class,
    signed_class_keys,
    unsigned_class_partition,
)


def _report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_kernel_correctness():
    # stochasticity +-1e-12, detailed balance +-1e-12 relative, and
    # within-orbit proposals accepted with probability one
    grids = [(ising(N, beta=1.5, p1=0.5, p2=0.25), ("naive", "equi-energy"))
             for N in (2, 4, 6, 8)]
    grids += [(beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25), ("naive", "equi-energy"))
              for N in (2, 4, 6)]
    for spec, kinds in grids:
        for kind in kinds:
            M = metropolis_chain(spec, kind).to_kernel()
            check_kernel(M, 1e-12)
            if kind == "equi-energy":
                K = equi_energy_proposal(spec).to_kernel()
                keys = signed_class_keys(spec)
                same = np.equal.outer(keys, keys) if spec.kind == "ising" else \
                    np.array([[a == b for b in keys] for a in keys])
                np.fill_diagonal(same, False)
                assert np.array_equal(M.P[same], K.P[same])  # acceptance = 1
                neg = kernels._negation_indices(spec, K.n)
                s_of = np.array([k if spec.kind == "ising" else k[0] for k in keys])
                nz = np.flatnonzero(s_of != 0)
                assert np.array_equal(M.P[nz, neg[nz]], K.P[nz, neg[nz]])
    _report(1, "kernel correctness")


def test_criterion_02_lumping_oracle_equivalence():
    # the unsigned projections derived from the signed move table match
    # direct lumping of the full Metropolis matrix to 1e-12; the hand-tabulated beg rate list deviates only at
    # entries annotated as documented errata (direct values adopted)
    for N in (2, 4, 6, 8, 10, 12):
        spec = ising(N, beta=2.0, p1=0.5, p2=0.25)
        assert oracles.unsigned_lumping_deviation(spec) < 1e-12
    for N in (2, 4, 6, 8):
        spec = beg(N, beta=1.5, K=3.0, p1=0.5, p2=0.25)
        assert oracles.unsigned_lumping_deviation(spec) < 1e-12
        disc = beg_rate_discrepancies(spec)
        unexplained = [d for d in disc if d.annotated is None]
        assert unexplained == [], f"unannotated rate mismatches: {unexplained}"
        if N >= 6:
            assert disc, "known defective entries must surface in the report"
    _report(2, "lumping oracle equivalence")


def test_criterion_03_signed_lumping_containment():
    # every lumped eigenvalue appears in the full spectrum within 1e-8;
    # Gap(lumped) >= Gap(full) - 1e-10; agreement recorded per cell
    agreements = {}
    for N in (2, 4, 6, 8, 10, 12):
        rec = oracles.signed_containment(ising(N, beta=2.0, p1=0.5, p2=0.25),
                                         "equi-energy")
        assert rec["hausdorff_one_sided"] <= 1e-8
        assert rec["gap_lumped_dominates"]
        agreements[("ising", "equi-energy", N)] = rec["gaps_agree"]
    for N in (2, 4, 6, 8, 10):
        rec = oracles.signed_containment(ising(N, beta=1.5), "naive")
        assert rec["hausdorff_one_sided"] <= 1e-8
        assert rec["gap_lumped_dominates"]
        agreements[("ising", "naive", N)] = rec["gaps_agree"]
    for N in (2, 4, 6):
        for kind in ("naive", "equi-energy"):
            rec = oracles.signed_containment(
                beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25), kind)
            assert rec["hausdorff_one_sided"] <= 1e-8
            assert rec["gap_lumped_dominates"]
            agreements[("beg", kind, N)] = rec["gaps_agree"]
    print("\n  gap agreement by cell:", agreements)
    _report(3, "signed-lumping spectral containment")


def _cheeger_grid():
    yield metropolis_chain(warmup(6, theta=2.0, epsilon=0.3), "small-world").to_kernel()
    yield metropolis_chain(warmup(8, theta=1.5), "naive").to_kernel()
    yield metropolis_chain(ising(4, beta=1.0, p1=0.5, p2=0.25), "equi-energy").to_kernel()
    yield metropolis_chain(ising(4, beta=2.5), "naive").to_kernel()
    yield signed_lumped_chain(ising(20, beta=2.0, p1=0.5, p2=0.25), "equi-energy")
    yield signed_lumped_chain(ising(22, beta=0.5), "naive")
    yield beg_lumped(beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25)).to_kernel()
    yield signed_lumped_chain(beg(4, beta=1.5, K=2.0, p1=0.5, p2=0.25), "equi-energy")
    yield bd_kernel(ising_lumped_bd(ising(24, beta=1.0, p1=0.5, p2=0.25)))


def test_criterion_04_cheeger_sandwich():
    count = 0
    for K in _cheeger_grid():
        assert K.n <= 24
        h, _ = conductance_exact(K)
        lam1 = spectrum(K).eigenvalues[1]
        lo, hi = cheeger_interval(h)
        assert lo - 1e-10 <= lam1 <= hi + 1e-10, f"sandwich failed at {K.n} states"
        assert h * h / 2 - 1e-10 <= 1 - lam1 <= 2 * h + 1e-10
        count += 1
    assert count >= 9
    _report(4, "Cheeger sandwich")


def test_criterion_05_decomposition_bound_audit():
    pairs = 0

    def audit(table, parts):
        nonlocal pairs
        b = decomposition_bound(table, parts)
        g = gap(spectrum(table.to_kernel()))
        assert g >= b.value - 1e-10
        pairs += 1

    # the warming-up partition A_1 = {-1,0,1}, A_i = {+-i}
    for N in (4, 6, 8):
        for eps in (0.2, 0.3):
            spec = warmup(N, theta=2.0, epsilon=eps)
            audit(metropolis_chain(spec, "small-world"), warmup_block_partition(spec))
    # energy partitions of the full spin chains
    for N in (4, 6, 8):
        for beta in (0.5, 2.0):
            spec = ising(N, beta=beta, p1=0.5, p2=0.25)
            audit(metropolis_chain(spec, "equi-energy"), unsigned_class_partition(spec))
    # sign partitions of restricted orbit chains
    spec = ising(6, beta=1.3, p1=0.5, p2=0.2)
    M = metropolis_chain(spec, "equi-energy")
    states = models.enumerate_states(spec)
    S = states.sum(axis=1)
    for i in (2, 4, 6):
        block = np.flatnonzero(np.abs(S) == i)
        R = kernels._unstack(*restrictions(M, partition_by(np.abs(S) == i)))[1]
        signs = [1 if S[j] > 0 else -1 for j in block]
        audit(R, partition_by(signs))
    # beg: full-space energy partition and the quadrupole-row partition
    for (beta_, K_) in ((1.0, 1.0), (1.5, 2.0)):
        bspec = beg(4, beta=beta_, K=K_, p1=0.5, p2=0.25)
        audit(metropolis_chain(bspec, "equi-energy"), unsigned_class_partition(bspec))
    for N in (6, 8):
        bspec = beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25)
        bar = beg_lumped(bspec)
        keys = [1 if (s, r) in ((0, 0), (1, 1)) else r for s, r in bar.labels]
        audit(bar, partition_by(keys))
    # generic random reversible chains with index partitions
    rng = np.random.default_rng(0)
    for seed in range(3):
        F = rng.random((9, 9)) + 0.05
        F = F + F.T
        P = F / F.sum(axis=1, keepdims=True)
        Kr = kernels.FiniteKernel(labels=tuple(range(9)),
                                  log_pi=np.log(F.sum(axis=1)), P=P)
        audit(kernel_table(Kr), partition_by([i % 3 for i in range(9)]))
    assert pairs >= 20
    print(f"\n  audited {pairs} (kernel, partition) pairs")
    _report(5, "decomposition bound audit")


def test_criterion_06_ising_fast_theorem():
    Ns = list(range(10, 201, 2))
    rep = verify.verify_ising_fast([0.5, 1.0, 2.0, 4.0], Ns, 0.5, 0.25)
    assert rep.passed, rep.failures
    for beta, n0 in rep.summary["N0"].items():
        assert n0 is not None, f"no N0 found for beta={beta}"
        assert n0 <= 20, f"N0={n0} for beta={beta} exceeds the expected 20"
    _report(6, "ising fast-mixing theorem audit")


def test_criterion_07_ising_slow_reproduction():
    rep = verify.verify_ising_slow([2.0], list(range(10, 61, 2)))
    assert rep.passed, rep.failures
    fit = dict(rep.fits)["semilog-gap-beta=2.0"]
    assert fit.ci_hi < -0.05
    _report(7, "ising slow-mixing reproduction")


def test_criterion_08_warmup_chain():
    rep = verify.verify_warmup(2.0, 0.3, list(range(10, 201, 2)))
    assert rep.passed, rep.failures
    assert rep.summary["inf_gap_N2"] > 0
    fits = dict(rep.fits)
    assert fits["loglog-gapN2-tail"].ci_lo >= -0.1
    assert fits["semilog-naive-gap"].ci_hi <= -math.log(2.0) + 0.1
    _report(8, "warming-up chain")


def test_criterion_09_beg_phase_behavior():
    # deep cells: (3,5) via the log-space cut route (all gaps underflow
    # at that depth), (1.5,2) via the stated eigensolve fit; fast cell
    # (1,1) with unimodal row profile
    Ns_slow = list(range(6, 25, 2))
    rep = verify.verify_beg_slow([(3.0, 5.0), (1.5, 2.0)], Ns_slow,
                                 deep=[(3.0, 5.0), (1.5, 2.0)])
    assert rep.passed, rep.failures
    deep_cells = [r for r in rep.records if r.cell["beta"] == 3.0]
    assert all(r.values["underflow"] for r in deep_cells)
    fits = dict(rep.fits)
    assert fits["semilog-2hcut-beta=3.0-K=5.0"].ci_hi < -0.05
    assert fits["semilog-gap-beta=1.5-K=2.0"].ci_hi < -0.05

    Ns_fast = list(range(6, 31, 2))
    rep2 = verify.verify_beg_fast([(1.0, 1.0)], Ns_fast, 0.5, 0.25)
    assert rep2.passed, rep2.failures
    fit = dict(rep2.fits)["loglog-gap-beta=1.0-K=1.0"]
    assert fit.ci_lo >= -6.25
    _report(9, "beg phase behavior")


def test_criterion_10_bose_einstein_sampler():
    # exact uniformity of the placement scheme by path enumeration
    for n, k in ((2, 2), (3, 3), (5, 2), (4, 4), (5, 5)):
        dist = Counter()

        def recurse(occ, t, prob):
            if t == n:
                dist[tuple(occ)] += prob
                return
            for b in range(k):
                occ[b] += 1
                recurse(occ, t + 1, prob * occ[b] / (t + k))
                occ[b] -= 1

        recurse([0] * k, 0, 1.0)
        expected = 1.0 / math.comb(n + k - 1, k - 1)
        assert len(dist) == math.comb(n + k - 1, k - 1)
        for p in dist.values():
            assert abs(p - expected) <= 1e-12
    # chi-square uniformity over the 56 states of the N=8 class (2,+)
    spec = ising(8, beta=1.0)
    rng = np.random.default_rng(20)
    c = EnergyClass(2, None, 1)
    counts = Counter()
    for _ in range(100_000):
        x = sample_uniform_class(spec, c, rng, method="sequential")
        counts[tuple(int(v) for v in x)] += 1
    assert len(counts) == 56
    res = sps.chisquare(np.array(list(counts.values())))
    assert res.pvalue > 0.001
    _report(10, "Bose-Einstein sampler")


def test_criterion_11_avar_consistency():
    # two-state chain: spectral AVar = 3.0; batch means within 4 SE
    P2 = np.array([[0.75, 0.25], [0.25, 0.75]])
    K2 = kernels.FiniteKernel(labels=(0, 1), log_pi=np.zeros(2), P=P2)
    res2 = avar_spectral(K2, [1.0, -1.0])
    assert res2.avar == pytest.approx(3.0, rel=1e-12)
    assert res2.avar <= res2.gap_bound
    rng = np.random.default_rng(21)
    traj = simulate_kernel(P2, 1_000_000, rng)
    est = batch_means_avar(np.where(traj == 0, 1.0, -1.0))
    se = res2.avar * math.sqrt(2.0 / math.isqrt(1_000_000))
    assert abs(est - res2.avar) <= 4 * se

    # small ising chain, f = S/N
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy").to_kernel()
    states = models.enumerate_states(spec)
    f = states.sum(axis=1) / spec.N
    res = avar_spectral(M, f)
    assert res.avar <= res.gap_bound
    traj = simulate_kernel(M.P, 1_000_000, rng)
    est = batch_means_avar(f[traj])
    se = res.avar * math.sqrt(2.0 / math.isqrt(1_000_000))
    assert abs(est - res.avar) <= 4 * se
    _report(11, "asymptotic variance consistency")


def test_criterion_12_unimodality_scans():
    Ns = list(range(4, 51, 2))
    rep = verify.ising_profile_scan([0.5, 2.0], Ns)
    assert rep.n0["0.5"] is not None and rep.n0["0.5"] <= 50
    assert rep.n0["2.0"] is not None and rep.n0["2.0"] <= 50
    for s in rep.series:
        if s.params["beta"] == 0.5 and s.params["N"] >= rep.n0["0.5"]:
            assert s.monotone_decreasing
        if s.params["beta"] == 2.0 and s.params["N"] >= rep.n0["2.0"]:
            assert s.unimodal
    # beg profiles over a grid including the N=15 figure-style outputs
    brep = verify.beg_unimodality_scan(
        [(1.0, 1.0), (2.5, 1.082), (3.0, 5.0), (1.0, 0.5)], [10, 15, 20])
    n15 = [s for s in brep.series if s.params["N"] == 15]
    assert len(n15) == 4
    assert all(len(s.x) == 16 for s in n15)
    by_cell = {(s.params["beta"], s.params["K"]): s.unimodal for s in n15}
    assert by_cell[(2.5, 1.082)] is False  # double peak near the boundary
    assert by_cell[(1.0, 1.0)] is True
    _report(12, "unimodality scans")


def test_criterion_13_determinism(tmp_path):
    def run_twice(argv):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / (argv[0] + tag)
            assert cli_main(argv + ["--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    run_twice(["simulate", "--model", "ising", "--n", "12", "--beta", "2",
               "--p1", "0.5", "--p2", "0.25", "--steps", "3e4", "--seed", "7",
               "--observable", "abs_mag", "--trace"])
    run_twice(["gap-scan", "--model", "beg", "--kind", "naive", "--beta", "1",
               "--k", "1", "--n", "6..12..2"])
    run_twice(["verify", "warmup", "--theta", "2", "--epsilon", "0.3",
               "--n", "10..30..2"])
    run_twice(["unimodality-scan", "--model", "beg", "--beta-k", "1:1", "--n", "15"])
    _report(13, "determinism")
