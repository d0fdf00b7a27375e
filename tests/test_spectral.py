import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy

from spingap import kernels, models, spectral
from spingap.kernels import (
    FiniteKernel,
    MoveTable,
    Partition,
    lumped_projection,
    metropolis_chain,
    partition_by,
    restrictions,
    signed_move_table,
    unsigned_lumped_chain,
    warmup_block_partition,
)
from spingap.models import beg, ising, warmup
from spingap.spectral import (
    HypothesisError,
    NonReversibleError,
    ReducibleChainError,
    Spectrum,
    avar_spectral,
    bd_path_bound,
    cheeger_interval,
    conductance_exact,
    decomposition_bound,
    gap,
    gershgorin_bound,
    interval_conductance,
    sector_spectrum,
    spectrum,
)

from oracles import (
    bd_table,
    dense_restriction,
    interval_conductance_reference,
    kernel_table,
    unsigned_class_partition,
)


def two_state(q, pi0=0.5):
    P = np.array([[1 - q, q], [q * pi0 / (1 - pi0), 1 - q * pi0 / (1 - pi0)]])
    return FiniteKernel(labels=(0, 1), log_pi=np.log([pi0, 1 - pi0]), P=P)


def symmetric_two_state(q):
    P = np.array([[1 - q, q], [q, 1 - q]])
    return FiniteKernel(labels=(0, 1), log_pi=np.zeros(2), P=P)


def random_reversible(n, seed):
    # symmetric positive flow matrix -> reversible kernel
    rng = np.random.default_rng(seed)
    F = rng.random((n, n)) + 0.1
    F = F + F.T
    rowsum = F.sum(axis=1)
    P = F / rowsum[:, None]
    return FiniteKernel(labels=tuple(range(n)), log_pi=np.log(rowsum), P=P)


# ---------------------------------------------------------------------------
# spectrum / gap
# ---------------------------------------------------------------------------

def test_two_state_closed_form():
    s = spectrum(symmetric_two_state(0.3))
    assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert s.eigenvalues[1] == pytest.approx(1 - 0.6, abs=1e-12)


def test_sign_chain_gap_is_p2():
    spec = ising(6, beta=1.3, p1=0.5, p2=0.2)
    M = metropolis_chain(spec, "equi-energy")
    states = models.enumerate_states(spec)
    S = states.sum(axis=1)
    block = np.flatnonzero(np.abs(S) == 4)
    R = kernels._unstack(*restrictions(M, partition_by(np.abs(S) == 4)))[1]
    signs = [1 if S[i] > 0 else -1 for i in block]
    H = lumped_projection(R, partition_by(signs)).to_kernel()
    s = spectrum(H)
    assert gap(s) == pytest.approx(spec.p2, abs=1e-12)


def test_hypercube_walk_spectrum():
    # naive chain at beta=0 is the plain hypercube walk: eigenvalues
    # 1 - 2k/N with binomial multiplicities
    N = 4
    spec = ising(N, beta=0.0)
    M = metropolis_chain(spec, "naive").to_kernel()
    s = spectrum(M)
    expected = np.concatenate(
        [[1 - 2 * k / N] * math.comb(N, k) for k in range(N + 1)]
    )
    assert np.allclose(np.sort(s.eigenvalues), np.sort(expected), atol=1e-10)
    # 1 - lambda_1 = 2/N; the walk is periodic so the two-sided gap is 0
    assert 1 - s.eigenvalues[1] == pytest.approx(2 / N, abs=1e-12)
    assert gap(s) == pytest.approx(0.0, abs=1e-12)


def test_spectrum_against_exact_rational_eigenvalues():
    # independent oracle: sympy rational eigenvalues of small matrices
    P = sympy.Matrix([
        [sympy.Rational(1, 2), sympy.Rational(1, 3), sympy.Rational(1, 6)],
        [sympy.Rational(1, 3), sympy.Rational(1, 2), sympy.Rational(1, 6)],
        [sympy.Rational(1, 6), sympy.Rational(1, 6), sympy.Rational(2, 3)],
    ])
    exact = []
    for val, mult in P.eigenvals().items():
        exact.extend([float(val)] * mult)
    K = FiniteKernel(labels=(0, 1, 2), log_pi=np.zeros(3),
                     P=np.array(P.tolist(), dtype=float))
    s = spectrum(K)
    assert np.allclose(np.sort(s.eigenvalues), np.sort(exact), atol=1e-12)


def test_spectrum_against_exact_birth_death():
    # nonuniform reversible 3-state chain, exact eigenvalues from sympy
    up = np.array([sympy.Rational(1, 3), sympy.Rational(1, 4), 0])
    down = np.array([0, sympy.Rational(1, 6), sympy.Rational(1, 2)])
    Pm = sympy.zeros(3)
    for i in range(3):
        if i < 2:
            Pm[i, i + 1] = up[i]
        if i > 0:
            Pm[i, i - 1] = down[i]
        Pm[i, i] = 1 - sum(Pm[i, j] for j in range(3) if j != i)
    exact = []
    for val, mult in Pm.eigenvals().items():
        exact.extend([float(val)] * mult)
    # stationary from detailed balance: pi = (1, 2, 1)
    bd = bd_table(up=[1 / 3, 1 / 4, 0.0], down=[0.0, 1 / 6, 1 / 2],
                  log_pi=np.log([1.0, 2.0, 1.0]))
    s = spectrum(bd.to_kernel())
    assert np.allclose(np.sort(s.eigenvalues), np.sort(exact), atol=1e-12)
    # and the sector route finds the same extremes
    exact = sorted(exact, reverse=True)
    sec = sector_spectrum(bd)
    assert sec.lambda1 == pytest.approx(exact[1], abs=1e-12)
    assert sec.lambda_min == pytest.approx(exact[-1], abs=1e-12)


def test_power_iteration_spot_check():
    # second eigenvalue by deflated power iteration on the symmetrization
    K = random_reversible(12, seed=3)
    s = spectrum(K)
    pi = K.stationary()
    A = spectral._symmetrize(K)
    v0 = np.sqrt(pi)
    rng = np.random.default_rng(0)
    x = rng.random(12)
    x -= (x @ v0) * v0
    lam = 0.0
    for _ in range(20000):
        y = A @ x
        y -= (y @ v0) * v0
        norm = np.linalg.norm(y)
        lam = x @ A @ x / (x @ x)
        x = y / norm
    # the iteration locks onto the dominant-in-modulus deflated eigenvalue
    assert abs(lam) == pytest.approx(max(s.eigenvalues[1], abs(s.eigenvalues[-1])), abs=1e-8)


def test_spectrum_invariant_under_state_reordering():
    K = random_reversible(9, seed=4)
    perm = np.random.default_rng(1).permutation(9)
    K2 = FiniteKernel(labels=tuple(K.labels[i] for i in perm),
                      log_pi=K.log_pi[perm], P=K.P[np.ix_(perm, perm)])
    s1 = spectrum(K)
    s2 = spectrum(K2)
    assert np.allclose(s1.eigenvalues, s2.eigenvalues, atol=1e-11)
    assert s1.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_spectrum_rejects_nonreversible():
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    K = FiniteKernel(labels=(0, 1, 2), log_pi=np.zeros(3), P=P)
    with pytest.raises(NonReversibleError):
        spectrum(K)


def test_spectrum_dimension_cap(monkeypatch):
    K = random_reversible(8, seed=1)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_STATES", 4)
    with pytest.raises(ValueError, match="dense materialization cap 4"):
        spectrum(K)


def test_gap_conventions():
    assert gap(Spectrum(eigenvalues=np.array([1.0, 0.5, -0.7]), dim=3)) == pytest.approx(0.3)
    assert gap(Spectrum(eigenvalues=np.array([1.0, 0.9, 0.1]), dim=3)) == pytest.approx(0.1)
    assert gap(Spectrum(eigenvalues=np.array([1.0]), dim=1)) == 1.0


# ---------------------------------------------------------------------------
# conductance and Cheeger
# ---------------------------------------------------------------------------

def test_conductance_two_state():
    h, members = conductance_exact(symmetric_two_state(0.3))
    assert h == pytest.approx(0.3, abs=1e-14)
    assert len(members) == 1


def test_conductance_uniform_chain():
    n = 7
    P = np.full((n, n), 1 / n)
    K = FiniteKernel(labels=tuple(range(n)), log_pi=np.zeros(n), P=P)
    h, members = conductance_exact(K)
    # A of size floor(n/2): h = |A^c|/n
    assert h == pytest.approx(math.ceil(n / 2) / n, abs=1e-14)
    assert len(members) == n // 2


@pytest.mark.parametrize("n,seed", [(5, 0), (8, 1), (10, 2)])
def test_conductance_matches_brute_force(n, seed):
    K = random_reversible(n, seed)
    h, members = conductance_exact(K)
    pi = K.stationary()
    Q = pi[:, None] * K.P
    best = math.inf
    for size in range(1, n):
        for A in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(A)] = True
            pA = pi[mask].sum()
            if pA > 0.5 * (1 + 1e-12):
                continue
            best = min(best, Q[np.ix_(mask, ~mask)].sum() / pA)
    assert h == pytest.approx(best, rel=1e-10)
    # the returned set realizes the minimum
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    assert Q[np.ix_(mask, ~mask)].sum() / pi[mask].sum() == pytest.approx(h, rel=1e-10)


def test_conductance_cap():
    K = random_reversible(25, seed=0)
    with pytest.raises(ValueError):
        conductance_exact(K)


def test_warmup_conductance_bound():
    # the half-line cut certifies h <= pi(0)/(1 - pi(0))
    spec = warmup(5, theta=2.0)
    M = metropolis_chain(spec, "naive").to_kernel()
    h, _ = conductance_exact(M)
    pi = M.stationary()
    p0 = pi[spec.N]
    assert h <= p0 / (1 - p0) + 1e-15


def test_interval_conductance_upper_bounds_exact():
    for seed in range(3):
        K = random_reversible(9, seed=seed)
        h, _ = conductance_exact(K)
        hi, _ = interval_conductance(kernel_table(K))
        assert hi >= h - 1e-12
    # on a birth-death chain the bottleneck cut is an interval: equality
    spec = warmup(6, theta=2.0)
    M = metropolis_chain(spec, "naive")
    h, _ = conductance_exact(M.to_kernel())
    hi, cut = interval_conductance(M)
    assert hi == pytest.approx(h, rel=1e-10)


INTERVAL_CHAINS = {
    "ising-full": lambda: metropolis_chain(ising(8, beta=1.0), "naive"),
    "beg-full": lambda: metropolis_chain(beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                         "equi-energy"),
    "warmup-full": lambda: metropolis_chain(warmup(12, theta=2.0, epsilon=0.3), "small-world"),
    "ising-40-signed": lambda: kernels.signed_move_table(ising(40, beta=2.0), "naive"),
    "ising-60-signed": lambda: kernels.signed_move_table(ising(60, beta=2.0), "naive"),
    "warmup-30-signed": lambda: kernels.signed_move_table(warmup(30, theta=2.0), "naive"),
    "beg-20-signed": lambda: kernels.signed_move_table(beg(20, beta=1.5, K=2.0), "naive"),
    "ising-40-unsigned": lambda: kernels.unsigned_lumped_chain(ising(40, beta=2.0), "naive"),
    "beg-10-unsigned": lambda: kernels.unsigned_lumped_chain(
        beg(10, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy"),
    **{f"random-{n}-{seed}": (lambda n=n, seed=seed: kernel_table(random_reversible(n, seed)))
       for n, seed in ((9, 0), (9, 1), (40, 2))},
}


@pytest.mark.parametrize("name", sorted(INTERVAL_CHAINS))
def test_interval_conductance_matches_exact_sum_reference(name):
    # each cut's flow against its crossing moves summed with math.fsum
    chain = INTERVAL_CHAINS[name]()
    ref = interval_conductance_reference(chain)
    bound, _ = interval_conductance(chain)
    assert ref >= 1e-10  # each chain here is resolvable
    assert abs(bound - ref) <= 1e-10 * ref


@pytest.mark.parametrize("name", ["ising-60-signed", "warmup-30-signed", "beg-20-signed"])
def test_interval_conductance_table_and_dense_agree(name):
    # the dense chain read back as its off-diagonal nonzeros in row-major order
    table = INTERVAL_CHAINS[name]()
    bound, _ = interval_conductance(table)
    dense = kernel_table(table.to_kernel())
    assert interval_conductance(dense)[0] == pytest.approx(bound, rel=1e-14)


def test_cheeger_interval_values():
    assert cheeger_interval(0.5) == (0.0, 0.875)
    assert cheeger_interval(0.0) == (1.0, 1.0)
    assert cheeger_interval(1.0) == (-1.0, 0.5)
    with pytest.raises(ValueError):
        cheeger_interval(1.5)


@pytest.mark.parametrize("kernel_fn", [
    lambda: symmetric_two_state(0.4),
    lambda: random_reversible(6, 5),
    lambda: random_reversible(11, 6),
    lambda: metropolis_chain(warmup(5, theta=2.0, epsilon=0.3), "small-world").to_kernel(),
    lambda: metropolis_chain(ising(4, beta=1.0, p1=0.5, p2=0.25), "equi-energy").to_kernel(),
])
def test_cheeger_sandwich(kernel_fn):
    K = kernel_fn()
    h, _ = conductance_exact(K)
    lam1 = spectrum(K).eigenvalues[1]
    lo, hi = cheeger_interval(h)
    assert lo - 1e-10 <= lam1 <= hi + 1e-10


# ---------------------------------------------------------------------------
# decomposition bound
# ---------------------------------------------------------------------------

def test_decomposition_trivial_partition():
    K = random_reversible(6, seed=7)
    parts = Partition(block=np.zeros(6, dtype=np.intp), labels=("all",))
    b = decomposition_bound(kernel_table(K), parts)
    g = gap(spectrum(K))
    assert b.value == pytest.approx(g / 2, abs=1e-12)
    assert g >= b.value - 1e-10


def test_decomposition_warmup_partition():
    spec = warmup(4, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, "small-world")
    b = decomposition_bound(M, warmup_block_partition(spec))
    assert gap(spectrum(M.to_kernel())) >= b.value - 1e-10
    assert b.value > 0


def test_decomposition_ising_energy_partition():
    spec = ising(8, beta=2.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    b = decomposition_bound(M, unsigned_class_partition(spec))
    assert gap(spectrum(M.to_kernel())) >= b.value - 1e-10
    assert b.value > 0


def _quadrupole_rows(table):
    """The partition of a BEG class table by its quadrupole row r."""
    return partition_by([r for _, r in table.labels])


def _decomposition_case(case):
    if case == "warmup-40":
        spec = warmup(40, theta=2.0, epsilon=0.3)
        return metropolis_chain(spec, "small-world"), warmup_block_partition(spec)
    if case == "beg-20-signed":
        table = signed_move_table(beg(20, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    else:
        table = unsigned_lumped_chain(beg(20, beta=1.5, K=2.0, p1=0.5, p2=0.25), "equi-energy")
    return table, _quadrupole_rows(table)


@pytest.mark.parametrize("case", ["beg-20-signed", "beg-20-unsigned", "warmup-40"])
def test_decomposition_bound_matches_the_dense_route(case):
    table, parts = _decomposition_case(case)
    # the dense route: the projection and each restriction made dense and fully solved
    gap_H = gap(spectrum(lumped_projection(table, parts).to_kernel()))
    kernel = table.to_kernel()
    gaps = [gap(spectrum(dense_restriction(kernel, block))) for block in parts.blocks]
    b = decomposition_bound(table, parts)
    assert b.projection_gap == pytest.approx(gap_H, abs=1e-12)
    assert np.allclose(b.restriction_gaps, gaps, rtol=0, atol=1e-12)
    assert b.value == pytest.approx(0.5 * gap_H * min(gaps), abs=1e-12)


def test_decomposition_bound_past_the_dense_cap(monkeypatch):
    table = signed_move_table(beg(130, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    assert table.n == 8646 > kernels.DEFAULT_MAX_STATES

    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition bound made a chain dense")

    monkeypatch.setattr(MoveTable, "to_kernel", refuse)
    monkeypatch.setattr(spectral, "spectrum", refuse)
    b = decomposition_bound(table, _quadrupole_rows(table))
    assert math.isfinite(b.value) and b.value > 0
    assert len(b.restriction_gaps) == 131


def test_decomposition_bound_solves_its_restrictions_in_runs_of_the_stack_budget(monkeypatch):
    # BEG N = 60 by quadrupole row: 1891 states in 61 blocks of 1..61 states,
    # so the restrictions outgrow one run of STACK_STATES states
    table = signed_move_table(beg(60, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    parts = _quadrupole_rows(table)
    assert (table.n, parts.m) == (1891, 61) and table.n > spectral.STACK_STATES
    want = decomposition_bound(table, parts)
    runs = []
    real = spectral._stack_spectra

    def recorded(stack, sizes):
        runs.append(list(sizes))
        return real(stack, sizes)

    monkeypatch.setattr(spectral, "_stack_spectra", recorded)
    assert decomposition_bound(table, parts) == want
    # the projection first, alone; then the blocks in order, a run at a time
    projection, *runs = runs
    assert projection == [parts.m]
    assert [n for run in runs for n in run] == np.bincount(parts.block).tolist()
    assert len(runs) > 1 and max(len(run) for run in runs) > 1
    assert all(sum(run) <= spectral.STACK_STATES or len(run) == 1 for run in runs)


PINNED_BOUNDS = """import hashlib
from spingap import (beg, decomposition_bound, ising, signed_move_table, warmup,
                     warmup_block_partition)
from spingap.kernels import partition_by

def quadrupole_rows(N):
    table = signed_move_table(beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    return table, partition_by([r for _, r in table.labels])

spec = warmup(2000, theta=2.0, epsilon=0.3)
ising_table = signed_move_table(ising(2000, beta=2.0, p1=0.5, p2=0.25), "equi-energy")
for table, parts in (quadrupole_rows(300),
                     (signed_move_table(spec, "small-world"), warmup_block_partition(spec)),
                     quadrupole_rows(126),
                     (ising_table, partition_by([s >= 0 for s in ising_table.labels]))):
    print(hashlib.sha256(repr(decomposition_bound(table, parts)).encode()).hexdigest())
"""


def test_decomposition_bound_keeps_its_pinned_bits():
    # BEG N = 300 and 126 by quadrupole row (301 and 127 blocks), the
    # warm-up N = 2000 small-world chain by warmup_block_partition, and
    # Ising N = 2000 split into S < 0 and S >= 0: the sha256 of each
    # bound's repr, at one BLAS thread (the dense sector solves follow
    # the thread count in their last bits)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(spectral.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PINNED_BOUNDS], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [
        "a489ca33c9e314f796bec8efdbd0d797e8626deac865fa92ff68161ed402de37",
        "4afdf0cbc5395ad5deee0e577c1c4fd4e41eae63b62aa59bcd15cfa3abda3c32",
        "54cbd1dfbd216d81528b9667909db05884630f073925cdc008ca14cb4e0c2a75",
        "6fb6b2c933c82f89cfe4ce15b4403b265a9f2c1ee0cd4afa9dfe4952e70e7780",
    ]


# ---------------------------------------------------------------------------
# birth-death path bound, Gershgorin
# ---------------------------------------------------------------------------

def test_bd_path_bound_symmetric_walk():
    bd = bd_table(up=[0.5, 0.5, 0.0], down=[0.0, 0.5, 0.5], log_pi=np.zeros(3))
    ev = bd_path_bound(bd, A=1.5, q=1.0, B=1.0, k=1)
    assert ev.hypotheses_ok
    assert ev.value == pytest.approx(1 - 1.5 / 27)
    lam1 = sector_spectrum(bd).lambda1
    assert ev.value >= lam1 - 1e-12


def test_bd_path_bound_violation_names_pair():
    # weights dip in the middle: not B-unimodal around any peak at k=2
    bd = bd_table(up=[0.2, 0.2, 0.0], down=[0.0, 0.2, 0.2], log_pi=np.log([1.0, 0.01, 1.0]))
    with pytest.raises(HypothesisError, match="monotone-up"):
        bd_path_bound(bd, A=0.6, q=1.0, B=2.0, k=2)
    ev = bd_path_bound(bd, A=0.6, q=1.0, B=2.0, k=2, strict=False)
    assert not ev.hypotheses_ok
    assert "monotone-up" in ev.detail


def test_bd_path_bound_rate_violation():
    bd = bd_table(up=[0.5, 1e-6, 0.0], down=[0.0, 0.5, 0.5], log_pi=np.zeros(3))
    with pytest.raises(HypothesisError, match="up rate at index 1"):
        bd_path_bound(bd, A=1.5, q=1.0, B=1.0, k=1)


def test_bd_path_bound_ising_projection_strong_beta():
    # at N=4, beta=2 the rate hypothesis genuinely fails (the e^{2beta(1-i)/N}
    # factor undercuts A n^{-q} at i=N for small N); the bound value is
    # still the substituted 1 - (p1/16)(N/2+1)^{-3}
    spec = ising(4, beta=2.0, p1=0.5, p2=0.25)
    bd = unsigned_lumped_chain(spec, "equi-energy")
    k = int(np.argmax(bd.log_pi))
    ev = bd_path_bound(bd, A=spec.p1 / 8, q=1.0, B=2.0, k=k, strict=False)
    assert ev.value == pytest.approx(1 - 0.5 / 16 / 27, rel=1e-12)
    assert not ev.hypotheses_ok
    with pytest.raises(HypothesisError):
        bd_path_bound(bd, A=spec.p1 / 8, q=1.0, B=2.0, k=k)


def test_bd_path_bound_ising_projection_mild_beta():
    spec = ising(10, beta=0.5, p1=0.5, p2=0.25)
    bd = unsigned_lumped_chain(spec, "equi-energy")
    k = int(np.argmax(bd.log_pi))
    ev = bd_path_bound(bd, A=spec.p1 / 8, q=1.0, B=2.0, k=k)
    assert ev.hypotheses_ok
    lam1 = sector_spectrum(bd).lambda1
    assert ev.value >= lam1 - 1e-12


def test_gershgorin_cases():
    ident = bd_table(up=np.zeros(2), down=np.zeros(2), log_pi=np.zeros(2))
    assert gershgorin_bound(ident) == pytest.approx(1.0)
    flip = bd_table(up=[1.0, 0.0], down=[0.0, 1.0], log_pi=np.zeros(2))
    assert gershgorin_bound(flip) == pytest.approx(-1.0)
    spec = ising(8, beta=1.0, p1=0.5, p2=0.25)
    bd = unsigned_lumped_chain(spec, "equi-energy")
    b = gershgorin_bound(bd)
    assert b >= 1 - spec.p1 - 1e-14  # up+down never exceeds p1/2
    lam_min = sector_spectrum(bd).lambda_min
    assert lam_min >= b - 1e-10


def test_gershgorin_bound_on_a_table_that_is_not_birth_death():
    table = unsigned_lumped_chain(beg(8, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    kernel = table.to_kernel()
    assert gershgorin_bound(table) == pytest.approx(-1 + 2 * np.diag(kernel.P).min(), abs=1e-15)
    assert spectrum(kernel).eigenvalues[-1] >= gershgorin_bound(table) - 1e-12


def test_bd_path_bound_refuses_a_table_that_is_not_birth_death():
    table = unsigned_lumped_chain(beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    with pytest.raises(ValueError, match="birth-death"):
        bd_path_bound(table, A=0.1, q=1.0, B=2.0, k=0)
    signed = signed_move_table(ising(6, beta=1.0, p1=0.5, p2=0.25), "equi-energy")
    with pytest.raises(ValueError, match="birth-death"):
        bd_path_bound(signed, A=0.1, q=1.0, B=2.0, k=3)


def reference_bd_path_violation(up, down, lp, A, q, B, k):
    """The hypothesis checks of the path bound, one state at a time."""
    n = len(lp)
    threshold = A * float(n) ** (-q)
    logB, tol = math.log(B), 1e-12
    rates = [("up", i, up[i]) for i in range(n - 1)] + [("down", i, down[i]) for i in range(1, n)]
    for name, i, rate in rates:
        if rate < threshold * (1 - 1e-12):
            return f"{name} rate at index {i} is {rate:.6g} < A n^-q = {threshold:.6g}"
    run_max = -math.inf
    for j in range(k + 1):
        run_max = max(run_max, lp[j])
        if run_max > logB + lp[j] + tol:
            i = int(np.argmax(lp[: j + 1]))
            return f"monotone-up condition fails: pi({i}) > B pi({j}) left of the peak k={k}"
    run_max = -math.inf
    for i in range(n - 1, k - 1, -1):
        run_max = max(run_max, lp[i])
        if run_max > logB + lp[i] + tol:
            j = int(k + np.argmax(lp[k:]))
            return f"monotone-down condition fails: pi({j}) > B pi({i}) right of the peak k={k}"
    return None


def test_bd_path_bound_matches_the_state_by_state_checks():
    rng = np.random.default_rng(3)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 9))
        up = np.append(rng.uniform(0.0, 0.5, n - 1), 0.0)
        down = np.insert(rng.uniform(0.0, 0.5, n - 1), 0, 0.0)
        lp = rng.normal(0.0, 1.0, n)
        k = int(rng.integers(0, n))
        A = float(rng.choice([0.0, 0.2, 1.0]))
        want = reference_bd_path_violation(up, down, lp, A, 1.0, 2.0, k)
        ev = bd_path_bound(bd_table(up, down, lp), A=A, q=1.0, B=2.0, k=k, strict=False)
        assert ev.detail == want
        assert ev.hypotheses_ok == (want is None)
        seen.add(None if want is None else want.split()[0])
    assert seen == {None, "up", "down", "monotone-up", "monotone-down"}


# ---------------------------------------------------------------------------
# out-of-range states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subset", [[-11, -10], [11], [0, 11]])
def test_cut_refuses_states_outside_the_table(subset):
    table = signed_move_table(ising(10, beta=1.0), "naive")
    assert table.n == 11
    with pytest.raises(ValueError, match=r"0\.\.10"):
        spectral.cut_bottleneck_log(table, subset)


@pytest.mark.parametrize("log_pi", [(0.0, math.inf, 0.0), (math.nan, 0.0, math.nan),
                                    (-math.inf, 0.0, -math.inf), (0.0, -math.inf, 0.0)])
def test_log_weights_that_are_not_all_finite_are_refused_by_name(log_pi):
    table = bd_table([0.5, 0.25, 0.0], [0.0, 0.25, 0.5], log_pi)
    table = MoveTable(**{**vars(table), "flip": np.array([2, 1, 0])})
    parts = Partition(block=np.array([0, 0, 1]), labels=(0, 1))
    calls = (lambda: sector_spectrum(table), lambda: decomposition_bound(table, parts),
             lambda: interval_conductance(table), lambda: spectral.cut_bottleneck_log(table, [0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^a move table's log weights are not all finite$"):
                call()


# ---------------------------------------------------------------------------
# asymptotic variance
# ---------------------------------------------------------------------------

def test_avar_two_state_closed_form():
    # f = (+1,-1), lambda_1 = 1-2q: AVar = (1+lam)/(1-lam); q=0.25 -> 3.0
    res = avar_spectral(symmetric_two_state(0.25), [1.0, -1.0])
    assert res.avar == pytest.approx(3.0, rel=1e-12)
    assert res.avar <= res.gap_bound + 1e-12
    assert res.variance == pytest.approx(1.0, rel=1e-12)


def test_avar_constant_observable():
    res = avar_spectral(symmetric_two_state(0.25), [2.0, 2.0])
    assert res.degenerate
    assert res.avar == 0.0


def test_avar_reducible_chain():
    ident = FiniteKernel(labels=(0, 1), log_pi=np.zeros(2), P=np.eye(2))
    with pytest.raises(ReducibleChainError):
        avar_spectral(ident, [1.0, -1.0])


def test_avar_gap_bound_holds_on_grid():
    rng = np.random.default_rng(11)
    for seed in range(4):
        K = random_reversible(8, seed=20 + seed)
        f = rng.standard_normal(8)
        res = avar_spectral(K, f)
        assert res.avar <= res.gap_bound * (1 + 1e-10)
