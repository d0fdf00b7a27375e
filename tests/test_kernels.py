import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spingap import kernels, models
from spingap.kernels import (
    BirthDeathChain,
    FiniteKernel,
    MoveTable,
    Partition,
    SupportError,
    beg_lumped,
    equi_energy_proposal,
    export_kernel_text,
    ising_lumped_bd,
    lumped_projection,
    metropolis_chain,
    metropolize,
    partition_by,
    restrictions,
    signed_lumped_chain,
    signed_move_table,
    single_flip_proposal,
    small_world_proposal,
    unsigned_lumped_chain,
    warmup_block_partition,
)
from spingap.models import beg, ising, warmup

from oracles import (
    bd_detailed_balance_error,
    bd_kernel,
    beg_lumped_tabulated,
    beg_rate_discrepancies,
    check_kernel,
    dense_restriction,
    kernel_table,
    log_binom,
    negation_indices,
    row_sum_error,
    signed_class_keys,
    stack,
    unsigned_class_partition,
    unsigned_lumping_deviation,
)


def two_state(pi0, q01, q10):
    P = np.array([[1 - q01, q01], [q10, 1 - q10]])
    return FiniteKernel(labels=(0, 1), log_pi=np.log([pi0, 1 - pi0]), P=P)


# ---------------------------------------------------------------------------
# metropolize
# ---------------------------------------------------------------------------

def test_metropolize_uniform_target_keeps_symmetric_proposal():
    rng = np.random.default_rng(0)
    A = rng.random((5, 5))
    A = 0.4 * (A + A.T) / 5.0  # symmetric, rows well below 1
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, 1 - A.sum(axis=1))
    prop = FiniteKernel(labels=tuple(range(5)), log_pi=np.zeros(5), P=A)
    check_kernel(prop, 1e-12)
    M = metropolize(kernel_table(prop), np.zeros(5)).to_kernel()
    assert np.allclose(M.P, A, atol=1e-15)


def test_metropolize_two_state_hand_value():
    # target (2/3, 1/3), symmetric flip-prob 1: M(0,1)=1/2, M(1,0)=1
    prop = FiniteKernel(labels=(0, 1), log_pi=np.zeros(2),
                        P=np.array([[0.0, 1.0], [1.0, 0.0]]))
    M = metropolize(kernel_table(prop), np.log([2 / 3, 1 / 3])).to_kernel()
    assert M.P[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert M.P[1, 0] == pytest.approx(1.0, abs=1e-15)
    check_kernel(M, 1e-12)


def test_metropolize_beta_zero_is_plain_walk():
    spec = ising(4, beta=0.0)
    M = metropolis_chain(spec, "naive").to_kernel()
    walk = single_flip_proposal(spec).to_kernel()
    assert np.allclose(M.P, walk.P, atol=1e-15)


def test_metropolize_idempotent_on_target_reversible_chains():
    # a chain already reversible for the target has acceptance = 1
    spec = ising(6, beta=1.5, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    again = metropolize(M, M.log_pi)
    assert np.allclose(again.to_kernel().P, M.to_kernel().P, atol=1e-14)


def test_metropolize_rejects_asymmetric_support():
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    prop = FiniteKernel(labels=(0, 1, 2), log_pi=np.zeros(3), P=P)
    with pytest.raises(SupportError):
        metropolize(kernel_table(prop), np.zeros(3))


def test_every_chain_builder_refuses_log_weights_that_are_not_finite():
    table = metropolis_chain(ising(4, beta=1.0), "naive")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="log weights .* not all finite"):
            metropolize(table, np.concatenate([[bad], table.log_pi[1:]]))
    # beta S^2 / 2N overflows in the class tables' weights as in the full space's
    for spec in (ising(4, beta=1e308), beg(4, beta=1.0, K=1e308)):
        with pytest.raises(ValueError, match="log weights .* not all finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            signed_move_table(spec, "naive")


def test_metropolize_refuses_a_table_out_of_row_major_order():
    # each reverse move is found by binary search, which needs sorted keys
    table = metropolis_chain(ising(4, beta=1.0), "naive")
    order = np.argsort(table.cols, kind="stable")
    shuffled = dataclasses.replace(table, rows=table.rows[order], cols=table.cols[order],
                                   vals=table.vals[order])
    with pytest.raises(ValueError, match="row-major with one move per pair"):
        metropolize(shuffled, table.log_pi)
    repeated = dataclasses.replace(table, rows=np.repeat(table.rows, 2),
                                   cols=np.repeat(table.cols, 2), vals=np.repeat(table.vals, 2))
    with pytest.raises(ValueError, match="row-major with one move per pair"):
        metropolize(repeated, table.log_pi)


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def test_single_flip_ising_small():
    spec = ising(2, beta=1.0)
    K = single_flip_proposal(spec).to_kernel()
    i = K.labels.index((1, 1))
    a = K.labels.index((-1, 1))
    b = K.labels.index((1, -1))
    assert K.P[i, a] == pytest.approx(0.5)
    assert K.P[i, b] == pytest.approx(0.5)
    assert K.P[i].sum() == pytest.approx(1.0)


def test_single_flip_beg_wraparound():
    # x_j = 1 plus-move wraps to -1; x_j = -1 minus-move wraps to +1
    spec = beg(2, beta=1.0, K=1.0)
    K = single_flip_proposal(spec).to_kernel()
    x = K.labels.index((1, 0))
    targets = {
        (-1, 0): 0.25,  # 1+1 = 2 -> -1
        (0, 0): 0.25,   # 1-1 = 0
        (1, 1): 0.25,   # 0+1
        (1, -1): 0.25,  # 0-1
    }
    for lbl, p in targets.items():
        assert K.P[x, K.labels.index(lbl)] == pytest.approx(p)


def test_single_flip_warmup_boundaries():
    spec = warmup(3, theta=2.0)
    K = single_flip_proposal(spec).to_kernel()
    assert K.P[0, 0] == pytest.approx(0.5)
    assert K.P[0, 1] == pytest.approx(0.5)
    mid = K.labels.index(0)
    assert K.P[mid, mid - 1] == pytest.approx(0.5)
    assert K.P[mid, mid + 1] == pytest.approx(0.5)


def test_equi_energy_proposal_masses():
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    K = equi_energy_proposal(spec).to_kernel()
    x = K.labels.index((1, 1, 1, -1))   # S = 2
    minus_x = K.labels.index((-1, -1, -1, 1))
    assert K.P[x, minus_x] == pytest.approx(spec.p2, abs=1e-15)
    # same signed class but two flips away: only the orbit-jump mass
    y = K.labels.index((1, 1, -1, 1))
    assert K.P[x, y] == pytest.approx((1 - 0.5 - 0.25) / 4, abs=1e-15)
    # single-flip neighbor outside the class: only the local mass
    z = K.labels.index((1, 1, 1, 1))
    assert K.P[x, z] == pytest.approx(0.5 / 4, abs=1e-15)
    # S = 0 class: (1-p1)/C(4,2) between distinct members
    a = K.labels.index((1, 1, -1, -1))
    b = K.labels.index((1, -1, 1, -1))
    assert K.P[a, b] == pytest.approx((1 - 0.5) / 6, abs=1e-15)


def test_equi_energy_within_class_acceptance_is_one():
    # metropolize must leave orbit-jump and global-flip entries unchanged
    spec = ising(6, beta=2.0, p1=0.4, p2=0.3)
    table = equi_energy_proposal(spec)
    M = metropolize(table, models.log_weights_all(spec)).to_kernel()
    K = table.to_kernel()
    states = models.enumerate_states(spec)
    S = states.sum(axis=1)
    same_class = np.equal.outer(S, S)
    np.fill_diagonal(same_class, False)
    assert np.allclose(M.P[same_class], K.P[same_class], atol=1e-15)
    neg = negation_indices(spec)
    nz = S != 0
    assert np.allclose(M.P[np.flatnonzero(nz), neg[nz]],
                       K.P[np.flatnonzero(nz), neg[nz]], atol=1e-15)


def test_small_world_proposal_masses():
    spec = warmup(5, theta=2.0, epsilon=0.2)
    K = small_world_proposal(spec).to_kernel()
    x = K.labels.index(3)
    assert K.P[x, K.labels.index(-3)] == pytest.approx(0.2)
    assert K.P[x, K.labels.index(2)] == pytest.approx(0.4)
    assert K.P[x, K.labels.index(4)] == pytest.approx(0.4)
    zero = K.labels.index(0)
    assert K.P[zero, zero] == pytest.approx(0.2)  # reflection folds into holding
    with pytest.raises(ValueError, match="^small-world chain needs epsilon$"):
        small_world_proposal(warmup(5, theta=2.0))


# ---------------------------------------------------------------------------
# stochasticity + detailed balance over the acceptance grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 4, 6, 8])
@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_ising_kernels_valid(N, kind):
    spec = ising(N, beta=1.5, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, kind).to_kernel()
    check_kernel(M, 1e-12)


@pytest.mark.parametrize("N", [2, 4, 6])
@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_beg_kernels_valid(N, kind):
    spec = beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, kind).to_kernel()
    check_kernel(M, 1e-12)


@pytest.mark.parametrize("kind", ["naive", "small-world"])
def test_warmup_kernels_valid(kind):
    spec = warmup(8, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, kind).to_kernel()
    check_kernel(M, 1e-12)


# ---------------------------------------------------------------------------
# lumped projection / restriction
# ---------------------------------------------------------------------------

def test_lumped_projection_one_block():
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    parts = Partition(block=np.zeros(M.n, dtype=np.intp), labels=("all",))
    H = lumped_projection(M, parts).to_kernel()
    assert H.P.shape == (1, 1)
    assert H.P[0, 0] == pytest.approx(1.0)


def test_lumped_projection_singletons_gives_lazy_chain():
    spec = warmup(4, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, "small-world")
    parts = Partition(block=np.arange(M.n), labels=tuple(range(M.n)))
    H = lumped_projection(M, parts).to_kernel()
    assert np.allclose(H.P, 0.5 * (M.to_kernel().P + np.eye(M.n)), atol=1e-14)


def test_lumped_projection_preserves_measure_and_reversibility():
    spec = beg(4, beta=1.2, K=0.8, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    parts = unsigned_class_partition(spec)
    H = lumped_projection(M, parts).to_kernel()
    check_kernel(H, 1e-12)
    pi = M.to_kernel().stationary()
    pushforward = np.array([pi[b].sum() for b in parts.blocks])
    assert np.allclose(H.stationary(), pushforward, atol=1e-12)


def test_restriction_whole_space_is_identity_operation():
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    R = kernels._unstack(*restrictions(M, partition_by([0] * M.n)))[0]
    assert np.allclose(R.to_kernel().P, M.to_kernel().P, atol=0)


def test_restriction_signed_class_is_lazy_uniform():
    # restricted chain on a signed class: (1-p1-p2) * uniform + (p1+p2) * identity
    spec = ising(6, beta=1.3, p1=0.5, p2=0.2)
    M = metropolis_chain(spec, "equi-energy")
    states = models.enumerate_states(spec)
    S = states.sum(axis=1)
    block = np.flatnonzero(S == 2)
    R = kernels._unstack(*restrictions(M, partition_by(S == 2)))[1]
    size = block.size
    expected = (1 - 0.7) * np.full((size, size), 1.0 / size) + 0.7 * np.eye(size)
    assert np.allclose(R.to_kernel().P, expected, atol=1e-14)


def test_sign_chain_two_by_two():
    # lump the restriction to X_i over {+,-}: off-diagonal p2/2
    spec = ising(6, beta=1.3, p1=0.5, p2=0.2)
    M = metropolis_chain(spec, "equi-energy")
    states = models.enumerate_states(spec)
    S = states.sum(axis=1)
    block = np.flatnonzero(np.abs(S) == 4)
    R = kernels._unstack(*restrictions(M, partition_by(np.abs(S) == 4)))[1]
    signs = [1 if S[i] > 0 else -1 for i in block]
    H = lumped_projection(R, partition_by(signs)).to_kernel()
    assert H.P[0, 1] == pytest.approx(spec.p2 / 2, abs=1e-14)
    assert H.P[1, 0] == pytest.approx(spec.p2 / 2, abs=1e-14)


def test_warmup_projection_matches_displayed_rates():
    # M_H(i,i+1) = (1-eps)/4 away from the ends, and the restricted
    # chains on {-i, i} are [[1-eps, eps], [eps, 1-eps]]
    eps, theta = 0.3, 2.0
    spec = warmup(6, theta=theta, epsilon=eps)
    M = metropolis_chain(spec, "small-world")
    parts = warmup_block_partition(spec)
    H = lumped_projection(M, parts).to_kernel()
    for i in range(1, spec.N - 1):  # block labels 1..N at indices 0..N-1
        assert H.P[i, i + 1] == pytest.approx((1 - eps) / 4, abs=1e-14)
        assert H.P[i, i - 1] == pytest.approx((1 - eps) / (4 * theta), abs=1e-14)
    assert H.P[0, 1] == pytest.approx((1 - eps) / (4 * (1 + 1 / (2 * theta))), abs=1e-14)
    last = spec.N - 1
    assert H.P[last, last - 1] == pytest.approx((1 - eps) / (4 * theta), abs=1e-14)
    for i, block in enumerate(parts.blocks):
        if len(block) == 2:
            R = kernels._unstack(*restrictions(M, parts))[i]
            assert np.allclose(R.to_kernel().P, np.array([[1 - eps, eps], [eps, 1 - eps]]),
                               atol=1e-14)


def _restriction_cases():
    """(table, partition) pairs: the blocks the restriction tests above take."""
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy")
    yield M, partition_by([0] * M.n)
    spec = ising(6, beta=1.3, p1=0.5, p2=0.2)
    M = metropolis_chain(spec, "equi-energy")
    S = models.enumerate_states(spec).sum(axis=1)
    for i in (2, 4, 6):
        yield M, partition_by(S == i)
        yield M, partition_by(np.abs(S) == i)
    spec = warmup(6, theta=2.0, epsilon=0.3)
    yield metropolis_chain(spec, "small-world"), warmup_block_partition(spec)


def check_restrictions(table, parts):
    """Each block's restriction against the dense restriction, to 1e-15.

    The restrictions come as one stack of the partition's block sizes, no
    move crosses a block, and the stack is the layout oracle's stack of the
    restrictions cut out of it.
    """
    kernel = table.to_kernel()
    restricted, sizes = restrictions(table, parts)
    assert np.array_equal(sizes, np.bincount(parts.block))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    assert (owner[restricted.rows] == owner[restricted.cols]).all()
    got = kernels._unstack(restricted, sizes)
    restacked = stack(got)
    assert restacked.labels == restricted.labels
    for field in ("log_pi", "rows", "cols", "vals", "flip"):
        x, y = getattr(restacked, field), getattr(restricted, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert len(got) == parts.m
    for i, R in enumerate(got):
        block = np.flatnonzero(parts.block == i)
        want = dense_restriction(kernel, block)
        assert R.labels == want.labels
        assert np.array_equal(R.log_pi, want.log_pi)
        assert np.array_equal(R.flip, np.arange(len(block)))
        assert np.abs(R.to_kernel().P - want.P).max() <= 1e-15


def test_restriction_matches_the_dense_restriction():
    for table, parts in _restriction_cases():
        check_restrictions(table, parts)


def _model_partition(case):
    if case == "beg-20-signed":
        table = signed_move_table(beg(20, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
        return table, partition_by([r for _, r in table.labels])
    if case == "warmup-40":
        spec = warmup(40, theta=2.0, epsilon=0.3)
        return metropolis_chain(spec, "small-world"), warmup_block_partition(spec)
    spec = ising(8, beta=2.0, p1=0.5, p2=0.25)
    return metropolis_chain(spec, "equi-energy"), unsigned_class_partition(spec)


@pytest.mark.parametrize("case", ["beg-20-signed", "warmup-40", "ising-8-full"])
def test_restrictions_match_the_dense_restriction_on_every_block(case):
    check_restrictions(*_model_partition(case))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), m=st.integers(1, 6),
       density=st.floats(0.0, 1.0))
def test_restrictions_match_the_dense_restriction_on_random_partitions(seed, n, m, density):
    kernel = random_kernel(seed, n, density, reversible=True)
    keys = np.random.default_rng(seed + 3).integers(0, m, n).tolist()
    check_restrictions(kernel_table(kernel), partition_by(keys))


@pytest.mark.parametrize("block,labels", [
    (np.zeros((2, 2), dtype=np.intp), ("a",)),
    (np.array([0.0, 1.0]), ("a", "b")),
    (np.array([0, -1]), ("a", "b")),
    (np.array([0, 2]), ("a", "b")),
    (np.array([0, 0]), ("a", "b")),
], ids=["2-D", "float", "negative", "past-m", "empty-block"])
def test_partition_refuses_a_bad_block_index(block, labels):
    with pytest.raises(ValueError):
        Partition(block=block, labels=labels)


def test_partition_by_refuses_a_key_outside_order_and_a_repeated_order():
    with pytest.raises(ValueError, match="key 3 is not in order"):
        partition_by([1, 2, 3], order=[1, 2])
    with pytest.raises(ValueError, match="each at least once"):
        partition_by([1, 2], order=[1, 2, 2])


def test_partition_blocks_list_each_block_in_ascending_order():
    parts = Partition(block=np.array([2, 0, 2, 1, 0]), labels=("a", "b", "c"))
    assert [b.tolist() for b in parts.blocks] == [[1, 4], [3], [0, 2]]
    assert all(b.dtype == np.intp for b in parts.blocks)


# ---------------------------------------------------------------------------
# closed-form lumped chains vs direct lumping
# ---------------------------------------------------------------------------

def test_ising_lumped_bd_hand_values():
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    bd = ising_lumped_bd(spec)
    assert bd.labels == (0, 2, 4)
    assert bd.up[0] == pytest.approx(0.25, abs=1e-15)           # p1/2
    assert bd.up[1] == pytest.approx(0.0625, abs=1e-15)         # (p1/4)(N-2)/N
    assert bd.down[1] == pytest.approx((0.5 / 4) * (6 / 4) * math.exp(-0.5), rel=1e-12)
    assert bd_detailed_balance_error(bd) < 1e-12


@pytest.mark.parametrize("N,beta", [(4, 1.0), (6, 0.5), (8, 2.0), (10, 1.0), (12, 3.0)])
def test_ising_lumped_matches_direct(N, beta):
    spec = ising(N, beta=beta, p1=0.5, p2=0.25)
    assert unsigned_lumping_deviation(spec) < 1e-12


def test_beg_lumped_hand_values():
    spec = beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    L = beg_lumped(spec).to_kernel()
    i00 = L.labels.index((0, 0))
    i11 = L.labels.index((1, 1))
    assert L.P[i00, i11] == pytest.approx(0.25 * math.exp(-0.75), rel=1e-12)
    i0N = L.labels.index((0, 4))
    i2N = L.labels.index((2, 4))
    assert L.P[i0N, i2N] == pytest.approx(spec.p1 / 4, abs=1e-15)
    assert np.abs(L.P.sum(axis=1) - 1).max() < 1e-12
    check_kernel(L, 1e-12)


@pytest.mark.parametrize("N,beta,K", [(2, 1.0, 1.0), (4, 1.0, 1.0), (6, 0.7, 2.0), (8, 1.5, 3.0)])
def test_beg_lumped_matches_direct(N, beta, K):
    spec = beg(N, beta=beta, K=K, p1=0.5, p2=0.25)
    assert unsigned_lumping_deviation(spec) < 1e-12


def test_beg_tabulated_rates_deviate_only_at_annotated_entries():
    spec = beg(8, beta=1.5, K=3.0, p1=0.5, p2=0.25)
    disc = beg_rate_discrepancies(spec)
    assert disc, "the tabulated rate table is known to contain defects"
    unexplained = [d for d in disc if d.annotated is None]
    assert unexplained == []
    # the defective table breaks detailed balance; the corrected one passes
    tab = beg_lumped_tabulated(spec)
    assert tab.detailed_balance_error() > 1e-6
    check_kernel(beg_lumped(spec).to_kernel(), 1e-12)


# ---------------------------------------------------------------------------
# signed lumping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
@pytest.mark.parametrize("spec", [ising(8, beta=1.5, p1=0.5, p2=0.25),
                                  beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25)])
def test_strong_lumpability_witness(spec, kind):
    # for every signed class, the vector of class-to-class masses is
    # identical across all member states; the own-class entry carries the
    # diagonal row complement, so 1 ulp of rounding noise is the most the
    # comparison can tolerate
    M = metropolis_chain(spec, kind).to_kernel()
    keys = signed_class_keys(spec)
    order = sorted(set(keys), key=lambda k: (k, ) if not isinstance(k, tuple) else k)
    key_to_col = {k: i for i, k in enumerate(order)}
    cols = np.array([key_to_col[k] for k in keys])
    masses = np.zeros((M.n, len(order)))
    for j in range(len(order)):
        masses[:, j] = M.P[:, cols == j].sum(axis=1)
    for k in order:
        rows = np.flatnonzero(cols == key_to_col[k])
        block = masses[rows]
        assert np.abs(block - block[0]).max() <= 1e-15


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_signed_lumped_matches_direct_ising(kind):
    spec = ising(8, beta=1.5, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, kind).to_kernel()
    keys = signed_class_keys(spec)
    chain = signed_lumped_chain(spec, kind)
    # aggregate full rows into class-to-class masses and compare
    order = list(chain.labels)
    key_to_col = {k: i for i, k in enumerate(order)}
    cols = np.array([key_to_col[k] for k in keys])
    for k in order:
        x = int(np.flatnonzero(cols == key_to_col[k])[0])
        row = np.zeros(len(order))
        for j in range(len(order)):
            row[j] = M.P[x, cols == j].sum()
        assert np.allclose(row, chain.P[key_to_col[k]], atol=1e-14)


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_signed_lumped_matches_direct_beg(kind):
    spec = beg(6, beta=1.2, K=2.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, kind).to_kernel()
    keys = signed_class_keys(spec)
    chain = signed_lumped_chain(spec, kind)
    order = list(chain.labels)
    key_to_col = {k: i for i, k in enumerate(order)}
    cols = np.array([key_to_col[k] for k in keys])
    for k in order:
        x = int(np.flatnonzero(cols == key_to_col[k])[0])
        row = np.zeros(len(order))
        for j in range(len(order)):
            row[j] = M.P[x, cols == j].sum()
        assert np.allclose(row, chain.P[key_to_col[k]], atol=1e-14)


def test_signed_lumped_chain_shape_and_validity():
    spec = ising(4, beta=2.0, p1=0.5, p2=0.25)
    chain = signed_lumped_chain(spec, "equi-energy")
    assert chain.labels == (-4, -2, 0, 2, 4)
    check_kernel(chain, 1e-12)
    bspec = beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    bchain = signed_lumped_chain(bspec, "equi-energy")
    check_kernel(bchain, 1e-12)
    nchain = signed_lumped_chain(bspec, "naive")
    check_kernel(nchain, 1e-12)


def scalar_signed_chain(spec, kind):
    """Per-state loop over the moves, entry by entry: the reference for the table."""
    p1, p2 = (spec.p1, spec.p2) if kind == "equi-energy" else (1.0, 0.0)
    N, beta = spec.N, spec.beta
    if spec.kind == "ising":
        states = list(range(-N, N + 1, 2))
        log_w = lambda s: log_binom(N, (N + s) // 2) + beta * s * s / (2 * N)
        moves = lambda s: ((s + 2, (N - s) // 2, 2 * beta * (s + 1) / N),
                           (s - 2, (N + s) // 2, 2 * beta * (1 - s) / N))
        mirror = lambda s: -s
        scale = N
    else:
        K = spec.K
        states = sorted(((s, r) for r in range(N + 1) for s in range(-r, r + 1, 2)),
                        key=lambda t: (t[1], t[0]))
        log_w = lambda c: (log_binom(N, c[1]) + log_binom(c[1], (c[1] - c[0]) // 2)
                           - beta * c[1] + K * beta * c[0] * c[0] / N)
        def moves(c):
            s, r = c
            out = []
            for s2, r2, cnt in ((s + 1, r + 1, N - r), (s - 1, r + 1, N - r),
                                (s - 2, r, (r + s) // 2), (s - 1, r - 1, (r + s) // 2),
                                (s + 2, r, (r - s) // 2), (s + 1, r - 1, (r - s) // 2)):
                delta = -beta * (r2 - r) + K * beta * (s2 * s2 - s * s) / N
                out.append(((s2, r2), cnt, delta))
            return out
        mirror = lambda c: (-c[0], c[1])
        scale = 2 * N
    index = {c: i for i, c in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, c in enumerate(states):
        for target, cnt, delta in moves(c):
            if cnt > 0:
                P[i, index[target]] += p1 * cnt / scale * math.exp(min(0.0, delta))
        if kind == "equi-energy" and mirror(c) != c:
            P[i, index[mirror(c)]] += p2
    np.fill_diagonal(P, np.diag(P) + 1.0 - P.sum(axis=1))
    return tuple(states), np.array([log_w(c) for c in states]), P


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
@pytest.mark.parametrize("spec", [ising(2, beta=1.0, p1=0.5, p2=0.25),
                                  ising(30, beta=1.7, p1=0.4, p2=0.3),
                                  ising(80, beta=0.6, p1=0.5, p2=0.25),
                                  beg(2, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(10, beta=1.5, K=2.0, p1=0.37, p2=0.21),
                                  beg(64, beta=0.3, K=0.7, p1=0.5, p2=0.25)])
def test_signed_chain_matches_scalar_reference_bit_for_bit(spec, kind):
    labels, log_pi, P = scalar_signed_chain(spec, kind)
    chain = signed_lumped_chain(spec, kind)
    assert chain.labels == labels
    assert np.array_equal(chain.log_pi, log_pi)
    assert np.array_equal(chain.P, P)


#: sha256 of the rows, cols, vals, log_pi and flip bytes of each signed
#: table, recorded before the Ising and BEG tables shared one builder.
#: The dense P above cannot see the move order, which the holding sums
#: of the sector route read; ising N = 80 takes the lgamma binomials,
#: and at beg N = 2 a (+-2, 0) site move and the flip reach the same class.
PINNED_TABLE_DIGESTS = {
    (80, "naive"): "1b8e3acfb379840c8d8492832f0f23a70fb160ac9b807bfd761eabf733eb5e3e",
    (80, "equi-energy"): "51f0581fefe534abf6027aa0c715c55d0dd823b8779d40466596701672445485",
    (2, "naive"): "3059d977b3659d6d75b3e11d001fbb7b750519582fbc9b7bc70a4a94a07ef5ab",
    (2, "equi-energy"): "77cb78d54a2d0a6dd0f26659440b837c3f276794fb50008629af5d001ccce8c6",
    (64, "naive"): "a56def70896db3021359bda7ccb03e8840bc6780f7e5a023dc420176d9c58146",
    (64, "equi-energy"): "321696949d5d5be0fea29aabbd8742e5ecec6ba4a6c714d6deaec014595076e3",
}


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
@pytest.mark.parametrize("spec", [ising(80, beta=0.6, p1=0.5, p2=0.25),
                                  beg(2, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(64, beta=0.3, K=0.7, p1=0.5, p2=0.25)])
def test_signed_table_triplets_are_pinned_in_order(spec, kind):
    assert triplet_digest(signed_move_table(spec, kind)) == PINNED_TABLE_DIGESTS[spec.N, kind]


def triplet_digest(table):
    """sha256 of a table's rows, cols, vals, log_pi and flip bytes, their dtypes checked."""
    arrays = (table.rows, table.cols, table.vals, table.log_pi, table.flip)
    assert [a.dtype for a in arrays] == [np.int64, np.int64, np.float64, np.float64, np.int64]
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


#: the same digests of the full-space equi-energy proposal and its
#: Metropolis chain, recorded before the proposal grouped its states by
#: the class index of ``models``; at beg N = 4 a one-site move and the
#: global flip reach the same state, so their proposal masses merge
PINNED_FULL_DIGESTS = {
    ("ising", 8, "proposal"): "8fa16e7f49093fe24094a565040ae13b419478a84270c5e1772a2ac7d0227088",
    ("ising", 8, "chain"): "9ac91292d4251c63c0be3b3858ac9814e813e29a84ae36b39f95398a1d265b82",
    ("beg", 4, "proposal"): "6763a5ba9b4607d5ce1a8315986cf899cc9215a2c80cde6fbf57d877a0f56889",
    ("beg", 4, "chain"): "2dec9934d465446b7874e95f27c404465798edc6ca9e2b6742a30746053648c5",
    ("beg", 6, "proposal"): "01d11169b09b221526397bc48a3ae984a03f99c0a116e4ab1124b3a1c2ccd853",
    ("beg", 6, "chain"): "330c6cca7541fea560e5301763fe2c97628d110b45616deadfe1f6295db9b84d",
}


@pytest.mark.parametrize("build", ["proposal", "chain"])
@pytest.mark.parametrize("spec", [ising(8, beta=1.0, p1=0.5, p2=0.25),
                                  beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(6, beta=1.5, K=2.0, p1=0.4, p2=0.3)])
def test_full_space_equi_energy_triplets_are_pinned_in_order(spec, build):
    # the dense bit-for-bit tests cannot see the order of a move's terms
    table = (equi_energy_proposal(spec) if build == "proposal"
             else metropolis_chain(spec, "equi-energy"))
    assert triplet_digest(table) == PINNED_FULL_DIGESTS[spec.kind, spec.N, build]


def table_from_kernel(kernel, flip):
    """The off-diagonal nonzeros of a dense chain in row-major order, as
    the warm-up move table was read off its dense chain before it was
    built from the proposal's moves."""
    rows, cols = np.nonzero(kernel.P)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    return MoveTable(labels=kernel.labels, log_pi=kernel.log_pi, rows=rows, cols=cols,
                     vals=kernel.P[rows, cols], flip=flip)


@pytest.mark.parametrize("kind", ["naive", "small-world"])
def test_warmup_move_table_is_the_full_chain(kind):
    spec = warmup(7, theta=1.7, epsilon=0.3)
    chain = signed_lumped_chain(spec, kind)
    full = metropolis_chain(spec, kind).to_kernel()
    assert chain.labels == full.labels
    assert np.array_equal(chain.log_pi, full.log_pi)
    assert np.array_equal(chain.P, full.P)
    # the table itself, bit for bit, against the dense chain's nonzeros
    for N in (1, 2, 3, 7, 40, 199, 200):
        for theta in (1.05, 1.7, 2.0, 3.3):
            for eps in (0.01, 0.2, 0.3, 0.77):
                spec = warmup(N, theta=theta, epsilon=eps)
                full = metropolis_chain(spec, kind).to_kernel()
                want = table_from_kernel(full, np.arange(full.n)[::-1])
                got = signed_move_table(spec, kind)
                assert got.labels == want.labels
                for field in ("log_pi", "rows", "cols", "vals", "flip"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (N, theta, eps, field)


def test_warmup_proposals_densify_the_moves():
    # holding = 1 - row sum; the off-diagonal masses are the closed forms
    spec = warmup(6, theta=2.0, epsilon=0.3)
    for K, eps in ((single_flip_proposal(spec).to_kernel(), 0.0),
                   (small_world_proposal(spec).to_kernel(), 0.3)):
        assert K.labels == tuple(range(-6, 7))
        assert np.array_equal(K.log_pi, np.zeros(13))
        off = K.P - np.diag(np.diag(K.P))
        walk = 0.5 if eps == 0.0 else (1.0 - eps) * 0.5
        assert np.array_equal(np.diag(off, 1), np.full(12, walk))
        assert np.array_equal(np.diag(off, -1), np.full(12, walk))
        mirror = off[np.arange(13), np.arange(13)[::-1]]
        assert np.array_equal(np.delete(mirror, 6), np.full(12, eps))
        assert np.count_nonzero(off) == 24 + (12 if eps else 0)
        assert np.array_equal(np.diag(K.P), 1.0 - off.sum(axis=1))


def test_move_table_flip_is_the_mirror_class():
    for spec in (ising(6, beta=1.0, p1=0.5, p2=0.25), beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                 warmup(4, theta=2.0, epsilon=0.3)):
        table = kernels.signed_move_table(spec, "naive")
        mirror = [(-lab[0], lab[1]) if isinstance(lab, tuple) else -lab
                  for lab in table.labels]
        assert [table.labels[j] for j in table.flip] == mirror


def test_unsigned_projection_of_signed_chain_matches_closed_forms():
    # lumping the signed chain onto unsigned classes reproduces the
    # per-class loops that wrote the projections out by hand (the two-step
    # lumping telescopes)
    spec = ising(10, beta=1.5, p1=0.5, p2=0.25)
    chain = signed_move_table(spec, "equi-energy")
    parts = partition_by([abs(s) for s in chain.labels])
    H = lumped_projection(chain, parts).to_kernel()
    assert np.allclose(H.P, bd_kernel(reference_ising_lumped_bd(spec)).P, atol=1e-14)

    bspec = beg(8, beta=1.5, K=3.0, p1=0.5, p2=0.25)
    bchain = signed_move_table(bspec, "equi-energy")
    bparts = partition_by([(abs(s), r) for s, r in bchain.labels],
                          order=sorted({(abs(s), r) for s, r in bchain.labels},
                                       key=lambda t: (t[1], t[0])))
    bH = lumped_projection(bchain, bparts).to_kernel()
    assert np.allclose(bH.P, reference_beg_lumped(bspec).P, atol=1e-14)


# ---------------------------------------------------------------------------
# birth-death container + export
# ---------------------------------------------------------------------------

def test_birth_death_validation():
    with pytest.raises(ValueError):
        BirthDeathChain(up=np.array([0.5, 0.1]), down=np.array([0.0, 0.5]),
                        log_pi=np.zeros(2), labels=(0, 1))
    bd = BirthDeathChain(up=np.array([0.5, 0.0]), down=np.array([0.0, 0.5]),
                         log_pi=np.zeros(2), labels=(0, 1))
    K = bd_kernel(bd)
    assert np.allclose(K.P, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_export_kernel_text_roundtrip_shape():
    spec = warmup(2, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, "small-world").to_kernel()
    text = export_kernel_text(M)
    lines = text.strip().split("\n")
    assert len(lines) == M.n
    assert lines[0].startswith("-2:")
    # deterministic: second call byte-identical
    assert text == export_kernel_text(M)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(block=np.array([], dtype=np.intp), labels=("a",))


def test_unsigned_class_partition_orders():
    spec = beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    parts = unsigned_class_partition(spec)
    assert list(parts.labels) == models.enumerate_beg_classes(4)


# ---------------------------------------------------------------------------
# loop-free kernel layer against the per-element loops it replaced
# ---------------------------------------------------------------------------

def reference_partition_by(keys, order=None):
    keys = list(keys)
    if order is None:
        order = sorted(set(keys))
    blocks = tuple(np.array([i for i, key in enumerate(keys) if key == k], dtype=np.intp)
                   for k in order)
    return SimpleNamespace(blocks=blocks, labels=tuple(order))


def reference_metropolize(proposal, target_log_weights):
    lw = np.asarray(target_log_weights, dtype=float)
    K = proposal.P
    M = np.zeros_like(K)
    for x in range(proposal.n):
        row = K[x]
        nz = np.flatnonzero(row)
        nz = nz[nz != x]
        if nz.size == 0:
            continue
        back = K[nz, x]
        if np.any(back == 0.0):
            y = int(nz[np.argmin(back)])
            raise SupportError(f"K({x},{y}) > 0 but K({y},{x}) = 0")
        delta = (lw[nz] + np.log(back)) - (lw[x] + np.log(row[nz]))
        M[x, nz] = row[nz] * np.exp(np.minimum(0.0, delta))
    np.fill_diagonal(M, np.maximum(1.0 - M.sum(axis=1), 0.0))
    return FiniteKernel(labels=proposal.labels, log_pi=lw.copy(), P=M)


def reference_lumped_projection(kernel, parts):
    lw = kernel.log_pi
    m = parts.m
    H = np.zeros((m, m))
    log_pi_H = np.empty(m)
    flows = np.empty((m, kernel.n))
    for i, bi in enumerate(parts.blocks):
        log_pi_H[i] = logsumexp(lw[bi])
        flows[i] = np.exp(lw[bi] - log_pi_H[i]) @ kernel.P[bi, :]
    for i in range(m):
        for j, bj in enumerate(parts.blocks):
            if j != i:
                H[i, j] = 0.5 * flows[i][bj].sum()
    np.fill_diagonal(H, 1.0 - H.sum(axis=1))
    return FiniteKernel(labels=parts.labels, log_pi=log_pi_H, P=H)


def random_kernel(seed, n, density, symmetric_support=True, reversible=False):
    """A random chain on n states; reversible ones come from symmetric conductances."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if symmetric_support or reversible:
        mask |= mask.T
    np.fill_diagonal(mask, False)
    log_pi = rng.uniform(-5.0, 5.0, n)
    if reversible:
        C = np.triu(rng.random((n, n)) * mask, 1)
        P = (C + C.T) * np.exp(-log_pi)[:, None]
    else:
        P = rng.random((n, n)) * mask
    P *= rng.uniform(0.1, 1.0) / max(P.sum(axis=1).max(), 1.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return FiniteKernel(labels=tuple(range(n)), log_pi=log_pi, P=P)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), m=st.integers(1, 6),
       ordered=st.booleans())
def test_partition_by_matches_reference(seed, n, m, ordered):
    rng = np.random.default_rng(seed)
    keys = [(int(k) % 2, int(k)) for k in rng.integers(0, m, n)]
    order = None
    if ordered:
        order = sorted(set(keys), key=lambda k: (-k[1], k[0]))
    got = partition_by(keys, order=order)
    want = reference_partition_by(keys, order=order)
    assert got.labels == want.labels
    assert len(got.blocks) == len(want.blocks)
    for b, ref in zip(got.blocks, want.blocks):
        assert b.dtype == ref.dtype and np.array_equal(b, ref)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       density=st.floats(0.0, 1.0), symmetric=st.booleans())
def test_metropolize_matches_reference_bit_for_bit(seed, n, density, symmetric):
    proposal = random_kernel(seed, n, density, symmetric_support=symmetric)
    target = np.random.default_rng(seed + 1).uniform(-8.0, 8.0, n)
    try:
        want = reference_metropolize(proposal, target)
    except SupportError as e:
        with pytest.raises(SupportError) as got:
            metropolize(kernel_table(proposal), target)
        assert str(got.value) == str(e)
        return
    got = metropolize(kernel_table(proposal), target).to_kernel()
    assert got.labels == want.labels
    assert np.array_equal(got.log_pi, want.log_pi)
    assert np.array_equal(got.P, want.P)


@pytest.mark.parametrize("spec,kind", [(ising(6, beta=1.5, p1=0.5, p2=0.25), "equi-energy"),
                                       (beg(4, beta=1.2, K=0.8, p1=0.5, p2=0.25), "naive"),
                                       (warmup(9, theta=2.0, epsilon=0.3), "small-world"),
                                       # a one-site move and the global flip reach the same
                                       # state, (0,-1) -> (0,+1): the ratio takes their sum
                                       (beg(2, beta=1.2, K=0.8, p1=0.5, p2=0.25), "equi-energy"),
                                       (beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")])
def test_metropolis_chains_match_reference_bit_for_bit(spec, kind):
    proposal = {"naive": single_flip_proposal, "equi-energy": equi_energy_proposal,
                "small-world": small_world_proposal}[kind](spec).to_kernel()
    target = models.log_weights_all(spec)
    want = reference_metropolize(proposal, target).P
    assert np.array_equal(metropolize(kernel_table(proposal), target).to_kernel().P, want)
    assert np.array_equal(metropolis_chain(spec, kind).to_kernel().P, want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), m=st.integers(1, 6),
       density=st.floats(0.0, 1.0))
def test_lumped_projection_matches_reference(seed, n, m, density):
    kernel = random_kernel(seed, n, density, reversible=True)
    assert kernel.detailed_balance_error() <= 1e-12
    keys = np.random.default_rng(seed + 2).integers(0, m, n).tolist()
    parts = partition_by(keys)
    got = lumped_projection(kernel_table(kernel), parts).to_kernel()
    want = reference_lumped_projection(kernel, parts)
    assert got.labels == want.labels
    assert np.allclose(got.log_pi, want.log_pi, rtol=1e-15, atol=1e-14)
    assert np.allclose(got.P, want.P, rtol=0.0, atol=1e-15)
    assert row_sum_error(got) <= 1e-15
    assert got.detailed_balance_error() <= 1e-12


def test_lumped_projection_matches_reference_on_model_chains():
    for spec in (beg(4, beta=1.2, K=0.8, p1=0.5, p2=0.25), ising(8, beta=2.0, p1=0.5, p2=0.25)):
        M = metropolis_chain(spec, "equi-energy")
        parts = unsigned_class_partition(spec)
        got = lumped_projection(M, parts).to_kernel()
        want = reference_lumped_projection(M.to_kernel(), parts)
        assert np.allclose(got.P, want.P, rtol=0.0, atol=1e-15)
    spec = warmup(40, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, "small-world")
    parts = warmup_block_partition(spec)
    assert np.allclose(lumped_projection(M, parts).to_kernel().P,
                       reference_lumped_projection(M.to_kernel(), parts).P, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# unsigned projections derived from the signed move table against the
# per-class loops that wrote them out by hand
# ---------------------------------------------------------------------------

def reference_ising_lumped_bd(spec):
    N, beta, p1 = spec.N, spec.beta, spec.p1
    i_vals, logq = models.ising_magnetization_log_profile(N, beta)
    log_pi = logq + np.where(i_vals == 0, 0.0, math.log(2.0))
    n = len(i_vals)
    up = np.zeros(n)
    down = np.zeros(n)
    up[0] = p1 / 2
    for k in range(1, n):
        i = int(i_vals[k])
        if i != N:
            up[k] = p1 * (N - i) / (4 * N)
        down[k] = p1 * (N + i) / (4 * N) * math.exp(2 * beta * (1 - i) / N)
    return BirthDeathChain(up=up, down=down, log_pi=log_pi,
                           labels=tuple(int(i) for i in i_vals))


def reference_beg_lumped(spec):
    N, beta, K, p1 = spec.N, spec.beta, spec.K, spec.p1
    classes = models.enumerate_beg_classes(N)
    index = {sr: i for i, sr in enumerate(classes)}
    n = len(classes)
    P = np.zeros((n, n))
    log_pi = np.empty(n)
    for i, (s, r) in enumerate(classes):
        two = 0.0 if s == 0 else math.log(2.0)
        log_pi[i] = (two + log_binom(N, r) + log_binom(r, (r - s) // 2)
                     - beta * r + K * beta * s * s / N)
        n0, npl, nmi = N - r, (r + s) // 2, (r - s) // 2
        for s2, r2, cnt in ((s + 1, r + 1, n0), (s - 1, r + 1, n0), (s - 2, r, npl),
                            (s - 1, r - 1, npl), (s + 2, r, nmi), (s + 1, r - 1, nmi)):
            if cnt == 0:
                continue
            target = (abs(s2), r2)
            if target == (s, r):
                continue  # sign-only move: stays in the unsigned class
            delta = -beta * (r2 - r) + K * beta * (s2 * s2 - s * s) / N
            P[i, index[target]] += 0.5 * p1 * cnt / (2 * N) * math.exp(min(0.0, delta))
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return FiniteKernel(labels=tuple(classes), log_pi=log_pi, P=P)


def assert_log_pi_close(got, want):
    # the derived weights add the same terms in another order, so they
    # round relative to the largest weight, not to each entry
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def assert_matches_reference(spec):
    if spec.kind == "ising":
        got, want = ising_lumped_bd(spec), reference_ising_lumped_bd(spec)
        assert np.abs(got.up - want.up).max() <= 1e-14
        assert np.abs(got.down - want.down).max() <= 1e-14
        got, want = bd_kernel(got), bd_kernel(want)
    else:
        got, want = beg_lumped(spec).to_kernel(), reference_beg_lumped(spec)
    assert got.labels == want.labels
    assert_log_pi_close(got.log_pi, want.log_pi)
    assert np.abs(got.P - want.P).max() <= 1e-14


@pytest.mark.parametrize("spec", [ising(2, beta=1.0, p1=0.5, p2=0.25),
                                  ising(10, beta=0.0, p1=0.3, p2=0.6),
                                  ising(40, beta=2.0, p1=0.5, p2=0.25),
                                  ising(200, beta=4.0, p1=0.5, p2=0.25),
                                  beg(2, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(8, beta=1.5, K=3.0, p1=0.5, p2=0.25),
                                  beg(30, beta=4.0, K=1.004518, p1=0.37, p2=0.21),
                                  beg(60, beta=0.3, K=0.7, p1=0.5, p2=0.25)])
def test_derived_unsigned_projection_matches_hand_written_loops(spec):
    assert_matches_reference(spec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from(["ising", "beg"]), half_n=st.integers(1, 30),
       beta=st.floats(0.0, 5.0), K=st.floats(0.01, 5.0), p1=st.floats(0.05, 0.9),
       p2_share=st.floats(0.05, 0.95))
def test_derived_unsigned_projection_matches_hand_written_loops_property(
        model, half_n, beta, K, p1, p2_share):
    p2 = p2_share * (1.0 - p1)
    if model == "ising":
        spec = ising(2 * half_n, beta=beta, p1=p1, p2=p2)
    else:
        spec = beg(2 * half_n, beta=beta, K=K, p1=p1, p2=p2)
    assert_matches_reference(spec)


def test_unsigned_lumped_chain_follows_the_chain_kind():
    spec = beg(6, beta=1.2, K=2.0, p1=0.5, p2=0.25)
    direct = lumped_projection(metropolis_chain(spec, "naive"),
                               unsigned_class_partition(spec)).to_kernel()
    derived = unsigned_lumped_chain(spec, "naive").to_kernel()
    assert derived.labels == direct.labels
    assert np.abs(derived.P - direct.P).max() < 1e-12
    with pytest.raises(ValueError, match="unsigned projections exist for ising and beg"):
        unsigned_lumped_chain(warmup(4, theta=2.0, epsilon=0.3), "small-world")


def test_unsigned_lumped_chain_refuses_too_many_classes_before_allocating():
    # beg N=178 has 8100 unsigned classes, N=180 has 8281
    with pytest.raises(ValueError, match="8281 blocks exceed the dense materialization cap"):
        unsigned_lumped_chain(beg(180, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")



def reference_equi_energy_proposal(spec):
    """The proposal as it was written before it reused partition_by: a hand
    grouping on a dense matrix, its diagonal left out."""
    p1, p2 = spec.p1, spec.p2
    base = single_flip_proposal(spec).to_kernel()
    np.fill_diagonal(base.P, 0.0)
    states = models.enumerate_states(spec)
    S = states.sum(axis=1, dtype=np.int64)
    if spec.kind == "beg":
        keys = list(zip(S.tolist(), np.count_nonzero(states, axis=1).tolist()))
    else:
        keys = S.tolist()
    neg = negation_indices(spec)
    P = p1 * base.P
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    for k, members in groups.items():
        g = np.array(members, dtype=np.intp)
        s_val = k[0] if spec.kind == "beg" else k
        if s_val == 0:
            P[np.ix_(g, g)] += (1.0 - p1) / len(g)
        else:
            P[np.ix_(g, g)] += (1.0 - p1 - p2) / len(g)
            P[g, neg[g]] += p2
    np.fill_diagonal(P, 0.0)
    return P


@pytest.mark.parametrize("spec", [ising(8, beta=1.0, p1=0.5, p2=0.25),
                                  ising(10, beta=2.0, p1=0.3, p2=0.4),
                                  beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(6, beta=1.5, K=2.0, p1=0.4, p2=0.3)])
def test_equi_energy_proposal_matches_hand_grouping_bit_for_bit(spec):
    got = equi_energy_proposal(spec).to_kernel().P
    np.fill_diagonal(got, 0.0)
    assert np.array_equal(got, reference_equi_energy_proposal(spec))


class TableBuilt(Exception):
    pass


def test_a_full_space_chain_is_made_dense_only_once():
    # BEG N=6 equi-energy has 729 states: the move table and its build take
    # less than the dense matrix does, so the chain made dense peaks below
    # 1.5 matrices (a build on dense proposals held three)
    n = 3 ** 6
    tracemalloc.start()
    try:
        metropolis_chain(beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy").to_kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


@pytest.mark.parametrize("spec,classes", [
    (beg(400, beta=1.0, K=1.0, p1=0.5, p2=0.25), 40401),
    (ising(16384, beta=1.0, p1=0.5, p2=0.25), 8193),
    (beg(178, beta=1.0, K=1.0, p1=0.5, p2=0.25), None),   # 8100 classes: under the cap
    (ising(16382, beta=1.0, p1=0.5, p2=0.25), None),      # 8192 classes: at the cap
])
def test_unsigned_lumped_chain_counts_classes_before_building_the_table(monkeypatch, spec,
                                                                       classes):
    def build(*args, **kwargs):
        raise TableBuilt

    monkeypatch.setattr(kernels, "signed_move_table", build)
    if classes is None:
        with pytest.raises(TableBuilt):
            unsigned_lumped_chain(spec, "equi-energy")
    else:
        with pytest.raises(ValueError,
                           match=f"{classes} blocks exceed the dense materialization cap 8192"):
            unsigned_lumped_chain(spec, "equi-energy")


@pytest.mark.parametrize("build", [
    lambda: single_flip_proposal(ising(8, beta=1.0)),
    lambda: equi_energy_proposal(ising(8, beta=1.0, p1=0.5, p2=0.25)),
    lambda: metropolis_chain(beg(6, beta=1.0, K=1.0), "naive"),
    lambda: signed_lumped_chain(ising(200, beta=1.0), "naive"),
    lambda: unsigned_lumped_chain(beg(20, beta=1.0, K=1.0), "naive"),
], ids=["single-flip", "equi-energy", "metropolis", "signed", "unsigned"])
def test_every_dense_guard_reads_the_one_cap(monkeypatch, build):
    # full-space proposals and chains, dense move tables and projections all
    # refuse by the same constant, read when they are called
    monkeypatch.setattr(kernels, "DEFAULT_MAX_STATES", 100)
    with pytest.raises(ValueError, match="exceed the dense materialization cap 100"):
        build()


@pytest.mark.parametrize("spec,classes", [
    (beg(20, beta=1.0, K=1.0), 231),
    (ising(1_000_000, beta=1.0), 1_000_001),
    (warmup(1_000_000, theta=2.0), 2_000_001),
], ids=["beg", "ising", "warmup"])
@pytest.mark.parametrize("build", [lambda s: signed_move_table(s, "naive"), models.class_table],
                         ids=["move-table", "class-table"])
def test_every_class_space_object_reads_the_one_class_cap(monkeypatch, spec, classes, build):
    # the count comes from N, so the refusal allocates nothing of the size
    # it refuses; move tables built their O(N) or O(N^2) arrays unchecked
    monkeypatch.setattr(models, "MAX_CLASSES", 100)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"{classes} classes exceed the limit 100"
    assert peak < 50_000


@pytest.mark.parametrize("spec,kind,message", [
    (ising(4, beta=1.0), "glauber",
     "unknown chain kind 'glauber', expected one of ('naive', 'equi-energy', 'small-world')"),
    (ising(4, beta=1.0), "small-world", "small-world proposal is a warmup construction, not ising"),
    (beg(2, beta=1.0, K=1.0), "small-world", "small-world proposal is a warmup construction, not beg"),
    # the model is checked before the parameters: this spec has no p1, p2 either
    (warmup(4, theta=2.0), "equi-energy", "equi-energy proposal is defined for ising/beg, not warmup"),
    (ising(4, beta=1.0), "equi-energy", "equi-energy chain needs p1 and p2"),
    (beg(2, beta=1.0, K=1.0), "equi-energy", "equi-energy chain needs p1 and p2"),
    (warmup(4, theta=2.0), "small-world", "small-world chain needs epsilon"),
])
def test_every_chain_builder_refuses_with_the_check_chain_message(spec, kind, message):
    from spingap.sampling import Sampler

    builders = [kernels.check_chain, metropolis_chain, signed_move_table,
                lambda s, k: Sampler(s, k, np.random.default_rng(0))]
    proposal = {"equi-energy": equi_energy_proposal, "small-world": small_world_proposal}
    if kind in proposal:
        builders.append(lambda s, k: proposal[k](s))
    for build in builders:
        with pytest.raises(ValueError) as refused:
            build(spec, kind)
        assert str(refused.value) == message


def test_unsigned_projection_refuses_the_chain_before_the_dense_cap():
    # 10001 orbits would also exceed the cap; the missing chain is named first
    with pytest.raises(ValueError) as refused:
        unsigned_lumped_chain(ising(20000, beta=1.0), "small-world")
    assert str(refused.value) == "small-world proposal is a warmup construction, not ising"


@pytest.mark.parametrize("spec", [ising(N, beta=1.5, p1=0.3, p2=0.4) for N in (2, 4, 12, 40)]
                         + [beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25) for N in (2, 4, 8, 20)],
                         ids=lambda s: f"{s.kind}-N{s.N}")
@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_class_tables_carry_each_moves_reverse_and_mirror(spec, kind):
    table = signed_move_table(spec, kind)
    rows, cols, flip, each = table.rows, table.cols, table.flip, np.arange(len(table.rows))
    rev, mir = table.reverse, table.mirror
    assert np.array_equal(rows[rev], cols) and np.array_equal(cols[rev], rows)
    assert np.array_equal(rows[mir], flip[rows]) and np.array_equal(cols[mir], flip[cols])
    assert np.array_equal(rev[rev], each) and np.array_equal(mir[mir], each)
    # what the paired sector assembly relies on: only moves to a class's own
    # mirror share a target, and no move leads from a class i < Ji to a class
    # j > Jj other than Ji
    keys, counts = np.unique(rows * table.n + cols, return_counts=True)
    shared = keys[counts > 1]
    assert np.array_equal(shared % table.n, flip[shared // table.n])
    assert not ((rows < flip[rows]) & (cols > flip[cols]) & (cols != flip[rows])).any()


def test_the_class_chains_call_math_exp_only_where_the_log_ratio_is_negative(monkeypatch):
    # exp(0) is exactly 1: an Ising N = 200 table needs one exp per class
    # below S = -1 going up and above S = 1 going down, not one per entry
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda d: calls.append(d) or exp(d))
    signed_move_table(ising(200, beta=1.0), "naive")
    assert len(calls) == 200 and all(d < 0 for d in calls)
    calls.clear()
    signed_move_table(beg(20, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    assert 0 < len(calls) < 6 * 41 and all(d < 0 for d in calls)


def test_only_the_class_chains_carry_move_pairs():
    for table in (signed_move_table(warmup(6, theta=2.0, epsilon=0.3), "small-world"),
                  metropolis_chain(ising(4, beta=1.0, p1=0.5, p2=0.25), "equi-energy"),
                  unsigned_lumped_chain(beg(6, beta=1.0, K=1.0, p1=0.5, p2=0.25), "naive")):
        assert table.reverse is table.mirror is None
