"""The flip-sector route to exact gaps against the dense oracles."""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spingap import kernels, models, spectral, verify
from spingap.cli import EXIT_USAGE, main
from spingap.kernels import (
    MoveTable,
    beg_lumped,
    metropolis_chain,
    signed_lumped_chain,
    signed_move_table,
)
from spingap.models import beg, ising, warmup
from spingap.spectral import (
    DENSE_SECTOR_MAX,
    REVERSIBILITY_TOL,
    STACK_STATES,
    NonReversibleError,
    SymmetryError,
    _check_reversible,
    _flip_sectors,
    _lanczos_extremes,
    _sector_extremes,
    _stack_spectra,
    _stacks,
    gap,
    sector_spectrum,
    spectrum,
)
from spingap.verify import exact_gap_record, verify_beg_fast

import oracles


def flip_sectors(tables):
    """``_flip_sectors`` of the stack of ``tables`` (``oracles.stack``)."""
    return _flip_sectors(oracles.stack(tables), [t.n for t in tables])


CHAINS = {"ising": ("naive", "equi-energy"), "beg": ("naive", "equi-energy"),
          "warmup": ("naive", "small-world")}


@st.composite
def model_cells(draw):
    model = draw(st.sampled_from(sorted(CHAINS)))
    kind = draw(st.sampled_from(CHAINS[model]))
    if model == "warmup":
        N = draw(st.integers(1, 30))
        spec = warmup(N, theta=draw(st.floats(1.05, 4.0)),
                      epsilon=draw(st.floats(0.01, 0.99)))
        return spec, kind
    p1 = draw(st.floats(0.05, 0.9))
    p2 = draw(st.floats(0.01, 0.99 - p1))
    beta = draw(st.floats(0.0, 3.0))
    if model == "ising":
        return ising(2 * draw(st.integers(1, 20)), beta=beta, p1=p1, p2=p2), kind
    N = 2 * draw(st.integers(1, 6))
    return beg(N, beta=beta, K=draw(st.floats(0.1, 5.0)), p1=p1, p2=p2), kind


def assert_matches_dense(spec, kind):
    rec = exact_gap_record(spec, kind)
    s = spectrum(signed_lumped_chain(spec, kind))
    assert rec["gap"] == pytest.approx(gap(s), abs=1e-12)
    assert rec["lambda1"] == pytest.approx(s.eigenvalues[1], abs=1e-12)
    assert rec["lambda_min"] == pytest.approx(s.eigenvalues[-1], abs=1e-12)
    assert rec["underflow"] == (gap(s) < 1e-12)
    assert rec["dim"] == s.dim


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model_cells())
def test_sector_route_matches_dense_spectrum(cell):
    assert_matches_dense(*cell)


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_sector_route_matches_dense_on_lanczos_sectors(kind):
    # 861 signed classes: both sectors exceed the dense-sector cutover
    assert_matches_dense(beg(40, beta=1.5, K=2.0, p1=0.5, p2=0.25), kind)


# beta=4, K=1.004518: the disordered phase and the two ordered phases carry
# about equal mass, so the even sector's lambda_1 sits next to lambda_0 = 1
# (4e-12 below it at N=60, within 1e-14 at N=80)
THREE_PHASE = dict(beta=4.0, K=1.004518, p1=0.5, p2=0.25)


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_sector_route_matches_dense_at_three_phase_coexistence(kind):
    assert_matches_dense(beg(60, **THREE_PHASE), kind)


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_lanczos_matches_dense_sector_solve_at_three_phase_coexistence(kind):
    table = signed_move_table(beg(80, **THREE_PHASE), kind)
    ((even, odd, _),) = flip_sectors([table])
    assert min(even.shape[0], odd.shape[0]) > DENSE_SECTOR_MAX
    ev_even = np.linalg.eigvalsh(even.toarray())
    ev_odd = np.linalg.eigvalsh(odd.toarray())
    assert ev_even[-1] == pytest.approx(1.0, abs=1e-14)
    assert ev_even[-2] == pytest.approx(1.0, abs=1e-13)
    s = sector_spectrum(table)
    assert s.even_lambda1 == pytest.approx(ev_even[-2], abs=1e-12)
    assert s.odd_lambda1 == pytest.approx(ev_odd[-1], abs=1e-12)
    assert s.lambda_min == pytest.approx(min(ev_even[0], ev_odd[0]), abs=1e-12)


def test_unconverged_lanczos_falls_back_to_dense(monkeypatch):
    spec = beg(40, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    want = exact_gap_record(spec, "equi-energy")
    solved = []
    dense = spectral._dense_extremes
    monkeypatch.setattr(spectral, "_dense_extremes",
                        lambda M, top: solved.append(M.shape[0]) or dense(M, top))
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    got = exact_gap_record(spec, "equi-energy")
    # both sectors (441 and 420 states) ran out of steps and went dense
    assert sorted(solved) == [420, 441]
    assert got["gap"] == pytest.approx(want["gap"], abs=1e-12)
    assert got["lambda_min"] == pytest.approx(want["lambda_min"], abs=1e-12)


def test_unconverged_lanczos_past_the_dense_cap_is_refused(monkeypatch):
    # N = 180: 16471 classes, an even sector of 8281 states > DEFAULT_MAX_STATES
    table = signed_move_table(beg(180, **BEG_CELL), "naive")
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    assert kernels.DEFAULT_MAX_STATES < 8281
    with pytest.raises(ValueError, match="Lanczos did not converge on a 8281-state sector"):
        sector_spectrum(table)


def random_block(m, seed, link):
    """A sparse symmetric m-state block with its spectrum in [-1, 1], and its u.

    With ``link`` None: random signed entries, u None.  Otherwise
    I - L/d for the Laplacian L of two rings with random chords, joined by
    one edge of weight ``link``, d its largest degree: u = 1/sqrt(m) is an
    eigenvector of 1, and lambda_1 lies within about link/d of it.
    """
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, m, 3 * m), rng.integers(0, m, 3 * m)
    w = rng.uniform(0.1, 1.0, 3 * m)
    if link is None:
        W = scipy.sparse.coo_array((w * rng.choice([-1.0, 1.0], 3 * m), (i, j)), shape=(m, m))
        W = (W + W.T).tocsr() + scipy.sparse.diags_array(rng.uniform(-1.0, 1.0, m))
        return (W / abs(W).sum(axis=1).max()).tocsr(), None
    half = m // 2
    ring = np.arange(m)
    nxt = np.where(ring == half - 1, 0, np.where(ring == m - 1, half, ring + 1))
    same = (i < half) == (j < half)
    i, j = np.concatenate([i[same], ring, [0]]), np.concatenate([j[same], nxt, [m - 1]])
    w = np.concatenate([w[same], rng.uniform(0.1, 1.0, m), [link]])
    W = scipy.sparse.coo_array((w, (i, j)), shape=(m, m)).tocsr()
    W = W + W.T
    W.setdiag(0)
    W.eliminate_zeros()
    degree = W.sum(axis=1)
    M = scipy.sparse.eye_array(m) - (scipy.sparse.diags_array(degree) - W) / degree.max()
    return M.tocsr(), np.full(m, 1.0 / math.sqrt(m))


@st.composite
def lanczos_blocks(draw):
    return random_block(draw(st.integers(DENSE_SECTOR_MAX + 1, 700)),
                        draw(st.integers(0, 2**32 - 1)),
                        draw(st.sampled_from([None, None, 1e-13, 1e-14, 1e-3])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lanczos_blocks())
def test_lanczos_extremes_match_eigvalsh(block):
    M, u = block
    got = _lanczos_extremes(M, u)
    vals = np.linalg.eigvalsh(M.toarray())
    if u is not None:
        assert vals[-1] == pytest.approx(1.0, abs=1e-14)
    assert got[0] == pytest.approx(vals[-1 if u is None else -2], abs=1e-12)
    assert got[1] == pytest.approx(vals[0], abs=1e-12)


def diagonal_block(values, planted):
    """A 400-state diagonal CSR sector that repeats ``values``, and its u.

    Its Krylov spaces have dimension len(values), so a Lanczos run breaks
    down before its first check; on the zero sector the first step's b is
    exactly 0.  With ``planted``, one entry is 1 instead, and u is its
    unit vector.
    """
    d = np.resize(np.array(values), 400)
    u = None
    if planted:
        d[7] = 1.0
        u = np.zeros(400)
        u[7] = 1.0
    return scipy.sparse.csr_array(scipy.sparse.diags_array(d)), u


@pytest.mark.parametrize("values, planted", [((0.5, -0.3), False), ((0.5, -0.3), True),
                                             ((0.0,), False)])
def test_a_lanczos_run_that_breaks_down_before_its_first_check_gives_both_ends(values, planted):
    M, u = diagonal_block(values, planted)
    assert M.shape[0] > DENSE_SECTOR_MAX
    vals = np.linalg.eigvalsh(M.toarray())
    got = _sector_extremes(M, u)
    assert not np.isnan(got).any()
    assert got[0] == pytest.approx(vals[-1 if u is None else -2], abs=1e-12)
    assert got[1] == pytest.approx(vals[0], abs=1e-12)


def test_planted_blocks_hold_a_lambda1_within_1e13_of_1():
    M, u = random_block(500, 3, 1e-13)
    # a dense solve puts lambda_1 within an ulp or two of 1, on either side
    # of it as the BLAS thread count goes: lambda_1 < 1 is read off the graph,
    # connected, and in two components once its joining edge is cut
    assert scipy.sparse.csgraph.connected_components(M, directed=False)[0] == 1
    cut = M.copy()
    cut[0, 499] = cut[499, 0] = 0.0
    cut.eliminate_zeros()
    assert scipy.sparse.csgraph.connected_components(cut, directed=False)[0] == 2
    vals = np.linalg.eigvalsh(M.toarray())
    assert abs(1.0 - vals[-2]) < 1e-13
    assert np.abs(M @ u - u).max() < 1e-15


# each command with its number of tables past N = 30
SOLVED_WITHOUT_ARPACK = [("gap-scan --model beg --kind naive --beta 1.5 --k 2 --n 30..70..10", 4),
                         ("verify beg-fast --beta-k 1:1 --n 30..80..10", 5)]


def _no_arpack(*args, **kwargs):
    raise AssertionError("eigsh was called")


@pytest.mark.parametrize("command, tables", SOLVED_WITHOUT_ARPACK)
def test_beg_grids_past_the_dense_sectors_run_without_eigsh(command, tables, tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_arpack)
    lanczos = spectral._lanczos_extremes
    runs = []
    monkeypatch.setattr(spectral, "_lanczos_extremes",
                        lambda M, u: runs.append(u is not None) or lanczos(M, u))
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    # N = 40..80: two runs per table, its even sector (with u) and then its odd one
    assert runs == [True, False] * tables


THREADED = """import sys
from spingap.cli import main
code = main(sys.argv[1:])
assert "scipy.sparse.linalg" not in sys.modules
sys.exit(code)
"""


@pytest.mark.parametrize("command", [
    "gap-scan --model beg --kind naive --beta 1.5 --k 2 --n 40..70..10",
    "verify beg-fast --beta-k 1:1 --n 40..80..8",  # six points: the fit runs too
])
def test_lanczos_grids_write_the_same_bytes_at_one_and_two_blas_threads(command, tmp_path):
    # from N = 40 on, every BEG sector is past DENSE_SECTOR_MAX; the dense
    # route's eigvalsh follows the BLAS thread count (at N = 30 the two
    # counts differ in the last bits), Lanczos does not
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(Path(spectral.__file__).parents[1]),
                                                            os.environ.get("PYTHONPATH")])))
        d = tmp_path / threads
        subprocess.run([sys.executable, "-c", THREADED, *command.split(), "--out", str(d)],
                       env=env, check=True, capture_output=True)
        out[threads] = {p.name: p.read_bytes() for p in sorted(d.glob("*.csv"))}
    assert out["1"] == out["2"] and out["1"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(N=st.integers(1, 8), beta=st.floats(0.0, 3.0), K=st.floats(0.1, 5.0),
       p1=st.floats(0.05, 0.9), frac=st.floats(0.01, 0.99))
def test_projection_gap_is_half_the_even_sector_gap(N, beta, K, p1, frac):
    spec = beg(2 * N, beta=beta, K=K, p1=p1, p2=frac * (0.99 - p1))
    even = sector_spectrum(signed_move_table(spec, "equi-energy")).even_lambda1
    want = gap(spectrum(beg_lumped(spec).to_kernel()))
    assert 0.5 * (1.0 - even) == pytest.approx(want, abs=1e-12)


def test_verify_beg_fast_projection_gap_matches_dense():
    rep = verify_beg_fast([(1.0, 1.0)], [30], 0.5, 0.25)
    (rec,) = rep.records
    spec = beg(30, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    want = gap(spectrum(beg_lumped(spec).to_kernel()))
    assert rec.values["gap_pbar"] == pytest.approx(want, abs=1e-12)


def three_state_table(rates, flip=(2, 1, 0)):
    """Chain on (-1, 0, 1) with uniform weights and the given (i, j, rate) moves."""
    rows, cols, vals = (np.array(v) for v in zip(*rates))
    return MoveTable(labels=(-1, 0, 1), log_pi=np.zeros(3), rows=rows, cols=cols,
                     vals=vals.astype(float), flip=np.array(flip))


def test_sector_route_rejects_nonreversible_chain():
    table = three_state_table([(0, 1, 0.3), (1, 0, 0.1), (1, 2, 0.1), (2, 1, 0.3)])
    with pytest.raises(NonReversibleError):
        sector_spectrum(table)


def test_sector_route_rejects_chain_without_flip_symmetry():
    # reversible for the uniform weights, but the two halves move at different rates
    table = three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 2, 0.3), (2, 1, 0.3)])
    with pytest.raises(SymmetryError):
        sector_spectrum(table)
    sym = three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 2, 0.2), (2, 1, 0.2)])
    assert sector_spectrum(sym).gap == pytest.approx(0.2)


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_sector_route_is_bit_reproducible(kind):
    spec = beg(60, beta=1.5, K=2.0, p1=0.5, p2=0.25)
    assert exact_gap_record(spec, kind) == exact_gap_record(spec, kind)


def test_beg_n200_gap_without_dense_matrix():
    spec = beg(200, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    tracemalloc.start()
    try:
        rec = exact_gap_record(spec, "equi-energy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["dim"] == 20301
    assert 0 < rec["gap"] < 1e-2 and not rec["underflow"]
    assert peak < 8 * rec["dim"] ** 2 / 20  # a dense matrix would need 3.3 GB


def test_dense_signed_chain_guards_size_before_allocating(tmp_path, capsys):
    spec = beg(200, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense materialization cap"):
            signed_lumped_chain(spec, "naive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    rc = main(["export-kernel", "--space", "signed", "--model", "beg", "--n", "200",
               "--beta", "1", "--k", "1", "--kind", "naive", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "dense materialization cap" in capsys.readouterr().err


def test_warmup_gaps_and_audit_need_no_dense_chain(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a dense warm-up chain was built")

    for name in ("metropolis_chain", "single_flip_proposal", "small_world_proposal"):
        monkeypatch.setattr(kernels, name, dense)
    # verify imports no metropolis_chain; the patch still covers one added later
    monkeypatch.setattr(verify, "metropolis_chain", dense, raising=False)
    report = verify.verify_warmup(2.0, 0.3, range(10, 41, 2))
    assert report.passed and len(report.records) == 16
    for kind in ("naive", "small-world"):
        rec = exact_gap_record(warmup(30, theta=2.0, epsilon=0.3), kind)
        assert rec["dim"] == 61 and 0 <= rec["gap"] <= 1


FULL_SPACE_CELLS = [
    *((ising(N, beta=1.0, p1=0.5, p2=0.25), kind) for N in (2, 4, 6, 8, 10)
      for kind in ("naive", "equi-energy")),
    *((beg(N, beta=1.0, K=1.0, p1=0.5, p2=0.25), kind) for N in (2, 4, 6)
      for kind in ("naive", "equi-energy")),
    (warmup(12, theta=2.0, epsilon=0.3), "small-world"),
]


@pytest.mark.parametrize("spec,kind", FULL_SPACE_CELLS,
                         ids=[f"{s.kind}-{s.N}-{k}" for s, k in FULL_SPACE_CELLS])
def test_full_space_sector_gap_matches_dense(spec, kind):
    # the spin chain's own gap: the full-space table carries the global
    # negation as its flip, so it splits into flip sectors like a class table
    table = metropolis_chain(spec, kind)
    want = gap(spectrum(table.to_kernel()))
    assert sector_spectrum(table).gap == pytest.approx(want, abs=1e-12)


def test_warmup_n20000_gap_without_dense_matrix():
    spec = warmup(20000, theta=2.0, epsilon=0.3)
    tracemalloc.start()
    try:
        rec = exact_gap_record(spec, "small-world")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["dim"] == 40001
    assert 0 < rec["gap"] < 1 and not rec["underflow"]
    assert peak < 100e6  # the dense chain and its proposal would need 12.8 GB each


def test_dense_warmup_chain_guards_size_before_allocating(tmp_path, capsys):
    # 2N + 1 = 10001 states: the dense cap covers the warm-up like the
    # other models
    tracemalloc.start()
    try:
        rc = main(["export-kernel", "--model", "warmup", "--n", "5000", "--theta", "2",
                   "--kind", "naive", "--space", "full", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_USAGE
    assert "10001 states exceed the dense materialization cap 8192" in capsys.readouterr().err
    assert not (tmp_path / "kernel.txt").exists()
    assert peak < 100e6


# ---------------------------------------------------------------------------
# Sector assembly on the triplets against the scipy.sparse assembly it replaced.
# ---------------------------------------------------------------------------

def _reference_mismatch(X, Y) -> float:
    D = abs(X - Y)
    D.eliminate_zeros()
    if D.nnz == 0:
        return 0.0
    return float(D.multiply(abs(X).maximum(abs(Y)).power(-1)).max())


def reference_flip_sectors(table):
    """The sectors as scipy.sparse matrices: the assembly the triplet route must match."""
    n = table.n
    idx = np.arange(n)
    rows = np.concatenate([table.rows, idx])
    cols = np.concatenate([table.cols, idx])
    hold = 1.0 - np.bincount(table.rows, weights=table.vals, minlength=n)
    vals = np.concatenate([table.vals, hold])
    lw = table.log_pi
    S = scipy.sparse.csr_array((vals * np.exp(0.5 * (lw[rows] - lw[cols])), (rows, cols)),
                               shape=(n, n))
    S.eliminate_zeros()
    _check_reversible(_reference_mismatch(S, S.T))
    A = ((S + S.T) * 0.5).tocsr()
    flip = table.flip
    err = _reference_mismatch(A, A[flip][:, flip])
    if err > REVERSIBILITY_TOL:
        raise SymmetryError(f"flip-invariance residual {err} exceeds {REVERSIBILITY_TOL}")
    A = A.tocoo()
    i, j = A.row, A.col
    fixed = flip == idx
    lower = np.minimum(idx, flip)
    orbit = np.unique(lower, return_inverse=True)[1]
    w = np.where(fixed[i] & fixed[j], 1.0,
                 np.where(fixed[i] | fixed[j], math.sqrt(0.5), 0.5))
    m = int(orbit.max()) + 1
    even = scipy.sparse.coo_array((w * A.data, (orbit[i], orbit[j])), shape=(m, m))
    pair = ~fixed[i] & ~fixed[j]
    odd_orbit = np.full(n, -1)
    odd_orbit[~fixed] = np.unique(lower[~fixed], return_inverse=True)[1]
    sign = np.where(idx == lower, 1.0, -1.0)
    i, j = i[pair], j[pair]
    m = int((~fixed).sum()) // 2
    odd = scipy.sparse.coo_array((0.5 * sign[i] * sign[j] * A.data[pair],
                                  (odd_orbit[i], odd_orbit[j])), shape=(m, m))
    root = np.bincount(orbit, weights=np.exp(0.5 * (lw - lw.max())))
    root /= np.sqrt(np.bincount(orbit))
    even, odd = (((M + M.T) * 0.5).tocsr() for M in (even.tocsr(), odd.tocsr()))
    return even, odd, root / np.sqrt(np.sum(root * root))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_sector(ref, got):
    coo = ref.tocoo()
    tridiagonal = bool(np.all(np.abs(coo.row - coo.col) <= 1))
    assert isinstance(got, tuple) == tridiagonal
    m = ref.shape[0]
    if tridiagonal:
        d, e = got
        assert len(d) == m and len(e) == max(m - 1, 0)
        if m:
            assert np.array_equal(bits(d), bits(ref.diagonal()))
            assert np.array_equal(bits(e), bits(ref.diagonal(1)))
        return
    assert isinstance(got, scipy.sparse.csr_array) and got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(bits(got.data), bits(ref.data))


def assert_same_assembly(table):
    """Both assemblies give the same sectors bit for bit, or the same refusal."""
    try:
        ref = reference_flip_sectors(table)
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            flip_sectors([table])
        assert str(got.value) == str(err)
        return
    ((even, odd, root),) = flip_sectors([table])
    assert_same_sector(ref[0], even)
    assert_same_sector(ref[1], odd)
    assert np.array_equal(bits(root), bits(ref[2]))


MODEL_TABLES = (
    [(ising(N, beta=b, p1=0.5, p2=0.25), kind)
     for N in (2, 4, 10, 80, 200) for b in (0.5, 1.0, 2.0, 4.0)
     for kind in ("naive", "equi-energy")]
    + [(beg(N, **cell), kind) for N in (2, 4, 10, 30)
       for cell in (dict(beta=1.0, K=1.0, p1=0.5, p2=0.25), dict(beta=1.5, K=2.0, p1=0.3, p2=0.6),
                    THREE_PHASE)
       for kind in ("naive", "equi-energy")]
    + [(warmup(N, theta=t, epsilon=e), kind) for N in (1, 2, 7, 40, 199)
       for t, e in ((1.05, 0.01), (2.0, 0.3), (3.3, 0.77))
       for kind in ("naive", "small-world")]
)


@pytest.mark.parametrize("spec,kind", MODEL_TABLES,
                         ids=[f"{s.kind}-N{s.N}-{k}-{i}" for i, (s, k) in enumerate(MODEL_TABLES)])
def test_triplet_sectors_match_the_sparse_assembly_bit_for_bit(spec, kind):
    assert_same_assembly(signed_move_table(spec, kind))


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_triplet_sectors_match_on_lanczos_sectors(kind):
    table = signed_move_table(beg(60, **THREE_PHASE), kind)
    ((even, odd, _),) = flip_sectors([table])
    assert min(even.shape[0], odd.shape[0]) > DENSE_SECTOR_MAX
    assert_same_assembly(table)


def test_a_one_state_chain_has_the_gap_of_its_dense_spectrum():
    # its even sector holds lambda_0 = 1 only, its odd sector nothing
    table = MoveTable(labels=(0,), log_pi=np.zeros(1), rows=np.zeros(0, dtype=np.intp),
                      cols=np.zeros(0, dtype=np.intp), vals=np.zeros(0),
                      flip=np.zeros(1, dtype=np.intp))
    assert sector_spectrum(table).gap == gap(spectrum(table.to_kernel())) == 1.0


def test_ising_n2_odd_sector_without_entries():
    # states S = -2, 0, 2 at beta = 0: both end states move to 0 with
    # probability 1, so the odd sector (e_-2 - e_2)/sqrt(2) holds no entry
    table = signed_move_table(ising(2, beta=0.0, p1=0.5, p2=0.25), "naive")
    ((even, odd, _),) = flip_sectors([table])
    assert len(even[0]) == 2
    assert np.array_equal(odd[0], [0.0]) and len(odd[1]) == 0
    assert_same_assembly(table)
    assert sector_spectrum(table).gap == pytest.approx(gap(spectrum(table.to_kernel())),
                                                       abs=1e-15)


def test_tridiagonal_sectors_build_no_sparse_matrix_and_beg_two_csr_each(monkeypatch):
    built = []
    for name in ("csr_array", "csc_array", "coo_array", "csr_matrix", "csc_matrix",
                 "coo_matrix"):
        cls = getattr(scipy.sparse, name)

        def counted(*args, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse, name, counted)
    for spec, kind in ((ising(200, beta=2.0, p1=0.5, p2=0.25), "equi-energy"),
                       (warmup(300, theta=2.0, epsilon=0.3), "small-world")):
        ((even, odd, _),) = flip_sectors([signed_move_table(spec, kind)])
        assert isinstance(even, tuple) and isinstance(odd, tuple)
    assert built == []
    ((even, odd, _),) = flip_sectors([signed_move_table(
        beg(30, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")])
    # per sector: the CSR matrix of all its entries, and its one block cut from it
    assert built == ["csr_array"] * 4


@st.composite
def flip_symmetric_tables(draw):
    """A reversible chain on n states that commutes with i -> n-1-i, as a move
    table whose moves are shuffled and split into repeated triplets."""
    n = draw(st.integers(1, 8))
    idx = np.arange(n)
    flip = idx[::-1].copy()
    half = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    lw = np.array(half)[np.minimum(idx, flip)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # a symmetric flow, then made flip-invariant: Q(i, j) = Q(j, i) = Q(Ji, Jj)
    Q = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    Q = 0.5 * (Q + Q.T)
    Q = 0.5 * (Q + Q[flip][:, flip])
    np.fill_diagonal(Q, 0.0)
    P = Q / np.exp(lw)[:, None]
    rowsum = P.sum(axis=1).max()
    if rowsum > 0:
        P *= draw(st.floats(0.3, 0.95)) / rowsum
    rows, cols = np.nonzero(P)
    moves = list(zip(rows.tolist(), cols.tolist()))
    # one move comes in three to five pieces of very different sizes, so the
    # order they are added in shows in the last bits; the others in one
    # piece, or up to three on five states or fewer (a row keeps at most 15
    # triplets)
    split = draw(st.integers(0, max(len(moves) - 1, 0)))
    triplets = []
    for k, (r, c) in enumerate(moves):
        if k == split:
            pieces = 10.0 ** -np.arange(draw(st.integers(3, 5)))
        else:
            pieces = rng.uniform(0.1, 1.0, int(rng.integers(1, 2 if n > 5 else 4)))
        triplets += [(r, c, P[r, c] * x / pieces.sum()) for x in pieces]
    order = draw(st.permutations(range(len(triplets))))
    triplets = [triplets[k] for k in order]
    rows = np.array([t[0] for t in triplets], dtype=np.intp)
    cols = np.array([t[1] for t in triplets], dtype=np.intp)
    vals = np.array([t[2] for t in triplets], dtype=float)
    return MoveTable(labels=tuple(range(n)), log_pi=lw, rows=rows, cols=cols, vals=vals,
                     flip=flip)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flip_symmetric_tables())
def test_triplet_sectors_match_on_random_tables_with_repeated_moves(table):
    assert_same_assembly(table)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=flip_symmetric_tables(), k=st.integers(0, 10**6),
       factor=st.sampled_from([1.0 + 3e-9, 1.0 + 2e-8, 1.3, 0.0]))
def test_refusals_carry_the_reference_residual(table, k, factor):
    # scale the triplets of one move: alone it breaks detailed balance, with
    # its reverse ("pair") the flip symmetry, with the mirrors of both
    # ("orbit") neither
    if not len(table.vals):
        return
    scope = ("move", "pair", "orbit")[k % 3]
    k %= len(table.vals)
    r, c = int(table.rows[k]), int(table.cols[k])
    moves = {(r, c)} if scope == "move" else {(r, c), (c, r)}
    if scope == "orbit":
        moves |= {(int(table.flip[x]), int(table.flip[y])) for x, y in moves}
    hit = np.array([m in moves for m in zip(table.rows.tolist(), table.cols.tolist())])
    vals = np.where(hit, table.vals * factor, table.vals)
    assert_same_assembly(MoveTable(labels=table.labels, log_pi=table.log_pi, rows=table.rows,
                                   cols=table.cols, vals=vals, flip=table.flip))


def test_a_move_without_its_reverse_is_refused():
    table = three_state_table([(0, 1, 0.3), (1, 0, 0.3), (1, 2, 0.3)])
    with pytest.raises(NonReversibleError, match="detailed-balance residual 1.0 exceeds 1e-08"):
        flip_sectors([table])
    assert_same_assembly(table)
    asym = three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 2, 0.3), (2, 1, 0.3)])
    with pytest.raises(SymmetryError) as err:
        flip_sectors([asym])
    with pytest.raises(SymmetryError, match=str(err.value)):
        reference_flip_sectors(asym)


@pytest.mark.parametrize("N", [6, 10, 40])
def test_holding_masses_zero_up_to_rounding_match_their_mirrors(N):
    # naive BEG at beta = 0 moves with probability 1: the holding mass
    # 1 - (row sum) is 0 at (s, r) and 1.1e-16 at (-s, r) for some classes,
    # since the two rows add the same moves in different orders.  The
    # sparse assembly refused this flip-invariant chain (residual 1.0).
    spec = beg(N, beta=0.0, K=1.0, p1=0.5, p2=0.25)
    table = signed_move_table(spec, "naive")
    with pytest.raises(SymmetryError, match="residual 1.0 exceeds"):
        reference_flip_sectors(table)
    assert_matches_dense(spec, "naive")


def test_warmup_n100000_sectors_stay_small():
    # the sparse assembly peaked at 155 MB here; the triplet route at 84 MB
    table = signed_move_table(warmup(100000, theta=2.0, epsilon=0.3), "small-world")
    tracemalloc.start()
    try:
        s = sector_spectrum(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.dim == 200001 and 0 < s.gap < 1
    assert peak < 100e6


def test_tridiagonal_extremes_match_eigh_tridiagonal_bit_for_bit():
    """dstebz called directly gives the bits of eigh_tridiagonal(select="i")."""
    import scipy.linalg

    def extremes(d, e, top):
        return tuple(float(scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                                         select_range=(k, k))[0])
                     for k in (top, 0))

    rng = np.random.default_rng(7)
    for m in range(1, 220, 3):
        for scale in (1.0, 1e-3, 1e-12):
            d = rng.uniform(-1.0, 1.0, m)
            e = rng.uniform(-1.0, 1.0, m - 1) * scale
            assert _sector_extremes((d, e)) == extremes(d, e, m - 1)
            if m > 1:
                u = np.zeros(m)  # only its presence matters on this route
                assert _sector_extremes((d, e), u) == extremes(d, e, m - 2)
    assert _sector_extremes((np.array([0.25]), np.zeros(0))) == (0.25, 0.25)
    assert _sector_extremes((np.array([0.25]), np.zeros(0)), np.ones(1)) == (-math.inf, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_sector_entry_that_is_not_finite_is_refused_at_assembly(bad):
    # a tridiagonal sector (the three-state chain) and a sparse one (BEG N = 6)
    tridiagonal = three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 2, bad), (2, 1, bad)])
    table = signed_move_table(beg(6, **BEG_CELL), "naive")
    ((even, _, _),) = flip_sectors([table])
    assert not isinstance(even, tuple)
    sparse = MoveTable(labels=table.labels, log_pi=table.log_pi, rows=table.rows,
                       cols=table.cols, vals=np.concatenate([[bad], table.vals[1:]]),
                       flip=table.flip)
    for t in (tridiagonal, sparse):
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            flip_sectors([t])


# ---------------------------------------------------------------------------
# Stacked assembly: consecutive small tables share one pass.
# ---------------------------------------------------------------------------

def batched(tables):
    """The tables solved a run at a time, each run stacked (``oracles.stack``) and
    solved in one pass; a run that holds a malformed table one table at a time,
    so that each is refused as it is alone."""
    spectra = []
    for run in _stacks(tables, lambda t: t.n):
        try:
            stack = oracles.stack(run)
        except ValueError:
            spectra += one_by_one(run)
        else:
            spectra += _stack_spectra(stack, [t.n for t in run])
    return spectra


def one_by_one(tables):
    return [sector_spectrum(t) for t in tables]


def outcome(solve, tables):
    """solve(tables), or the exact type and message of what it raised."""
    try:
        return solve(tables)
    except Exception as err:
        return type(err), str(err)


BEG_CELL = dict(beta=1.0, K=1.0, p1=0.5, p2=0.25)

# Ising, warm-up, BEG with dense sectors (N = 20: 231 states) and with
# Lanczos sectors (N = 40: 861 states, both sectors past DENSE_SECTOR_MAX),
# in an order whose running total crosses STACK_STATES several times
STRADDLING = (
    [(ising(N, beta=b, p1=0.5, p2=0.25), k) for N in (2, 10, 100) for b in (0.5, 2.0)
     for k in ("naive", "equi-energy")]
    + [(warmup(N, theta=2.0, epsilon=0.3), k) for N in (1, 20, 300)
       for k in ("small-world", "naive")]
    + [(beg(20, **BEG_CELL), "equi-energy"), (beg(40, **THREE_PHASE), "naive"),
       (ising(50, beta=1.0, p1=0.5, p2=0.25), "equi-energy"), (beg(6, **BEG_CELL), "naive"),
       (beg(40, **BEG_CELL), "equi-energy"), (beg(20, **THREE_PHASE), "naive"),
       (warmup(5, theta=1.5, epsilon=0.5), "small-world")]
)


def straddling_tables():
    return [signed_move_table(spec, kind) for spec, kind in STRADDLING]


def test_the_straddling_tables_stack_past_the_budget_and_hold_every_sector_route():
    tables = straddling_tables()
    stacks = list(_stacks(tables, lambda t: t.n))
    assert [t for stack in stacks for t in stack] == tables
    assert all(sum(t.n for t in stack) <= STACK_STATES for stack in stacks)
    assert sum(len(stack) > 1 for stack in stacks) >= 3
    routes, mixed = set(), False
    for stack in stacks:
        here = {"tridiagonal" if isinstance(M, tuple)
                else "dense" if M.shape[0] <= DENSE_SECTOR_MAX else "lanczos"
                for sectors in flip_sectors(stack) for M in sectors[:2]}
        routes |= here
        mixed |= len(stack) > 1 and {"tridiagonal", "lanczos"} <= here
    assert routes == {"tridiagonal", "dense", "lanczos"}
    # a stack with a Lanczos BEG table beside tridiagonal ones
    assert mixed


def test_a_batch_equals_its_tables_solved_one_by_one():
    tables = straddling_tables()
    assert batched(tables) == one_by_one(tables)


def test_stacked_sectors_have_the_bits_dtypes_and_order_of_sectors_assembled_alone():
    for stack in _stacks(straddling_tables(), lambda t: t.n):
        for table, (even, odd, root) in zip(stack, flip_sectors(stack)):
            ((even1, odd1, root1),) = flip_sectors([table])
            for got, want in ((even, even1), (odd, odd1)):
                assert isinstance(got, tuple) == isinstance(want, tuple)
                arrays = (lambda M: M if isinstance(M, tuple)
                          else (M.indptr, M.indices, M.data))
                for x, y in zip(arrays(got), arrays(want), strict=True):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert np.array_equal(bits(root), bits(root1))


@st.composite
def table_lists(draw):
    """A few random flip-symmetric tables and model tables, in any order."""
    tables = draw(st.lists(flip_symmetric_tables(), min_size=1, max_size=4))
    models = draw(st.lists(st.sampled_from(range(len(STRADDLING))), max_size=4))
    tables += [signed_move_table(*STRADDLING[k]) for k in models]
    return draw(st.permutations(tables))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(table_lists())
def test_a_batch_of_random_tables_equals_them_solved_one_by_one(tables):
    assert outcome(batched, tables) == outcome(one_by_one, tables)


def test_with_a_budget_of_one_state_every_audit_writes_the_same_bytes(tmp_path, monkeypatch):
    commands = [
        "verify ising-fast --beta 0.5,2 --n 10..40..2 --p1 0.5 --p2 0.25",
        "verify ising-slow --beta 2 --n 10..60..2",
        "verify warmup --theta 2 --epsilon 0.3 --n 10..60..2",
        "verify beg-slow --beta-k 3:5,1.5:2 --deep 3:5,1.5:2 --n 6..24..2",
        "verify beg-fast --beta-k 1:1 --n 6..30..2 --p1 0.5 --p2 0.25",
        "gap-scan --model ising --kind equi-energy --beta 2 --n 10..60..2 --p1 0.5 --p2 0.25",
        "gap-scan --model beg --kind naive --beta 1.5 --k 2 --n 4..40..6",
    ]
    widths = []
    stack = spectral._flip_sectors
    monkeypatch.setattr(spectral, "_flip_sectors",
                        lambda table, sizes: widths.append(len(sizes)) or stack(table, sizes))

    def run(tag):
        out = {}
        for i, command in enumerate(commands):
            d = tmp_path / tag / str(i)
            assert main([*command.split(), "--out", str(d)]) == 0
            out.update({p.relative_to(tmp_path / tag): p.read_bytes()
                        for p in sorted(d.rglob("*")) if p.is_file()})
        return out

    stacked = run("stacked")
    assert max(widths) > 1
    widths.clear()
    monkeypatch.setattr(spectral, "STACK_STATES", 1)
    alone = run("alone")
    assert set(widths) == {1}
    assert alone.keys() == stacked.keys() and len(alone) > 20
    assert [k for k in alone if alone[k] != stacked[k]] == []


GOOD = [signed_move_table(ising(10, beta=1.0, p1=0.5, p2=0.25), "equi-energy"),
        signed_move_table(warmup(5, theta=2.0, epsilon=0.3), "small-world"),
        signed_move_table(beg(6, **BEG_CELL), "naive")]
NONREVERSIBLE = three_state_table([(0, 1, 0.3), (1, 0, 0.1), (1, 2, 0.1), (2, 1, 0.3)])


def one_state_table(target):
    return MoveTable(labels=(0,), log_pi=np.zeros(1), rows=np.array([0]),
                     cols=np.array([target]), vals=np.array([0.5]), flip=np.array([0]))


# runs of tables that fail, or would pass, only alone
# the uniform walk on three states with holding 0.3
CYCLE_MOVES = [(i, j, 0.35) for i in range(3) for j in range(3) if i != j]

MALFORMED = {
    "nonreversible": [NONREVERSIBLE],
    "not-flip-symmetric": [three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 2, 0.3),
                                              (2, 1, 0.3)])],
    # a NaN residual passes the tolerance test, so in a stack it would hide
    # the residual of another table
    "nan-rate": [three_state_table([(0, 1, math.nan), (1, 0, math.nan), (1, 2, 0.2),
                                    (2, 1, 0.2)])],
    "move-past-the-end": [three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, 3, 0.2),
                                             (2, 1, 0.2)])],
    # refused alone as out of range, though -1 would wrap to the last
    # state; shifted in a stack it would not
    "negative-index": [three_state_table([(0, 1, 0.2), (1, 0, 0.2), (1, -1, 0.2),
                                          (2, 1, 0.2)])],
    # the chain commutes with the 3-cycle, so only the involution check refuses it
    "flip-not-an-involution": [three_state_table(CYCLE_MOVES, flip=(1, 2, 0))],
    # each refused alone as out of range; stacked, they would make one
    # reversible, flip-invariant chain across the two tables
    "moves-into-the-neighbour": [one_state_table(1), one_state_table(-1)],
    "empty": [MoveTable(labels=(), log_pi=np.zeros(0), rows=np.zeros(0, dtype=np.intp),
                        cols=np.zeros(0, dtype=np.intp), vals=np.zeros(0),
                        flip=np.zeros(0, dtype=np.intp))],
    # refused alone by its dtype; solved, it would be reversible to 1e-8 in
    # float32 arithmetic, and other bits in float64
    "log-weights-in-float32": [MoveTable(
        labels=(-1, 0, 1), log_pi=np.array([0.25, 0.0, 0.25], dtype=np.float32),
        rows=np.array([0, 1, 1, 2]), cols=np.array([1, 0, 2, 1]),
        vals=np.array([0.2 * math.exp(-0.25), 0.2, 0.2, 0.2 * math.exp(-0.25)]),
        flip=np.array([2, 1, 0]))],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("where", [0, 1, 3])
@pytest.mark.parametrize("nonreversible_first", [False, True])
def test_a_malformed_table_in_a_batch_fails_as_it_fails_alone(name, where,
                                                              nonreversible_first):
    tables = GOOD[:where] + MALFORMED[name] + GOOD[where:]
    tables = [NONREVERSIBLE] + tables if nonreversible_first else tables + [NONREVERSIBLE]
    assert sum(t.n for t in tables) <= STACK_STATES
    want = outcome(one_by_one, tables)
    # the first table that fails alone is the one that fails the batch
    assert want[0] in (NonReversibleError, SymmetryError, ValueError, IndexError)
    assert outcome(batched, tables) == want
    # and with no other table refused, the same spectra or the same refusal
    tables = GOOD + MALFORMED[name] + GOOD
    assert outcome(batched, tables) == outcome(one_by_one, tables)


@pytest.mark.parametrize("name,message", [
    ("flip-not-an-involution", "a move table's flip is not an involution"),
    ("negative-index", "a move table indexes outside its own states"),
])
def test_the_table_check_refuses_a_table_alone_and_in_a_batch(name, message):
    # with flip (1, 2, 0) the sectors read a gap of 0.85 where the dense gap is 0.95
    (table,) = MALFORMED[name]
    for tables in ([table], [*GOOD, table, *GOOD]):
        for solve in (one_by_one, batched):
            with pytest.raises(ValueError) as got:
                solve(tables)
            assert type(got.value) is ValueError and str(got.value) == message


def test_the_first_malformed_table_in_order_fails_the_batch():
    (asym,) = MALFORMED["not-flip-symmetric"]
    with pytest.raises(SymmetryError) as alone:
        sector_spectrum(asym)
    with pytest.raises(NonReversibleError) as nonrev:
        sector_spectrum(NONREVERSIBLE)
    for tables, err in (([*GOOD, asym, NONREVERSIBLE], alone.value),
                        ([*GOOD, NONREVERSIBLE, asym], nonrev.value)):
        with pytest.raises(type(err)) as got:
            batched(tables)
        assert type(got.value) is type(err) and str(got.value) == str(err)


# ---------------------------------------------------------------------------
# Class tables carry their move pairs: the sectors by index arithmetic alone.
# ---------------------------------------------------------------------------

def unpaired(table):
    """The table without its reverse and mirror: the generic assembly's input."""
    return dataclasses.replace(table, reverse=None, mirror=None)


def assert_same_block(want, got):
    assert isinstance(got, tuple) == isinstance(want, tuple)
    if isinstance(want, tuple):
        assert all(len(w) == len(g) and np.array_equal(bits(w), bits(g))
                   for w, g in zip(want, got))
        return
    assert got.shape == want.shape
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(bits(got.data), bits(want.data))


def assert_pairs_match_the_generic_assembly(tables):
    """The paired and the generic assembly: the same sectors bit for bit, or the same refusal."""
    want = outcome(flip_sectors, [unpaired(t) for t in tables])
    got = outcome(flip_sectors, tables)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want) == len(tables)
    for w, g in zip(want, got):
        assert_same_block(w[0], g[0])
        assert_same_block(w[1], g[1])
        assert np.array_equal(bits(w[2]), bits(g[2]))


PAIRED = [(model, N, cell, kind)
          for model, cells in (("ising", (dict(beta=0.5), dict(beta=2.0))),
                               ("beg", (dict(beta=1.0, K=1.0), dict(beta=1.5, K=2.0),
                                        dict(beta=0.0, K=1.0))))
          for cell in cells for N in (2, 4, 6, 10, 16, 30, 50, 80)
          for kind in ("naive", "equi-energy")]
WEIGHTS = ((0.5, 0.25), (0.3, 0.4))


def paired_table(model, N, cell, kind, p):
    make = ising if model == "ising" else beg
    return signed_move_table(make(N, **cell, p1=p[0], p2=p[1]), kind)


@pytest.mark.parametrize("p", WEIGHTS)
@pytest.mark.parametrize("model,N,cell,kind", PAIRED)
def test_paired_sectors_equal_the_generic_assembly_bit_for_bit(model, N, cell, kind, p):
    # BEG's odd rows hold the classes |s| = 1, where a one-site move and the
    # flip reach the same class; at beta = 0 a naive holding mass is 0 at
    # (s, r) and 1.1e-16 at (-s, r)
    table = paired_table(model, N, cell, kind, p)
    assert table.reverse is not None
    assert_pairs_match_the_generic_assembly([table])


@pytest.mark.parametrize("p", WEIGHTS)
def test_paired_stacks_of_mixed_sizes_equal_the_generic_assembly(p):
    tables = [paired_table(*key, p) for key in PAIRED if key[1] <= 16]
    stacks = list(_stacks(tables, lambda t: t.n))
    assert len(stacks) > 1 and max(len(s) for s in stacks) > 10
    for stack in stacks:
        assert_pairs_match_the_generic_assembly(stack)
    assert batched(tables) == one_by_one([unpaired(t) for t in tables])


def test_paired_sectors_match_on_lanczos_sectors():
    table = signed_move_table(beg(60, **THREE_PHASE), "equi-energy")
    assert_pairs_match_the_generic_assembly([table])


def scaled(table, moves, factor):
    """``table`` with the rates of ``moves`` scaled, its move pairs kept."""
    vals = table.vals.copy()
    vals[moves] *= factor
    return dataclasses.replace(table, vals=vals)


@pytest.mark.parametrize("spec", [ising(10, beta=1.0, p1=0.5, p2=0.25), beg(6, **BEG_CELL)],
                         ids=["ising", "beg"])
@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
def test_a_perturbed_rate_is_refused_as_the_generic_assembly_refuses_it(spec, kind):
    table = signed_move_table(spec, kind)
    for k in range(len(table.vals)):
        # a move, its reverse kept: detailed balance fails
        bad = scaled(table, [k], 1.3)
        assert outcome(flip_sectors, [bad])[0] is NonReversibleError
        assert_pairs_match_the_generic_assembly([bad])
        # a move and its reverse, their mirrors kept: flip invariance fails
        if table.mirror[k] not in (k, table.reverse[k]):
            bad = scaled(table, [k, table.reverse[k]], 1.3)
            assert outcome(flip_sectors, [bad])[0] is SymmetryError
            assert_pairs_match_the_generic_assembly([bad])
        assert_pairs_match_the_generic_assembly([scaled(table, [k], 1.0 + 3e-9)])
        with np.errstate(invalid="ignore"):
            nan = scaled(table, [k], math.nan)
            assert outcome(flip_sectors, [nan]) == (ValueError,
                                                     "array must not contain infs or NaNs")
            assert_pairs_match_the_generic_assembly([nan])
            # in a stack, the NaN residual hides no other table's refusal
            stack = [table, nan, scaled(table, [k], 1.3)]
            assert outcome(batched, stack) == outcome(one_by_one, [unpaired(t) for t in stack])


DEEP = [(ising(10, beta=400.0), "naive"),
        (ising(10, beta=400.0, p1=0.5, p2=0.25), "equi-energy"),
        (ising(20, beta=1000.0), "naive"),
        (ising(20, beta=1000.0, p1=0.5, p2=0.25), "equi-energy"),
        (beg(6, beta=400.0, K=1.0, p1=0.5, p2=0.25), "equi-energy"),
        (beg(8, beta=300.0, K=5.0), "naive")]


@pytest.mark.parametrize("spec,kind", DEEP)
def test_a_rate_that_underflowed_takes_its_reverses_entry(spec, kind):
    # a downhill rate past e^-708 is subnormal or 0: its entry comes out
    # inexact, 0 or 0 * inf = NaN, its reverse's exactly
    table = signed_move_table(spec, kind)
    assert (table.vals < np.finfo(float).tiny).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not isinstance(outcome(flip_sectors, [table]), tuple)
        assert_pairs_match_the_generic_assembly([table])
        assert batched([table] * 3) == one_by_one([table] * 3)


def test_a_full_space_rate_that_underflowed_to_0_takes_its_reverses_entry():
    # the downhill rates out of S = 3 are 0 and their entries 0 * e^666: the
    # generic assembly keeps their keys, so that they take their reverse's entry
    chain = metropolis_chain(ising(6, beta=1000.0), "naive")
    assert (chain.vals == 0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sector_spectrum(chain).gap < spectral.GAP_RESOLUTION


def test_a_pair_that_fails_with_both_rates_normal_is_still_refused():
    table = signed_move_table(ising(10, beta=400.0), "naive")
    normal = table.vals >= np.finfo(float).tiny
    pairs = np.flatnonzero(normal & normal[table.reverse]
                           & (table.reverse != np.arange(normal.size)))
    assert pairs.size and not normal.all()
    for k in pairs:
        bad = scaled(table, [k], 1.3)
        assert outcome(flip_sectors, [bad])[0] is NonReversibleError
        assert_pairs_match_the_generic_assembly([bad])
    # a zero rate whose reverse implies a normal one is a missing move
    table = three_state_table([(0, 1, 0.0), (1, 0, 0.3), (1, 2, 0.3), (2, 1, 0.0)])
    with pytest.raises(NonReversibleError, match="detailed-balance residual 1.0 exceeds 1e-08"):
        flip_sectors([table])


def test_the_paired_assembly_sorts_and_searches_nothing_but_scipy_orders_the_csr_rows(
        monkeypatch):
    tables = [signed_move_table(beg(30, **BEG_CELL), "equi-energy"),
              signed_move_table(ising(40, beta=2.0, p1=0.5, p2=0.25), "naive")]
    want = [flip_sectors([unpaired(t)]) for t in tables]

    def refuse(*args, **kwargs):
        raise AssertionError("a sort or a binary search")

    for name in ("argsort", "sort", "searchsorted", "unique", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(spectral, "_coalesce", refuse)
    monkeypatch.setattr(spectral, "_at", refuse)
    for table, w in zip(tables, want):
        ((even, odd, root),) = flip_sectors([table])
        assert_same_block(w[0][0], even)
        assert_same_block(w[0][1], odd)


def test_move_pairs_out_of_range_are_refused_alone_and_in_a_batch():
    table = signed_move_table(beg(6, **BEG_CELL), "naive")
    past = len(table.rows)
    for bad in (dataclasses.replace(table, reverse=table.reverse + past),
                dataclasses.replace(table, mirror=table.mirror - past)):
        for tables in ([bad], [*GOOD, bad, *GOOD]):
            with pytest.raises(ValueError, match="^a move table's reverse or mirror points "
                                                 "outside its moves$"):
                batched(tables)


def relabelled(table, perm):
    """``table`` with state x renamed perm[x]; its moves and move pairs keep their order."""
    inverse = np.argsort(perm)
    return dataclasses.replace(table, labels=tuple(table.labels[i] for i in inverse),
                               log_pi=table.log_pi[inverse], rows=perm[table.rows],
                               cols=perm[table.cols], flip=perm[table.flip[inverse]])


def test_move_pairs_that_disagree_with_the_moves_are_refused_alone_and_in_a_batch():
    table = signed_move_table(beg(10, **BEG_CELL), "equi-energy")
    assert sector_spectrum(table).gap == pytest.approx(0.0291, abs=1e-4)
    # S = -4 and S = 4 swap indices: the move -2 -> -4 now leads up past its
    # mirror, though the chain and its spectrum are the same
    ising4 = signed_move_table(ising(4, beta=1.0), "naive")
    swapped = relabelled(ising4, np.array([4, 1, 2, 3, 0]))
    assert sector_spectrum(unpaired(swapped)) == sector_spectrum(ising4)
    moves = np.arange(len(table.rows))
    for bad in (dataclasses.replace(table, reverse=moves),  # not j -> i
                dataclasses.replace(table, mirror=table.reverse),  # not Ji -> Jj
                swapped):
        for tables in ([bad], [*GOOD, bad, *GOOD]):
            with pytest.raises(ValueError, match="^a move table's reverse or mirror "
                                                 "disagrees with its moves$"):
                batched(tables)


def split(table):
    """``table`` with every move listed twice at half its rate, its move pairs kept."""
    nnz = len(table.rows)
    return dataclasses.replace(table, rows=np.tile(table.rows, 2), cols=np.tile(table.cols, 2),
                               vals=np.tile(table.vals * 0.5, 2),
                               reverse=np.concatenate([table.reverse, table.reverse + nnz]),
                               mirror=np.concatenate([table.mirror, table.mirror + nnz]))


TWICE = "^a flip sector is given one of its entries twice$"


@pytest.mark.parametrize("spec,kind", [
    (ising(6, beta=1.0), "naive"), (ising(6, beta=1.0, p1=0.5, p2=0.25), "equi-energy"),
    (beg(6, **BEG_CELL), "naive"), (beg(6, **BEG_CELL), "equi-energy")],
    ids=["ising-naive", "ising-equi-energy", "beg-naive", "beg-equi-energy"])
def test_a_sector_entry_given_twice_is_refused_alone_and_in_a_batch(spec, kind):
    # each move and its copy keep one sector entry each: summed, they give the
    # chain's own gap, and either one read alone a wrong one
    table = signed_move_table(spec, kind)
    bad = split(table)
    want = gap(spectrum(table.to_kernel()))
    assert sector_spectrum(unpaired(bad)).gap == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match=TWICE):
        sector_spectrum(bad)
    # between tables that carry their move pairs too, so that the stack is paired
    paired = [t for t in GOOD if t.reverse is not None]
    for tables in ([bad], [*paired, bad, *paired]):
        with pytest.raises(ValueError, match=TWICE):
            _stack_spectra(oracles.stack(tables), [t.n for t in tables])


@st.composite
def block_entries(draw):
    """Random blocks, empty, one-state, tridiagonal and wider, as (starts, row-major
    rows, cols, vals) of their nonzero entries."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    starts = np.cumsum([0, *sizes])
    entries = []
    for lo, m in zip(starts[:-1].tolist(), sizes):
        band = draw(st.booleans())
        cells = [(i, j) for i in range(m) for j in range(m) if not band or abs(i - j) <= 1]
        for i, j in draw(st.lists(st.sampled_from(cells), unique=True) if cells
                         else st.just([])):
            entries.append((lo + i, lo + j, draw(st.floats(-2.0, 2.0).filter(bool))))
    entries.sort()
    rows, cols = (np.array([e[k] for e in entries], dtype=np.intp) for k in (0, 1))
    return starts, rows, cols, np.array([e[2] for e in entries], dtype=float)


def sector_arrays(M):
    return M if isinstance(M, tuple) else (M.indptr, M.indices, M.data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blocks=block_entries(), order=st.randoms(use_true_random=False), repeat=st.booleans())
def test_blocks_take_their_entries_in_any_order(blocks, order, repeat):
    starts, rows, cols, vals = blocks
    perm = np.arange(len(rows))
    order.shuffle(perm)
    if repeat and len(rows):
        # one entry given twice, in either order, is refused
        perm = np.append(perm, perm[0])
        for at in (np.sort(perm), perm):
            with pytest.raises(ValueError, match=TWICE):
                spectral._blocks(rows[at], cols[at], vals[at], starts)
        return
    want = spectral._blocks(rows, cols, vals, starts)
    got = spectral._blocks(rows[perm], cols[perm], vals[perm], starts)
    dense = np.zeros((starts[-1],) * 2)
    dense[rows, cols] = vals
    for lo, hi, w, g in zip(starts[:-1], starts[1:], want, got, strict=True):
        block = dense[lo:hi, lo:hi]
        assert isinstance(w, tuple) == (np.abs(np.subtract(*np.nonzero(block))) <= 1).all()
        assert isinstance(g, tuple) == isinstance(w, tuple)
        for x, y in zip(sector_arrays(g), sector_arrays(w), strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        full = (np.diag(w[0]) + np.diag(w[1], 1) if isinstance(w, tuple) else w.toarray())
        assert np.array_equal(np.triu(full), np.triu(block))


# ---------------------------------------------------------------------------
# Class chains built a stack at a time.
# ---------------------------------------------------------------------------

def state_count(cell):
    return models.state_count(cell[0], "signed")


def runs_of(cells):
    """The stacks the audits build of ``cells``: runs of one kind and one spec but
    its N, of STACK_STATES states at most."""
    same = itertools.groupby(cells, lambda cell: (cell[1], {**vars(cell[0]), "N": 0}))
    return [run for _, group in same for run in _stacks(group, state_count)]


def build(run):
    """``signed_move_stack`` of a run of cells."""
    (spec, kind), Ns = run[0], [cell[0].N for cell in run]
    return kernels.signed_move_stack(spec, kind, Ns)


# N runs that span at least three stacks each, as the audits cut them
STACKED_RUNS = [
    (ising, dict(beta=0.5), range(2, 200, 4)),
    (ising, dict(beta=2.0), range(10, 400, 10)),
    (beg, dict(beta=1.0, K=1.0), range(2, 32, 2)),
    (beg, dict(beta=1.5, K=2.0), range(2, 40, 4)),
    (beg, dict(beta=0.0, K=1.0), range(30, 2, -2)),
]


def stacked_cells(make, cell, Ns, kind, p):
    return [(make(N, **cell, p1=p[0], p2=p[1]), kind) for N in Ns]


def warmup_cells(Ns):
    """The small-world, then the naive warm-up cells, as ``verify_warmup`` solves them."""
    return [(warmup(N, theta=2.0, epsilon=0.3), kind) for kind in ("small-world", "naive")
            for N in Ns]


def assert_same_table(got, want, pair_dtypes=True):
    """The same arrays, bit for bit, in the same order and with the same dtypes."""
    assert got.labels == want.labels
    for field in ("log_pi", "vals", "rows", "cols", "flip", "reverse", "mirror"):
        x, y = getattr(got, field), getattr(want, field)
        if y is None:
            assert x is None, field
            continue
        # oracles.stack widens the int32 move pairs as it shifts them; both are indices
        same_dtype = x.dtype == y.dtype or (not pair_dtypes and field in ("reverse", "mirror")
                                            and x.dtype.kind == y.dtype.kind == "i")
        assert same_dtype, (field, x.dtype, y.dtype)
        assert x.shape == y.shape and x.tobytes() == y.astype(x.dtype).tobytes(), field


def assert_the_stacked_build_is_the_stack_of_single_builds(cells):
    runs = runs_of(cells)
    assert len(runs) >= 3 and max(len(run) for run in runs) > 1
    for run in runs:
        tables = [signed_move_table(*cell) for cell in run]
        stack, sizes = build(run), [t.n for t in tables]
        assert sizes == [state_count(cell) for cell in run]
        assert_same_table(stack, oracles.stack(tables), pair_dtypes=len(run) == 1)
        # each table cut out of the stack is the table built alone
        for got, want in zip(kernels._unstack(stack, sizes), tables, strict=True):
            assert_same_table(got, want)
        for got, want in zip(_flip_sectors(stack, sizes), flip_sectors(tables), strict=True):
            assert_same_block(want[0], got[0])
            assert_same_block(want[1], got[1])
            assert np.array_equal(bits(want[2]), bits(got[2]))
        assert spectral._stack_spectra(stack, sizes) == one_by_one(tables)


@pytest.mark.parametrize("p", WEIGHTS)
@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
@pytest.mark.parametrize("make,cell,Ns", STACKED_RUNS)
def test_a_stack_of_class_chains_is_the_stack_of_the_tables_built_alone(make, cell, Ns, kind, p):
    assert_the_stacked_build_is_the_stack_of_single_builds(
        stacked_cells(make, cell, Ns, kind, p))


def test_a_stack_of_warmup_chains_is_the_stack_of_the_tables_built_alone():
    assert_the_stacked_build_is_the_stack_of_single_builds(warmup_cells(range(1, 300, 7)))


def test_a_stack_holds_cells_that_differ_in_n_alone(monkeypatch):
    built = []
    real = kernels.signed_move_stack

    def counted(spec, kind, Ns):
        built.append((spec, kind, list(Ns)))
        return real(spec, kind, Ns)

    monkeypatch.setattr(verify, "signed_move_stack", counted)
    # cells that differ in beta, K, p1/p2, theta, epsilon or kind
    apart = [[(ising(10, beta=1.0), "naive"), (ising(12, beta=2.0), "naive")],
             [(beg(6, **BEG_CELL), "naive"),
              (beg(8, beta=1.0, K=2.0, p1=0.5, p2=0.25), "naive")],
             [(ising(10, beta=1.0, p1=0.5, p2=0.25), "equi-energy"),
              (ising(12, beta=1.0, p1=0.4, p2=0.25), "equi-energy")],
             [(warmup(4, theta=2.0), "naive"), (warmup(6, theta=3.0), "naive")],
             [(warmup(4, theta=2.0, epsilon=0.3), "small-world"),
              (warmup(6, theta=2.0, epsilon=0.2), "small-world")],
             [(ising(10, beta=1.0, p1=0.5, p2=0.25), "naive"),
              (ising(12, beta=1.0, p1=0.5, p2=0.25), "equi-energy")],
             warmup_cells([3])]
    for cells in apart:
        built.clear()
        list(verify._solved(cells))
        assert built == [(spec, kind, [spec.N]) for spec, kind in cells]
    # cells that differ in N alone share a stack
    built.clear()
    cells = [(ising(N, beta=1.0, p1=0.5, p2=0.25), "equi-energy") for N in (10, 12)]
    list(verify._solved(cells))
    assert built == [(cells[0][0], "equi-energy", [10, 12])]


def test_a_stack_takes_one_stable_sort_and_its_class_chains_no_search(monkeypatch):
    cells = [run for make, cell, Ns in STACKED_RUNS[:3]
             for run in runs_of(stacked_cells(make, cell, Ns, "equi-energy", WEIGHTS[1]))]
    cells += [run[:1] for run in cells[:3]]  # a lone table takes no sort
    warm = runs_of(warmup_cells(range(1, 120, 7)))
    want = [build(run) for run in cells + warm]
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        assert kwargs == {"kind": "stable"}
        sorts.append(args)
        return argsort(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a sort or a binary search")

    for name in ("sort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np, "argsort", counted)
    # a warm-up stack is coalesced (one sort) and metropolized, which finds
    # each move's reverse by binary search
    got = [build(run) for run in warm]
    assert len(sorts) == len(warm)
    sorts.clear()
    monkeypatch.setattr(np, "searchsorted", refuse)
    monkeypatch.setattr(kernels, "_at", refuse)
    monkeypatch.setattr(kernels, "_coalesce", refuse)
    got = [build(run) for run in cells] + got
    assert len(sorts) == sum(len(run) > 1 for run in cells) < len(cells)
    for g, w in zip(got, want, strict=True):
        assert_same_table(g, w)


def test_an_audit_sizes_its_stacks_before_it_builds_them(monkeypatch):
    built = []
    real = kernels.signed_move_stack

    def counted(spec, kind, Ns):
        built.append(list(Ns))
        return real(spec, kind, Ns)

    monkeypatch.setattr(verify, "signed_move_stack", counted)
    # no table is built alone
    monkeypatch.setattr(verify, "signed_move_table", None, raising=False)
    Ns = range(10, 202, 2)
    verify.verify_ising_fast([0.5, 2.0], Ns, 0.5, 0.25)
    # a stack holds one beta: the run of each beta is cut by the N of its cells
    assert built == [[spec.N for spec, _ in run] for b in (0.5, 2.0) for run in runs_of(
        [(ising(N, beta=b, p1=0.5, p2=0.25), "equi-energy") for N in Ns])]
    assert all(sum(N + 1 for N in run) <= STACK_STATES for run in built) and len(built) > 10


def warning_lines(stderr):
    """stderr with each package warning cut to its module, category and message."""
    return re.sub(r"(?m)^[^\n]*/(spingap/\w+\.py):\d+: (\w*Warning: [^\n]*\n)(?:  [^\n]*\n)?",
                  r"\1: \2", stderr)


OVERFLOW = ("error: the log weights of the stationary distribution are not all finite: "
            "the parameters overflow float64\n")
MULTIPLY = "spingap/kernels.py: RuntimeWarning: overflow encountered in multiply\n"


@pytest.mark.parametrize("command,warned", [
    ("gap-scan --model ising --beta 1e308 --n 10..30..10", MULTIPLY),
    ("verify ising-slow --beta 1e308 --n 10..30..2", MULTIPLY),
    ("verify beg-slow --beta-k 1e308:1 --n 6..12..2",
     MULTIPLY + MULTIPLY + "spingap/kernels.py: RuntimeWarning: invalid value encountered in add\n"),
    ("gap-scan --model beg --beta 1 --k 1e308 --n 6..12..2", MULTIPLY + MULTIPLY),
])
def test_a_grid_that_overflows_in_its_first_stack_warns_and_exits_2(tmp_path, command, warned):
    # each warning once, as when the first table was built alone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(spectral.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spingap.cli", *command.split(),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert warning_lines(proc.stderr) == warned + OVERFLOW
    assert not (tmp_path / "out").exists()


def test_mismatch_keeps_the_residual_of_every_pair_that_differs():
    def reference(x, y):
        d = np.abs(x - y)
        differ = d != 0
        if not differ.any():
            return 0.0
        x, y = x[differ], y[differ]
        return float(np.max(d[differ] * (1.0 / np.maximum(np.abs(x), np.abs(y)))))

    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.choice([0.0, -0.0, 1e-300, 0.5, -2.0, math.inf, math.nan], 40) \
            * rng.uniform(0.5, 1.5, 40)
        y = np.where(rng.random(40) < 0.5, x, x * (1 + rng.normal(0, 1e-9, 40)))
        y[rng.random(40) < 0.1] = -0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            got, want = spectral._mismatch(x, y), reference(x, y)
        assert got == want or (math.isnan(got) and math.isnan(want))
