"""The flip-sector route to exact gaps against the dense oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spingap import kernels, verify
from spingap.cli import EXIT_USAGE, main
from spingap.kernels import MoveTable, beg_lumped, signed_lumped_chain, signed_move_table
from spingap.models import beg, ising, warmup
from spingap.spectral import (
    DENSE_SECTOR_MAX,
    NonReversibleError,
    SymmetryError,
    _flip_sectors,
    gap,
    sector_spectrum,
    spectrum,
)
from spingap.verify import exact_gap_record, verify_beg_fast

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
    even, odd, _ = _flip_sectors(table)
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

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    got = exact_gap_record(spec, "equi-energy")
    assert got["gap"] == pytest.approx(want["gap"], abs=1e-12)
    assert got["lambda_min"] == pytest.approx(want["lambda_min"], abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(N=st.integers(1, 8), beta=st.floats(0.0, 3.0), K=st.floats(0.1, 5.0),
       p1=st.floats(0.05, 0.9), frac=st.floats(0.01, 0.99))
def test_projection_gap_is_half_the_even_sector_gap(N, beta, K, p1, frac):
    spec = beg(2 * N, beta=beta, K=K, p1=p1, p2=frac * (0.99 - p1))
    even = sector_spectrum(signed_move_table(spec, "equi-energy")).even_lambda1
    assert 0.5 * (1.0 - even) == pytest.approx(gap(spectrum(beg_lumped(spec))),
                                                  abs=1e-12)


def test_verify_beg_fast_projection_gap_matches_dense():
    rep = verify_beg_fast([(1.0, 1.0)], [30], 0.5, 0.25)
    (rec,) = rep.records
    spec = beg(30, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    assert rec.values["gap_pbar"] == pytest.approx(gap(spectrum(beg_lumped(spec))),
                                                   abs=1e-12)


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
    monkeypatch.setattr(verify, "metropolis_chain", dense)
    report = verify.verify_warmup(2.0, 0.3, range(10, 41, 2))
    assert report.passed and len(report.records) == 16
    for kind in ("naive", "small-world"):
        rec = exact_gap_record(warmup(30, theta=2.0, epsilon=0.3), kind)
        assert rec["dim"] == 61 and 0 <= rec["gap"] <= 1


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
