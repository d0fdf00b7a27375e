import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtrit

from spingap import kernels, models
from spingap.kernels import FiniteKernel, signed_move_table
from spingap.models import beg, class_table, ising, warmup
from spingap.spectral import SectorSpectrum, cut_bottleneck_log
from spingap import verify
from spingap.verify import (
    _negative_side_cut_log,
    beg_unimodality_scan,
    exact_gap_record,
    ising_fast_bound,
    ising_profile_scan,
    is_monotone_decreasing,
    is_unimodal,
    legendre_transform,
    ols_fit,
    rate_function,
    rate_function_argmin,
    scaled_params,
    scaled_params_consistent,
    verify_beg_fast,
    verify_ising_fast,
)

from oracles import kernel_table, signed_containment, stack


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_ols_fit_exact_line():
    fit = ols_fit([1, 2, 3, 4, 5, 6], [2 * x + 1 for x in range(1, 7)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.ci_lo == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        ols_fit([1, 2], [1, 2])


@pytest.mark.parametrize("x", [[2.0, 2.0, 2.0], [math.log(10)] * 6])
def test_ols_fit_refuses_an_x_without_spread(x):
    # one used to divide by zero, the other to fit the rounding of mean(x)
    with pytest.raises(ValueError, match="^need at least 2 distinct x values to fit a slope"):
        ols_fit(x, range(len(x)))


def test_ols_fit_known_noise():
    rng = np.random.default_rng(0)
    x = np.arange(50.0)
    y = -0.7 * x + 3 + rng.normal(0, 0.5, 50)
    fit = ols_fit(x, y)
    assert fit.ci_lo < fit.slope < fit.ci_hi
    assert abs(fit.slope + 0.7) < 4 * fit.stderr
    assert fit.ci_hi - fit.ci_lo == pytest.approx(
        2 * fit.stderr * float(__import__("scipy.stats", fromlist=["t"]).t.ppf(0.975, 48)),
        rel=1e-12)


def test_fit_t_quantile_matches_scipy_stats():
    # the interval edge uses stdtrit, which matches t.ppf bit for bit
    dofs = np.arange(1, 401)
    assert np.array_equal(stdtrit(dofs, 0.975), stats.t.ppf(0.975, dofs))


# ---------------------------------------------------------------------------
# unimodality detectors
# ---------------------------------------------------------------------------

def test_is_unimodal_shapes():
    assert is_unimodal([0, 1, 2, 1, 0])
    assert is_unimodal([2, 1, 0])          # peak at the left end
    assert is_unimodal([0, 1, 2])          # peak at the right end
    assert not is_unimodal([1, 0, 1])      # valley
    assert is_unimodal([1, 1 + 1e-14, 1])  # plateau within tolerance
    assert not is_unimodal([2, 1, 1.5, 1])


def test_is_monotone_decreasing():
    assert is_monotone_decreasing([3, 2, 2, 1])
    assert not is_monotone_decreasing([3, 2, 2.5])


def test_ising_profile_scan_shapes():
    Ns = list(range(4, 51, 2))
    report = ising_profile_scan([0.5, 2.0], Ns)
    assert report.n0["0.5"] is not None and report.n0["0.5"] <= 50
    assert report.n0["2.0"] is not None and report.n0["2.0"] <= 50
    # beta < 1: eventually monotone decreasing; beta = 2: unimodal
    for s in report.series:
        if s.params["beta"] == 2.0 and s.params["N"] >= report.n0["2.0"]:
            assert s.unimodal


def test_beg_unimodality_scan_single_phase():
    Ns = [6, 10, 14, 15, 20]
    report = beg_unimodality_scan([(1.0, 1.0)], Ns)
    assert report.n0["1.0,1.0"] == 6
    npoints = [s for s in report.series if s.params["N"] == 15]
    assert len(npoints) == 1 and len(npoints[0].x) == 16


def test_beg_unimodality_scan_double_peak_near_transition():
    # double-peaked row profiles appear in the band around K ~ 1.08 at
    # larger beta (the excluded neighborhood of the phase boundary);
    # deep inside either phase the profile is single-peaked
    assert not is_unimodal(models.beg_row_log_profile(15, 2.5, 1.082))
    assert is_unimodal(models.beg_row_log_profile(15, 3.0, 5.0))
    assert is_unimodal(models.beg_row_log_profile(15, 1.0, 1.0))
    report = beg_unimodality_scan([(2.5, 1.082)], [10, 15, 20, 30])
    assert report.n0["2.5,1.082"] is None


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

def test_legendre_transform_endpoints_and_zero():
    beta = 1.3
    assert legendre_transform(1.0, beta) == pytest.approx(
        beta + math.log1p(2 * math.exp(-beta)), rel=1e-12)
    # J(0) = 0: the supremum sits at t = 0
    assert legendre_transform(0.0, beta) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        legendre_transform(1.5, beta)


def _mp_tilted_mean(t, beta):
    import mpmath as mp

    c = mp.exp(-mp.mpf(beta))
    return (c * mp.exp(t) - c * mp.exp(-t)) / (1 + c * mp.exp(t) + c * mp.exp(-t))


def test_legendre_transform_matches_a_50_digit_evaluation():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for beta in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 79.0, 100.0, 300.0, 700.0):
            zs = np.linspace(-1.0, 1.0, 401)  # holds -1, 0 and 1
            got = legendre_transform(zs, beta)
            b, c = mp.mpf(beta), mp.exp(-mp.mpf(beta))
            for z, J in zip(zs, got):
                a = abs(mp.mpf(z))
                if a == 1:
                    want = b + mp.log(1 + 2 * c)
                else:
                    # the tilt solves c(1-a)u^2 - a u - c(1+a) = 0 for u = e^t
                    u = (a + mp.sqrt(a * a + 4 * c * c * (1 - a * a))) / (2 * c * (1 - a))
                    t = mp.log(u)
                    assert abs(_mp_tilted_mean(t, beta) - a) < mp.mpf(10) ** -40
                    want = t * a - mp.log((1 + c * (u + 1 / u)) / (1 + 2 * c))
                assert abs(J - float(want)) <= 1e-14 * max(abs(J), 1.0), (beta, z)


def test_legendre_transform_past_a_tilt_of_80():
    # a bisection bracketed in [-80, 80] gave 39.99999999793870 here
    assert legendre_transform(0.5, 100.0) == pytest.approx(49.30685281944005, rel=1e-14)


def test_legendre_transform_on_an_array_has_the_bits_of_scalar_calls():
    zs = np.concatenate([np.linspace(-1.0, 1.0, 97), [1e-300, -1e-17, 0.999999999999]])
    for beta in (0.0, 1.3, 40.0, 700.0):
        got = legendre_transform(zs, beta)
        want = [legendre_transform(float(z), beta) for z in zs]
        assert all(type(w) is float for w in want)
        assert got.tobytes() == np.array(want).tobytes()


def test_tilt_is_zero_at_zero_and_infinite_at_one():
    assert verify._tilt(0.0, 2.0) == 0.0
    assert verify._tilt(1.0, 2.0) == math.inf
    assert legendre_transform(0.0, 800.0) == 0.0


@pytest.mark.parametrize("beta,K", [(1.5, 2.0), (3.0, 5.0), (1.0, 1.2), (2.0, 1.2),
                                    (20.0, 1.2), (0.5, 5.0)])
def test_rate_function_argmin_matches_a_40_digit_root(beta, K):
    mp = pytest.importorskip("mpmath")
    zstar = rate_function_argmin(beta, K)[1]
    with mp.workdps(40):
        # z* = m(t) at the tilt t = 2 beta K z*, m the tilted mean
        t = mp.findroot(lambda t: t - 2 * mp.mpf(beta) * K * _mp_tilted_mean(t, beta),
                        mp.mpf(2 * beta * K * zstar))
        assert abs(zstar - _mp_tilted_mean(t, beta)) <= 1e-13


def test_rate_function_properties():
    beta, K = 1.5, 2.0
    zs = rate_function_argmin(beta, K)
    assert len(zs) == 2 and zs[1] > 0
    assert rate_function(beta, K, zs[1]) == pytest.approx(0.0, abs=1e-9)
    assert rate_function(beta, K, 0.3) == pytest.approx(
        rate_function(beta, K, -0.3), abs=1e-10)
    assert rate_function(beta, K, 0.0) > 0
    # single-phase cell: minimum at the origin
    assert rate_function_argmin(1.0, 0.5) == (0.0,)


def test_rate_function_phase_boundary_near_gamma_c():
    # at large beta the boundary sits near K = 1.082
    assert len(rate_function_argmin(20.0, 1.2)) == 2
    assert rate_function_argmin(20.0, 0.9) == (0.0,)
    assert rate_function_argmin(1.0, 1.0) == (0.0,)


def test_rate_function_matches_class_table_mode():
    # the magnetization mode of the exact class table at finite N tracks
    # the rate-function minimizer within 2/N
    beta, K, N = 1.5, 2.0, 60
    zstar = rate_function_argmin(beta, K)[1]
    table = class_table(beg(N, beta=beta, K=K))
    by_s = {}
    for c, lw in zip(table.classes, table.log_class_weight):
        by_s[c.s] = np.logaddexp(by_s.get(c.s, -np.inf), lw)
    mode = max(by_s, key=by_s.get)
    assert abs(mode / N - zstar) <= 2.0 / N


# ---------------------------------------------------------------------------
# scaled parameters
# ---------------------------------------------------------------------------

def test_scaled_params_stated_pair_invalid():
    sp = scaled_params(1.0, 10)
    assert (sp.p1, sp.p2) == (0.95, 0.1)
    assert not sp.valid and "unusable" in sp.note
    with pytest.raises(ValueError):
        scaled_params(10.0, 10)


def test_scaled_params_consistent_pair_valid():
    sp = scaled_params_consistent(1.0, 10)
    assert (sp.p1, sp.p2) == (0.9, 0.05)
    assert sp.valid
    ising(10, beta=1.0, p1=sp.p1, p2=sp.p2)  # passes model validation


# ---------------------------------------------------------------------------
# verifier plumbing
# ---------------------------------------------------------------------------

def test_ising_fast_bound_value():
    val = ising_fast_bound(10, 0.5, 0.25)
    assert val == pytest.approx((0.125 / 32) * 6 ** -3 * 0.125, rel=1e-12)
    assert val == pytest.approx(2.2605e-6, rel=1e-3)


def test_verify_ising_fast_small_grid():
    rep = verify_ising_fast([2.0], [10, 14, 18, 22, 26, 30], 0.5, 0.25)
    assert rep.passed
    assert rep.summary["N0"]["2.0"] == 10
    d = rep.to_dict()
    assert d["records"][0]["values"]["gap"] > d["records"][0]["values"]["bound"]


def test_exact_gap_record_fields():
    rec = exact_gap_record(ising(12, beta=1.0, p1=0.5, p2=0.25), "equi-energy")
    assert set(rec) >= {"gap", "lambda1", "lambda_min", "underflow", "dim"}
    assert rec["dim"] == 13
    assert not rec["underflow"]


def test_cut_bound_dominates_gap_where_resolvable():
    # gap <= 1 - lambda_1 <= 2h(cut): the log-space route must dominate
    for N in (8, 12, 16):
        spec = ising(N, beta=2.0)
        table = signed_move_table(spec, "naive")
        subset = [i for i, s in enumerate(table.labels) if s < 0]
        log2h = math.log(2.0) + cut_bottleneck_log(table, subset)
        one_minus_lam1 = exact_gap_record(spec, "naive")["one_minus_lambda1"]
        assert math.log(one_minus_lam1) <= log2h + 1e-9


def test_cut_bound_rejects_heavy_subset():
    spec = ising(8, beta=2.0)
    table = signed_move_table(spec, "naive")
    heavy = [i for i, s in enumerate(table.labels) if s <= 0]  # more than half
    with pytest.raises(ValueError):
        cut_bottleneck_log(table, heavy)


def test_mirror_cut_is_accepted_when_log_masses_round_the_wrong_way():
    # at N=148 p(S=0) ~ e^-51, so the two halves' log masses (about 151)
    # are one ulp apart, in the wrong order
    spec = ising(148, beta=2.0)
    table = signed_move_table(spec, "naive")
    subset = [i for i, s in enumerate(table.labels) if s < 0]
    assert math.isfinite(cut_bottleneck_log(table, subset))
    assert math.isfinite(_negative_side_cut_log(table))


def reference_cut_log(chain, subset):
    """The per-pair double loop over A x A^c that cut_bottleneck_log replaced."""
    from scipy.special import logsumexp
    inA = np.zeros(chain.n, dtype=bool)
    inA[subset] = True
    lw = chain.log_pi
    terms = [lw[i] + math.log(chain.P[i, j])
             for i in np.flatnonzero(inA) for j in np.flatnonzero(~inA) if chain.P[i, j] > 0]
    if not terms:
        return -math.inf
    return float(logsumexp(terms)) - float(logsumexp(lw[inA]))


@pytest.mark.parametrize("kind", ["naive", "equi-energy"])
@pytest.mark.parametrize("spec", [ising(2, beta=1.0, p1=0.5, p2=0.25),
                                  ising(20, beta=2.0, p1=0.5, p2=0.25),
                                  ising(148, beta=2.0, p1=0.5, p2=0.25),
                                  beg(2, beta=1.0, K=1.0, p1=0.5, p2=0.25),
                                  beg(10, beta=3.0, K=5.0, p1=0.5, p2=0.25),
                                  beg(24, beta=1.5, K=2.0, p1=0.4, p2=0.3)])
def test_move_table_cut_matches_dense_cut_bit_for_bit(spec, kind):
    # equi-energy beg tables repeat a target (the flip of s = +-1 is also a
    # +-2 move), so the table route must add repeats up as the dense one does
    table = signed_move_table(spec, kind)
    chain = table.to_kernel()
    signs = [lab[0] if isinstance(lab, tuple) else lab for lab in table.labels]
    subset = [i for i, s in enumerate(signs) if s < 0]
    dense = cut_bottleneck_log(kernel_table(chain), subset)
    assert cut_bottleneck_log(table, subset) == dense
    assert reference_cut_log(chain, subset) == dense
    assert _negative_side_cut_log(table) == math.log(2.0) + dense


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), density=st.floats(0.1, 1.0))
def test_cut_matches_reference_on_random_chains(seed, n, density):
    # random flows hit values where numpy's SIMD log and math.log differ
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) * (rng.random((n, n)) < density)
    P /= P.sum(axis=1).max() + 1.0
    np.fill_diagonal(P, 1.0 - P.sum(axis=1) + np.diag(P))
    chain = FiniteKernel(labels=tuple(range(n)), log_pi=rng.uniform(-5.0, 5.0, n), P=P)
    inA = rng.random(n) < 0.5
    inA[0], inA[-1] = True, False
    if np.logaddexp.reduce(chain.log_pi[inA]) > np.logaddexp.reduce(chain.log_pi[~inA]):
        inA = ~inA
    subset = np.flatnonzero(inA).tolist()
    assert cut_bottleneck_log(kernel_table(chain), subset) == reference_cut_log(chain, subset)


def test_cut_terms_take_math_log():
    # numpy's vectorized log and math.log disagree in the last bit on a few
    # values on some hosts; the cut keeps math.log, as its per-pair loop did
    x = np.random.default_rng(0).random(20000)
    split = x[np.log(x) != np.array([math.log(v) for v in x.tolist()])][:20]
    for v in split.tolist() + [0.3]:
        chain = FiniteKernel(labels=(0, 1), log_pi=np.zeros(2),
                             P=np.array([[1 - v, v], [v, 1 - v]]))
        assert cut_bottleneck_log(kernel_table(chain), [0]) == math.log(v)


def test_slow_verifiers_build_each_chain_once(monkeypatch):
    calls = []
    real = verify.signed_move_stack

    def counted(spec, kind, Ns):
        calls.extend((spec.kind, N, kind) for N in Ns)
        return real(spec, kind, Ns)

    monkeypatch.setattr(verify, "signed_move_stack", counted)
    monkeypatch.setattr(verify, "signed_lumped_chain", None)  # no dense chain either
    verify.verify_ising_slow([2.0], [10, 12, 14])
    verify.verify_beg_slow([(3.0, 5.0)], [6, 8, 10])
    assert calls == [("ising", N, "naive") for N in (10, 12, 14)] + \
        [("beg", N, "naive") for N in (6, 8, 10)]


def test_collapse_fit_states_the_verdict_rule_once():
    Ns = list(range(10, 24, 2))
    resolvable = [math.exp(-0.3 * N) for N in Ns]
    calls = []

    def cut_fit():
        calls.append(1)
        return "cut"

    # six or more resolvable gaps: the log-gap fit, and no cut is built
    pairs = list(zip(Ns, resolvable))
    route, fit = verify._collapse_fit(pairs, cut_fit)
    assert route == "gap" and fit.n_points == 7
    assert fit.slope == pytest.approx(-0.3, rel=1e-12)
    # one to five resolvable gaps: no verdict
    assert verify._collapse_fit(pairs[:5], cut_fit) is None
    assert calls == []
    # no resolvable gap: the cut fit
    assert verify._collapse_fit([], cut_fit) == ("2hcut", "cut")
    assert calls == [1]


def test_ising_slow_records_the_same_fits_at_every_beta():
    report = verify.verify_ising_slow([0.5, 2.0], range(10, 31, 2))
    assert report.passed, report.failures
    assert [label for label, _ in report.fits] == [
        "semilog-2hcut-beta=0.5", "semilog-gap-beta=0.5",
        "semilog-2hcut-beta=2.0", "semilog-gap-beta=2.0"]
    assert report.summary == {}


def test_beg_slow_refuses_a_deep_cell_outside_the_grid(monkeypatch):
    def refuse(spec, kind, Ns):
        raise AssertionError("no chain is built for a refused grid")

    monkeypatch.setattr(verify, "signed_move_stack", refuse)
    with pytest.raises(ValueError, match=r"^deep cells outside the grid: 1\.0:1\.0, 2:3$"):
        verify.verify_beg_slow([(3.0, 5.0)], [6, 8, 10], deep=[(1.0, 1.0), (3.0, 5.0), (2, 3)])


def test_beg_slow_keeps_the_phase_map_slopes():
    report = verify.verify_beg_slow([(3.0, 5.0), (1.5, 2.0)], range(6, 17, 2))
    assert report.passed, report.failures
    fits = dict(report.fits)
    assert report.summary == {"slopes": {
        "3.0,5.0": fits["semilog-2hcut-beta=3.0-K=5.0"].slope,
        "1.5,2.0": fits["semilog-gap-beta=1.5-K=2.0"].slope}}


def test_signed_containment_small():
    rec = signed_containment(ising(6, beta=1.5, p1=0.5, p2=0.25), "equi-energy")
    assert rec["contained"]
    assert rec["gap_lumped_dominates"]
    rec2 = signed_containment(beg(4, beta=1.0, K=1.0, p1=0.5, p2=0.25), "equi-energy")
    assert rec2["contained"] and rec2["gap_lumped_dominates"]


def test_verify_beg_fast_skips_non_member_cells():
    # a cell whose row profile is double-peaked is skipped with a reason,
    # which is not an audit failure
    rep = verify_beg_fast([(2.5, 1.082)], [10, 15, 20], 0.5, 0.25)
    assert rep.passed
    assert len(rep.records) == 1
    assert rep.records[0].values.get("skipped") is True
    assert "skipped" in rep.records[0].note


def test_a_fast_audit_notes_underflow_like_the_slow_ones(monkeypatch):
    # every audit's records carry "underflow" where the gap is under the floor
    below = SectorSpectrum(even_lambda1=1 - 1e-13, odd_lambda1=0.5, lambda_min=0.0, dim=3)
    monkeypatch.setattr(verify, "_stack_spectra", lambda table, sizes: [below] * len(sizes))
    rep = verify_ising_fast([2.0], [10, 12], 0.5, 0.25)
    assert [r.note for r in rep.records] == ["underflow", "underflow"]
    assert not rep.passed and rep.to_dict()["passed"] is False


def test_beg_fast_names_each_n_below_the_decomposition_floor(monkeypatch):
    monkeypatch.setattr(verify, "beg_decomposition_floor", lambda p1, p2: 1e6)
    rep = verify_beg_fast([(1.0, 1.0)], [2, 4], 0.5, 0.25)
    assert [f.split(": ")[0] for f in rep.failures] == [
        "beta=1.0,K=1.0,N=2", "beta=1.0,K=1.0,N=4", "beta=1.0,K=1.0"]
    assert rep.failures[1].startswith("beta=1.0,K=1.0,N=4: Gap(M)=")
    assert rep.failures[2] == "beta=1.0,K=1.0: too few resolvable gaps to fit"


def test_report_serialization_roundtrip():
    rep = verify_ising_fast([1.0], [10, 12, 14, 16, 18, 20], 0.5, 0.25)
    d = rep.to_dict()
    assert d["name"] == "ising-fast"
    assert isinstance(d["fits"], dict)
    assert all("cell" in r and "values" in r for r in d["records"])


def test_warmup_projection_check_needs_no_dense_block_chain():
    # the (1-eps)/4 rate is read off the table's moves, not an N x N projection
    verify.verify_warmup(2.0, 0.3, [10, 12, 14])
    tracemalloc.start()
    try:
        report = verify.verify_warmup(2.0, 0.3, [4998, 5000, 5002])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 3
    assert not any("projection up-rate" in f for f in report.failures)
    assert peak < 50e6


def test_warmup_audit_reports_a_wrong_projection_rate(monkeypatch):
    # scale the moves from {+-(mid+1)} to {+-(mid+2)} of each small-world table
    def skewed(spec, kind):
        table = signed_move_table(spec, kind)
        if kind != "small-world":
            return table
        level, mid = np.abs(table.labels), spec.N // 2
        out = (level[table.rows] == mid + 1) & (level[table.cols] == mid + 2)
        return replace(table, vals=np.where(out, table.vals * (1 + 1e-9), table.vals))

    monkeypatch.setattr(verify, "signed_move_stack", lambda spec, kind, Ns: stack(
        [skewed(replace(spec, N=N), kind) for N in Ns]))
    Ns = list(range(10, 41, 2))
    report = verify.verify_warmup(2.0, 0.3, Ns)
    rate = [f for f in report.failures if "projection up-rate" in f]
    assert [f.split(":")[0] for f in rate] == [f"N={N}" for N in Ns]
    assert all(re.fullmatch(r"N=\d+: projection up-rate \S+ != \(1-eps\)/4", f) for f in rate)


def test_the_warmup_audit_builds_each_table_once(monkeypatch):
    built = []
    real = kernels._warmup_proposal

    def counted(Ns, eps):
        built.extend((N, eps) for N in Ns.tolist())
        return real(Ns, eps)

    monkeypatch.setattr(kernels, "_warmup_proposal", counted)
    report = verify.verify_warmup(2.0, 0.3, [8200, 8300, 8400])
    assert report.passed, report.failures
    # every naive gap underflows: the cuts come from the naive tables already built
    assert len(built) == 6
    assert set(built) == {(N, eps) for N in (8200, 8300, 8400) for eps in (0.3, None)}


def test_a_cut_at_minus_inf_is_named_in_the_failure():
    # at beta = 1e5 every rate across S = 0 underflows in the table itself
    report = verify.verify_ising_slow([1e5], range(10, 31, 2))
    assert all(r.values["log_2h_cut"] == -math.inf for r in report.records)
    assert report.failures == ("beta=100000.0: log(2h) at the negative-side cut is -inf "
                               "at N=10,12,14,16,18,20,22,24,26,28,30",)


def test_warmup_audits_the_cut_when_every_naive_gap_underflows():
    report = verify.verify_warmup(2.0, 0.3, [8200, 8300, 8400])
    assert report.passed, report.failures
    assert all(r.values["naive_underflow"] for r in report.records)
    assert [label for label, _ in report.fits] == ["loglog-gapN2-tail", "semilog-naive-2hcut"]
    cut = dict(report.fits)["semilog-naive-2hcut"]
    assert cut.n_points == 3
    assert cut.ci_hi <= -math.log(2.0) + 0.1
    assert cut.slope == pytest.approx(-math.log(2.0), rel=1e-9)
    for r in report.records:
        table = signed_move_table(warmup(r.cell["N"], theta=2.0), "naive")
        assert r.values["naive_log_2h_cut"] == _negative_side_cut_log(table)


@pytest.mark.parametrize("Ns,fits,failures", [
    # 6 or more resolvable naive gaps: the gap fit, and no cut field
    (range(10, 41, 2), ["loglog-gapN2-tail", "semilog-naive-gap"], ()),
    # some resolve, too few to fit: the cut route does not run
    (range(30, 51, 2), ["loglog-gapN2-tail"], ("fewer than 6 resolvable naive gaps",)),
])
def test_warmup_cut_route_runs_only_when_every_naive_gap_underflows(Ns, fits, failures):
    report = verify.verify_warmup(2.0, 0.3, Ns)
    assert [label for label, _ in report.fits] == fits
    assert report.failures == failures
    assert not any("naive_log_2h_cut" in r.values for r in report.records)
