"""Experiments that confront the mixing theorems with exact computation.

Each verifier sweeps a parameter grid, computes exact spectral gaps
(class-space chains, so N can reach the hundreds), evaluates the
theorem's bound or fits the predicted decay shape, and returns a
structured report.  Proven inequalities must pass wherever their
hypotheses hold; decay-shape assertions use the edge of a 95% OLS
confidence interval, never the point estimate; gaps under the numeric
resolution floor are excluded from fits and counted separately.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import models
from .kernels import (MoveTable, _unstack, lumped_projection, signed_lumped_chain,
                      signed_move_stack, warmup_block_partition)
from .models import ModelSpec, beg, ising, warmup
from .spectral import (
    GAP_RESOLUTION,
    SectorSpectrum,
    _stack_spectra,
    _stacks,
    cut_bottleneck_log,
)


# ---------------------------------------------------------------------------
# Fits.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    ci_lo: float
    ci_hi: float
    n_points: int


def ols_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Ordinary least squares with a 95% t-interval on the slope."""
    from scipy.special import stdtrit

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 points to fit, got {n}")
    if len(np.unique(x)) < 2:
        raise ValueError(f"need at least 2 distinct x values to fit a slope, got {x[0]:.17g} only")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    dof = n - 2
    s2 = float((resid ** 2).sum()) / dof if dof > 0 else 0.0
    stderr = math.sqrt(s2 / sxx)
    t = float(stdtrit(dof, 0.975)) if dof > 0 else math.inf
    return FitResult(slope=slope, intercept=intercept, stderr=stderr,
                     ci_lo=slope - t * stderr, ci_hi=slope + t * stderr, n_points=n)


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellRecord:
    cell: dict
    values: dict
    passed: Optional[bool] = None
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    name: str
    records: tuple
    fits: tuple            # pairs (label, FitResult)
    failures: tuple
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {**vars(self), "records": [vars(r) for r in self.records],
                "fits": {label: vars(f) for label, f in self.fits}, "passed": self.passed}


def chain_for(spec: ModelSpec, kind: str):
    """The signed lumping, dense (for warmup, the chain itself); only the benchmark
    tracer's shim list (``perfbench/layers.py``) calls it."""
    return signed_lumped_chain(spec, kind)


def _gap_record(s: SectorSpectrum) -> dict:
    return {
        "gap": s.gap,
        "one_minus_lambda1": 1.0 - s.lambda1,
        "lambda1": s.lambda1,
        "lambda_min": s.lambda_min,
        "dim": s.dim,
        "underflow": bool(s.gap < GAP_RESOLUTION),
    }


def _solved(cells: Sequence[tuple]) -> Iterator[tuple]:
    """(table, SectorSpectrum) of each (spec, kind) cell's signed class chain, in order.

    The cells are cut into runs of one kind and one spec but its N, of up
    to STACK_STATES states in all (a larger cell alone), counted from N
    before anything is built.  Each run is built as one stack
    (``signed_move_stack``) and solved in one pass (``_stack_spectra``),
    with the spectra of its cells solved one by one; ``table()`` cuts the
    cell's table out of its stack.
    """
    def states(cell):
        return models.state_count(cell[0], "signed")

    for _, group in itertools.groupby(cells, lambda cell: (cell[1], {**vars(cell[0]), "N": 0})):
        for run in _stacks(group, states):
            (spec, kind), sizes = run[0], [states(cell) for cell in run]
            stack = signed_move_stack(spec, kind, [cell[0].N for cell in run])
            tables = functools.cache(functools.partial(_unstack, stack, sizes))
            for k, sectors in enumerate(_stack_spectra(stack, sizes)):
                yield (lambda tables=tables, k=k: tables()[k]), sectors
            del stack, tables  # freed before the next stack is built


def exact_gap_records(specs: Sequence[ModelSpec], kind: str) -> list[dict]:
    """Gap of each spec's signed class chain, from its flip sectors, a stack at a time."""
    return [_gap_record(sectors) for _, sectors in _solved([(spec, kind) for spec in specs])]


def exact_gap_record(spec: ModelSpec, kind: str) -> dict:
    """``exact_gap_records`` of one spec; outside the tests only the benchmark
    tracer's shim list (``perfbench/layers.py``) calls it."""
    return exact_gap_records([spec], kind)[0]


def _negative_side_cut_log(table: MoveTable) -> float:
    """log(2h) for the cut at negative magnetization, in pure log space.

    h is evaluated at A = {signed classes with S < 0} of the chain's move
    table, so the value upper-bounds the true log(2h) and hence
    log(1 - lambda_1); it stays computable when the gap itself underflows.
    Each flip orbit is ordered by S ascending, so A is the states that
    precede their mirror image.
    """
    subset = np.flatnonzero(np.arange(table.n) < table.flip)
    return math.log(2.0) + cut_bottleneck_log(table, subset)


def _sweep(model: Callable[..., ModelSpec], kind: str, Ns: Sequence[int],
           values: Callable[[ModelSpec, Callable[[], MoveTable], SectorSpectrum, dict],
                            Optional[bool]],
           **params) -> list[CellRecord]:
    """The (cell, N) loop of the audits: one record per N of one cell.

    The chains are solved in N order (``_solved``).  Each record's
    ``vals`` start as the gap record; ``values(spec, table, sectors,
    vals)`` adds the audit's own fields and returns the pass flag, where
    ``table()`` gives the cell's move table.  The cell reads {"model",
    "kind", "N", **params}; a gap under the resolution floor is noted
    "underflow".
    """
    specs = [model(N, **params) for N in Ns]
    records = []
    for N, spec, (table, sectors) in zip(Ns, specs, _solved([(spec, kind) for spec in specs])):
        vals = _gap_record(sectors)
        passed = values(spec, table, sectors, vals)
        del table  # freed before the next stack is built
        records.append(CellRecord(cell={"model": spec.kind, "kind": kind, "N": N, **params},
                                  values=vals, passed=passed,
                                  note="underflow" if vals["underflow"] else ""))
    return records


def _slow_cell_values(spec: ModelSpec, table: Callable[[], MoveTable], sectors: SectorSpectrum,
                      vals: dict):
    """The naive chain's negative-side cut, from its move table; no pass flag."""
    vals["log_2h_cut"] = _negative_side_cut_log(table())


def _gap_fit(records):
    """OLS of log Gap on log N over the resolvable gaps; None under 6."""
    pts = [(math.log(r.cell["N"]), math.log(r.values["gap"]))
           for r in records if not r.values["underflow"]]
    return ols_fit(*zip(*pts)) if len(pts) >= 6 else None


def _collapse_fit(resolvable: Sequence[tuple],
                  cut_fit: Callable[[], FitResult]) -> Optional[tuple]:
    """The slow-mixing verdict rule: the ``(route, fit)`` to judge, or None.

    Six or more (N, gap) pairs not flagged ``underflow``: ("gap", OLS of
    log Gap on N).  None: ("2hcut", ``cut_fit()``), the OLS of log(2h) at
    the negative-side cut on N, which bounds log Gap from above at any
    depth.  One to five: no verdict.
    """
    if len(resolvable) >= 6:
        return "gap", ols_fit(*zip(*((N, math.log(g)) for N, g in resolvable)))
    return None if resolvable else ("2hcut", cut_fit())


def _naive_decay(model: Callable[..., ModelSpec], param_names: tuple, cells: Sequence[tuple],
                 Ns: Sequence[int], deep: Sequence[tuple], slope_threshold: float) -> tuple:
    """The cell loop of the slow audits: (records, fits, failures, slopes).

    Each cell, a tuple of ``model``'s ``param_names`` values, gets one
    naive move table per N, the fit ``semilog-2hcut-…`` and, with six or
    more resolvable gaps, ``semilog-gap-…``; its slope is the gap fit's,
    else the cut fit's.  A cell in ``deep`` fails unless its
    `_collapse_fit` slope CI lies entirely below ``slope_threshold``.
    """
    missing = [c for c in deep if c not in cells]
    if missing:
        raise ValueError("deep cells outside the grid: "
                         + ", ".join(":".join(map(str, c)) for c in missing))
    records, fits, failures, slopes = [], [], [], {}
    for params in cells:
        named = dict(zip(param_names, params))
        cell_records = _sweep(model, "naive", Ns, _slow_cell_values, **named)
        records.extend(cell_records)
        tag = "-".join(f"{k}={v}" for k, v in named.items())
        # the cut route decays like the class-weight ratio at the S=0
        # bottleneck and stays finite under the resolution floor
        cuts = [r.values["log_2h_cut"] for r in cell_records]
        with np.errstate(invalid="ignore"):  # a -inf cut makes the fit NaN
            cut_fit = ols_fit(Ns, cuts)
        fits.append((f"semilog-2hcut-{tag}", cut_fit))
        resolvable = [(N, r.values["gap"]) for N, r in zip(Ns, cell_records)
                      if not r.values["underflow"]]
        route, fit = _collapse_fit(resolvable, lambda: cut_fit) or (None, cut_fit)
        if route == "gap":
            fits.append((f"semilog-gap-{tag}", fit))
        slopes[",".join(map(str, params))] = fit.slope
        where = ",".join(f"{k}={v}" for k, v in named.items())
        if params in deep and route is None:
            failures.append(f"{where}: too few resolvable gaps to fit")
        elif params in deep and route == "2hcut" and -math.inf in cuts:
            failures.append(f"{where}: log(2h) at the negative-side cut is -inf at N="
                            + ",".join(str(N) for N, c in zip(Ns, cuts) if c == -math.inf))
        elif params in deep and not fit.ci_hi < slope_threshold:
            failures.append(f"{where}: slope CI [{fit.ci_lo:.4g}, {fit.ci_hi:.4g}] "
                            f"not entirely below {slope_threshold}")
    return tuple(records), tuple(fits), tuple(failures), slopes


# ---------------------------------------------------------------------------
# Ising.
# ---------------------------------------------------------------------------

def ising_fast_bound(N: int, p1: float, p2: float) -> float:
    """Polynomial lower bound on Gap(M) for the orbit-jump ising chain:
    (p1 p2 / 32) (N/2+1)^{-3} min[(1-p1-p2)/2, (1-p1)/p2]."""
    return (p1 * p2 / 32.0) * (N / 2 + 1) ** (-3.0) * min((1 - p1 - p2) / 2, (1 - p1) / p2)


def verify_ising_fast(betas: Sequence[float], Ns: Sequence[int],
                      p1: float, p2: float) -> BoundReport:
    """Audit Gap(M) >= ising_fast_bound for all N >= N0, N0 reported per beta.

    The theorem leaves N0 unspecified; the scan reports the smallest grid
    N from which the inequality holds through the grid maximum, and the
    audit fails only when no such N0 exists.
    """
    def values(spec, table, sectors, vals):
        vals["bound"] = ising_fast_bound(spec.N, p1, p2)
        return vals["gap"] >= vals["bound"]

    records, fits, failures, n0s = [], [], [], {}
    for beta in betas:
        cell_records = _sweep(ising, "equi-energy", Ns, values, beta=beta, p1=p1, p2=p2)
        records.extend(cell_records)
        # smallest N from which the bound holds through the grid maximum
        n0 = n0s[str(beta)] = _first_onward(Ns, [r.passed for r in cell_records])
        if n0 is None:
            failures.append(f"beta={beta}: no N0 in the grid satisfies the bound onward")
        fit = _gap_fit(cell_records)
        if fit is not None:
            fits.append((f"loglog-gap-beta={beta}", fit))
    return BoundReport(name="ising-fast", records=tuple(records), fits=tuple(fits),
                       failures=tuple(failures), summary={"N0": n0s})


def verify_ising_slow(betas: Sequence[float], Ns: Sequence[int],
                      slope_threshold: float = -0.05) -> BoundReport:
    """Exponential slow-mixing shape of the naive chain for beta > 1.

    Constants are not reproducible from the statement, so acceptance is
    shape-only: the 95% interval of the slope of the `_collapse_fit`
    route (log Gap vs N, or log(2h) at the negative-side cut when every
    gap underflows) must lie entirely below the threshold.  Cells with
    beta <= 1 are recorded with the same fits, nothing asserted.
    """
    cells = [(beta,) for beta in betas]
    records, fits, failures, _ = _naive_decay(
        ising, ("beta",), cells, Ns, [c for c in cells if c[0] > 1], slope_threshold)
    return BoundReport(name="ising-slow", records=records, fits=fits, failures=failures)


# ---------------------------------------------------------------------------
# Warmup.
# ---------------------------------------------------------------------------

def verify_warmup(theta: float, epsilon: float, Ns: Sequence[int]) -> BoundReport:
    """Fast mixing of the reflected chain, slow mixing of the plain walk.

    Asserts inf Gap(M_eps) N^2 > 0 with no decreasing trend over the last
    decade of N, and that the naive gap decays like theta^{-N} (slope of
    log Gap vs N below -log theta + 0.1).  When every naive gap
    underflows, the same bar applies to the slope of log(2h) at the
    negative-side cut, which upper-bounds log Gap at any depth.  Also
    cross-checks the projection rate (1-eps)/4 out of the middle block
    for N >= 3.
    """
    records, failures, fits, cuts = [], [], [], []
    # its own loop, not `_sweep`: one record holds both chains and no kind
    specs = [warmup(N, theta=theta, epsilon=epsilon) for N in Ns]
    streams = (_solved([(spec, kind) for spec in specs]) for kind in ("small-world", "naive"))
    for N, spec, (table, fast), (naive_table, naive) in zip(Ns, specs, *streams):
        if N > 2:
            # projection rate from A_{mid+1} = {±(mid+1)}, block mid = N // 2, to A_{mid+2}
            H = lumped_projection(table(), warmup_block_partition(spec))
            up = float(H.vals[(H.rows == N // 2) & (H.cols == N // 2 + 1)].sum())
            if not math.isclose(up, (1 - epsilon) / 4, rel_tol=1e-12):
                failures.append(f"N={N}: projection up-rate {up} != (1-eps)/4")
        fast, naive = _gap_record(fast), _gap_record(naive)
        # the negative-side cut serves only a grid whose every naive gap underflows
        if naive["underflow"] and len(cuts) == len(records):
            cuts.append(_negative_side_cut_log(naive_table()))
        del table, naive_table  # freed before the next stacks are built
        vals = {**{k: fast[k] for k in ("gap", "lambda1", "lambda_min", "underflow")},
                "gap_times_N2": fast["gap"] * N * N, "naive_gap": naive["gap"],
                "naive_underflow": naive["underflow"]}
        records.append(CellRecord(
            cell={"model": "warmup", "N": N, "theta": theta, "epsilon": epsilon},
            values=vals))
    scaled = [r.values["gap_times_N2"] for r in records]
    inf_scaled = min(scaled)
    if not inf_scaled > 0:
        failures.append(f"inf Gap*N^2 = {inf_scaled} is not positive")
    # no decreasing trend across the last decade of N
    nmax = max(Ns)
    tail = [r for r in records if r.cell["N"] >= nmax / 10]
    fit_tail = ols_fit([math.log(r.cell["N"]) for r in tail],
                       [math.log(r.values["gap_times_N2"]) for r in tail])
    fits.append(("loglog-gapN2-tail", fit_tail))
    if not fit_tail.ci_lo >= -0.1:
        failures.append(
            f"Gap*N^2 trend slope CI [{fit_tail.ci_lo:.4g}, {fit_tail.ci_hi:.4g}] "
            "dips below -0.1")

    def naive_cut_fit():
        # every naive gap underflows, so every cut was taken
        for r, cut in zip(records, cuts, strict=True):
            r.values["naive_log_2h_cut"] = cut
        return ols_fit(Ns, cuts)

    route, fit_naive = _collapse_fit([(N, r.values["naive_gap"]) for N, r in zip(Ns, records)
                                      if not r.values["naive_underflow"]],
                                     naive_cut_fit) or (None, None)
    if route is None:
        failures.append("fewer than 6 resolvable naive gaps")
    else:
        fits.append((f"semilog-naive-{route}", fit_naive))
        if not fit_naive.ci_hi <= -math.log(theta) + 0.1:
            failures.append(
                f"naive slope CI [{fit_naive.ci_lo:.4g}, {fit_naive.ci_hi:.4g}] "
                f"exceeds -log(theta)+0.1 = {-math.log(theta) + 0.1:.4g}")
    return BoundReport(name="warmup", records=tuple(records), fits=tuple(fits),
                       failures=tuple(failures),
                       summary={"inf_gap_N2": inf_scaled})


# ---------------------------------------------------------------------------
# BEG.
# ---------------------------------------------------------------------------

def verify_beg_slow(cells: Sequence[tuple], Ns: Sequence[int],
                    deep: Optional[Sequence[tuple]] = None,
                    slope_threshold: float = -0.05) -> BoundReport:
    """Naive-chain decay map over (beta, K) cells.

    Cells listed in ``deep`` (default: all; a deep cell outside ``cells``
    raises ValueError) must show the exponential shape: the slope CI of
    the `_collapse_fit` route entirely below the threshold.  That route
    fits log Gap vs N over six or more resolvable gaps or, in a cell so
    deep that every gap underflows, log(2h) at the negative-magnetization
    cut, evaluated in log space.  All cells contribute to the empirical
    phase map, ``summary.slopes``.
    """
    records, fits, failures, slopes = _naive_decay(
        beg, ("beta", "K"), cells, Ns, cells if deep is None else deep, slope_threshold)
    return BoundReport(name="beg-slow", records=records, fits=fits, failures=failures,
                       summary={"slopes": slopes})


def beg_decomposition_floor(p1: float, p2: float) -> float:
    """Gap(M) >= Gap(P_bar) (p2/2) min[(1-p1)/2, (1-p1-p2)/2], the
    two-level decomposition with uniform orbit proposals."""
    return (p2 / 2.0) * min((1 - p1) / 2.0, (1 - p1 - p2) / 2.0)


def verify_beg_fast(cells: Sequence[tuple], Ns: Sequence[int], p1: float, p2: float,
                    slope_floor: float = -6.25) -> BoundReport:
    """Polynomial mixing of the orbit-jump beg chain on unimodal cells.

    Cells whose row-weight profile fails the unimodality scan are skipped
    with a reason.  For scanned cells: the log-log slope CI must not dip
    below the floor (-6.25: the proven N^-6 rate with fitting slack), and
    the decomposition inequality Gap(M) >= Gap(P_bar) (p2/2) min[...] is
    audited per cell as a hard inequality.
    """
    floor = beg_decomposition_floor(p1, p2)

    def values(spec, table, sectors, vals):
        # P_bar = (I + E)/2, E the even sector as a chain on unsigned classes
        vals["gap_pbar"] = 0.5 * (1.0 - sectors.even_lambda1)
        vals["decomposition_floor"] = vals["gap_pbar"] * floor
        return vals["gap"] >= vals["decomposition_floor"] - 1e-12

    records, fits, failures, constants = [], [], [], {}
    for beta, K in cells:
        if not all(s.unimodal for s in beg_unimodality_scan([(beta, K)], Ns).series):
            records.append(CellRecord(
                cell={"model": "beg", "kind": "equi-energy", "beta": beta, "K": K},
                values={"skipped": True, "underflow": False},
                note="row-weight profile not unimodal over the grid; cell skipped"))
            continue
        cell_records = _sweep(beg, "equi-energy", Ns, values, beta=beta, K=K, p1=p1, p2=p2)
        records.extend(cell_records)
        where = f"beta={beta},K={K}"
        failures.extend(f"{where},N={r.cell['N']}: Gap(M)={r.values['gap']:.6g} below the "
                        f"decomposition floor {r.values['decomposition_floor']:.6g}"
                        for r in cell_records if not r.passed)
        fit = _gap_fit(cell_records)
        if fit is None:
            failures.append(f"{where}: too few resolvable gaps to fit")
            continue
        fits.append((f"loglog-gap-beta={beta}-K={K}", fit))
        if not fit.ci_lo >= slope_floor:
            failures.append(f"{where}: slope CI [{fit.ci_lo:.4g}, {fit.ci_hi:.4g}] "
                            f"dips below {slope_floor}")
        constants[f"{beta},{K}"] = min(
            r.values["gap"] * r.cell["N"] ** 6 / p1 ** 2 for r in cell_records)
    return BoundReport(name="beg-fast", records=tuple(records), fits=tuple(fits),
                       failures=tuple(failures), summary={"inf_gap_N6_over_p1sq": constants})


# ---------------------------------------------------------------------------
# Unimodality scans.
# ---------------------------------------------------------------------------

def is_unimodal(log_values: Sequence[float]) -> bool:
    """Single-peak test: after the first definite descent, no definite rise.

    Differences within 1e-12 (of the weights, i.e. absolute on logs)
    count as plateau and constrain nothing.
    """
    d = np.diff(np.asarray(log_values, dtype=float))
    # a definite rise after the first definite descent
    return not (d > 1e-12)[np.cumsum(d < -1e-12) > 0].any()


def is_monotone_decreasing(log_values: Sequence[float]) -> bool:
    return all(d <= 1e-12 for d in np.diff(np.asarray(log_values, dtype=float)))


@dataclass(frozen=True)
class ProfileSeries:
    params: dict
    x: tuple
    log_values: tuple
    unimodal: bool
    monotone_decreasing: bool


@dataclass(frozen=True)
class UnimodalityReport:
    series: tuple
    n0: dict   # per parameter cell: smallest N from which unimodality holds onward


def _profile_scan(model: str, names: tuple, cells: Sequence[tuple], Ns: Sequence[int],
                  profile: Callable[..., tuple], settled: Callable[..., bool]
                  ) -> UnimodalityReport:
    """The (cell, N) loop of the profile scans.

    ``profile(N, *cell)`` gives the profile's ``(x, log_values)``;
    ``settled(series, *cell)`` says whether a series has the cell's
    shape, and the cell's N0 is the smallest N from which every series
    has it.
    """
    series, n0 = [], {}
    for cell in cells:
        cell_series = []
        for N in Ns:
            x, prof = profile(N, *cell)
            cell_series.append(ProfileSeries(
                params={"model": model, **dict(zip(names, cell)), "N": N},
                x=tuple(int(i) for i in x), log_values=tuple(float(v) for v in prof),
                unimodal=is_unimodal(prof), monotone_decreasing=is_monotone_decreasing(prof)))
        series.extend(cell_series)
        n0[",".join(map(str, cell))] = _first_onward(
            Ns, [settled(s, *cell) for s in cell_series])
    return UnimodalityReport(series=tuple(series), n0=n0)


def beg_unimodality_scan(pairs: Sequence[tuple], Ns: Sequence[int]) -> UnimodalityReport:
    """Row-weight profiles q(r) for a (beta, K) grid, with per-cell N0."""
    return _profile_scan(
        "beg", ("beta", "K"), pairs, Ns,
        lambda N, beta, K: (range(N + 1), models.beg_row_log_profile(N, beta, K)),
        lambda s, beta, K: s.unimodal)


def ising_profile_scan(betas: Sequence[float], Ns: Sequence[int]) -> UnimodalityReport:
    """Orbit-weight profiles q(i) over magnetization for an ising beta grid.

    N0 asks for a decreasing profile when beta < 1, a unimodal one beyond.
    """
    return _profile_scan(
        "ising", ("beta",), [(beta,) for beta in betas], Ns,
        models.ising_magnetization_log_profile,
        lambda s, beta: s.monotone_decreasing if beta < 1 else s.unimodal)


def _first_onward(Ns: Sequence[int], flags: Sequence[bool]) -> Optional[int]:
    for i in range(len(Ns)):
        if all(flags[i:]):
            return Ns[i]
    return None


# ---------------------------------------------------------------------------
# Large-deviation rate function.
# ---------------------------------------------------------------------------

def _log_mgf(t, beta: float):
    """log[(1 + e^{-beta}(e^t + e^{-t})) / (1 + 2 e^{-beta})], elementwise."""
    return np.logaddexp(0.0, np.logaddexp(t, -t) - beta) - math.log1p(2.0 * math.exp(-beta))


def _tilt(a, beta: float):
    """The tilt t >= 0 whose tilted mean is a in [0, 1], elementwise, in closed form.

    With u = e^t and c = e^{-beta}, u is the positive root of
    c(1-a)u^2 - a u - c(1+a) = 0, taken in log space so that u, which
    overflows past beta ~ 709, is never formed: 0 at a = 0, +inf at a = 1.
    """
    a = np.asarray(a, dtype=float)
    s = np.hypot(a, 2.0 * math.exp(-beta) * np.sqrt((1.0 - a) * (1.0 + a)))
    with np.errstate(divide="ignore"):
        t = np.log(a + s) - math.log(2.0) + beta - np.log1p(-a)
    return np.where(a > 0, t, 0.0)


def legendre_transform(z, beta: float):
    """J(z) = sup_t [ t z - log_mgf(t) ], elementwise, at the closed-form tilt.

    A scalar z gives a float; |z| > 1 raises ValueError.
    """
    a = np.abs(np.asarray(z, dtype=float))
    if (a > 1).any():
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    t = _tilt(a, beta)
    with np.errstate(invalid="ignore"):  # inf - inf at |z| = 1, where the closed value stands
        J = np.where(a == 1, beta + math.log1p(2.0 * math.exp(-beta)), t * a - _log_mgf(t, beta))
    return float(J) if J.ndim == 0 else J


def _tilted_free_energy(z, beta: float, K: float):
    return legendre_transform(z, beta) - beta * K * z * z


def rate_function_argmin(beta: float, K: float) -> tuple:
    """Zero set of the rate function: {0} or {-z*, +z*} by symmetry.

    z* is the grid minimizer of the tilted free energy J(z) - beta K z^2
    on [0, 1], refined by bisection on its stationarity condition
    t(z) = 2 beta K z inside the grid cells around it.
    """
    zs = np.linspace(0.0, 1.0, 2001)
    i = int(np.argmin(_tilted_free_energy(zs, beta, K)))
    lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, 2000)]
    while hi - lo >= 1e-15:
        mid = 0.5 * (lo + hi)
        if _tilt(mid, beta) < 2.0 * beta * K * mid:
            lo = mid
        else:
            hi = mid
    zstar = float(0.5 * (lo + hi))
    if zstar < 1e-6:
        return (0.0,)
    return (-zstar, zstar)


def rate_function(beta: float, K: float, z: float) -> float:
    """Large-deviation rate of the magnetization density at z in [-1, 1]."""
    zmins = rate_function_argmin(beta, K)
    c = _tilted_free_energy(abs(zmins[-1]), beta, K)
    return _tilted_free_energy(z, beta, K) - c


# ---------------------------------------------------------------------------
# Scaled parameters.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledParams:
    p1: float
    p2: float
    valid: bool
    note: str = ""


def scaled_params(a: float, N: int) -> ScaledParams:
    """The stated N-scaled proposal weights p1 = 1 - a/(2N), p2 = a/N.

    As stated they sum to 1 + a/(2N) > 1, violating the standing
    p1 + p2 < 1 assumption; the pair is returned with valid=False and the
    self-consistent variant lives in scaled_params_consistent.
    """
    if a >= N:
        raise ValueError(f"a must be < N, got a={a}, N={N}")
    if a <= 0:
        raise ValueError("a must be positive")
    p1 = 1.0 - a / (2.0 * N)
    p2 = a / N
    valid = p1 + p2 < 1.0
    note = "" if valid else f"p1+p2 = {p1 + p2} >= 1: pair unusable as stated"
    return ScaledParams(p1=p1, p2=p2, valid=valid, note=note)


def scaled_params_consistent(a: float, N: int) -> ScaledParams:
    """Self-consistent variant p1 = 1 - a/N, p2 = a/(2N); p1+p2 = 1 - a/(2N) < 1."""
    if a >= N:
        raise ValueError(f"a must be < N, got a={a}, N={N}")
    if a <= 0:
        raise ValueError("a must be positive")
    return ScaledParams(p1=1.0 - a / N, p2=a / (2.0 * N), valid=True)
