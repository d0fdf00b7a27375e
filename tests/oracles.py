"""Reference code that tests compare the library against.

Nothing under ``src/`` reaches these: they are the configuration check
and per-configuration helpers, each state's signed class key, the
index of each configuration and of its negation, the
scalar log-binomial, the per-class weight formulas, the BEG row
profile summed one row at a time, a
one-step sampler call from a given state and the move component a step
took, the sequential ball-placement orbit draw, the validity checks of
a dense chain, a dense chain as a move table, a birth-death chain as a
move table, the block-diagonal stack of move tables (the layout oracle),
the dense restriction to a block, the interval-cut bound
summed cut by cut in exact-rounding sums, the dense form of a
birth-death chain and its detailed-balance check, direct-lumping and
containment checks, and the literal transcription of a hand-tabulated
BEG rate table together with its errata.  They stay as code because
other tests measure the library's results against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from spingap import models
from spingap.kernels import (
    BirthDeathChain,
    FiniteKernel,
    MoveTable,
    Partition,
    beg_lumped,
    lumped_projection,
    metropolis_chain,
    partition_by,
    signed_lumped_chain,
    unsigned_lumped_chain,
)
from spingap.models import EnergyClass, ModelSpec, logsumexp
from spingap.sampling import Sampler, _orbit_draw, bose_einstein_sample
from spingap.spectral import _check_table, gap, spectrum

State = Union[int, Sequence[int], np.ndarray]


class AlphabetError(ValueError):
    """A configuration entry lies outside the model alphabet."""


# ---------------------------------------------------------------------------
# Per-configuration statistics.
# ---------------------------------------------------------------------------

def _as_spins(spec: ModelSpec, x: State) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (spec.N,):
        raise AlphabetError(f"expected {spec.N} spins, got shape {arr.shape}")
    return arr


def validate_state(spec: ModelSpec, x: State) -> None:
    """Raise AlphabetError unless x is a valid configuration for spec."""
    if spec.kind == "warmup":
        value = np.asarray(x)
        if value.ndim or not float(value).is_integer():
            raise AlphabetError(f"warmup state {value} is not an integer")
        xi = int(value)
        if not -spec.N <= xi <= spec.N:
            raise AlphabetError(f"warmup state {xi} outside [-{spec.N}, {spec.N}]")
        return
    arr = _as_spins(spec, x)
    allowed = (-1, 1) if spec.kind == "ising" else (-1, 0, 1)
    # the set of values, compared with ==: a tenth of np.isin's cost on a few spins
    if not set(arr.tolist()) <= set(allowed):
        raise AlphabetError(f"spins must lie in {allowed}")


def magnetization(x: State) -> int:
    """Total magnetization S = sum of spins (warmup: the coordinate itself)."""
    arr = np.asarray(x)
    if arr.ndim == 0:
        return int(arr)
    return int(arr.sum())


def quadrupole(spec: ModelSpec, x: State) -> int:
    """Number of nonzero spins R = sum of x_i^2; beg only."""
    if spec.kind != "beg":
        raise ValueError(f"quadrupole is defined for the beg model, not {spec.kind}")
    return int(np.count_nonzero(_as_spins(spec, x)))


def log_weight(spec: ModelSpec, x: State) -> float:
    """Unnormalized log stationary weight of configuration x."""
    validate_state(spec, x)
    if spec.kind == "warmup":
        return abs(int(np.asarray(x))) * math.log(spec.theta)
    s = magnetization(x)
    if spec.kind == "ising":
        return spec.beta * s * s / (2 * spec.N)
    r = quadrupole(spec, x)
    return -spec.beta * r + spec.K * spec.beta * s * s / spec.N


def class_of(spec: ModelSpec, x: State) -> EnergyClass:
    """Orbit label of x under coordinate permutations and the global flip."""
    validate_state(spec, x)
    s = magnetization(x)
    sign = 0 if s == 0 else (1 if s > 0 else -1)
    if spec.kind == "beg":
        return EnergyClass(abs(s), quadrupole(spec, x), sign)
    return EnergyClass(abs(s), None, sign)


def signed_class_keys(spec: ModelSpec) -> list:
    """Per-state signed orbit key (S, or (S, R)) in enumeration order."""
    states = models.enumerate_states(spec)
    if spec.kind == "warmup":
        return [int(x) for x in states]
    S = states.sum(axis=1, dtype=np.int64)
    if spec.kind == "ising":
        return S.tolist()
    R = np.count_nonzero(states, axis=1)
    return list(zip(S.tolist(), R.tolist()))


def state_index(spec: ModelSpec, x: State) -> int:
    """Inverse of enumerate_states ordering."""
    if spec.kind == "warmup":
        return int(np.asarray(x)) + spec.N
    arr = _as_spins(spec, x)
    base = 2 if spec.kind == "ising" else 3
    digits = (arr + 1) // 2 if spec.kind == "ising" else arr + 1
    return int((digits * base ** np.arange(spec.N)).sum())


def negation_indices(spec: ModelSpec) -> np.ndarray:
    """The index of -x for each enumerated configuration x, by ``state_index``."""
    return np.array([state_index(spec, -x) for x in models.enumerate_states(spec)])


def log_binom(n: int, k: int) -> float:
    """log C(n, k) one pair at a time, the reference for ``models.log_binom_array``:
    exact integer arithmetic for small n, lgamma beyond."""
    if k < 0 or k > n:
        return -math.inf
    if n <= models._EXACT_BINOM_LIMIT:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def class_log_cardinality(spec: ModelSpec, c: EnergyClass) -> float:
    """Log size of the signed class c (sign 0 means the full orbit)."""
    if spec.kind == "warmup":
        return 0.0
    if spec.kind == "ising":
        return log_binom(spec.N, (spec.N - c.s) // 2)
    return log_binom(spec.N, c.r) + log_binom(c.r, (c.r - c.s) // 2)


def class_log_state_weight(spec: ModelSpec, c: EnergyClass) -> float:
    """Log weight shared by every configuration in class c."""
    if spec.kind == "warmup":
        return c.s * math.log(spec.theta)
    if spec.kind == "ising":
        return spec.beta * c.s * c.s / (2 * spec.N)
    return -spec.beta * c.r + spec.K * spec.beta * c.s * c.s / spec.N


def beg_row_log_weights(table: models.ClassTable) -> np.ndarray:
    """log q(r) reconstructed by summing the signed class table at fixed r."""
    spec = table.spec
    if spec.kind != "beg":
        raise ValueError("row weights are a beg concept")
    out = np.full(spec.N + 1, -np.inf)
    for r in range(spec.N + 1):
        sel = [i for i, c in enumerate(table.classes) if c.r == r]
        if sel:
            out[r] = logsumexp(table.log_class_weight[sel])
    return out


def beg_row_log_profile_by_rows(N: int, beta: float, K: float) -> np.ndarray:
    """``models.beg_row_log_profile`` one row r at a time: its reference, bit for bit,
    its warnings included."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if not (math.isfinite(beta) and math.isfinite(K)):
        raise ValueError(f"beta and K must be finite reals, got {beta}, {K}")
    out = models.log_binom_array(N, np.arange(N + 1))
    for r in range(N + 1):
        s = np.arange(r % 2, r + 1, 2)
        terms = models.log_binom_array(r, (r - s) // 2) + K * beta * s * s / N
        terms[s > 0] += math.log(2.0)
        out[r] = out[r] - beta * r + logsumexp(terms)
    models.check_log_weights(out)
    return out


def run_one(sampler: Sampler) -> str:
    """Take one step of sampler; returns its move component, read off the counters."""
    before = replace(sampler.cost)
    sampler.run(1)
    return next(c for c in ("flip", "global", "orbit")
                if getattr(sampler.cost, f"{c}_proposed") > getattr(before, f"{c}_proposed"))


def step(spec: ModelSpec, kind: str, x, rng: np.random.Generator):
    """One Metropolis transition from x; returns (new state, move component).

    The sampler is built on a throwaway generator and then set to x, so
    rng serves the step's draws only.
    """
    sampler = Sampler(spec, kind, np.random.default_rng(0))
    validate_state(spec, x)
    if spec.kind == "warmup":
        sampler.x = sampler.S = int(x)
    else:
        sampler.x = np.array(x, dtype=np.int8)
        sampler.S = int(sampler.x.sum())
        sampler.R = int(np.count_nonzero(sampler.x)) if spec.kind == "beg" else None
    sampler.rng = rng
    component = run_one(sampler)
    return sampler.x, component


def _ising_config_from_occupancy(N: int, occ: np.ndarray) -> np.ndarray:
    """Occupancy gaps -> spin pattern: occ[j] plus-spins before the j-th minus."""
    x = np.empty(N, dtype=np.int8)
    pos = 0
    for j, gap in enumerate(occ):
        x[pos:pos + gap] = 1
        pos += gap
        if j < len(occ) - 1:
            x[pos] = -1
            pos += 1
    return x


def sample_uniform_class(spec: ModelSpec, c: EnergyClass, rng: np.random.Generator,
                         method: str = "direct"):
    """A configuration uniform over the signed class c.

    method="direct" is the sampler's O(N) orbit draw; method="sequential"
    runs the literal ball-placement scheme (warmup/ising only).  A
    warm-up class is its one coordinate.
    """
    if method not in ("direct", "sequential"):
        raise ValueError(f"unknown method {method!r}")
    if method == "sequential" and spec.kind == "beg":
        raise ValueError("the sequential scheme is defined for the two-letter alphabet only")
    S = c.sign * c.s
    if spec.kind == "warmup":
        return int(S)
    if method == "sequential":
        n_plus = (spec.N + S) // 2
        occ = bose_einstein_sample(n_plus, spec.N - n_plus + 1, rng)
        return _ising_config_from_occupancy(spec.N, occ)
    return _orbit_draw(spec.N, S, c.r, rng)


# ---------------------------------------------------------------------------
# Dense chain checks, a dense chain as a move table, the interval-cut
# reference, and the dense form of a birth-death chain.
# ---------------------------------------------------------------------------

def row_sum_error(kernel: FiniteKernel) -> float:
    """Largest deviation of a row sum of P from 1."""
    return float(np.abs(kernel.P.sum(axis=1) - 1.0).max())


def check_kernel(kernel: FiniteKernel, tol: float = 1e-12) -> None:
    """Refuse a wrong shape, a negative entry, a row sum off 1 or a detailed-balance break."""
    if kernel.P.shape != (kernel.n, kernel.n):
        raise ValueError("matrix shape does not match the label count")
    if kernel.P.min() < -tol:
        raise ValueError(f"negative transition probability {kernel.P.min()}")
    err = row_sum_error(kernel)
    if err > tol:
        raise ValueError(f"row sums deviate from 1 by {err}")
    db = kernel.detailed_balance_error()
    if db > tol:
        raise ValueError(f"detailed balance violated, relative residual {db}")


def bd_detailed_balance_error(chain: BirthDeathChain) -> float:
    """Relative mismatch of log(pi_i up_i) vs log(pi_{i+1} down_{i+1})."""
    worst = 0.0
    for i in range(chain.n - 1):
        u, d = chain.up[i], chain.down[i + 1]
        if u == 0.0 and d == 0.0:
            continue
        if u == 0.0 or d == 0.0:
            return math.inf
        lhs = chain.log_pi[i] + math.log(u)
        rhs = chain.log_pi[i + 1] + math.log(d)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst


def kernel_table(kernel: FiniteKernel) -> MoveTable:
    """A dense chain as a move table: its off-diagonal nonzeros as triplets in
    row-major order, the flip the identity."""
    rows, cols = np.nonzero(kernel.P)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    return MoveTable(labels=kernel.labels, log_pi=kernel.log_pi, rows=rows, cols=cols,
                     vals=kernel.P[rows, cols], flip=np.arange(kernel.n))


def bd_table(up: Sequence[float], down: Sequence[float], log_pi: Sequence[float]) -> MoveTable:
    """The birth-death chain up[i]: i -> i+1, down[i]: i -> i-1 as a move table.

    Its nonzero rates in row-major order, the flip the identity.
    """
    n = len(log_pi)
    moves = [(i, j, rate) for i in range(n) for j, rate in ((i - 1, down[i]), (i + 1, up[i]))
             if 0 <= j < n and rate]
    rows, cols, vals = (np.array([m[f] for m in moves], dtype=dtype)
                        for f, dtype in ((0, np.intp), (1, np.intp), (2, float)))
    return MoveTable(labels=tuple(range(n)), log_pi=np.asarray(log_pi, dtype=float),
                     rows=rows, cols=cols, vals=vals, flip=np.arange(n))


def stack(tables: Sequence[MoveTable]) -> MoveTable:
    """The block-diagonal MoveTable of ``tables``, each shifted past the ones before.

    Each table is checked first (``_check_table``, ValueError); a lone
    table comes back as it is, its arrays not copied.  The layout that
    ``signed_move_stack`` and ``restrictions`` build in one pass.
    """
    for t in tables:
        _check_table(t)
    if len(tables) == 1:
        return tables[0]
    sizes, moves = [t.n for t in tables], [len(t.rows) for t in tables]
    starts = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(starts, moves)
    pairs = {}
    if all(t.reverse is not None for t in tables):
        # the positions of the moves, shifted past the moves of the tables before
        step = np.repeat(np.cumsum([0, *moves[:-1]]), moves)
        pairs = dict(reverse=np.concatenate([t.reverse for t in tables]) + step,
                     mirror=np.concatenate([t.mirror for t in tables]) + step)
    return MoveTable(labels=tuple(itertools.chain.from_iterable(t.labels for t in tables)),
                     log_pi=np.concatenate([t.log_pi for t in tables]),
                     rows=np.concatenate([t.rows for t in tables]) + shift,
                     cols=np.concatenate([t.cols for t in tables]) + shift,
                     vals=np.concatenate([t.vals for t in tables]),
                     flip=np.concatenate([t.flip for t in tables]) + np.repeat(starts, sizes),
                     **pairs)


def dense_restriction(kernel: FiniteKernel, block: Sequence[int]) -> FiniteKernel:
    """The dense chain restricted to a block; escaping mass is added to the diagonal."""
    b = np.asarray(block, dtype=np.intp)
    sub = kernel.P[np.ix_(b, b)].copy()
    escape = kernel.P[b, :].sum(axis=1) - sub.sum(axis=1)
    sub[np.diag_indices(b.size)] += escape
    labels = tuple(kernel.labels[int(i)] for i in b)
    return FiniteKernel(labels=labels, log_pi=kernel.log_pi[b].copy(), P=sub)


def interval_conductance_reference(chain: Union[FiniteKernel, MoveTable]) -> float:
    """The interval-cut bound, each cut's flow a math.fsum over the moves that cross it.

    Cut k splits {0..k} from the rest.  Its flow sums pi(x)P(x,y)/2 over
    the moves x -> y with min(x, y) <= k < max(x, y), and each side's
    mass is an fsum of its own states.  A dense chain is read as its
    ``kernel_table``.
    """
    table = kernel_table(chain) if isinstance(chain, FiniteKernel) else chain
    pi = np.exp(table.log_pi - logsumexp(table.log_pi))
    q = 0.5 * pi[table.rows] * table.vals
    lo, hi = np.minimum(table.rows, table.cols), np.maximum(table.rows, table.cols)
    best = math.inf
    for k in range(table.n - 1):
        side = min(math.fsum(pi[:k + 1]), math.fsum(pi[k + 1:]))
        if side > 0:
            best = min(best, math.fsum(q[(lo <= k) & (k < hi)]) / side)
    return best


def bd_kernel(chain: BirthDeathChain) -> FiniteKernel:
    """The dense tridiagonal matrix of a birth-death chain."""
    P = np.diag(chain.hold)
    for i in range(chain.n - 1):
        P[i, i + 1] = chain.up[i]
        P[i + 1, i] = chain.down[i + 1]
    return FiniteKernel(labels=chain.labels, log_pi=chain.log_pi.copy(), P=P)


# ---------------------------------------------------------------------------
# Direct lumping of the materialized chain.
# ---------------------------------------------------------------------------

def unsigned_class_partition(spec: ModelSpec) -> Partition:
    """Partition of the full space by unsigned orbit (the energy sets)."""
    keys = signed_class_keys(spec)
    if spec.kind == "beg":
        keys = [(abs(s), r) for s, r in keys]
        order = sorted(set(keys), key=lambda t: (t[1], t[0]))
    else:
        keys = [abs(k) for k in keys]
        order = sorted(set(keys))
    return partition_by(keys, order=order)


def unsigned_lumping_deviation(spec: ModelSpec) -> float:
    """Max |derived - direct lumping| over the unsigned equi-energy projection."""
    derived = unsigned_lumped_chain(spec, "equi-energy").to_kernel()
    full = metropolis_chain(spec, "equi-energy")
    direct = lumped_projection(full, unsigned_class_partition(spec)).to_kernel()
    return float(np.abs(derived.P - direct.P).max())


def signed_containment(spec: ModelSpec, kind: str) -> dict:
    """Check every lumped eigenvalue appears in the full spectrum (to 1e-8).

    Returns the one-sided Hausdorff distance, both gaps, and whether the
    gaps agree to 1e-10 (recorded, not required).
    """
    full = metropolis_chain(spec, kind).to_kernel()
    lump = signed_lumped_chain(spec, kind)
    s_full = spectrum(full)
    s_lump = spectrum(lump)
    ev_full, ev_lump = s_full.eigenvalues, s_lump.eigenvalues
    dist = float(max(np.abs(ev_full[None, :] - ev_lump[:, None]).min(axis=1).max(), 0.0))
    gap_full = gap(s_full)
    gap_lump = gap(s_lump)
    return {
        "hausdorff_one_sided": dist,
        "contained": dist <= 1e-8,
        "gap_full": gap_full,
        "gap_lumped": gap_lump,
        "gap_lumped_dominates": gap_lump >= gap_full - 1e-10,
        "gaps_agree": abs(gap_full - gap_lump) <= 1e-10,
    }


# ---------------------------------------------------------------------------
# The hand-tabulated beg projection rates and their errata.
# ---------------------------------------------------------------------------

#: Entries of the hand-tabulated beg rate table known to deviate from the
#: authoritative direct-lumping values.  Each item: (name, predicate on
#: ((s,r), (s2,r2), N), description of the defect).  The r = N boundary
#: entries of the first three families are tabulated separately and are
#: correct, hence the r <= N-2 guards.
BEG_TABULATED_ERRATA = (
    (
        "zero-mag sideways",
        lambda a, b, N: a[0] == 0 and 2 <= a[1] <= N - 2 and b == (2, a[1]),
        "listed as p1/(4N); the factor r is missing (correct: p1 r/(4N))",
    ),
    (
        "zero-mag shrink",
        lambda a, b, N: a[0] == 0 and 2 <= a[1] <= N - 2 and b == (1, a[1] - 1),
        "listed as p1/(4N); the factor r is missing (correct: p1 r/(4N))",
    ),
    (
        "zero-mag grow",
        lambda a, b, N: a[0] == 0 and 2 <= a[1] <= N - 2 and b == (1, a[1] + 1),
        "listed as p1/(2N) min(1, e^{K beta/N - beta}); the factor N-r is missing",
    ),
    (
        "shrink-diagonal acceptance",
        lambda a, b, N: a[0] >= 1 and b == (a[0] - 1, a[1] - 1),
        "acceptance exponent must be beta + (K beta/N)(1-2s), "
        "not (K beta/N)(2s+1) - beta (detailed balance fails as listed)",
    ),
)


def beg_lumped_tabulated(spec: ModelSpec) -> FiniteKernel:
    """Literal transcription of the hand-tabulated beg projection rates.

    Kept verbatim as a cross-check fixture: four entry families are
    defective (BEG_TABULATED_ERRATA) and detailed balance fails there.
    Ranges addressing labels outside the class set are skipped.  Use
    beg_lumped for the authoritative chain.
    """
    if spec.kind != "beg":
        raise ValueError("beg only")
    N, beta, K, p1 = spec.N, spec.beta, spec.K, spec.p1
    auth = beg_lumped(spec)
    classes = list(auth.labels)
    index = {sr: i for i, sr in enumerate(classes)}
    n = len(classes)
    P = np.zeros((n, n))

    def put(a, b, value):
        P[index[a], index[b]] = value

    accept0 = min(1.0, math.exp(K * beta / N - beta))
    put((0, 0), (1, 1), p1 / 2 * accept0)
    put((0, N), (1, N - 1), p1 / 4)
    put((0, N), (2, N), p1 / 4)
    for r in range(2, N - 1, 2):
        put((0, r), (2, r), p1 / (4 * N))
        put((0, r), (1, r - 1), p1 / (4 * N))
        put((0, r), (1, r + 1), p1 / (2 * N) * accept0)
    for s, r in classes:
        if s == 0:
            continue
        if s + 2 <= r:
            put((s, r), (s + 2, r), p1 / (8 * N) * (r - s))
        if s >= 2:
            put((s, r), (s - 2, r), p1 / (8 * N) * (r + s) * math.exp(4 * K * beta * (1 - s) / N))
        if r <= N - 1:
            put((s, r), (s + 1, r + 1),
                p1 / (4 * N) * (N - r) * min(1.0, math.exp(K * beta * (2 * s + 1) / N - beta)))
            put((s, r), (s - 1, r + 1),
                p1 / (4 * N) * (N - r) * math.exp(K * beta * (1 - 2 * s) / N - beta))
        if s + 1 <= r - 1:
            put((s, r), (s + 1, r - 1), p1 / (8 * N) * (r - s))
        if s - 1 <= r - 1 and r >= 1:
            put((s, r), (s - 1, r - 1),
                p1 / (8 * N) * (r + s) * min(1.0, math.exp(K * beta * (2 * s + 1) / N - beta)))
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return FiniteKernel(labels=auth.labels, log_pi=auth.log_pi.copy(), P=P)


@dataclass(frozen=True)
class RateDiscrepancy:
    source: tuple
    target: tuple
    tabulated: float
    direct: float
    annotated: Optional[str]


def beg_rate_discrepancies(spec: ModelSpec) -> list[RateDiscrepancy]:
    """Off-diagonal entries where the tabulated rates deviate from direct lumping.

    Every discrepancy is matched against BEG_TABULATED_ERRATA; an entry
    with annotated=None is an unexplained defect and should fail any
    audit that sees it.
    """
    auth = beg_lumped(spec).to_kernel()
    tab = beg_lumped_tabulated(spec)
    out = []
    n = auth.n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = auth.labels[i], auth.labels[j]
            da, dt = auth.P[i, j], tab.P[i, j]
            if abs(da - dt) <= 1e-12 * max(1.0, abs(da)):
                continue
            note = None
            for name, pred, desc in BEG_TABULATED_ERRATA:
                if pred(a, b, spec.N):
                    note = f"{name}: {desc}"
                    break
            out.append(RateDiscrepancy(a, b, float(dt), float(da), note))
    return out
