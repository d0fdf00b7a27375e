"""Mean-field spin models: statistics, symmetry classes, exact class tables.

Three model families share one interface:

* ``warmup`` -- a single integer coordinate on {-N, ..., N} with weight
  theta^|x|; the symmetry orbit of x is {x, -x}.
* ``ising`` -- N spins in {-1, +1} (N even) with weight
  exp(beta * S^2 / (2N)), S the total magnetization; orbits are the
  level sets of |S| under coordinate permutations and the global flip.
* ``beg`` -- N spins in {-1, 0, +1} (N even) with weight
  exp(-beta * R + K * beta * S^2 / N), R the number of nonzero spins;
  orbits are the level sets of (|S|, R).

All weights are held in log space; partition functions come from
log-sum-exp over class weights, never from summing raw exponentials,
so tables stay finite for N in the hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

KINDS = ("warmup", "ising", "beg")

# exact integer binomials stay cheap up to here; lgamma beyond
_EXACT_BINOM_LIMIT = 60

#: most signed classes a class table holds, and most configurations that
#: enumerate_states lists
MAX_CLASSES = 2_000_000
MAX_ENUMERATED_STATES = 1 << 16


class OddSizeError(ValueError):
    """The ising and beg models are defined for even N only."""


@dataclass(frozen=True)
class ModelSpec:
    """Which model plus every parameter it needs, validated on construction.

    Unused parameters for a given kind are None.  No code sets ``a``: the
    ``verify.scaled_*`` helpers return ``ScaledParams``, not a spec.  It
    stays as a key of the ``model`` record in ``runstats.json`` and
    ``conductance.json``, always null.
    """

    kind: str
    N: int
    beta: Optional[float] = None
    K: Optional[float] = None
    theta: Optional[float] = None
    p1: Optional[float] = None
    p2: Optional[float] = None
    epsilon: Optional[float] = None
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.kind in ("ising", "beg"):
            if self.N % 2 != 0:
                raise OddSizeError(f"{self.kind} model requires even N, got {self.N}")
            if self.beta is None or not 0 <= self.beta < math.inf:
                raise ValueError("beta must be a nonnegative real")
            if self.p1 is not None or self.p2 is not None:
                if self.p1 is None or self.p2 is None:
                    raise ValueError("p1 and p2 must be set together")
                if not (0 < self.p1 < 1 and 0 < self.p2 < 1):
                    raise ValueError(f"p1, p2 must lie in (0,1), got {self.p1}, {self.p2}")
                if self.p1 + self.p2 >= 1:
                    raise ValueError(f"p1 + p2 must be < 1, got {self.p1 + self.p2}")
        if self.kind == "beg":
            if self.K is None or not 0 < self.K < math.inf:
                raise ValueError("K must be a positive real")
        if self.kind == "warmup":
            if self.theta is None or not 1 < self.theta < math.inf:
                raise ValueError(f"theta must be > 1, got {self.theta}")
            if self.epsilon is not None and not (0 < self.epsilon < 1):
                raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")


def warmup(N: int, theta: float, epsilon: Optional[float] = None) -> ModelSpec:
    """Two-sided geometric-peak model on {-N, ..., N}."""
    return ModelSpec(kind="warmup", N=N, theta=theta, epsilon=epsilon)


def ising(N: int, beta: float, p1: Optional[float] = None, p2: Optional[float] = None) -> ModelSpec:
    """Mean-field Ising (Curie-Weiss) model on {-1,+1}^N."""
    return ModelSpec(kind="ising", N=N, beta=beta, p1=p1, p2=p2)


def beg(N: int, beta: float, K: float, p1: Optional[float] = None,
        p2: Optional[float] = None) -> ModelSpec:
    """Mean-field Blume-Emery-Griffiths model on {-1,0,+1}^N."""
    return ModelSpec(kind="beg", N=N, beta=beta, K=K, p1=p1, p2=p2)


class EnergyClass(NamedTuple):
    """Orbit label: (|S|, sign) for warmup/ising, (|S|, R, sign) for beg.

    ``sign`` is +1 or -1 for the two signed halves of an orbit and 0 when
    s == 0 (the orbit is its own mirror image).  ``r`` is None outside beg.
    """

    s: int
    r: Optional[int]
    sign: int


def logsumexp(a) -> np.float64:
    """log(sum(exp(a))) over a 1-D real array, as scipy.special.logsumexp.

    The same steps as scipy 1.17, so the same bits: the maxima (m of
    them) are set to -inf, not removed, which would regroup numpy's
    pairwise sum; the array is shifted by the maximum, exponentiated and
    summed, and the result is log1p(sum / m) + log(m) + max.  A
    non-finite result falls back to log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if not a.size:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        top = a == a_max
        m = np.sum(top.astype(float), keepdims=True)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return out[0]


@cache
def _exact_log_binoms() -> np.ndarray:
    """log C(n, k) for n, k <= _EXACT_BINOM_LIMIT from exact integers (-inf for k > n)."""
    size = _EXACT_BINOM_LIMIT + 1
    return np.array([[math.log(math.comb(n, k)) if k <= n else -math.inf for k in range(size)]
                     for n in range(size)])


#: lgamma(i + 1) for i = 0, 1, ...: log_binom_array's one table, grown on demand
_log_factorials = np.zeros(1)


def _log_factorials_upto(n: int) -> np.ndarray:
    """The lgamma table, grown (at least doubled) to hold lgamma(n + 1)."""
    global _log_factorials
    have = _log_factorials.size
    if have <= n:
        more = [math.lgamma(i + 1) for i in range(have, max(n + 1, 2 * have))]
        _log_factorials = np.concatenate([_log_factorials, more])
    return _log_factorials


def log_binom_array(n, k) -> np.ndarray:
    """log C(n, k) elementwise over integer arrays, -inf outside 0 <= k <= n.

    n <= _EXACT_BINOM_LIMIT reads the exact-integer values; larger n
    take lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) from one lgamma table.
    """
    n, k = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(k, dtype=np.int64))
    out = np.full(n.shape, -math.inf)
    valid = (k >= 0) & (k <= n)
    small = valid & (n <= _EXACT_BINOM_LIMIT)
    out[small] = _exact_log_binoms()[n[small], k[small]]
    large = valid & ~small
    if large.any():
        n, k = n[large], k[large]
        lgamma = _log_factorials_upto(int(n.max()))
        out[large] = lgamma[n] - lgamma[k] - lgamma[n - k]
    return out


def state_count(spec: ModelSpec, space: str) -> int:
    """From N: the "full" configurations, "signed" classes or "unsigned" orbits {c, -c}."""
    N = spec.N
    if space == "full":
        return 2 * N + 1 if spec.kind == "warmup" else (2 if spec.kind == "ising" else 3) ** N
    if space == "signed":
        return {"warmup": 2 * N + 1, "ising": N + 1, "beg": (N + 1) * (N + 2) // 2}[spec.kind]
    half = N // 2 + 1
    return {"warmup": N + 1, "ising": half, "beg": half * half}[spec.kind]


def check_class_count(spec: ModelSpec) -> int:
    """Refuse more than MAX_CLASSES signed classes before any is built; their count."""
    n = state_count(spec, "signed")
    if n > MAX_CLASSES:
        raise ValueError(f"{n} classes exceed the limit {MAX_CLASSES}")
    return n


def check_log_weights(lw) -> None:
    """Refuse log weights that overflowed (inf) or lost their value (nan), as
    beta S^2 / 2N does at beta = 1e308: no chain, profile or run starts from them."""
    if not np.isfinite(lw).all():
        raise ValueError("the log weights of the stationary distribution are not all "
                         "finite: the parameters overflow float64")


def signed_class_order(spec: ModelSpec) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(S, R) of every signed class, in the one order that every class table uses.

    warmup: x = -N..N; ising: S = -N..N in steps of 2 (R is None for
    both); beg: r = 0..N, then s = -r..r in steps of 2.
    ``signed_class_position`` gives a class's place in it.
    """
    N = spec.N
    if spec.kind != "beg":
        return np.arange(-N, N + 1, 1 if spec.kind == "warmup" else 2), None
    r = np.repeat(np.arange(N + 1), np.arange(1, N + 2))
    # row r opens with the class (-r, r)
    return 2 * (np.arange(r.size) - signed_class_position(spec, -r, r)) - r, r


def signed_class_position(spec: ModelSpec, s, r=None):
    """The index of class (s, r) in ``signed_class_order``, elementwise."""
    if spec.kind == "beg":
        return r * (r + 1) // 2 + (s + r) // 2
    return (s + spec.N) // (1 if spec.kind == "warmup" else 2)


def enumerate_beg_classes(N: int) -> list[tuple[int, int]]:
    """The s >= 0 half of the beg class order: (s, r) sorted by (r, s).

    No program path calls it; the tests and the benchmark tracer's shim
    list (``perfbench/layers.py``) do.
    """
    if N % 2 != 0 or N < 2:
        raise OddSizeError(f"beg class enumeration requires even N >= 2, got {N}")
    # the order reads only the model and N
    s, r = signed_class_order(beg(N, beta=0.0, K=1.0))
    half = s >= 0
    return list(zip(s[half].tolist(), r[half].tolist()))


@dataclass(frozen=True)
class ClassTable:
    """Exact signed-class weight table in log space.

    log_class_weight = log_cardinality + log_state_weight, and
    exp(log_class_weight - log_partition) sums to one.
    """

    spec: ModelSpec
    classes: tuple
    log_cardinality: np.ndarray
    log_state_weight: np.ndarray
    log_class_weight: np.ndarray
    log_partition: float

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_class_weight - self.log_partition)

    def __len__(self) -> int:
        return len(self.classes)


def class_table(spec: ModelSpec) -> ClassTable:
    """Build the exact signed-class table for spec.

    The classes come in ``signed_class_order``.  The limit is on the
    class count (ising has N/2+1 unsigned classes, beg O(N^2)), never on
    the 2^N or 3^N configuration count.
    """
    check_class_count(spec)
    signed, r = signed_class_order(spec)
    s = np.abs(signed)
    if spec.kind == "warmup":
        log_card, log_sw = np.zeros(s.size), s * math.log(spec.theta)
    elif spec.kind == "ising":
        log_card = log_binom_array(spec.N, (spec.N - s) // 2)
        log_sw = spec.beta * s * s / (2 * spec.N)
    else:
        log_card = log_binom_array(spec.N, r) + log_binom_array(r, (r - s) // 2)
        log_sw = -spec.beta * r + spec.K * spec.beta * s * s / spec.N
    log_cw = log_card + log_sw
    rs = [None] * s.size if r is None else r.tolist()
    return ClassTable(
        spec=spec,
        classes=tuple(map(EnergyClass, s.tolist(), rs, np.sign(signed).tolist())),
        log_cardinality=log_card,
        log_state_weight=log_sw,
        log_class_weight=log_cw,
        log_partition=float(logsumexp(log_cw)),
    )


# ---------------------------------------------------------------------------
# Full configuration space enumeration (small N only).
# ---------------------------------------------------------------------------

def enumerate_states(spec: ModelSpec) -> np.ndarray:
    """All configurations in canonical index order.

    warmup: shape (2N+1,), values -N..N ascending.
    ising:  shape (2^N, N); index b has spin_j = +1 iff bit j of b is set.
    beg:    shape (3^N, N); index b has spin_j = (j-th base-3 digit) - 1.
    """
    if spec.kind == "warmup":
        return np.arange(-spec.N, spec.N + 1)
    base = 2 if spec.kind == "ising" else 3
    n_states = base ** spec.N
    if n_states > MAX_ENUMERATED_STATES:
        raise ValueError(f"{n_states} states exceed the enumeration limit {MAX_ENUMERATED_STATES}")
    idx = np.arange(n_states)
    digits = (idx[:, None] // base ** np.arange(spec.N)[None, :]) % base
    if spec.kind == "ising":
        return (2 * digits - 1).astype(np.int8)
    return (digits - 1).astype(np.int8)


def log_weights_all(spec: ModelSpec) -> np.ndarray:
    """Unnormalized log weights of every enumerated configuration."""
    states = enumerate_states(spec)
    if spec.kind == "warmup":
        return np.abs(states) * math.log(spec.theta)
    s = states.sum(axis=1, dtype=np.int64)
    if spec.kind == "ising":
        return spec.beta * s.astype(float) ** 2 / (2 * spec.N)
    r = np.count_nonzero(states, axis=1)
    return -spec.beta * r.astype(float) + spec.K * spec.beta * s.astype(float) ** 2 / spec.N


# ---------------------------------------------------------------------------
# Closed-form class-weight profiles used by the unimodality machinery.
# ---------------------------------------------------------------------------

def ising_magnetization_log_profile(N: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(i, log q(i)) with q(i) = C(N, (N-i)/2) * exp(beta i^2 / 2N), i = 0,2,..,N.

    q is the per-orbit weight before the factor 2 that the two signed
    halves contribute for i != 0.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if N % 2 != 0:
        raise OddSizeError(f"even N required, got {N}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be a finite real, got {beta}")
    i = np.arange(0, N + 1, 2)
    log_q = log_binom_array(N, (N - i) // 2) + beta * i * i / (2 * N)
    check_log_weights(log_q)
    return i, log_q


def beg_row_log_profile(N: int, beta: float, K: float) -> np.ndarray:
    """log q(r) for r = 0..N, the total class weight at fixed quadrupole r.

    q(r) = C(N,r) e^{-beta r} [ C(r, r/2) + 2 sum_{s>0} C(r,(r-s)/2) e^{K beta s^2/N} ]
    with s running over 2,4,..,r for even r and 1,3,..,r for odd r.
    Valid for every N >= 1 (odd N included); the class-table route only
    exists for even N and must agree with this closed form there.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if not (math.isfinite(beta) and math.isfinite(K)):
        raise ValueError(f"beta and K must be finite reals, got {beta}, {K}")
    # the (r, s) triangle row by row: s = r mod 2, r mod 2 + 2, ..., r
    r = np.arange(N + 1)
    size = r // 2 + 1
    ends = np.cumsum(size)
    starts = ends - size
    row = np.repeat(r, size)
    s = row % 2 + 2 * (np.arange(ends[-1]) - np.repeat(starts, size))
    terms = log_binom_array(row, (row - s) // 2) + K * beta * s * s / N
    terms[s > 0] += math.log(2.0)
    # logsumexp's steps on every row at once, but one np.sum per row: its
    # pairwise order follows the row's own length
    rows = list(zip(starts.tolist(), ends.tolist()))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum.reduceat(terms, starts)
        at_top = terms == top[row]
        m = np.bincount(row, weights=at_top)
        e = np.exp(np.where(at_top, -np.inf, terms) - top[row])
        total = np.array([np.sum(e[lo:hi]) for lo, hi in rows])
        lse = np.log1p(np.where(total == 0, total, total / m)) + np.log(m) + top
        for k in np.flatnonzero(~np.isfinite(lse)).tolist():
            lo, hi = rows[k]
            lse[k] = np.log(np.sum(np.exp(terms[lo:hi])))
    out = log_binom_array(N, r)
    # in scalar steps, row by row, so that an overflow warns as a scalar add
    for k in range(N + 1):
        out[k] = out[k] - beta * k + lse[k]
    check_log_weights(out)
    return out
