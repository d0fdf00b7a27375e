"""Construction of every Markov kernel in the laboratory.

Proposal chains (single-flip, orbit-jump mixtures, small-world), their
Metropolis chains, and the derived class-space chains: projections onto
a partition (with the 1/2 factor that makes the projection lazy),
restrictions to its blocks, exact strong lumpings onto signed orbit
classes, and their projections onto unsigned classes.

Every chain builder returns a move table (``MoveTable``): the full
space, capped at a few thousand states, as well as the class spaces,
the large-N route with O(N) or O(N^2) states.  A chain becomes a dense
matrix only through ``MoveTable.to_kernel``, for the dense oracles and
the exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import models
from .models import EnergyClass, ModelSpec, check_log_weights, logsumexp

CHAIN_KINDS = ("naive", "equi-energy", "small-world")

#: the one cap on every dense matrix and on the spaces that are made dense
#: (full space, unsigned classes), and on the dense eigensolver;
#: _check_dense reads it at each call
DEFAULT_MAX_STATES = 1 << 13

_TINY = 1e-300


def _check_dense(n: int, what: str, hint: str = "") -> None:
    """Refuse an n x n dense matrix above DEFAULT_MAX_STATES, before allocating it."""
    if n > DEFAULT_MAX_STATES:
        raise ValueError(
            f"{n} {what} exceed the dense materialization cap {DEFAULT_MAX_STATES}{hint}")


def check_chain(spec: ModelSpec, kind: str) -> None:
    """Refuse a chain kind the model lacks, or one missing its parameters.

    Every model has the naive chain; equi-energy (ising, beg) needs p1
    and p2, small-world (warmup) needs epsilon.  The model is checked
    first; ModelSpec validates the parameters' values.
    """
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}, expected one of {CHAIN_KINDS}")
    if kind == "equi-energy":
        if spec.kind == "warmup":
            raise ValueError("equi-energy proposal is defined for ising/beg, not warmup")
        if spec.p1 is None or spec.p2 is None:
            raise ValueError("equi-energy chain needs p1 and p2")
    elif kind == "small-world":
        if spec.kind != "warmup":
            raise ValueError(f"small-world proposal is a warmup construction, not {spec.kind}")
        if spec.epsilon is None:
            raise ValueError("small-world chain needs epsilon")


class SupportError(ValueError):
    """Proposal mass K(x,y) > 0 with K(y,x) = 0: Metropolis ratio undefined."""


@dataclass(frozen=True)
class FiniteKernel:
    """Explicit reversible transition matrix with log stationary weights.

    ``log_pi`` is unnormalized; normalization always goes through
    log-sum-exp.  ``labels`` fixes the state order for exports.
    """

    labels: tuple
    log_pi: np.ndarray
    P: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def stationary(self) -> np.ndarray:
        return np.exp(self.log_pi - logsumexp(self.log_pi))

    def detailed_balance_error(self) -> float:
        """Largest relative asymmetry of the stationary flow pi(x)P(x,y)."""
        pi = self.stationary()
        Q = pi[:, None] * self.P
        denom = np.maximum(np.maximum(Q, Q.T), _TINY)
        rel = np.abs(Q - Q.T) / denom
        rel[(Q == 0) & (Q.T == 0)] = 0.0
        return float(rel.max())


@dataclass(frozen=True)
class Partition:
    """States split into nonempty blocks: state x lies in block ``block[x]``."""

    block: np.ndarray
    labels: tuple

    def __post_init__(self):
        if self.block.ndim != 1 or self.block.dtype.kind not in "iu":
            raise ValueError("a block index must be a 1-D integer array")
        if not np.array_equal(np.unique(self.block), np.arange(self.m)):
            raise ValueError(f"block indices must cover 0..{self.m - 1}, each at least once")

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def blocks(self) -> tuple:
        """Each block's states in ascending order."""
        order = np.argsort(self.block, kind="stable")
        return tuple(np.split(order, np.cumsum(np.bincount(self.block, minlength=self.m)))[:-1])


def partition_by(keys: Sequence, order: Optional[Sequence] = None) -> Partition:
    """Group indices 0..n-1 by key, blocks in ``order`` (default: the sorted unique keys).

    No program path calls it; the tests and the benchmark tracer's shim
    list (``perfbench/layers.py``) do.
    """
    keys = list(keys)
    if order is None:
        order = sorted(set(keys))
    # a key that order repeats leaves its first block empty, which Partition refuses
    index = {k: i for i, k in enumerate(order)}
    block = np.array([index.get(k, -1) for k in keys], dtype=np.intp)
    if (block < 0).any():
        raise ValueError(f"key {keys[block.argmin()]!r} is not in order")
    return Partition(block=block, labels=tuple(order))


@dataclass(frozen=True)
class BirthDeathChain:
    """Nearest-neighbor chain on an ordered finite set.

    up[i] moves i -> i+1, down[i] moves i -> i-1, the rest holds.  No
    program path builds or reads one; the bounds take move tables.  The
    benchmark tracer (``perfbench/layers.py``) is its only remaining user.
    """

    up: np.ndarray
    down: np.ndarray
    log_pi: np.ndarray
    labels: tuple

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.up) == len(self.down) == len(self.log_pi) == n):
            raise ValueError("field lengths disagree")
        if self.up[-1] != 0.0 or self.down[0] != 0.0:
            raise ValueError("boundary states must have no outward rate")
        if self.up.min() < 0 or self.down.min() < 0:
            raise ValueError("negative rate")
        if (self.up + self.down).max() > 1 + 1e-12:
            raise ValueError("up + down exceeds 1")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def hold(self) -> np.ndarray:
        return 1.0 - self.up - self.down


def _coalesce(keys: np.ndarray, vals: np.ndarray,
              drop: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(keys, sums) of a triplet list keyed row * n + col, in row-major order.

    The keys come back unique and ascending.  The stable sort keeps
    repeated entries in the given order and np.bincount adds them
    strictly left to right; entries that sum to exactly zero are dropped
    unless ``drop`` is False.
    Each temporary is freed once spent, which keeps the build of a
    full-space proposal below the size of its dense matrix.
    """
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    start = np.ones(len(keys), dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    slot = np.cumsum(start)
    slot -= 1
    sums = np.bincount(slot, weights=vals)
    del slot, vals
    keep = sums != 0 if drop else slice(None)
    return keys[start][keep], sums[keep]


def _at(keys: np.ndarray, vals: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The value stored under each key in ``want``, 0 where there is none."""
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return np.where(keys[pos] == want, vals[pos], 0.0)


# ---------------------------------------------------------------------------
# Metropolis construction.
# ---------------------------------------------------------------------------

def metropolize(proposal: MoveTable, target_log_weights: np.ndarray) -> MoveTable:
    """Turn a proposal table into the Metropolis chain for the target.

    Each move keeps M(x,y) = K(x,y) min(1, pi(y)K(y,x) / (pi(x)K(x,y))),
    evaluated in log space; the rejected mass is holding.  The proposal
    is row-major with one move per pair, as the proposals here return
    it, so each move's reverse is found by one binary search on the
    sorted keys.  Requires symmetric support: K(x,y) > 0 iff K(y,x) > 0,
    and finite target log weights (ValueError).
    """
    lw = np.asarray(target_log_weights, dtype=float)
    n = proposal.n
    if lw.shape != (n,):
        raise ValueError(f"target weights have shape {lw.shape}, expected ({n},)")
    check_log_weights(lw)
    xs, ys, fwd = proposal.rows, proposal.cols, proposal.vals
    keys = xs * n + ys
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("a proposal table must be row-major with one move per pair")
    back = _at(keys, fwd, ys * n + xs)
    bad = np.flatnonzero(back == 0.0)
    if bad.size:
        x, y = int(xs[bad[0]]), int(ys[bad[0]])
        raise SupportError(f"K({x},{y}) > 0 but K({y},{x}) = 0")
    delta = (lw[ys] + np.log(back)) - (lw[xs] + np.log(fwd))
    return replace(proposal, log_pi=lw.copy(), vals=fwd * np.exp(np.minimum(0.0, delta)))


# ---------------------------------------------------------------------------
# Full-space proposal chains.
# ---------------------------------------------------------------------------

def _proposal(labels: tuple, flip: np.ndarray, moves) -> MoveTable:
    """The proposal of the (rows, cols, vals) move groups, row-major, one move per pair.

    Repeated moves add up in group order.  The groups hold no
    self-moves: that mass is holding.  ``moves`` may be a generator, so
    that no group outlives its copy into the table.
    """
    n = len(labels)
    keys, vals = [], []
    for rows, cols, v in moves:
        keys.append(rows * n + cols)
        vals.append(v)
    keys = np.concatenate(keys)
    vals = np.concatenate(vals)
    keys, vals = _coalesce(keys, vals)
    rows, cols = np.divmod(keys, n)
    return MoveTable(labels=labels, log_pi=np.zeros(n), rows=rows, cols=cols, vals=vals,
                     flip=flip)


def single_flip_proposal(spec: ModelSpec) -> MoveTable:
    """The local proposal on the full space.

    ising, beg: one of the (q - 1)N moves that set a spin to another value
    in ``models.SPINS``, weight 1/((q - 1)N) each; the flip complements
    the digits.  warmup: the +-1 nearest-neighbor walk with holding 1/2
    at the endpoints.
    """
    n = check_space(spec, "naive", "full")
    if spec.kind == "warmup":
        return _warmup_proposal(np.array([spec.N]), None)
    labels = tuple(map(models.Spins, models.enumerate_states(spec).tolist()))
    q = len(models.SPINS[spec.kind])
    idx = np.arange(n)
    place = q ** np.arange(spec.N)
    digits = idx[:, None] // place % q
    # spin j moves from digit d to (d + step) % q
    moves = [(idx, idx + ((d + step) % q - d) * place[j], np.full(n, 1.0 / ((q - 1) * spec.N)))
             for j, d in enumerate(digits.T) for step in range(1, q)]
    return _proposal(labels, ((q - 1 - digits) * place).sum(axis=1), moves)


def equi_energy_proposal(spec: ModelSpec) -> MoveTable:
    """Mixture proposal with orbit jumps (ising and beg).

    On zero-magnetization classes: p1 * local + (1-p1) * uniform on the
    class.  Elsewhere: p1 * local + p2 * global flip + (1-p1-p2) *
    uniform on the signed class.  The uniform component includes the
    current state, whose share is holding.  Where a local move and the
    global flip reach the same state, their masses add up.
    """
    check_chain(spec, "equi-energy")
    p1, p2 = spec.p1, spec.p2
    base = single_flip_proposal(spec)
    neg = base.flip
    states = models.enumerate_states(spec)
    S = states.sum(axis=1, dtype=np.int64)
    R = np.count_nonzero(states, axis=1)
    # blocks labelled by S; a flip never stays in its class, so a move's
    # terms add up local, uniform, flip in any class order
    parts = Partition(block=models.signed_class_position(spec, S, R),
                      labels=tuple(models.signed_class_order(spec)[0].tolist()))

    def moves():
        yield base.rows, base.cols, p1 * base.vals
        for s_val, g in zip(parts.labels, parts.blocks):
            mass = 1.0 - p1 if s_val == 0 else 1.0 - p1 - p2
            k = len(g)
            # every pair of distinct class members, row by row
            yield (np.repeat(g, k - 1), np.tile(g, (k, 1))[~np.eye(k, dtype=bool)],
                   np.full(k * (k - 1), mass / k))
            if s_val != 0:
                yield g, neg[g], np.full(k, p2)

    return _proposal(base.labels, neg, moves())


def small_world_proposal(spec: ModelSpec) -> MoveTable:
    """(1-eps) * nearest-neighbor walk + eps * reflection x -> -x (warmup)."""
    check_space(spec, "small-world", "full")
    return _warmup_proposal(np.array([spec.N]), spec.epsilon)


def metropolis_chain(spec: ModelSpec, kind: str) -> MoveTable:
    """The Metropolis chain of the requested kind on the full space, as a move table."""
    check_chain(spec, kind)
    if kind == "naive":
        proposal = single_flip_proposal(spec)
    elif kind == "equi-energy":
        proposal = equi_energy_proposal(spec)
    else:
        proposal = small_world_proposal(spec)
    return metropolize(proposal, models.log_weights_all(spec))


def check_space(spec: ModelSpec, kind: str, space: str) -> int:
    """``models.state_count`` of the chain, after the refusals its build makes before allocating.

    In the build's order: an unsigned warm-up, a chain the model lacks,
    then the cap of the space (MAX_CLASSES on signed classes, else dense).
    """
    if space == "unsigned" and spec.kind == "warmup":
        raise ValueError("unsigned projections exist for ising and beg")
    check_chain(spec, kind)
    if space == "signed":
        return models.check_class_count(spec)
    n = models.state_count(spec, space)
    if space == "full":
        _check_dense(n, "states", "; use the class-space chains at this size")
    else:
        _check_dense(n, "blocks")
    return n


# ---------------------------------------------------------------------------
# Projection, restriction, lumping.
# ---------------------------------------------------------------------------

def lumped_projection(chain: MoveTable, parts: Partition) -> MoveTable:
    """Projection chain on the blocks, with the explicit 1/2 factor.

    P_H(i,j) = (1 / 2 p(A_i)) sum_{x in A_i, y in A_j} P(x,y) p(x) for
    i != j; the factor 1/2 makes the projection lazy and is kept exactly
    as defined, since the class chains embed it.  Stationary weights are
    the block masses.  The table is projected from its triplets; the
    result is the table of its block pairs in row-major order, with the
    identity as its flip.
    """
    lw, block, m = chain.log_pi, parts.block, parts.m
    if block.size != chain.n:
        raise ValueError("partition does not cover the kernel's state set")
    top = np.full(m, -np.inf)
    np.maximum.at(top, block, lw)
    log_pi_H = top + np.log(np.bincount(block, weights=np.exp(lw - top[block]), minlength=m))
    share = np.exp(lw - log_pi_H[block])  # p(x) / p(A_i) for x in A_i
    cross = block[chain.rows] != block[chain.cols]
    xs, ys, vals = chain.rows[cross], chain.cols[cross], chain.vals[cross]
    # sum each block pair's run pairwise (reduceat): a sequential bincount
    # loses tens of ulps on blocks of a hundred states or more
    key = block[xs] * m + block[ys]
    order = np.argsort(key, kind="stable")
    pairs, starts = np.unique(key[order], return_index=True)
    rows, cols = np.divmod(pairs, m)
    return MoveTable(labels=parts.labels, log_pi=log_pi_H, rows=rows, cols=cols,
                     vals=0.5 * np.add.reduceat((share[xs] * vals)[order], starts),
                     flip=np.arange(m))


def restrictions(table: MoveTable, parts: Partition) -> tuple[MoveTable, list]:
    """The chain restricted to each block, as one block-diagonal table, and its block sizes.

    Block after block, each block's states ascending and its moves inside
    in table order; the mass that leaves a block becomes holding.  The
    flip is the identity, since a block need not hold the mirrors of its
    states.  ``_unstack`` cuts out the restriction to each block.
    """
    block = parts.block
    if block.size != table.n:
        raise ValueError("partition does not cover the kernel's state set")
    order = np.argsort(block, kind="stable")
    at = np.empty(table.n, dtype=np.intp)
    at[order] = np.arange(table.n)
    inside = np.flatnonzero(block[table.rows] == block[table.cols])
    inside = inside[np.argsort(block[table.rows[inside]], kind="stable")]
    return (MoveTable(labels=tuple(table.labels[i] for i in order.tolist()),
                      log_pi=table.log_pi[order], rows=at[table.rows[inside]],
                      cols=at[table.cols[inside]], vals=table.vals[inside],
                      flip=np.arange(table.n)),
            np.bincount(block, minlength=parts.m).tolist())


def warmup_block_partition(spec: ModelSpec) -> Partition:
    """The warmup decomposition: A_1 = {-1,0,1}, A_i = {-i,+i} for i > 1."""
    if spec.kind != "warmup":
        raise ValueError("warmup partition requested for a different model")
    level = np.abs(np.arange(-spec.N, spec.N + 1))
    return Partition(block=np.maximum(level, 1) - 1, labels=tuple(range(1, spec.N + 1)))


# ---------------------------------------------------------------------------
# Closed-form class chains (the large-N route).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoveTable:
    """A chain as triplets: P(rows[k], cols[k]) += vals[k].

    Every chain builder returns one, on the full space as on the class
    spaces.  Only the moves are listed (a target may repeat); the
    holding mass 1 - sum of the row is implied.  ``flip`` maps each
    state to its mirror image under the global flip J: x -> -x, which
    every chain here commutes with; on the unsigned classes, where J
    acts trivially, it is the identity.

    The class chains also carry, for each move, the position in the table
    of its reverse (j -> i) and of its mirror (Ji -> Jj).  With them
    ``spectral`` pairs each move with both by index arithmetic alone;
    every other table leaves them None.
    """

    labels: tuple
    log_pi: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    flip: np.ndarray
    reverse: Optional[np.ndarray] = None
    mirror: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_kernel(self) -> FiniteKernel:
        """The dense transition matrix; the size is checked before allocating."""
        _check_dense(self.n, "states", "; exact gaps at this size come from gap-scan")
        P = np.zeros((self.n, self.n))
        np.add.at(P, (self.rows, self.cols), self.vals)
        np.fill_diagonal(P, np.diag(P) + 1.0 - P.sum(axis=1))
        return FiniteKernel(labels=self.labels, log_pi=self.log_pi, P=P)


def _class_chain(spec: ModelSpec, kind: str, sizes: np.ndarray, labels: tuple,
                 log_pi: np.ndarray, flip: np.ndarray, groups: list) -> MoveTable:
    """The Metropolis chains on signed classes of a stack of tables, from their groups of site moves.

    The tables hold ``sizes`` classes each, one after another, and every
    array below runs over the classes of the whole stack.  A group (step,
    target, count, key, delta) gives, over all classes, the class that
    ``count`` site moves reach and their log-weight change delta[key]; the
    groups' counts add up to the number of site moves ``sites`` (N on
    Ising, 2N on BEG).  Each move with count > 0 keeps
    p1 * count / sites * exp(min(0, delta[key])), p1 = 1 on the naive chain,
    through math.exp, once per entry of delta that is negative or NaN, to
    match the per-state formulas bit for bit (exp(0) is exactly 1).
    Equi-energy appends the global flip, mass p2 out of every class but its
    own mirror; the uniform jump in a class is holding.

    The reverse of group ``step`` is group -step, its mirror the group whose
    step has its first (magnetization) component negated; the flip is its
    own reverse and mirror.  So each move's reverse and mirror positions
    are read off the groups.  The moves are listed group by group; a
    stack of two or more tables is put in table order by one stable sort
    of that list by table, each move's reverse and mirror through its
    inverse.  A lone table takes none.
    """
    p1 = spec.p1 if kind == "equi-energy" else 1.0
    idx = np.arange(len(labels))
    sites = sum(count for _, _, count, _, _ in groups)
    steps, moves, targets, vals = [], [], [], []
    for step, target, count, key, delta in groups:
        low = np.minimum(0.0, delta)
        accept = np.ones(low.size)
        below = np.flatnonzero(~(low >= 0))
        accept[below] = [math.exp(d) for d in low[below].tolist()]
        m = count > 0
        steps.append(step)
        moves.append(m)
        targets.append(target)
        vals.append(p1 * count[m] / sites[m] * accept[key[m]])
    if kind == "equi-energy":
        signed = idx != flip
        steps.append(None)
        moves.append(signed)
        targets.append(flip)
        vals.append(np.full(int(signed.sum()), spec.p2))
    check_log_weights(log_pi)
    # one row per group: the moves are the True entries of ``moves``, listed
    # group by group over the whole stack; ``ends`` has each target, and
    # class 0 where there is no move, so that ``at`` can be read everywhere
    moves = np.array(moves)
    ends = np.where(moves, targets, 0)
    del targets
    vals = np.concatenate(vals)
    rows = np.broadcast_to(idx, moves.shape)[moves]
    cols = ends[moves]
    # at[g, i]: the table position of group g's move out of class i; int32
    # positions keep the pairs at 8 bytes a move
    at = np.full(moves.shape, -1, dtype=np.int32)
    at[moves] = np.arange(rows.size)
    if sizes.size > 1:
        # each table's moves after the ones before it, still group by group
        listed = np.argsort(np.repeat(np.arange(sizes.size), sizes)[rows], kind="stable")
        at.flat[np.flatnonzero(moves)[listed]] = np.arange(rows.size)
    reverse = [g if st is None else steps.index(tuple(-d for d in st))
               for g, st in enumerate(steps)]
    mirror = [g if st is None else steps.index((-st[0], *st[1:])) for g, st in enumerate(steps)]
    table = dict(rows=rows, cols=cols, vals=vals,
                 reverse=at[np.array(reverse)[:, None], ends][moves],
                 mirror=at[np.array(mirror)[:, None], flip][moves])
    if sizes.size > 1:
        table = {name: x[listed] for name, x in table.items()}
    return MoveTable(labels=labels, log_pi=log_pi, flip=flip, **table)


def _stacked(Ns: np.ndarray, sizes: np.ndarray) -> tuple:
    """(index, first index of its table, N of its table) of each state of a stack of tables."""
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.arange(first.size), first, np.repeat(Ns, sizes)


def _ising_moves(spec: ModelSpec, kind: str, Ns: np.ndarray) -> MoveTable:
    beta = spec.beta
    sizes = Ns + 1
    idx, first, N = _stacked(Ns, sizes)
    S = 2 * (idx - first) - N
    # a flip of one of the (N - S)/2 minus spins moves S up by 2, of a plus spin down
    groups = [((2,), idx + 1, (N - S) // 2, idx, 2 * beta * (S + 1) / N),
              ((-2,), idx - 1, (N + S) // 2, idx, 2 * beta * (1 - S) / N)]
    log_pi = models.log_binom_array(N, (N + S) // 2) + beta * S * S / (2 * N)
    return _class_chain(spec, kind, sizes, tuple(S.tolist()), log_pi, 2 * first + N - idx, groups)


def _beg_moves(spec: ModelSpec, kind: str, Ns: np.ndarray) -> MoveTable:
    beta, K = spec.beta, spec.K
    sizes = (Ns + 1) * (Ns + 2) // 2
    idx, first, N = _stacked(Ns, sizes)
    at = models.signed_class_position
    # each table's rows r = 0..N, then the classes s = -r..r of each row, as
    # in models.signed_class_order
    r, past, _ = _stacked(Ns, Ns + 1)
    r -= past
    r = np.repeat(r, r + 1)
    s = 2 * (idx - first - at(spec, -r, r)) - r
    n0, npl, nmi = N - r, (r + s) // 2, (r - s) // 2
    # each of the 2N site moves x_j -> x_j +- 1 (with wraparound) shifts (s, r)
    # by (ds, dr); its log-weight change depends on s alone, so it is taken
    # over every s = -N..N of each table and read at s + N past the tables before
    every, past, Ne = _stacked(Ns, 2 * Ns + 1)
    every = every - past - Ne
    key = s + N + np.repeat(np.cumsum(2 * Ns + 1) - 2 * Ns - 1, sizes)
    groups = [((ds, dr), first + at(spec, s + ds, r + dr), cnt, key,
               -beta * dr + K * beta * ((every + ds) * (every + ds) - every * every) / Ne)
              for ds, dr, cnt in ((1, 1, n0), (-1, 1, n0), (-2, 0, npl),
                                  (-1, -1, npl), (2, 0, nmi), (1, -1, nmi))]
    log_pi = (models.log_binom_array(N, r) + models.log_binom_array(r, (r - s) // 2)
              - beta * r + K * beta * s * s / N)
    return _class_chain(spec, kind, sizes, tuple(zip(s.tolist(), r.tolist())), log_pi,
                        first + at(spec, -s, r), groups)


def _warmup_proposal(Ns: np.ndarray, eps: Optional[float]) -> MoveTable:
    """The warmup proposals on -N..N of a stack of tables, one per N.

    The +-1 walk with mass (1-eps)/2 each way (1/2 for eps None, the
    plain walk), plus the reflection x -> -x with mass eps; x = 0
    reflects onto itself, which is holding.  Its three groups of moves go
    through ``_proposal`` (the plain walk's reflection, of mass 0, drops
    out), so each table comes after the ones before it.
    """
    sizes = 2 * Ns + 1
    idx, first, N = _stacked(Ns, sizes)
    x = idx - first - N
    walk, jump = (0.5, 0.0) if eps is None else ((1.0 - eps) * 0.5, eps)
    flip = idx - 2 * x
    groups = ((x > -N, idx - 1, walk), (x < N, idx + 1, walk), (x != 0, flip, jump))
    return _proposal(tuple(x.tolist()), flip, ((idx[m], to[m], np.full(np.count_nonzero(m), v))
                                               for m, to, v in groups))


def signed_move_stack(spec: ModelSpec, kind: str, Ns: Sequence[int]) -> MoveTable:
    """The tables ``signed_move_table`` of ``spec`` and ``kind`` at each N of ``Ns``, stacked.

    The stack is built in one pass.  It is the block-diagonal table of
    the tables built one at a time: the same arrays, the same order and
    the same bits, each table shifted past the states (and, in the move
    pairs, the moves) of the tables before it; ``_unstack`` cuts them
    out.  A stack of one N is its own table.
    """
    check_space(replace(spec, N=max(Ns)), kind, "signed")  # the count grows with N
    Ns = np.array(Ns)
    if spec.kind == "ising":
        return _ising_moves(spec, kind, Ns)
    if spec.kind == "beg":
        return _beg_moves(spec, kind, Ns)
    proposal = _warmup_proposal(Ns, spec.epsilon if kind == "small-world" else None)
    return metropolize(proposal, np.abs(np.array(proposal.labels)) * math.log(spec.theta))


def _unstack(table: MoveTable, sizes: Sequence[int]) -> list:
    """The tables of the block-diagonal ``table``, of sizes[k] states each.

    Each table's moves lie together, table after table, as
    ``signed_move_stack`` and ``restrictions`` lay them out; each table
    comes back shifted to its own states and moves.  A lone table comes
    back as it is.
    """
    if len(sizes) == 1:
        return [table]
    states = np.cumsum([0, *sizes]).tolist()
    owner = np.repeat(np.arange(len(sizes)), sizes)
    moves = np.cumsum([0, *np.bincount(owner[table.rows], minlength=len(sizes))]).tolist()
    tables = []
    for lo, hi, a, b in zip(states[:-1], states[1:], moves[:-1], moves[1:]):
        pairs = {} if table.reverse is None else dict(
            reverse=table.reverse[a:b] - a, mirror=table.mirror[a:b] - a)
        tables.append(MoveTable(labels=table.labels[lo:hi], log_pi=table.log_pi[lo:hi],
                                rows=table.rows[a:b] - lo, cols=table.cols[a:b] - lo,
                                vals=table.vals[a:b], flip=table.flip[lo:hi] - lo, **pairs))
    return tables


def signed_move_table(spec: ModelSpec, kind: str = "equi-energy") -> MoveTable:
    """The Metropolis chain on signed classes as a move table.

    Every transition mass out of a state depends only on its signed
    class, so the lumping is exact and its spectrum is a subset of the
    full chain's.  Every table is built in O(states) memory.  For warmup
    the signed classes are the states -N..N themselves.  The states come
    in ``models.signed_class_order``: ising by S ascending, beg by r, then s.
    It is the stack of one N (``signed_move_stack``).
    """
    return signed_move_stack(spec, kind, [spec.N])


def signed_lumped_chain(spec: ModelSpec, kind: str = "equi-energy") -> FiniteKernel:
    """Dense form of ``signed_move_table``: the oracle and export route."""
    return signed_move_table(spec, kind).to_kernel()


def unsigned_lumped_chain(spec: ModelSpec, kind: str) -> MoveTable:
    """Projection of ``signed_move_table`` onto the flip orbits {x, -x}.

    The orbits are the unsigned classes (|S| for ising, (|S|, R) for
    beg), each labelled and ordered by its member with S >= 0: ising by
    |S| ascending, beg by (r, |s|).  The projection carries the 1/2
    factor of ``lumped_projection``; it is an exact lumping because
    every chain here commutes with the global flip.
    """
    check_space(spec, kind, "unsigned")
    table = signed_move_table(spec, kind)
    idx = np.arange(table.n)
    # within an orbit the table orders S ascending, so the S >= 0 member
    # has the larger index
    rep = np.maximum(idx, table.flip)
    head = np.flatnonzero(rep == idx)
    return lumped_projection(table, Partition(block=np.searchsorted(head, rep),
                                              labels=tuple(table.labels[i] for i in head)))


def ising_lumped_bd(spec: ModelSpec) -> BirthDeathChain:
    """Projection of the equi-energy ising chain onto |S|, as a birth-death chain.

    Read off the two off-diagonals of ``unsigned_lumped_chain``'s table.
    In closed form the rates on {0, 2, ..., N} are
        up(0)   = p1/2
        up(i)   = (p1/4) (N-i)/N
        down(i) = (p1/4) ((N+i)/N) exp(2 beta (1-i)/N)
    with the 1/2 projection factor embedded.  No program path calls it;
    the benchmark tracer's shim list (``perfbench/layers.py``) is its only
    remaining caller.
    """
    if spec.kind != "ising":
        raise ValueError("ising only")
    chain = unsigned_lumped_chain(spec, "equi-energy")
    up, down = np.zeros(chain.n), np.zeros(chain.n)
    step = chain.cols - chain.rows
    up[chain.rows[step == 1]] = chain.vals[step == 1]
    down[chain.rows[step == -1]] = chain.vals[step == -1]
    return BirthDeathChain(up=up, down=down, log_pi=chain.log_pi, labels=chain.labels)


def beg_lumped(spec: ModelSpec) -> MoveTable:
    """Projection of the equi-energy beg chain onto the unsigned classes (|s|, r).

    This is ``unsigned_lumped_chain``, the authoritative chain: by strong
    lumpability it coincides with direct lumping of the materialized
    chain.  The tests compare it with a hand-tabulated per-entry rate
    table and that table's errata (``tests/oracles.py``).
    """
    if spec.kind != "beg":
        raise ValueError("beg only")
    return unsigned_lumped_chain(spec, "equi-energy")


# ---------------------------------------------------------------------------
# Text export.
# ---------------------------------------------------------------------------

def format_label(label) -> str:
    """Compact deterministic text for a state or class label: a configuration
    (``models.Spins``) one character a spin, any other integer tuple as (s,r)."""
    if isinstance(label, EnergyClass):
        sign = {0: "", 1: "+", -1: "-"}[label.sign]
        mid = "" if label.r is None else f"r{label.r}"
        return f"s{label.s}{mid}{sign}"
    if isinstance(label, (int, np.integer)):
        return str(int(label))
    if isinstance(label, models.Spins):
        return "".join("-0+"[v + 1] for v in label)
    if isinstance(label, tuple) and all(isinstance(v, (int, np.integer)) for v in label):
        return "(" + ",".join(str(int(v)) for v in label) + ")"
    return str(label)


def export_kernel_text(kernel: FiniteKernel) -> str:
    """One row per line: 'state-label: neighbor=prob ...' (nonzero entries)."""
    lines = []
    for i in range(kernel.n):
        row = kernel.P[i]
        nz = np.flatnonzero(row)
        entries = " ".join(f"{format_label(kernel.labels[j])}={row[j]:.17g}" for j in nz)
        lines.append(f"{format_label(kernel.labels[i])}: {entries}")
    return "\n".join(lines) + "\n"
