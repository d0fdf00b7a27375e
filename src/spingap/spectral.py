"""Exact spectral and geometric analysis of reversible kernels.

Eigenvalues come from the symmetrization D^{1/2} P D^{-1/2} (D the
diagonal of stationary weights).  Exact gaps of move tables come from
``sector_spectrum``, which splits the chain into the even and odd
sectors of the global flip and solves each on its nonzeros; a table
whose flip is the identity (a projection, a restriction) is all even
sector.  ``spectrum``, a dense symmetric solve of a ``FiniteKernel``,
is its oracle.

The sectors are assembled with numpy index arithmetic on the move
table's triplets, by one of two routes that give the same bits and
differ only in how each entry meets its reverse and its mirror: one
function forms the entries of both, checks detailed balance and flip
invariance, and lets a pair that fails only because one of its rates
underflowed take its reverse's entry (``_symmetrized``).  The Ising and
BEG class chains carry each move's reverse and mirror positions and its
place in its row (``MoveTable``), which are gathered, and each sector
entry is written straight to its place, with no sort and no binary
search (``_paired_sectors``).  Every other table (warm-up,
restrictions, projections, the full space) goes the generic way, which
is also the other's oracle: entries are keyed row * n + col and
coalesced in row-major order by a stable sort, repeated entries summed
left to right in table order (np.bincount); each entry is paired with
its reverse and its mirror through a binary search on those keys, so no
transposed or permuted matrix is built; the entries are then mapped to
even and odd orbit coordinates and coalesced again.  Either way a
tridiagonal sector (Ising, warm-up) comes out as its (diagonal,
superdiagonal) arrays for the tridiagonal solver, any other (BEG) as
one CSR matrix for the dense solver or Lanczos.  An entry that is not
finite is refused once, at assembly, on every route.

Each sector is solved on its own, by the route ``_sector_extremes``
picks: bisection for a tridiagonal sector, the dense solver for a CSR
sector of up to DENSE_SECTOR_MAX states, and past that a plain Lanczos
run in numpy (``_lanczos_extremes``), both ends of the spectrum read
off its tridiagonal Lanczos matrix.  Its scalars are sums in a fixed
order and its matvec makes no BLAS call, so a sector gets the same bits
at any BLAS thread count.

Small tables cost mostly numpy's fixed cost per call, so the class
chains of a grid are built a stack at a time: the audits and
``gap-scan`` cut their cells into runs of one chain kind that differ in
N alone, of up to STACK_STATES states in all (counted from N, before
anything is built), build each run as one block-diagonal move table
(``kernels.signed_move_stack``) and assemble its sectors in one pass
(``_stack_spectra``); a larger table runs alone.  The restrictions of a
partition come as one such table too (``kernels.restrictions``), and
``sector_spectrum`` is the stack of one.  No entry crosses a block, so
each table's sectors are cut back out with the bits, dtypes and entry
order of its own assembly (its own top weight and norm in sqrt(pi)), and
each is solved on its own.  A stack that raises, or that holds a
non-finite entry, is solved one table at a time (``kernels._unstack``),
so a table that fails is refused as it is alone.

On top of the spectrum: spectral gap, exhaustive conductance with the
Cheeger sandwich, the chain-decomposition lower bound, the birth--death
path bound, the Gershgorin bound, and the asymptotic variance.  The
log-space cut, the interval cuts and the three bounds take a move
table, whose moves they read in O(nnz); the decomposition bound builds
its projection and its restrictions in one pass each over the moves and
solves them through the sectors, so no bound makes a chain dense.

Every inequality evaluation returns a structured record (name, value,
hypotheses flag) so reports can audit them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .kernels import (
    DEFAULT_MAX_STATES,
    FiniteKernel,
    MoveTable,
    Partition,
    _at,
    _check_dense,
    _coalesce,
    _unstack,
    lumped_projection,
    restrictions,
)
from .models import logsumexp

#: gaps below this are reported as "below resolution" rather than zero:
#: slow chains at large beta*N sit under the floating-point floor and the
#: report must distinguish underflow from disconnection.
GAP_RESOLUTION = 1e-12

#: largest relative detailed-balance (and flip-invariance) residual a chain
#: may carry before its symmetrization is refused
REVERSIBILITY_TOL = 1e-8

#: flip sectors up to this many states that are not tridiagonal go to the
#: dense solver; larger ones go to Lanczos iteration.  On BEG sectors at one
#: BLAS thread (2-core x86 host), dense eigvalsh wins below about 200 states
#: and Lanczos above about 230; the cut stays at 360, which keeps the bits
#: of every grid whose sectors were solved densely before.
DENSE_SECTOR_MAX = 360

#: Lanczos steps a sector may take before it is solved densely (or refused)
LANCZOS_MAX_STEPS = 3000

#: steps between two convergence checks of a Lanczos run
LANCZOS_CHECK = 10

#: residual at which a Lanczos Ritz value counts as converged
LANCZOS_TOL = 1e-14

#: consecutive move tables up to this many states in all are stacked and
#: their flip sectors assembled in one pass, which pays numpy's fixed cost
#: per call once per stack instead of once per table; a larger table is
#: assembled alone.  On a 2-core x86 host, a 4096-state budget made the
#: beg-dense benchmark workload 8.5% slower, while 1024 left it flat.
STACK_STATES = 1024

#: exhaustive conductance visits all 2^n subsets: the cap on its state count
CONDUCTANCE_MAX_STATES = 24


class NonReversibleError(ValueError):
    """Detailed balance fails beyond tolerance; the symmetrization is invalid."""


class SymmetryError(ValueError):
    """The symmetrized chain is not invariant under the global flip J."""


class ReducibleChainError(ValueError):
    """Eigenvalue 1 has multiplicity > 1."""


class HypothesisError(ValueError):
    """A bound was requested whose hypotheses fail on the given chain."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending; eigenvalues[0] is 1 up to solver noise."""

    eigenvalues: np.ndarray
    dim: int


@dataclass(frozen=True)
class BoundEvaluation:
    """One inequality evaluation: value plus whether its hypotheses held."""

    name: str
    value: float
    hypotheses_ok: bool
    detail: Optional[str] = None


def _check_reversible(err: float) -> None:
    if err > REVERSIBILITY_TOL:
        raise NonReversibleError(f"detailed-balance residual {err} exceeds {REVERSIBILITY_TOL}")


def _symmetrize(kernel: FiniteKernel) -> np.ndarray:
    """D^{1/2} P D^{-1/2}, once detailed balance holds to REVERSIBILITY_TOL."""
    _check_reversible(kernel.detailed_balance_error())
    lw = kernel.log_pi
    P = kernel.P
    mask = P > 0
    S = np.zeros_like(P)
    diff = 0.5 * (lw[:, None] - lw[None, :])
    S[mask] = P[mask] * np.exp(diff[mask])
    return 0.5 * (S + S.T)


def spectrum(kernel: FiniteKernel) -> Spectrum:
    """All eigenvalues of a dense reversible kernel, sorted descending: the oracle.

    The kernel is checked for detailed balance first and rejected beyond
    ``REVERSIBILITY_TOL``, then solved by the dense symmetric solver.
    """
    import scipy.linalg

    _check_dense(kernel.n, "states")
    if kernel.n == 1:
        return Spectrum(eigenvalues=np.array([1.0]), dim=1)
    vals = scipy.linalg.eigvalsh(_symmetrize(kernel))
    return Spectrum(eigenvalues=vals[::-1].copy(), dim=kernel.n)


def gap(s: Spectrum) -> float:
    """1 - max(lambda_1, |lambda_min|); a one-state chain has gap 1."""
    if s.dim == 1:
        return 1.0
    lam1 = float(s.eigenvalues[1])
    lam_min = float(s.eigenvalues[-1])
    return 1.0 - max(lam1, abs(lam_min))


# ---------------------------------------------------------------------------
# Flip sectors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorSpectrum:
    """Extreme eigenvalues of a flip-invariant reversible chain, by sector.

    ``even_lambda1`` is the largest eigenvalue of the even sector after
    lambda_0 = 1 (-inf if the sector holds lambda_0 only),
    ``odd_lambda1`` the largest of the odd sector, and ``lambda_min``
    the smallest over both.  ``dim`` is the chain's size; a one-state
    chain has gap 1, as in ``gap``.
    """

    even_lambda1: float
    odd_lambda1: float
    lambda_min: float
    dim: int

    @property
    def lambda1(self) -> float:
        return max(self.even_lambda1, self.odd_lambda1)

    @property
    def gap(self) -> float:
        if self.dim == 1:
            return 1.0
        return 1.0 - max(self.lambda1, abs(self.lambda_min))


def _mismatch(x: np.ndarray, y: np.ndarray) -> float:
    """Largest |x - y| / max(|x|, |y|) over the pairs that differ, 0 if none.

    Each residual is |x - y| * (1 / max(|x|, |y|)); the pairs that do not
    differ keep 0, in place, so no array is gathered.
    """
    d = np.subtract(x, y)
    differ = d != 0  # a NaN differs
    if not differ.any():
        return 0.0
    np.abs(d, out=d)
    scale = np.abs(x)
    np.maximum(scale, np.abs(y), out=scale)
    with np.errstate(over="ignore"):  # 1 / a subnormal is inf: the pair fails
        np.divide(1.0, scale, out=scale, where=differ)
    np.multiply(d, scale, out=d, where=differ)
    return float(np.max(d))


def _symmetrized(table: MoveTable, pair: Callable) -> tuple:
    """(rows, cols, a, a_hold, a_flip) of A = D^{1/2} P D^{-1/2}, off and on the diagonal.

    ``pair(s)`` gives the moves' entries S = P e^(delta/2) back as (rows,
    cols, s, reverse, mirror), one per move or coalesced, ``reverse(x)``
    and ``mirror(x)`` gathering x at each entry's j -> i and Ji -> Jj.  A
    state's entries to its mirror image add up to S(i, Ji) in table order,
    and each reads it; ``a_flip`` is A(i, Ji).  Detailed balance
    (NonReversibleError) and flip invariance (SymmetryError) are checked.
    A downhill rate p e^(-delta), delta past about 708, is a subnormal or
    0, so its entry is inexact, 0 or 0 * inf = NaN, while its reverse's is
    exact: past REVERSIBILITY_TOL (or at NaN), an entry of a failing pair
    takes its reverse's where both rates are below the smallest normal.
    """
    n, flip, lw = table.n, table.flip, table.log_pi
    moves = np.bincount(table.rows, minlength=n)
    hold = 1.0 - np.bincount(table.rows, weights=table.vals, minlength=n)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf where a rate underflowed
        s = table.vals * np.exp(0.5 * (lw[table.rows] - lw[table.cols]))
    s_hold = hold * np.exp(0.5 * (lw - lw))
    rows, cols, s, reverse, mirror = pair(s)
    at = np.flatnonzero(cols == flip[rows])
    s_flip = np.bincount(rows[at], weights=s[at], minlength=n)
    s[at] = s_flip[rows[at]]
    s_rev = reverse(s)
    err = _mismatch(s, s_rev)
    if not err <= REVERSIBILITY_TOL:
        with np.errstate(over="ignore", invalid="ignore"):
            fails = ~(np.abs(s - s_rev) <= REVERSIBILITY_TOL * np.maximum(abs(s), abs(s_rev)))
            scale = np.exp(0.5 * (lw[rows] - lw[cols]))
            low = ~(np.fmax(s, s_rev) >= np.finfo(float).tiny * scale)
        s = np.where(fails & low, s_rev, s)
        s_rev = reverse(s)
        err = _mismatch(s, s_rev)
    # np.maximum keeps a NaN residual, which passes the tolerance test
    _check_reversible(np.maximum(err, _mismatch(s_hold, s_hold)))
    # a missing reverse fails the check, so A = (S + S^T)/2 lives on S's entries
    a = s + s_rev
    del s, s_rev
    a *= 0.5
    a_flip = 0.5 * (s_flip + s_flip[flip])
    a_hold = 0.5 * (s_hold + s_hold)
    # a holding mass is 1 - (row sum), exact only to the rounding of that sum,
    # at most one ulp of 1 per move: two that differ by less match, so a
    # mass that is zero in exact arithmetic compares as zero.  A zero entry
    # and its nonzero mirror give a residual of 1 whichever side is checked.
    slack = np.finfo(float).eps * np.maximum(moves, moves[flip])
    off = np.flatnonzero(~(np.abs(a_hold - a_hold[flip]) <= slack))
    err = np.maximum(_mismatch(a, mirror(a)), _mismatch(a_hold[off], a_hold[flip[off]]))
    if err > REVERSIBILITY_TOL:
        raise SymmetryError(f"flip-invariance residual {err} exceeds {REVERSIBILITY_TOL}")
    return rows, cols, a, a_hold, a_flip


def _sector(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, starts: np.ndarray) -> list:
    """The blocks of (M + M^T)/2 for the block-diagonal M the triplets add up to.

    Block k spans indices starts[k]..starts[k+1]-1.  The triplets are
    coalesced in row-major order, each entry's terms summed in the given
    order, then each entry adds its transpose and halves; the blocks come
    as ``_blocks`` cuts them, with the bits, dtypes and entry order a block
    gets when it is assembled alone: no entry crosses a block, so the
    coalescing sums each entry's terms in the same order either way.
    """
    m = int(starts[-1])
    keys, vals = _coalesce(rows * m + cols, vals)
    rows, cols = np.divmod(keys, m)
    keys, vals = _coalesce(np.concatenate([keys, cols * m + rows]), np.concatenate([vals, vals]))
    rows, cols = np.divmod(keys, m)
    return _blocks(rows, cols, vals * 0.5, starts)


def _blocks(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, starts: np.ndarray) -> list:
    """The diagonal blocks of the row-major entries (rows, cols, vals), each as a sector.

    Block k spans indices starts[k]..starts[k+1]-1.  A tridiagonal block
    comes back as its (diagonal, superdiagonal) arrays, any other as one
    CSR matrix.  An entry that is not finite raises ValueError.
    """
    if not np.isfinite(vals).all():
        raise ValueError("array must not contain infs or NaNs")
    m = int(starts[-1])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    # rows ascend, so block k holds the entries ends[k]..ends[k+1]-1
    ends = indptr[starts]
    wide = np.concatenate([[0], np.cumsum(np.abs(rows - cols) > 1)])[ends]
    tridiagonal = (wide[1:] == wide[:-1]).tolist()
    if any(tridiagonal):
        d, e = np.zeros(m), np.zeros(m)
        on, above = rows == cols, cols == rows + 1
        d[rows[on]] = vals[on]
        e[rows[above]] = vals[above]
    if not all(tridiagonal):
        import scipy.sparse
    blocks = []
    for k, (lo, hi) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
        if tridiagonal[k]:
            blocks.append((d[lo:hi], e[lo:max(hi - 1, lo)]))
        else:
            a, b = ends[k], ends[k + 1]
            blocks.append(scipy.sparse.csr_array(
                (vals[a:b], cols[a:b] - lo, indptr[lo:hi + 1] - indptr[lo]), shape=(hi - lo,) * 2))
    return blocks


def _symmetrization(table: MoveTable) -> tuple:
    """(rows, cols, vals) of A = D^{1/2} P D^{-1/2} in row-major order.

    ``_symmetrized``, the moves' entries coalesced by key row * n + col (a
    zero one kept, so that a rate that underflowed to 0 can take its
    reverse's entry) and paired by binary search on the keys.  The
    diagonal goes back to its row-major place, after a state's moves to
    itself.  The route of the tables without move pairs, and the oracle
    of ``_paired_sectors``.
    """
    n, flip = table.n, table.flip

    def pair(s):
        keys, s = _coalesce(table.rows * n + table.cols, s, drop=False)
        rows, cols = np.divmod(keys, n)
        return (rows, cols, s, lambda x: _at(keys, x, cols * n + rows),
                lambda x: _at(keys, x, flip[rows] * n + flip[cols]))

    rows, cols, a, a_hold, _ = _symmetrized(table, pair)
    idx = np.arange(n)
    at = np.searchsorted(rows * n + cols, idx * (n + 1), side="right")
    return np.insert(rows, at, idx), np.insert(cols, at, idx), np.insert(a, at, a_hold)


def _paired_sectors(table: MoveTable, orbit: np.ndarray, odd_orbit: np.ndarray,
                    even_starts: np.ndarray, odd_starts: np.ndarray) -> tuple:
    """The even and odd sector blocks of a table that carries its move pairs.

    The assembly of ``_symmetrization`` and ``_sector``, with the same
    residuals, refusals and bits, by index arithmetic on each move's
    reverse and mirror positions and its place (``MoveTable``): no sort
    and no binary search.  It relies on what the class chains guarantee:
    only a state's moves to its own mirror image share a target, and
    they add up in table order; and no move leads from a state i < Ji to
    a state j > Jj other than Ji.  So each sector entry off the diagonal
    is kept by one move out of a lower state, its terms are that move's
    and its mirror's, in this order, and a lower state's moves ascend in
    sector column as they do in place.  Its transpose has the same two
    terms, which add up the same either way round.
    """
    n = table.n
    rows, cols, flip, mirror = table.rows, table.cols, table.flip, table.mirror
    _, _, a, a_hold, a_flip = _symmetrized(
        table, lambda s: (rows, cols, s, lambda x: x[table.reverse], lambda x: x[mirror]))
    idx = np.arange(n)
    fixed, first = flip == idx, idx <= flip
    to_mirror = cols == flip[rows]
    # the move that keeps each entry off the diagonal: one out of a lower
    # state, to a state no higher than its mirror if it leaves a fixed one
    k = np.flatnonzero(first[rows] & ~to_mirror & (~fixed[rows] | (cols <= flip[cols])))
    i, j, a_k, a_m = rows[k], cols[k], a[k], a[mirror[k]]
    fi, fj = fixed[i], fixed[j]
    width = int(np.bincount(rows, minlength=n).max()) + 1
    hold_place = np.bincount(rows[cols < rows], minlength=n)
    # a move between fixed states is its own mirror, the one term of its entry
    w = _even_weight(fi, fj)
    m = w * a_k + np.where(mirror[k] == k, 0.0, w * a_m)
    # the diagonal's terms are (i, i), (i, Ji), (Ji, i), (Ji, Ji), or (i, i) alone
    w = np.where(fixed, 1.0, 0.5)
    d = np.where(fixed, a_hold, ((w * a_hold + w * a_flip) + w * a_flip[flip]) + w * a_hold[flip])
    # the k-th lower state keeps the diagonal of orbit k
    states = np.flatnonzero(first)
    even = _placed_sector(
        ((orbit[i], table.place[k], orbit[j], m + m),
         (np.arange(states.size), hold_place[states], np.arange(states.size),
          d[states] + d[states])), even_starts, width)
    # <odd_k, A odd_l> = +-1/2 on both terms of an entry between two pairs
    q = np.flatnonzero(~fi & ~fj)
    sign = np.where(first, 1.0, -1.0)
    f = 0.5 * sign[i[q]] * sign[j[q]]
    m = f * a_k[q] + f * a_m[q]
    d = ((0.5 * a_hold + -0.5 * a_flip) + -0.5 * a_flip[flip]) + 0.5 * a_hold[flip]
    states = np.flatnonzero(idx < flip)
    odd = _placed_sector(
        ((odd_orbit[i[q]], table.place[k[q]], odd_orbit[j[q]], m + m),
         (np.arange(states.size), hold_place[states], np.arange(states.size),
          d[states] + d[states])), odd_starts, width)
    return even, odd


def _placed_sector(parts: tuple, starts: np.ndarray, width: int) -> list:
    """``_blocks`` of the entries (row, place in the row, column, value) of ``parts``.

    Each row has ``width`` places, and its entries ascend in column as
    they do in place, so reading the places row by row gives row-major
    order.  As in ``_sector``, an entry whose value is 0 is dropped and
    the rest are halved.
    """
    m = int(starts[-1])
    grid = np.zeros(m * width)
    col = np.zeros(m * width, dtype=np.intp)
    for rows, places, cols, vals in parts:
        slot = rows * width + places
        grid[slot] = vals
        col[slot] = cols
    kept = np.flatnonzero(grid)
    return _blocks(kept // width, col[kept], grid[kept] * 0.5, starts)


def _even_weight(fixed_i: np.ndarray, fixed_j: np.ndarray) -> np.ndarray:
    """<even_k, A even_l> per entry (i, j): 1/sqrt(2) from each state of a mirror pair."""
    return np.where(fixed_i & fixed_j, 1.0, np.where(fixed_i | fixed_j, math.sqrt(0.5), 0.5))


def _check_table(t: MoveTable) -> None:
    """Raise ValueError unless ``t``'s arrays line up with its states.

    That is: 1-D arrays of the right length and dtype, every index
    inside the table, a flip that is an involution, and move pairs that
    are all given or all None, each reverse and mirror position inside
    the moves and each place inside its row.  Shifted into a
    stack, a table that failed this could reach into its neighbour
    instead of failing; a flip that is not an involution (a 3-cycle,
    say) can still commute with the chain, and the even and odd sectors
    then misread its spectrum.  Move pairs must also hold what
    ``_paired_sectors`` relies on, or it reads a wrong gap; that is
    checked in O(nnz), with no sort.
    """
    arrays = (t.log_pi, t.vals, t.rows, t.cols, t.flip)
    if not (all(isinstance(x, np.ndarray) and x.ndim == 1 for x in arrays)
            and t.log_pi.dtype == t.vals.dtype == np.float64
            and all(x.dtype.kind == "i" for x in arrays[2:])
            and len(t.log_pi) == len(t.flip) == t.n
            and len(t.vals) == len(t.rows) == len(t.cols)):
        raise ValueError("a move table's arrays do not line up with its states")
    if not all(((x >= 0) & (x < t.n)).all() for x in arrays[2:]):
        raise ValueError("a move table indexes outside its own states")
    if not (t.flip[t.flip] == np.arange(t.n)).all():
        raise ValueError("a move table's flip is not an involution")
    pairs = (t.reverse, t.mirror, t.place)
    if all(x is None for x in pairs):
        return
    if not all(isinstance(x, np.ndarray) and x.shape == t.rows.shape and x.dtype.kind == "i"
               for x in pairs):
        raise ValueError("a move table's reverse, mirror and place do not line up with its moves")
    rows, cols, flip, nnz = t.rows, t.cols, t.flip, len(t.rows)
    moves = np.bincount(rows, minlength=t.n)
    if not (all(((x >= 0) & (x < nnz)).all() for x in pairs[:2])
            and ((t.place >= 0) & (t.place <= moves[rows])).all()):
        raise ValueError("a move table's reverse, mirror or place points outside its moves")
    # each reverse is j -> i, each mirror Ji -> Jj, no move but to Ji leads
    # from i < Ji to j > Jj, and no two entries of a row (the diagonal's
    # place counted) share a place
    width = int(moves.max(initial=0)) + 1
    hold = np.arange(t.n) * width + np.bincount(rows[cols < rows], minlength=t.n)
    fr, fc = flip[rows], flip[cols]
    agree = ((rows[t.reverse] == cols) & (cols[t.reverse] == rows) & (rows[t.mirror] == fr)
             & (cols[t.mirror] == fc) & ((rows >= fr) | (cols <= fc) | (cols == fr)))
    if not agree.all() or (np.bincount(np.concatenate([rows * width + t.place, hold])) > 1).any():
        raise ValueError("a move table's reverse, mirror or place disagrees with its moves")


def _flip_sectors(table: MoveTable, sizes: Sequence[int]) -> list:
    """(even, odd, sqrt(pi) in the even basis) of each table of a stack's symmetrized chain.

    The even basis has (e_i + e_Ji)/sqrt(2) per mirror pair and e_i per
    fixed state, the odd basis (e_i - e_Ji)/sqrt(2) per pair; the sectors
    are ``_symmetrization`` in these bases, orbits ordered by their lower
    state index, each as ``_sector`` returns it.  sqrt(pi) is the unit
    eigenvector of lambda_0 = 1.  ``table`` stacks tables of sizes[k]
    states each.  A stack whose tables carry their move pairs goes through
    ``_paired_sectors``, any other through ``_symmetrization`` and
    ``_sector``.  A sector entry that is not finite raises ValueError
    (``_blocks``), so in a stack a NaN residual, which passes the
    tolerance test, cannot hide another table's refusal.
    """
    starts = np.cumsum([0, *sizes])
    idx = np.arange(table.n)
    flip = table.flip
    fixed = flip == idx
    lower = np.minimum(idx, flip)
    # orbits are numbered by their lower state: the even sector has one per
    # state i <= Ji, the odd sector one per state i < Ji
    first, first_pair = idx <= flip, idx < flip
    count, count_pair = (np.concatenate([[0], np.cumsum(x)]) for x in (first, first_pair))
    orbit = (count[1:] - 1)[lower]
    odd_orbit = (count_pair[1:] - 1)[lower]
    if table.reverse is not None:
        even, odd = _paired_sectors(table, orbit, odd_orbit, count[starts], count_pair[starts])
    else:
        i, j, a = _symmetrization(table)
        even = _sector(orbit[i], orbit[j], _even_weight(fixed[i], fixed[j]) * a, count[starts])
        # <odd_k, A odd_l>: +-1/sqrt(2), minus on the higher state of a pair
        pair = ~fixed[i] & ~fixed[j]
        sign = np.where(idx == lower, 1.0, -1.0)
        i, j = i[pair], j[pair]
        odd = _sector(odd_orbit[i], odd_orbit[j], 0.5 * sign[i] * sign[j] * a[pair],
                      count_pair[starts])
    # sqrt(pi) projected on the even basis: orbit sums over sqrt(orbit size),
    # each table scaled by its own top weight and normalized on its own array
    # (np.sum, not the BLAS dot of np.linalg.norm, whose bits follow the
    # BLAS thread count)
    top = np.repeat([table.log_pi[lo:hi].max() for lo, hi in zip(starts[:-1], starts[1:])],
                    sizes)
    root = np.bincount(orbit, weights=np.exp(0.5 * (table.log_pi - top)))
    root /= np.sqrt(np.bincount(orbit))
    roots = (root[lo:hi].copy() for lo, hi in zip(count[starts[:-1]], count[starts[1:]]))
    return [(e, o, r / np.sqrt(np.sum(r * r))) for e, o, r in zip(even, odd, roots)]


def _sector_extremes(M, u: Optional[np.ndarray] = None) -> tuple:
    """(largest, smallest) eigenvalue of one flip sector, by the route its form picks.

    A tridiagonal sector goes to bisection, a CSR one of up to
    DENSE_SECTOR_MAX states to the dense solver, a larger one to
    ``_lanczos_extremes``.  With ``u``, the unit eigenvector of the
    eigenvalue 1, the largest is taken over the rest of the spectrum
    (-inf if nothing is left).
    """
    tridiagonal = isinstance(M, tuple)
    m = len(M[0]) if tridiagonal else M.shape[0]
    top = m - 1 if u is None else m - 2
    if top < 0:
        return -math.inf, 1.0
    if not tridiagonal:
        return _dense_extremes(M, top) if m <= DENSE_SECTOR_MAX else _lanczos_extremes(M, u)
    d, e = M
    if m == 1:  # dstebz refuses an empty e
        return float(d[0]), float(d[0])
    return tuple(float(_bisect(d, e, k)[0][0]) for k in (top, 0))


def _bisect(d: np.ndarray, e: np.ndarray, k: int) -> tuple:
    """The k-th smallest (from 0) eigenvalue of the tridiagonal (d, e), by bisection.

    O(m), straight to LAPACK's dstebz, with no wrapper around it.
    Returns dstebz's (w, iblock, isplit), as inverse iteration (dstein)
    takes them.
    """
    from scipy.linalg.lapack import dstebz

    found, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "E")
    if info or found != 1:
        raise np.linalg.LinAlgError(f"dstebz returned info={info} for eigenvalue {k}")
    return w[:1], iblock, isplit


def _dense_extremes(M, top: int) -> tuple:
    import scipy.linalg

    vals = scipy.linalg.eigvalsh(M.toarray())
    return float(vals[top]), float(vals[0])


def _ritz_value(d: np.ndarray, e: np.ndarray, i: int, b: float) -> tuple:
    """(the i-th smallest (from 0) eigenvalue of a Lanczos T_k, its residual).

    T_k has diagonal d and off-diagonal e, and b is the norm of the
    Lanczos vector that would come next, so b |s_k|, s_k the last entry of
    the eigenvector (by inverse iteration), is the residual of the Ritz pair.
    """
    from scipy.linalg.lapack import dstein

    if len(d) == 1:  # dstebz refuses an empty e
        return float(d[0]), abs(b)
    w, iblock, isplit = _bisect(d, e, i)
    z, info = dstein(d, e, w, iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"dstein returned info={info} for Ritz value {i}")
    return float(w[0]), abs(b * float(z[-1, 0]))


def _lanczos_extremes(M, u: Optional[np.ndarray]) -> tuple:
    """(largest, smallest) eigenvalue of a large CSR sector, by Lanczos in numpy.

    ``u`` is as ``_sector_extremes`` takes it.  Plain Lanczos, with no
    reorthogonalization: both ends come off the tridiagonal T_k.  Every
    LANCZOS_CHECK steps, an end whose residual is at most LANCZOS_TOL, or
    whose Ritz value has not moved since the last check, is settled; the
    run stops once both ends are.  A sector still running after
    LANCZOS_MAX_STEPS is solved densely if it has at most
    DEFAULT_MAX_STATES states, and refused otherwise.  The matvec makes
    no BLAS call, so the bits do not follow the BLAS thread count.
    """
    m = M.shape[0]
    v = np.random.default_rng(0).uniform(0.5, 1.5, m)  # fixed start: reproducible bits
    if u is not None:
        # move the known eigenvalue 1 to the Rayleigh quotient of the start
        # vector with u projected out, inside the rest of the spectrum, so
        # that neither end sees it (lambda_1 may lie within 1e-14 of 1)
        x = v - np.sum(u * v) * u
        shift = 1.0 - np.sum(x * (M @ x)) / np.sum(x * x)
    v = v / np.sqrt(np.sum(v * v))
    prev, b = np.zeros(m), 0.0
    alpha, beta = [], []
    # the (largest, smallest) Ritz values at the last check, and whether each has settled
    last, settled = [None, None], [False, False]
    for step in range(1, LANCZOS_MAX_STEPS + 1):
        # every scalar of a step is a one-segment reduceat; on numpy 2.4 that is
        # x[0] plus the pairwise sum of x[1:], not a left-to-right sum, and its
        # bits differ from np.sum's, so swapping np.sum in would change a sector's
        w = M @ v
        if u is not None:
            w -= (shift * np.add.reduceat(u * v, [0])[0]) * u
        w -= b * prev
        a = np.add.reduceat(w * v, [0])[0]
        w -= a * v
        b = np.sqrt(np.add.reduceat(w * w, [0])[0])
        alpha.append(float(a))
        beta.append(float(b))
        if not step % LANCZOS_CHECK or not b or step == LANCZOS_MAX_STEPS:
            d, e = np.array(alpha), np.array(beta[:-1])
            for end, index in enumerate((step - 1, 0)):
                if not settled[end]:
                    x, r = _ritz_value(d, e, index, b)
                    settled[end] = r <= LANCZOS_TOL or x == last[end]
                    last[end] = x
            if all(settled):  # a breakdown (b = 0) settles both ends: their residuals are 0
                return tuple(last)
        prev, v = v, w / b
    if m > DEFAULT_MAX_STATES:
        raise ValueError(f"Lanczos did not converge on a {m}-state sector")
    return _dense_extremes(M, m - 1 if u is None else m - 2)


def _stacks(items: Iterable, size: Callable) -> Iterator[list]:
    """Runs of consecutive items of at most STACK_STATES states in all; a larger one alone.

    ``size`` gives an item's states: read off a cell's N, so that no
    table is built to size a stack, or a block's own count.
    """
    stack, states = [], 0
    for item in items:
        n = size(item)
        if stack and states + n > STACK_STATES:
            yield stack
            stack, states = [], 0
        stack.append(item)
        states += n
    if stack:
        yield stack


def _stack_spectra(table: MoveTable, sizes: Sequence[int]) -> list:
    """The SectorSpectrum of each table of a stack, sizes[k] states each, assembled in one pass.

    Whatever the assembly raises, the tables are cut out of the stack
    (``_unstack``) and solved one at a time, so the first table that
    fails alone raises what it raises alone.
    """
    try:
        sectors = _flip_sectors(table, sizes)
    except ValueError:
        if len(sizes) == 1:
            raise
        return [s for t in _unstack(table, sizes) for s in _stack_spectra(t, [t.n])]
    ext = [_sector_extremes(M, u) for even, odd, root in sectors
           for M, u in ((even, root), (odd, None))]
    return [SectorSpectrum(even_lambda1=even[0], odd_lambda1=odd[0],
                           lambda_min=min(even[1], odd[1]), dim=n)
            for n, even, odd in zip(sizes, ext[::2], ext[1::2])]


def sector_spectrum(table: MoveTable) -> SectorSpectrum:
    """lambda_1 and lambda_min of a flip-invariant chain from its two sectors.

    The even sector holds lambda_0 = 1, whose eigenvector sqrt(pi) is
    known and left out; the slow mode of a two-phase chain lies in the
    odd sector.  The table's arrays are checked first (``_check_table``,
    ValueError); it is solved as a stack of one.
    """
    _check_table(table)
    return _stack_spectra(table, [table.n])[0]


# ---------------------------------------------------------------------------
# Conductance.
# ---------------------------------------------------------------------------

def check_conductance_states(n: int) -> None:
    """Refuse exhaustive conductance on more than CONDUCTANCE_MAX_STATES states."""
    if n > CONDUCTANCE_MAX_STATES:
        raise ValueError(f"exhaustive conductance is capped at {CONDUCTANCE_MAX_STATES} "
                         f"states, got {n}")


def conductance_exact(kernel: FiniteKernel) -> tuple[float, tuple]:
    """Exact conductance h = min_{0 < p(A) <= 1/2} Q(A, A^c)/p(A).

    Exhaustive over all 2^n subsets via a bitmask subset-sum sweep, so
    the state count is capped at CONDUCTANCE_MAX_STATES.  Returns (h,
    minimizing set of state indices).
    """
    n = kernel.n
    check_conductance_states(n)
    if n < 2:
        raise ValueError("conductance needs at least two states")
    pi = kernel.stationary()
    Q = pi[:, None] * kernel.P
    Q = 0.5 * (Q + Q.T)
    rowsum = Q.sum(axis=1)
    size = 1 << n
    pA = np.zeros(size)
    FA = np.zeros(size)
    for b in range(n):
        step = 1 << b
        pA.reshape(-1, 2 * step)[:, step:] += pi[b]
        FA.reshape(-1, 2 * step)[:, step:] += rowsum[b]
    # subtract W(A) = sum_{x,y in A} Q(x,y), assembled per highest bit
    for b in range(n):
        step = 1 << b
        Tb = np.zeros(step)
        for c in range(b):
            cstep = 1 << c
            Tb.reshape(-1, 2 * cstep)[:, cstep:] += Q[c, b]
        FA.reshape(-1, 2 * step)[:, step:] -= 2.0 * Tb + Q[b, b]
    valid = (pA > 0) & (pA <= 0.5 * (1 + 1e-12))
    valid[0] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(FA, pA, out=FA)
    FA[~valid] = np.inf
    best = int(np.argmin(FA))
    h = max(float(FA[best]), 0.0)
    members = tuple(i for i in range(n) if best >> i & 1)
    return h, members


def interval_conductance(table: MoveTable) -> tuple[float, int]:
    """Bottleneck over the n-1 interval cuts in the chain's state order.

    Cut k has the ratio flow(k) / min(m_k, 1 - m_k), m_k the mass of the
    states 0..k.  Minimizing over a subfamily of sets only, the result is
    an upper bound on the true conductance h; it is the honest bottleneck
    diagnostic for birth--death orderings.  Only the moves are read: x -> y
    carries pi(x)P(x,y)/2 across the cuts min(x, y) <= k < max(x, y).
    Returns (bound, the first minimizing k).
    """
    n = table.n
    if n < 2:
        raise ValueError("conductance needs at least two states")
    pi = np.exp(table.log_pi - logsumexp(table.log_pi))
    xs, ys = table.rows, table.cols
    q = 0.5 * pi[xs] * table.vals
    lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
    flow = np.cumsum(np.bincount(lo, weights=q, minlength=n)
                     - np.bincount(hi, weights=q, minlength=n))[:-1]
    mass = np.cumsum(pi)[:-1]
    side = np.minimum(mass, 1.0 - mass)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(side > 0, flow / side, math.inf)
    k = int(np.argmin(ratio))
    return max(float(ratio[k]), 0.0), k


def cut_bottleneck_log(table: MoveTable, subset: Sequence[int]) -> float:
    """log of Q(A, A^c)/p(A) for one cut, computed entirely in log space.

    The value upper-bounds log h whenever p(A) <= 1/2 (checked exactly by
    comparing log masses), and log(2) more upper-bounds log(1 - lambda_1)
    through the Cheeger inequality.  Stays finite far below the floating
    floor, which is what makes the deep slow-mixing cells auditable.
    Only the moves of the table that cross the cut are visited, so the
    chain is never made dense; repeated moves add up in table order, as
    in ``MoveTable.to_kernel``, and the terms are summed in row-major
    order.
    """
    n = table.n
    members = np.asarray(list(subset), dtype=np.intp)
    if members.size and (members.min() < 0 or members.max() >= n):
        raise ValueError(f"cut states must lie in 0..{n - 1}")
    inA = np.zeros(n, dtype=bool)
    inA[members] = True
    if not inA.any() or inA.all():
        raise ValueError("cut must be a proper nonempty subset")
    lw = table.log_pi
    log_mass = logsumexp(lw[inA])
    log_comp = logsumexp(lw[~inA])
    # a mirror cut has p(A) just under 1/2; rounding may put its log mass
    # an ulp or so above the complement's, so an excess that small is a tie
    if log_mass - log_comp > 4 * math.ulp(max(abs(log_mass), abs(log_comp))):
        raise ValueError("subset carries more than half the stationary mass")
    cross = inA[table.rows] & ~inA[table.cols]
    keys, flow = _coalesce(table.rows[cross] * n + table.cols[cross], table.vals[cross])
    if not keys.size:
        return -math.inf
    # math.log, not np.log: the SIMD log differs in the last bit on some values
    terms = lw[keys // n] + np.array([math.log(f) for f in flow.tolist()])
    return float(logsumexp(terms)) - float(log_mass)


def cheeger_interval(h: float) -> tuple[float, float]:
    """The two-sided Cheeger bound on lambda_1: (1 - 2h, 1 - h^2/2)."""
    if not 0 <= h <= 1:
        raise ValueError(f"conductance must lie in [0,1], got {h}")
    return 1.0 - 2.0 * h, 1.0 - h * h / 2.0


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionBound:
    """Gap(P) >= 1/2 Gap(P_H) min_i Gap(P_{A_i}): the right-hand side."""

    value: float
    projection_gap: float
    min_restriction_gap: float
    restriction_gaps: tuple


def decomposition_bound(table: MoveTable, parts: Partition) -> DecompositionBound:
    """Evaluate the decomposition lower bound for the given partition.

    The projection and the restrictions to the blocks are move tables
    solved on their sectors, the restrictions as one stack cut into runs
    of up to STACK_STATES states (a larger block alone), which bounds the
    memory of one assembly; the chain is never made dense.
    """
    gap_H = sector_spectrum(lumped_projection(table, parts)).gap
    stack, sizes = restrictions(table, parts)
    runs = list(_stacks(sizes, int))
    tables = _unstack(stack, [sum(run) for run in runs])
    del stack  # the runs copy its indices: free it before they are solved
    gaps = tuple(s.gap for run, t in zip(runs, tables) for s in _stack_spectra(t, run))
    return DecompositionBound(value=0.5 * gap_H * min(gaps), projection_gap=gap_H,
                              min_restriction_gap=min(gaps), restriction_gaps=gaps)


def bd_path_bound(table: MoveTable, A: float, q: float, B: float, k: int,
                  strict: bool = True) -> BoundEvaluation:
    """Path bound lambda_1 <= 1 - (A/B) n^{-(q+2)} for a birth--death table.

    Every move of the table must step +-1 (ValueError otherwise); the
    up and down rates are read off those moves.  Hypotheses, checked
    programmatically: every defined up/down rate is >= A n^{-q}, and the
    stationary weights are B-unimodal around index k (pi_i <= B pi_j for
    i <= j <= k, pi_j <= B pi_i for k <= i <= j).  With strict=True a
    violation raises HypothesisError naming the offending rate or pair;
    otherwise the returned record carries hypotheses_ok=False and the
    violation text.
    """
    n = table.n
    step = table.cols - table.rows
    if not (np.abs(step) == 1).all():
        raise ValueError("the path bound needs a birth-death table: every move steps +-1")
    if not 0 <= k < n:
        raise ValueError(f"peak index {k} outside 0..{n - 1}")
    up, down = (np.bincount(table.rows[step == d], weights=table.vals[step == d], minlength=n)
                for d in (1, -1))
    threshold = A * float(n) ** (-q)
    logB, lp, tol = math.log(B), table.log_pi, 1e-12
    rates = np.concatenate([up[:-1], down[1:]])  # up of 0..n-2, then down of 1..n-1
    low = np.flatnonzero(rates < threshold * (1 - 1e-12))
    # the states j <= k with a heavier one left of them, i >= k with one right of them
    heavy_left = np.flatnonzero(np.maximum.accumulate(lp[:k + 1]) > logB + lp[:k + 1] + tol)
    heavy_right = np.flatnonzero(np.maximum.accumulate(lp[::-1])[::-1][k:] > logB + lp[k:] + tol)
    violation = None
    if low.size:
        at = int(low[0])
        name, i = ("up", at) if at < n - 1 else ("down", at - n + 2)
        violation = f"{name} rate at index {i} is {rates[at]:.6g} < A n^-q = {threshold:.6g}"
    elif heavy_left.size:
        j = int(heavy_left[0])
        violation = (f"monotone-up condition fails: pi({int(np.argmax(lp[:j + 1]))}) > "
                     f"B pi({j}) left of the peak k={k}")
    elif heavy_right.size:
        violation = (f"monotone-down condition fails: pi({k + int(np.argmax(lp[k:]))}) > "
                     f"B pi({k + int(heavy_right[-1])}) right of the peak k={k}")
    value = 1.0 - (A / B) * float(n) ** (-(q + 2.0))
    if violation is not None and strict:
        raise HypothesisError(violation)
    return BoundEvaluation(name="bd-path", value=value,
                           hypotheses_ok=violation is None, detail=violation)


def gershgorin_bound(table: MoveTable) -> float:
    """lambda_min >= -1 + 2 min_i P(i,i), P(i,i) the holding the moves of row i leave.

    P has the eigenvalues of its symmetrization, so this holds for any
    reversible table: each lies in a disc of centre P(i,i), radius 1 - P(i,i).
    """
    hold = 1.0 - np.bincount(table.rows, weights=table.vals, minlength=table.n)
    return -1.0 + 2.0 * float(hold.min())


# ---------------------------------------------------------------------------
# Asymptotic variance.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticVariance:
    avar: float
    gap_bound: float      # 2 Var_pi(f) / (1 - lambda_1)
    variance: float
    degenerate: bool = False


def avar_spectral(kernel: FiniteKernel, f: Sequence[float]) -> AsymptoticVariance:
    """Asymptotic variance of the trajectory average of f.

    AVar = sum_{k>=1} a_k^2 (1+lambda_k)/(1-lambda_k) over the
    eigenexpansion; also evaluates the gap bound 2 Var_pi(f)/(1-lambda_1)
    and verifies AVar does not exceed it.  A constant f yields 0 with the
    degenerate flag; a reducible chain (second unit eigenvalue) raises.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (kernel.n,):
        raise ValueError(f"observable has shape {f.shape}, expected ({kernel.n},)")
    pi = kernel.stationary()
    mu = float(pi @ f)
    var = float(pi @ (f - mu) ** 2)
    if var < 1e-28:
        return AsymptoticVariance(avar=0.0, gap_bound=0.0, variance=0.0, degenerate=True)
    import scipy.linalg

    # eigenpairs of the symmetrization, eigenvalues descending
    vals, vecs = scipy.linalg.eigh(_symmetrize(kernel))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals[1] > 1 - 1e-12:
        raise ReducibleChainError(f"second eigenvalue {vals[1]} is numerically 1")
    coeff = vecs.T @ (f * np.sqrt(pi))
    lam = vals[1:]
    a2 = coeff[1:] ** 2
    avar = float(np.sum(a2 * (1 + lam) / (1 - lam)))
    bound = 2.0 * var / (1.0 - float(vals[1]))
    if avar > bound * (1 + 1e-10) + 1e-12:
        raise AssertionError(f"spectral AVar {avar} exceeds its gap bound {bound}")
    return AsymptoticVariance(avar=avar, gap_bound=bound, variance=var)
