"""Table hash: one sha256 per move table of a fixed list of builds.

    python tools/tablehash.py

Imports the sources under ``src/`` next to this script and prints one
``sha256  name`` line per table, for:

* the signed class chains of Ising, BEG and the warm-up model, alone
  and stacked (``signed_move_table``, ``signed_move_stack``);
* the unsigned projections (``unsigned_lumped_chain``), the warm-up
  block projection and the restriction stacks to the warm-up blocks
  (``lumped_projection``, ``restrictions``);
* the full-space proposals and Metropolis chains of every model
  (``single_flip_proposal``, ``equi_energy_proposal``,
  ``small_world_proposal``, ``metropolis_chain``), and the enumerations
  of the same specs (``enumerate_states``).

A table's hash covers ``repr`` of its labels and the dtype and bytes of
log pi, rows, cols, vals, flip, reverse and mirror (``None`` where a
table has no move pairs); an enumeration's covers its dtype, shape and
bytes.  Two source trees that print the same lines built the same
tables bit for bit.  The run takes under ten seconds on two cores and
peaks under 300 MB.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spingap import kernels, models  # noqa: E402
from spingap.models import beg, ising, warmup  # noqa: E402

FIELDS = ("log_pi", "rows", "cols", "vals", "flip", "reverse", "mirror")
ISING = [(beta, None) for beta in (0.0, 0.7, 2.0)]
BEG = [(1.0, 1.0), (0.3, 2.5)]
THETAS = (1.5, 3.0)


def _update(digest, a: np.ndarray) -> None:
    digest.update(a.dtype.str.encode())
    digest.update(repr(a.shape).encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def table_hash(table: kernels.MoveTable) -> str:
    digest = hashlib.sha256(repr(table.labels).encode())
    for name in FIELDS:
        a = getattr(table, name)
        if a is None:
            digest.update(b"None")
        else:
            _update(digest, a)
    return digest.hexdigest()


def _spec(kind: str, N: int, beta: float, K):
    return ising(N, beta, p1=0.5, p2=0.25) if kind == "ising" else beg(N, beta, K, p1=0.5, p2=0.25)


def builds():
    """(name, table or enumeration) of every build, in print order."""
    for kind, Ns, params in (("ising", (2, 10, 100), ISING), ("beg", (2, 6, 20), BEG)):
        for beta, K in params:
            tag = f"{kind} beta={beta:g}" + ("" if K is None else f" K={K:g}")
            for chain in ("naive", "equi-energy"):
                for N in Ns:
                    spec = _spec(kind, N, beta, K)
                    yield f"signed {tag} N={N} {chain}", kernels.signed_move_table(spec, chain)
                    yield (f"unsigned {tag} N={N} {chain}",
                           kernels.unsigned_lumped_chain(spec, chain))
                Ns_stack = list(range(2, 21, 2)) if kind == "ising" else [2, 4, 6, 8, 10]
                yield (f"stack {tag} N={Ns_stack[0]}..{Ns_stack[-1]} {chain}",
                       kernels.signed_move_stack(_spec(kind, 2, beta, K), chain, Ns_stack))
    for theta in THETAS:
        for chain, eps in (("naive", None), ("small-world", 0.3)):
            tag = f"warmup theta={theta:g} {chain}"
            for N in (1, 5, 40):
                table = kernels.signed_move_table(warmup(N, theta, eps), chain)
                yield f"signed {tag} N={N}", table
            yield (f"stack {tag} N=1..10",
                   kernels.signed_move_stack(warmup(1, theta, eps), chain, range(1, 11)))
            spec = warmup(20, theta, eps)
            table = kernels.signed_move_table(spec, chain)
            parts = kernels.warmup_block_partition(spec)
            yield f"projection {tag} N=20", kernels.lumped_projection(table, parts)
            yield f"restrictions {tag} N=20", kernels.restrictions(table, parts)[0]
    for kind, Ns, params in (("ising", range(2, 13, 2), ISING), ("beg", range(2, 9, 2), BEG)):
        for beta, K in params:
            tag = f"{kind} beta={beta:g}" + ("" if K is None else f" K={K:g}")
            for N in Ns:
                spec = _spec(kind, N, beta, K)
                yield f"enumeration {tag} N={N}", models.enumerate_states(spec)
                yield f"single-flip proposal {tag} N={N}", kernels.single_flip_proposal(spec)
                yield f"equi-energy proposal {tag} N={N}", kernels.equi_energy_proposal(spec)
                for chain in ("naive", "equi-energy"):
                    yield f"full {tag} N={N} {chain}", kernels.metropolis_chain(spec, chain)
    for theta in THETAS:
        for N in (1, 5, 40):
            spec = warmup(N, theta, 0.3)
            tag = f"warmup theta={theta:g} N={N}"
            yield f"enumeration {tag}", models.enumerate_states(spec)
            yield f"single-flip proposal {tag}", kernels.single_flip_proposal(spec)
            yield f"small-world proposal {tag}", kernels.small_world_proposal(spec)
            for chain in ("naive", "small-world"):
                yield f"full {tag} {chain}", kernels.metropolis_chain(spec, chain)


def main() -> int:
    for name, built in builds():
        if isinstance(built, np.ndarray):
            digest = hashlib.sha256()
            _update(digest, built)
            print(f"{digest.hexdigest()}  {name}", flush=True)
        else:
            print(f"{table_hash(built)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
