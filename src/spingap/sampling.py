"""On-the-fly samplers for scales where matrices cannot be materialized.

One Metropolis step needs only the running statistics (S, and R for the
three-letter alphabet), so trajectories run at any N.  An orbit jump
draws a uniform member of the current signed class (S, R) by direct
position sampling in O(N).  Every run bills two costs: ``ops`` at those
direct draws, and ``ops_sequential`` as if each Ising draw ran the
sequential ball-placement scheme (``bose_einstein_sample``) at O(n k).
The same counters record each move component's proposals and acceptances.

Reproducibility: every run owns a numpy Generator (PCG64) seeded from
its RunConfig; identical (seed, config) gives bit-identical RunStats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import check_chain
from .models import SPINS, EnergyClass, ModelSpec, check_log_weights

OBSERVABLES = ("mag", "abs_mag", "quad", "const")

#: most samples a run retains in memory: 2 GiB of float64
MAX_RETAINED_SAMPLES = 1 << 28


@dataclass(frozen=True)
class RunConfig:
    steps: int
    seed: int
    burn_in: Optional[int] = None
    thinning: int = 1
    observable: str = "mag"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        burn = self.effective_burn_in
        if not 0 <= burn < self.steps:
            raise ValueError(f"burn-in {burn} must satisfy 0 <= burn-in < steps")
        if self.retained > MAX_RETAINED_SAMPLES:
            raise ValueError(f"{self.retained} retained samples exceed the limit "
                             f"{MAX_RETAINED_SAMPLES}; thin the run with --thin")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}, expected {OBSERVABLES}")

    @property
    def effective_burn_in(self) -> int:
        # default burn-in: 10% of the run
        return self.steps // 10 if self.burn_in is None else self.burn_in

    @property
    def retained(self) -> int:
        """Samples kept: the steps burn, burn + thinning, ... below steps."""
        return -((self.effective_burn_in - self.steps) // self.thinning)


@dataclass
class CostCounters:
    flip_proposed: int = 0
    flip_accepted: int = 0
    global_proposed: int = 0
    global_accepted: int = 0
    orbit_proposed: int = 0
    orbit_accepted: int = 0
    ops: int = 0             # elementary operations, direct O(N) orbit draws
    ops_sequential: int = 0  # same run billed with O(n k) sequential draws


@dataclass(frozen=True)
class RunStats:
    kind: str
    N: int
    steps: int
    burn_in: int
    thinning: int
    seed: int
    observable: str
    n_samples: int
    estimate: float
    batch_means_avar: Optional[float]
    batch_count: Optional[int]
    batch_size: Optional[int]
    acceptance: dict
    cost: CostCounters

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Uniform sampling within a class.
# ---------------------------------------------------------------------------

def bose_einstein_sample(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Occupancy of n balls placed sequentially into k boxes.

    Each ball picks a box with probability proportional to its current
    content plus one, which makes every stage uniform over the
    C(n+k-1, k-1) compositions.
    """
    if k < 1:
        raise ValueError("need at least one box")
    if n < 0:
        raise ValueError("ball count must be nonnegative")
    occ = np.zeros(k, dtype=np.int64)
    for t in range(n):
        u = rng.random() * (t + k)
        occ[int(np.searchsorted(np.cumsum(occ + 1), u, side="right"))] += 1
    return occ


def _orbit_draw(N: int, S: int, R: Optional[int], rng: np.random.Generator) -> np.ndarray:
    """A configuration uniform over the signed class (S, R) of N spins, in O(N).

    Ising (R None): (N + S)/2 plus-spins at uniform positions.  BEG: R
    nonzero spins at uniform positions, the first (R - S)/2 of them minus.
    """
    if R is None:
        x = np.full(N, -1, dtype=np.int8)
        x[rng.permutation(N)[:(N + S) // 2]] = 1
        return x
    x = np.zeros(N, dtype=np.int8)
    nonzero = rng.permutation(N)[:R]
    x[nonzero] = 1
    x[nonzero[:(R - S) // 2]] = -1
    return x


def _class_label(S: int, R: Optional[int]) -> EnergyClass:
    return EnergyClass(abs(S), R, (S > 0) - (S < 0))


def _observable(spec: ModelSpec, tag: str) -> Callable[[int, Optional[int]], float]:
    """The observable ``tag`` as a function of the statistics (S, R)."""
    N = spec.N
    if tag == "mag":
        return lambda S, R: S / N
    if tag == "abs_mag":
        return lambda S, R: abs(S) / N
    if tag == "quad":
        if spec.kind != "beg":
            raise ValueError("observable 'quad' is undefined outside the beg model")
        return lambda S, R: R / N
    if tag == "const":
        return lambda S, R: 1.0
    raise ValueError(f"unknown observable {tag!r}")


# ---------------------------------------------------------------------------
# The samplers.
# ---------------------------------------------------------------------------

class Sampler:
    """Mutable trajectory state with O(1)-statistics Metropolis stepping.

    x is the configuration (an int8 spin array, or the warmup coordinate),
    S its magnetization and R its count of nonzero spins (beg only).  It
    starts from independent uniform spins: spin j is
    ``models.SPINS[kind][floor(q u_j)]``, u = rng.random(N) (warmup: x = 0).
    """

    def __init__(self, spec: ModelSpec, kind: str, rng: np.random.Generator):
        check_chain(spec, kind)
        self.spec = spec
        self.kind = kind
        self.rng = rng
        self.cost = CostCounters()
        N = spec.N
        if spec.kind == "warmup":
            self.x, self.S, self.R = 0, 0, None
            return
        # each term of a log weight is largest at |S| = N (beg: and R = N)
        check_log_weights(spec.beta * N * N / (2 * N) if spec.kind == "ising"
                          else -spec.beta * N + spec.K * spec.beta * N * N / N)
        spins = np.array(SPINS[spec.kind], dtype=np.int8)
        self.x = spins[np.floor(rng.random(N) * spins.size).astype(np.intp)]
        self.S = int(self.x.sum())
        self.R = int(np.count_nonzero(self.x)) if spec.kind == "beg" else None

    def run(self, steps: int, keep: Optional[Callable[[int, int, Optional[int]], None]] = None,
            first: int = 0, every: int = 1) -> None:
        """Take ``steps`` transitions, each billed to its move component in ``cost``.

        keep(t, S, R), when given, is called after steps t = first,
        first + every, ... (t counted from 0 in this call).  Each step
        makes the generator calls of the chain's kernel, in its order:
        the mixture uniform (equi-energy) or the reflection uniform
        (small-world); then, for a flip, the site (ising, beg), the
        direction (beg, warmup) and the acceptance uniform when the move
        lowers the weight; or the orbit draw.
        """
        spec, rng, N = self.spec, self.rng, self.spec.N
        random, exp = rng.random, math.exp
        warm, beg = spec.kind == "warmup", spec.kind == "beg"
        small_world = self.kind == "small-world"
        mixture = self.kind == "equi-energy"
        eps = spec.epsilon if small_world else 0.0
        log_theta = math.log(spec.theta) if warm else 0.0
        beta, two_n = spec.beta, 2 * N
        neg_beta, k_beta = (-beta, spec.K * beta) if beg else (0.0, 0.0)
        p1, p12 = (spec.p1, spec.p1 + spec.p2) if mixture else (1.0, 1.0)
        u = 0.0  # stays below p1 = 1 without a mixture: every move is a flip
        x, S, R = self.x, self.S, self.R
        spins = None if warm else memoryview(x)
        next_keep = first if keep is not None else -1
        flips = flips_accepted = globals_ = orbits = orbit_seq = 0
        try:
            for t in range(steps):
                if warm:
                    if small_world and random() < eps:
                        # reflection proposal: equal weight, always accepted
                        S = -S
                        globals_ += 1
                    else:
                        y = S + (1 if random() < 0.5 else -1)
                        if -N <= y <= N:
                            delta = (abs(y) - abs(S)) * log_theta
                            if delta >= 0.0 or random() < exp(delta):
                                S = y
                                flips_accepted += 1
                        flips += 1
                else:
                    if mixture:
                        u = random()
                    if u < p1:
                        j = int(random() * N)
                        old = spins[j]
                        if beg:
                            new = old + (1 if random() < 0.5 else -1)
                            if new == 2:
                                new = -1
                            elif new == -2:
                                new = 1
                            s_new = S + new - old
                            r_new = R + (new != 0) - (old != 0)
                            delta = (neg_beta * (r_new - R)
                                     + k_beta * (s_new * s_new - S * S) / N)
                        else:
                            new, s_new, r_new = -old, S - 2 * old, R
                            delta = beta * (s_new * s_new - S * S) / two_n
                        if delta >= 0.0 or random() < exp(delta):
                            spins[j] = new
                            S, R = s_new, r_new
                            flips_accepted += 1
                        flips += 1
                    elif S != 0 and u < p12:
                        np.negative(x, out=x)
                        S = -S
                        globals_ += 1
                    else:
                        # statistics are invariant on the orbit; nothing to update
                        x = _orbit_draw(N, S, R, rng)
                        spins = memoryview(x)
                        if beg:
                            orbit_seq += N
                        else:
                            n_balls = (N + abs(S)) // 2
                            orbit_seq += n_balls * (N - n_balls + 1)
                        orbits += 1
                if t == next_keep:
                    next_keep += every
                    keep(t, S, R)
        finally:
            self.x, self.S, self.R = (S if warm else x), S, R
            cost = self.cost
            cost.flip_proposed += flips
            cost.flip_accepted += flips_accepted
            cost.global_proposed += globals_
            cost.global_accepted += globals_
            cost.orbit_proposed += orbits
            cost.orbit_accepted += orbits
            # a warmup step costs 1; a flip or a global flip N; an orbit draw
            # N, or n k billed as the sequential ball placement
            moved = flips + globals_ if warm else N * (flips + globals_)
            cost.ops += moved + N * orbits
            cost.ops_sequential += moved + orbit_seq


def run_estimate(spec: ModelSpec, kind: str, cfg: RunConfig,
                 trace_sink: Optional[Callable[[int, EnergyClass, float], None]] = None) -> RunStats:
    """Trajectory average of the configured observable.

    Deterministic given (seed, config): the run owns a fresh PCG64
    stream.  trace_sink, when given, receives (step, class label,
    observable value) for every retained sample.
    """
    rng = np.random.default_rng(cfg.seed)
    sampler = Sampler(spec, kind, rng)
    # probe observable validity before spending any steps
    value = _observable(spec, cfg.observable)
    burn = cfg.effective_burn_in
    trace = np.empty(cfg.retained)
    slot = itertools.count()

    def keep(t, S, R):
        v = trace[next(slot)] = value(S, R)
        if trace_sink is not None:
            trace_sink(t, _class_label(S, R), v)
    sampler.run(cfg.steps, keep, burn, cfg.thinning)
    estimate = float(trace.mean())
    avar = bcount = bsize = None
    if len(trace) >= 1000:
        avar, bcount, bsize = _batch_means(trace)
    acc = {}
    for comp in ("flip", "global", "orbit"):
        proposed = getattr(sampler.cost, f"{comp}_proposed")
        accepted = getattr(sampler.cost, f"{comp}_accepted")
        acc[comp] = {
            "proposed": proposed,
            "accepted": accepted,
            "rate": accepted / proposed if proposed else None,
        }
    return RunStats(
        kind=kind, N=spec.N, steps=cfg.steps, burn_in=burn, thinning=cfg.thinning,
        seed=cfg.seed, observable=cfg.observable, n_samples=len(trace),
        estimate=estimate, batch_means_avar=avar, batch_count=bcount,
        batch_size=bsize, acceptance=acc, cost=sampler.cost,
    )


def _batch_means(trace: np.ndarray) -> tuple[float, int, int]:
    n = len(trace)
    a = math.isqrt(n)  # batch count convention
    b = n // a
    batches = trace[: a * b].reshape(a, b).mean(axis=1)
    grand = batches.mean()
    avar = b * float(((batches - grand) ** 2).sum()) / (a - 1)
    return avar, a, b


def batch_means_avar(trace) -> float:
    """Batch-means estimate of the asymptotic variance n Var(mean).

    Batch count floor(sqrt(n)); traces shorter than 1000 are refused.
    """
    trace = np.asarray(trace, dtype=float)
    if len(trace) < 1000:
        raise ValueError(f"trace of length {len(trace)} is too short for batch means")
    return _batch_means(trace)[0]


@dataclass(frozen=True)
class CostProfile:
    mean_ops_per_step: float
    mean_ops_sequential_per_step: float
    ops_per_step_over_N: float
    component_frequency: dict


def cost_profile(stats: RunStats) -> CostProfile:
    """Per-step cost summary, including the cost/N ratio the scaled
    parameter choice is supposed to keep bounded."""
    total = stats.steps
    freq = {comp: stats.acceptance[comp]["proposed"] / total for comp in stats.acceptance}
    mean_ops = stats.cost.ops / total
    return CostProfile(
        mean_ops_per_step=mean_ops,
        mean_ops_sequential_per_step=stats.cost.ops_sequential / total,
        ops_per_step_over_N=mean_ops / stats.N,
        component_frequency=freq,
    )


# ---------------------------------------------------------------------------
# Generic trajectory on a materialized kernel (testing aid).
# ---------------------------------------------------------------------------

def simulate_kernel(P: np.ndarray, steps: int, rng: np.random.Generator) -> np.ndarray:
    """State-index trajectory of a row-stochastic matrix from state 0 (small chains)."""
    cum = np.cumsum(P, axis=1)
    out = np.empty(steps, dtype=np.int64)
    x = 0
    u = rng.random(steps)
    for t in range(steps):
        x = int(np.searchsorted(cum[x], u[t], side="right"))
        if x >= P.shape[0]:  # guard against cum[-1] = 1 - 1 ulp
            x = P.shape[0] - 1
        out[t] = x
    return out
