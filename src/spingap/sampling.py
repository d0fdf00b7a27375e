"""On-the-fly samplers for scales where matrices cannot be materialized.

One Metropolis step needs only the running statistics (S, and R for the
three-letter alphabet), so trajectories run at any N.  Orbit jumps draw
a uniform member of the current signed class either by direct position
sampling (O(N)) or by the literal sequential ball-placement scheme,
which is kept, tested, and billed at its own O(n k) cost.

Reproducibility: every run owns a numpy Generator (PCG64) seeded from
its RunConfig; identical (seed, config) gives bit-identical RunStats.
Grid drivers derive independent streams with numpy SeedSequence
spawning.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import check_chain
from .models import EnergyClass, ModelSpec

OBSERVABLES = ("mag", "abs_mag", "quad", "const")


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
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        burn = self.effective_burn_in
        if not 0 <= burn < self.steps:
            raise ValueError(f"burn-in {burn} must satisfy 0 <= burn-in < steps")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}, expected {OBSERVABLES}")

    @property
    def effective_burn_in(self) -> int:
        # default burn-in: 10% of the run
        return self.steps // 10 if self.burn_in is None else self.burn_in


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

    method="direct" samples positions in O(N); method="sequential" runs
    the literal ball-placement scheme (warmup/ising only) and exists to
    keep that construction tested at its own cost.
    """
    N = spec.N
    if spec.kind == "warmup":
        return int(c.sign * c.s)
    signed_s = c.sign * c.s
    if spec.kind == "ising":
        n_plus = (N + signed_s) // 2
        if method == "sequential":
            occ = bose_einstein_sample(n_plus, N - n_plus + 1, rng)
            return _ising_config_from_occupancy(N, occ)
        if method != "direct":
            raise ValueError(f"unknown method {method!r}")
        x = np.full(N, -1, dtype=np.int8)
        x[rng.permutation(N)[:n_plus]] = 1
        return x
    if c.r is None:
        raise ValueError("beg class label must carry r")
    if method != "direct":
        raise ValueError("the sequential scheme is defined for the two-letter alphabet only")
    n_minus = (c.r - signed_s) // 2
    x = np.zeros(N, dtype=np.int8)
    nonzero = rng.permutation(N)[:c.r]
    x[nonzero] = 1
    x[nonzero[:n_minus]] = -1
    return x


# ---------------------------------------------------------------------------
# The samplers.
# ---------------------------------------------------------------------------

class Sampler:
    """Mutable trajectory state with O(1)-statistics Metropolis stepping."""

    def __init__(self, spec: ModelSpec, kind: str, rng: np.random.Generator,
                 x0=None, orbit_method: str = "direct"):
        check_chain(spec, kind)
        self.spec = spec
        self.kind = kind
        self.rng = rng
        self.orbit_method = orbit_method
        self.cost = CostCounters()
        N = spec.N
        if spec.kind == "warmup":
            self.x = int(x0) if x0 is not None else 0
            self.S = self.x
            self.R = None
        else:
            if x0 is None:
                if spec.kind == "ising":
                    self.x = np.where(rng.random(N) < 0.5, -1, 1).astype(np.int8)
                else:
                    self.x = (np.floor(rng.random(N) * 3).astype(np.int8) - 1)
            else:
                self.x = np.asarray(x0, dtype=np.int8).copy()
            self.S = int(self.x.sum())
            self.R = int(np.count_nonzero(self.x)) if spec.kind == "beg" else None

    # -- observables --------------------------------------------------------

    def observable(self, tag: str) -> float:
        N = self.spec.N
        if tag == "mag":
            return self.S / N
        if tag == "abs_mag":
            return abs(self.S) / N
        if tag == "quad":
            if self.spec.kind != "beg":
                raise ValueError("observable 'quad' is undefined outside the beg model")
            return self.R / N
        if tag == "const":
            return 1.0
        raise ValueError(f"unknown observable {tag!r}")

    def class_label(self) -> EnergyClass:
        s = abs(self.S)
        sign = 0 if s == 0 else (1 if self.S > 0 else -1)
        if self.spec.kind == "beg":
            return EnergyClass(s, self.R, sign)
        return EnergyClass(s, None, sign)

    # -- stepping ------------------------------------------------------------

    def _accept(self, delta_log: float) -> bool:
        return delta_log >= 0.0 or self.rng.random() < math.exp(delta_log)

    def _step_warmup(self) -> str:
        spec, rng, cost = self.spec, self.rng, self.cost
        eps = spec.epsilon if self.kind == "small-world" else 0.0
        cost.ops += 1
        cost.ops_sequential += 1
        if self.kind == "small-world" and rng.random() < eps:
            # reflection proposal: equal weight, always accepted
            self.x = -self.x
            self.S = self.x
            cost.global_proposed += 1
            cost.global_accepted += 1
            return "global"
        dx = 1 if rng.random() < 0.5 else -1
        y = self.x + dx
        accepted = False
        if -spec.N <= y <= spec.N:
            delta = (abs(y) - abs(self.x)) * math.log(spec.theta)
            if self._accept(delta):
                self.x = y
                self.S = y
                accepted = True
        cost.flip_proposed += 1
        cost.flip_accepted += accepted
        return "flip"

    def _flip_ising(self) -> str:
        spec, rng = self.spec, self.rng
        N = spec.N
        j = int(rng.random() * N)
        ds = -2 * int(self.x[j])
        s_new = self.S + ds
        delta = spec.beta * (s_new * s_new - self.S * self.S) / (2 * N)
        accepted = self._accept(delta)
        if accepted:
            self.x[j] = -self.x[j]
            self.S = s_new
        self._bill_flip(accepted)
        return "flip"

    def _flip_beg(self) -> str:
        spec, rng = self.spec, self.rng
        N = spec.N
        j = int(rng.random() * N)
        move = 1 if rng.random() < 0.5 else -1
        old = int(self.x[j])
        new = old + move
        if new == 2:
            new = -1
        elif new == -2:
            new = 1
        s_new = self.S + new - old
        r_new = self.R + (new != 0) - (old != 0)
        delta = (-spec.beta * (r_new - self.R)
                 + spec.K * spec.beta * (s_new * s_new - self.S * self.S) / N)
        accepted = self._accept(delta)
        if accepted:
            self.x[j] = new
            self.S = s_new
            self.R = r_new
        self._bill_flip(accepted)
        return "flip"

    def _bill_flip(self, accepted: bool) -> None:
        cost, N = self.cost, self.spec.N
        cost.flip_proposed += 1
        cost.flip_accepted += accepted
        cost.ops += N
        cost.ops_sequential += N

    def _orbit_jump(self) -> str:
        spec = self.spec
        N = spec.N
        label = self.class_label()
        self.x = sample_uniform_class(spec, label, self.rng, method=self.orbit_method)
        # statistics are invariant on the orbit; nothing to update
        self.cost.orbit_proposed += 1
        self.cost.orbit_accepted += 1
        if spec.kind == "ising":
            n_balls = (N + abs(self.S)) // 2
            seq = n_balls * (N - n_balls + 1)
        else:
            seq = N
        self.cost.ops += seq if self.orbit_method == "sequential" else N
        self.cost.ops_sequential += seq
        return "orbit"

    def _global_flip(self) -> str:
        np.negative(self.x, out=self.x)
        self.S = -self.S
        cost, N = self.cost, self.spec.N
        cost.global_proposed += 1
        cost.global_accepted += 1
        cost.ops += N
        cost.ops_sequential += N
        return "global"

    def step(self) -> str:
        """One transition; returns the move component: flip, global or orbit."""
        spec = self.spec
        if spec.kind == "warmup":
            return self._step_warmup()
        if self.kind == "naive":
            return self._flip_ising() if spec.kind == "ising" else self._flip_beg()
        u = self.rng.random()
        if u < spec.p1:
            return self._flip_ising() if spec.kind == "ising" else self._flip_beg()
        if self.S != 0 and u < spec.p1 + spec.p2:
            return self._global_flip()
        return self._orbit_jump()


def step(spec: ModelSpec, kind: str, x, rng: np.random.Generator):
    """One Metropolis transition from x; returns (new state, move component)."""
    sampler = Sampler(spec, kind, rng, x0=x)
    component = sampler.step()
    return sampler.x, component


def run_estimate(spec: ModelSpec, kind: str, cfg: RunConfig,
                 orbit_method: str = "direct",
                 trace_sink: Optional[Callable[[int, EnergyClass, float], None]] = None) -> RunStats:
    """Trajectory average of the configured observable.

    Deterministic given (seed, config): the run owns a fresh PCG64
    stream.  trace_sink, when given, receives (step, class label,
    observable value) for every retained sample.
    """
    rng = np.random.default_rng(cfg.seed)
    sampler = Sampler(spec, kind, rng, orbit_method=orbit_method)
    # probe observable validity before spending any steps
    sampler.observable(cfg.observable)
    burn = cfg.effective_burn_in
    # the retained steps are burn, burn + thinning, ... below steps
    trace = np.empty(len(range(burn, cfg.steps, cfg.thinning)))
    k = 0
    for t in range(cfg.steps):
        sampler.step()
        if t >= burn and (t - burn) % cfg.thinning == 0:
            v = sampler.observable(cfg.observable)
            trace[k] = v
            k += 1
            if trace_sink is not None:
                trace_sink(t, sampler.class_label(), v)
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
