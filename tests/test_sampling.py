import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from spingap.kernels import metropolis_chain
from spingap.models import (
    EnergyClass,
    beg,
    class_table,
    ising,
    warmup,
)
from spingap.sampling import (
    OBSERVABLES,
    CostCounters,
    RunConfig,
    RunStats,
    Sampler,
    _batch_means,
    _orbit_draw,
    batch_means_avar,
    bose_einstein_sample,
    cost_profile,
    run_estimate,
    simulate_kernel,
)

from oracles import AlphabetError, class_of, run_one, sample_uniform_class, state_index, step


# ---------------------------------------------------------------------------
# Bose-Einstein scheme
# ---------------------------------------------------------------------------

def _placement_distribution(n, k):
    # exact oracle: walk the sequential placement tree
    dist = Counter()

    def recurse(occ, t, prob):
        if t == n:
            dist[tuple(occ)] += prob
            return
        total = t + k
        for b in range(k):
            occ[b] += 1
            recurse(occ, t + 1, prob * (occ[b] - 1 + 1) / total)
            occ[b] -= 1

    recurse([0] * k, 0, 1.0)
    return dist


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (5, 2), (4, 4), (5, 5)])
def test_bose_einstein_scheme_is_exactly_uniform(n, k):
    dist = _placement_distribution(n, k)
    expected = 1.0 / math.comb(n + k - 1, k - 1)
    assert len(dist) == math.comb(n + k - 1, k - 1)
    for p in dist.values():
        assert p == pytest.approx(expected, abs=1e-12)


def test_bose_einstein_sampler_edge_cases():
    rng = np.random.default_rng(0)
    assert list(bose_einstein_sample(0, 3, rng)) == [0, 0, 0]
    assert list(bose_einstein_sample(3, 1, rng)) == [3]
    with pytest.raises(ValueError):
        bose_einstein_sample(2, 0, rng)


def test_bose_einstein_sampler_marginal():
    # occupancy of box 1 for (n,k)=(3,2): uniform over (0,1,2,3) -> mean 1.5
    rng = np.random.default_rng(42)
    draws = np.array([bose_einstein_sample(3, 2, rng)[0] for _ in range(20000)])
    counts = np.bincount(draws, minlength=4)
    res = sps.chisquare(counts)
    assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# uniform class sampling
# ---------------------------------------------------------------------------

def test_bose_einstein_marginal_large_statistical():
    # occupancy of box 1 for (n,k): P(j) = C(n-j+k-2, k-2)/C(n+k-1, k-1)
    n, k = 50, 3
    rng = np.random.default_rng(17)
    draws = np.array([bose_einstein_sample(n, k, rng)[0] for _ in range(20000)])
    counts = np.bincount(draws, minlength=n + 1)
    probs = np.array([math.comb(n - j + k - 2, k - 2) for j in range(n + 1)],
                     dtype=float) / math.comb(n + k - 1, k - 1)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs * len(draws) >= 5).all()  # every bin is chi-square safe
    res = sps.chisquare(counts, f_exp=probs * len(draws))
    assert res.pvalue > 0.001


def test_sample_uniform_class_singleton():
    spec = ising(2, beta=1.0)
    rng = np.random.default_rng(1)
    x = sample_uniform_class(spec, EnergyClass(2, None, 1), rng)
    assert list(x) == [1, 1]
    w = warmup(5, theta=2.0)
    assert sample_uniform_class(w, EnergyClass(3, None, -1), rng) == -3


@pytest.mark.parametrize("method", ["direct", "sequential"])
def test_sample_uniform_class_ising_uniformity(method):
    # class (2,+) at N=6: 15 states
    spec = ising(6, beta=1.0)
    rng = np.random.default_rng(7)
    c = EnergyClass(2, None, 1)
    counts = Counter()
    T = 30000
    for _ in range(T):
        x = sample_uniform_class(spec, c, rng, method=method)
        assert x.sum() == 2
        counts[tuple(int(v) for v in x)] += 1
    assert len(counts) == 15
    res = sps.chisquare(np.array(list(counts.values())))
    assert res.pvalue > 0.001


def test_sample_uniform_class_beg_uniformity():
    # class (1, 3, -): states with S=-1, R=3 at N=4: C(4,3)*C(3,1) = 12
    spec = beg(4, beta=1.0, K=1.0)
    rng = np.random.default_rng(11)
    c = EnergyClass(1, 3, -1)
    counts = Counter()
    for _ in range(24000):
        x = sample_uniform_class(spec, c, rng)
        assert x.sum() == -1 and np.count_nonzero(x) == 3
        counts[tuple(int(v) for v in x)] += 1
    assert len(counts) == 12
    res = sps.chisquare(np.array(list(counts.values())))
    assert res.pvalue > 0.001
    with pytest.raises(ValueError):
        sample_uniform_class(spec, c, rng, method="sequential")


@pytest.mark.parametrize("N,S,R", [
    (7, 7, None), (7, -7, None), (7, 1, None), (8, 0, None),
    (6, 0, 0), (6, 6, 6), (6, -6, 6), (6, 1, 3), (6, 0, 4),
], ids=lambda v: "ising" if v is None else str(v))
def test_orbit_draw_lands_in_its_class(N, S, R):
    # the edge classes too: all plus, all minus, all zero, no zero
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = _orbit_draw(N, S, R, rng)
        assert x.dtype == np.int8 and x.shape == (N,)
        assert int(x.sum()) == S
        assert np.count_nonzero(x) == (N if R is None else R)
        assert set(x.tolist()) <= ({-1, 1} if R is None else {-1, 0, 1})


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_beta_zero_accepts_everything():
    spec = ising(10, beta=0.0)
    rng = np.random.default_rng(3)
    sampler = Sampler(spec, "naive", rng)
    for _ in range(500):
        sampler.run(1)
    assert sampler.cost.flip_accepted == sampler.cost.flip_proposed == 500


def test_equi_energy_components_never_rejected():
    spec = ising(12, beta=2.5, p1=0.4, p2=0.3)
    rng = np.random.default_rng(4)
    sampler = Sampler(spec, "equi-energy", rng)
    for _ in range(3000):
        sampler.run(1)
    c = sampler.cost
    assert c.orbit_accepted == c.orbit_proposed > 0
    assert c.global_accepted == c.global_proposed > 0
    assert c.flip_accepted < c.flip_proposed  # rejections do happen at beta=2.5


def test_orbit_jump_stays_in_class():
    spec = beg(10, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    rng = np.random.default_rng(5)
    sampler = Sampler(spec, "equi-energy", rng)
    for _ in range(2000):
        before = (sampler.S, sampler.R)
        if run_one(sampler) == "orbit":
            assert (sampler.S, sampler.R) == before
        # statistics stay consistent with the configuration
    assert sampler.S == int(sampler.x.sum())
    assert sampler.R == int(np.count_nonzero(sampler.x))


def test_one_step_frequencies_match_kernel_row():
    spec = ising(4, beta=1.0, p1=0.5, p2=0.25)
    M = metropolis_chain(spec, "equi-energy").to_kernel()
    x0 = np.array([1, 1, -1, 1], dtype=np.int8)
    row = M.P[state_index(spec, x0)]
    rng = np.random.default_rng(6)
    T = 200_000
    counts = np.zeros(M.n)
    for _ in range(T):
        y, _ = step(spec, "equi-energy", x0, rng)
        counts[state_index(spec, y)] += 1
    freq = counts / T
    sigma = np.sqrt(row * (1 - row) / T)
    assert np.all(np.abs(freq - row) <= 4 * sigma + 1e-9)


def test_warmup_small_world_stationarity():
    # long trajectory histogram vs exact stationary distribution
    spec = warmup(4, theta=2.0, epsilon=0.3)
    M = metropolis_chain(spec, "small-world").to_kernel()
    rng = np.random.default_rng(8)
    sampler = Sampler(spec, "small-world", rng)
    T, thin = 300_000, 10  # thin to keep the chi-square calibration honest
    counts = Counter()
    for t in range(T):
        sampler.run(1)
        if t % thin == 0:
            counts[sampler.x] += 1
    kept = sum(counts.values())
    pi = M.stationary()
    obs = np.array([counts.get(x, 0) for x in range(-4, 5)])
    res = sps.chisquare(obs, f_exp=pi * kept)
    assert res.pvalue > 0.001


def test_empirical_class_histogram_matches_table():
    # stationary histogram over signed classes vs exact class weights
    spec = ising(6, beta=1.5, p1=0.5, p2=0.25)
    table = class_table(spec)
    rng = np.random.default_rng(9)
    sampler = Sampler(spec, "equi-energy", rng)
    T, thin, burn = 400_000, 10, 20_000
    counts = Counter()
    for t in range(T):
        sampler.run(1)
        if t >= burn and t % thin == 0:
            counts[class_of(spec, sampler.x)] += 1
    n_kept = sum(counts.values())
    probs = table.probabilities()
    obs = np.array([counts.get(c, 0) for c in table.classes])
    exp = probs * n_kept
    res = sps.chisquare(obs, f_exp=exp)
    assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# run_estimate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps,burn_in,thinning", [
    (1, None, 1), (10, 9, 1), (10, 3, 4), (10, 2, 4), (1000, None, 7), (12345, 0, 100)])
def test_retained_samples_are_counted_without_a_range(steps, burn_in, thinning):
    cfg = RunConfig(steps=steps, seed=0, burn_in=burn_in, thinning=thinning)
    assert cfg.retained == len(range(cfg.effective_burn_in, steps, thinning))


def test_run_estimate_constant_observable():
    spec = ising(8, beta=1.0, p1=0.5, p2=0.25)
    cfg = RunConfig(steps=5000, seed=1, observable="const")
    stats = run_estimate(spec, "equi-energy", cfg)
    assert stats.estimate == 1.0
    assert stats.batch_means_avar == 0.0


def test_run_estimate_symmetric_mean_zero():
    spec = ising(20, beta=2.0, p1=0.5, p2=0.25)
    cfg = RunConfig(steps=100_000, seed=2, observable="mag")
    stats = run_estimate(spec, "equi-energy", cfg)
    se = math.sqrt(stats.batch_means_avar / stats.n_samples)
    assert abs(stats.estimate) <= 4 * se


def test_run_estimate_matches_exact_expectation():
    # |S|/N expectation from the exact class table
    spec = ising(10, beta=2.0, p1=0.5, p2=0.25)
    table = class_table(spec)
    exact = sum(p * c.s / spec.N for p, c in zip(table.probabilities(), table.classes))
    cfg = RunConfig(steps=200_000, seed=3, observable="abs_mag")
    stats = run_estimate(spec, "equi-energy", cfg)
    se = math.sqrt(stats.batch_means_avar / stats.n_samples)
    assert abs(stats.estimate - exact) <= 4 * se


def test_run_estimate_deterministic():
    spec = beg(12, beta=1.0, K=1.0, p1=0.5, p2=0.25)
    cfg = RunConfig(steps=20_000, seed=11, observable="quad")
    s1 = run_estimate(spec, "equi-energy", cfg)
    s2 = run_estimate(spec, "equi-energy", cfg)
    assert s1 == s2  # dataclass equality: bit-for-bit identical fields
    assert s1.to_dict() == s2.to_dict()


def test_untraced_run_keeps_one_float_per_retained_sample():
    spec = ising(20, beta=0.5, p1=0.5, p2=0.25)

    def peak(steps):
        tracemalloc.start()
        try:
            stats = run_estimate(spec, "equi-energy", RunConfig(steps=steps, seed=3))
            return stats.n_samples, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (n_small, small), (n_large, large) = peak(10_000), peak(50_000)
    assert n_large - n_small == 36_000
    # 8 bytes per sample in a preallocated array; a list of floats takes 32
    assert large - small < 12 * 36_000


def test_run_estimate_rejects_bad_observable():
    spec = ising(8, beta=1.0)
    with pytest.raises(ValueError):
        run_estimate(spec, "naive", RunConfig(steps=100, seed=0, observable="quad"))
    with pytest.raises(ValueError):
        RunConfig(steps=100, seed=0, observable="nope")
    with pytest.raises(ValueError):
        RunConfig(steps=100, seed=0, burn_in=100)


# ---------------------------------------------------------------------------
# batch means
# ---------------------------------------------------------------------------

def test_batch_means_iid():
    rng = np.random.default_rng(12)
    trace = np.where(rng.random(100_000) < 0.5, -1.0, 1.0)
    assert batch_means_avar(trace) == pytest.approx(1.0, rel=0.1)


def test_batch_means_constant_and_short():
    assert batch_means_avar(np.ones(2000)) == 0.0
    with pytest.raises(ValueError):
        batch_means_avar(np.ones(999))


def test_batch_means_matches_spectral_on_two_state():
    # q = 0.25 flip chain, f = +-1: spectral AVar = 3.0
    P = np.array([[0.75, 0.25], [0.25, 0.75]])
    rng = np.random.default_rng(13)
    traj = simulate_kernel(P, 1_000_000, rng)
    f = np.where(traj == 0, 1.0, -1.0)
    est = batch_means_avar(f)
    a = math.isqrt(len(f))
    se = 3.0 * math.sqrt(2.0 / a)
    assert abs(est - 3.0) <= 4 * se


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def test_cost_profile_component_frequencies():
    spec = ising(16, beta=1.0, p1=0.5, p2=0.25)
    cfg = RunConfig(steps=100_000, seed=14, observable="mag")
    stats = run_estimate(spec, "equi-energy", cfg)
    prof = cost_profile(stats)
    freq = prof.component_frequency
    for comp, expected in (("flip", 0.5), ("global", 0.25), ("orbit", 0.25)):
        sigma = math.sqrt(expected * (1 - expected) / cfg.steps)
        # global/orbit split shifts when S=0 is visited; allow that drift
        slack = 6 * sigma + (0.02 if comp != "flip" else 0.0)
        assert abs(freq[comp] - expected) <= slack


def test_cost_profile_naive_is_linear_in_N():
    spec = ising(32, beta=1.0)
    cfg = RunConfig(steps=5000, seed=15, observable="mag")
    stats = run_estimate(spec, "naive", cfg)
    prof = cost_profile(stats)
    assert prof.mean_ops_per_step == spec.N  # every step is one flip scan
    assert prof.ops_per_step_over_N == 1.0


def test_scaled_parameters_keep_cost_linear():
    # with p1 = 1 - a/N and p2 = a/(2N) the mean per-step cost stays O(N):
    # the cost/(N * step) ratio varies by <= 25% across N even under the
    # sequential (quadratic per orbit draw) billing of the direct draws
    from spingap.verify import scaled_params_consistent

    ratios = []
    for N in (50, 100, 200):
        sp = scaled_params_consistent(1.0, N)
        spec = ising(N, beta=1.0, p1=sp.p1, p2=sp.p2)
        cfg = RunConfig(steps=40_000, seed=18, observable="mag")
        stats = run_estimate(spec, "equi-energy", cfg)
        ratios.append(stats.cost.ops_sequential / cfg.steps / N)
    assert max(ratios) / min(ratios) <= 1.25


def test_sequential_orbit_draw_costs_quadratically():
    spec = ising(16, beta=1.0, p1=0.5, p2=0.25)
    cfg = RunConfig(steps=20_000, seed=16, observable="mag")
    stats = run_estimate(spec, "equi-energy", cfg)
    prof = cost_profile(stats)
    # the sequential billing exceeds the direct billing whenever orbit
    # draws happen: n (N - n + 1) > N for 1 < n < N
    assert prof.mean_ops_sequential_per_step > prof.mean_ops_per_step
    assert prof.mean_ops_per_step <= spec.N


# ---------------------------------------------------------------------------
# The one-frame loop against the per-method sampler it replaced
# ---------------------------------------------------------------------------

class ReferenceSampler:
    """The sampler as it stepped before ``Sampler.run``: one method per move
    component, the statistics and cost counters on the instance."""

    def __init__(self, spec, kind, rng, x0=None):
        self.spec, self.kind, self.rng = spec, kind, rng
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

    def observable(self, tag):
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

    def class_label(self):
        s = abs(self.S)
        sign = 0 if s == 0 else (1 if self.S > 0 else -1)
        if self.spec.kind == "beg":
            return EnergyClass(s, self.R, sign)
        return EnergyClass(s, None, sign)

    def _accept(self, delta_log):
        return delta_log >= 0.0 or self.rng.random() < math.exp(delta_log)

    def _step_warmup(self):
        spec, rng, cost = self.spec, self.rng, self.cost
        eps = spec.epsilon if self.kind == "small-world" else 0.0
        cost.ops += 1
        cost.ops_sequential += 1
        if self.kind == "small-world" and rng.random() < eps:
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

    def _flip_ising(self):
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

    def _flip_beg(self):
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

    def _bill_flip(self, accepted):
        cost, N = self.cost, self.spec.N
        cost.flip_proposed += 1
        cost.flip_accepted += accepted
        cost.ops += N
        cost.ops_sequential += N

    def _orbit_jump(self):
        spec = self.spec
        N = spec.N
        self.x = sample_uniform_class(spec, self.class_label(), self.rng)
        self.cost.orbit_proposed += 1
        self.cost.orbit_accepted += 1
        if spec.kind == "ising":
            n_balls = (N + abs(self.S)) // 2
            seq = n_balls * (N - n_balls + 1)
        else:
            seq = N
        self.cost.ops += N
        self.cost.ops_sequential += seq
        return "orbit"

    def _global_flip(self):
        np.negative(self.x, out=self.x)
        self.S = -self.S
        cost, N = self.cost, self.spec.N
        cost.global_proposed += 1
        cost.global_accepted += 1
        cost.ops += N
        cost.ops_sequential += N
        return "global"

    def step(self):
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


def reference_run_estimate(spec, kind, cfg, trace_sink=None):
    """run_estimate as it drove ReferenceSampler, one step() call per step."""
    rng = np.random.default_rng(cfg.seed)
    sampler = ReferenceSampler(spec, kind, rng)
    sampler.observable(cfg.observable)
    burn = cfg.effective_burn_in
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
        acc[comp] = {"proposed": proposed, "accepted": accepted,
                     "rate": accepted / proposed if proposed else None}
    return RunStats(
        kind=kind, N=spec.N, steps=cfg.steps, burn_in=burn, thinning=cfg.thinning,
        seed=cfg.seed, observable=cfg.observable, n_samples=len(trace),
        estimate=estimate, batch_means_avar=avar, batch_count=bcount,
        batch_size=bsize, acceptance=acc, cost=sampler.cost,
    )


#: (spec, kind) for every chain a sampler runs; small N so that S = 0 (where
#: the global flip turns into an orbit jump) and both ends of warm-up occur
SAMPLER_CHAINS = [
    (ising(8, beta=1.3, p1=0.4, p2=0.3), "naive"),
    (ising(8, beta=1.3, p1=0.4, p2=0.3), "equi-energy"),
    (beg(6, beta=1.0, K=1.5, p1=0.5, p2=0.25), "naive"),
    (beg(6, beta=1.0, K=1.5, p1=0.5, p2=0.25), "equi-energy"),
    (warmup(5, theta=1.7, epsilon=0.2), "naive"),
    (warmup(5, theta=1.7, epsilon=0.2), "small-world"),
]


def _recorded(run, spec, kind, cfg):
    """(RunStats or the raised error, the trace-sink calls) of one run."""
    calls = []
    try:
        stats = run(spec, kind, cfg, trace_sink=lambda *a: calls.append(a))
    except ValueError as e:
        stats = (type(e), str(e))
    return stats, calls


@pytest.mark.parametrize("spec,kind", SAMPLER_CHAINS,
                         ids=[f"{s.kind}-{k}" for s, k in SAMPLER_CHAINS])
def test_run_estimate_matches_per_method_reference(spec, kind):
    observables = [o for o in OBSERVABLES if o != "quad" or spec.kind == "beg"]
    for observable in observables:
        for burn_in in (0, None):
            for thinning in (1, 7):
                cfg = RunConfig(steps=1500, seed=len(observable) + thinning,
                                burn_in=burn_in, thinning=thinning, observable=observable)
                got = _recorded(run_estimate, spec, kind, cfg)
                want = _recorded(reference_run_estimate, spec, kind, cfg)
                assert got == want, (observable, burn_in, thinning)
                # the sink calls carry plain ints and floats, as before
                assert [tuple(map(type, c[1])) for c in got[1]] == \
                    [tuple(map(type, c[1])) for c in want[1]]
    # and without a sink: the same statistics
    cfg = RunConfig(steps=1500, seed=5, observable="mag")
    assert run_estimate(spec, kind, cfg) == reference_run_estimate(spec, kind, cfg)


@pytest.mark.parametrize("spec,kind", SAMPLER_CHAINS,
                         ids=[f"{s.kind}-{k}" for s, k in SAMPLER_CHAINS])
def test_step_matches_per_method_reference(spec, kind):
    for seed in (1, 2):
        sampler = Sampler(spec, kind, np.random.default_rng(seed))
        reference = ReferenceSampler(spec, kind, np.random.default_rng(seed))
        for _ in range(600):
            assert run_one(sampler) == reference.step()
            assert (sampler.S, sampler.R) == (reference.S, reference.R)
        assert np.array_equal(sampler.x, reference.x)
        assert sampler.cost == reference.cost
    # the module-level step, one fresh sampler per call on one generator each
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    x = ref_x = Sampler(spec, kind, np.random.default_rng(4)).x
    for _ in range(300):
        x, component = step(spec, kind, x, rng)
        ref = ReferenceSampler(spec, kind, ref_rng, x0=ref_x)
        assert component == ref.step()
        ref_x = ref.x
        assert np.array_equal(x, ref_x)


@pytest.mark.parametrize("spec,x0", [
    (ising(4, beta=1.0), [1, 0, 1, 1]),
    (beg(4, beta=1.0, K=1.0), [1, 2, 1]),
    (warmup(3, theta=2.0), 7),
    # a non-integer warm-up start is refused, not truncated to an integer
    (warmup(3, theta=2.0), 2.5),
    (warmup(3, theta=2.0), -0.5),
    (warmup(3, theta=2.0), np.float64(1.25)),
    (warmup(3, theta=2.0), float("nan")),
])
def test_sampler_refuses_an_invalid_start(spec, x0):
    with pytest.raises(AlphabetError):
        step(spec, "naive", x0, np.random.default_rng(0))


@pytest.mark.parametrize("spec", [ising(4, beta=1e308), beg(4, beta=1e308, K=1.0),
                                  beg(4, beta=1.0, K=1e308)])
def test_a_sampler_refuses_log_weights_that_overflow_before_its_first_draw(spec):
    # the ising run used to exit 0 with an estimate after 100 steps
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="log weights .* not all finite"):
        Sampler(spec, "naive", rng)
    assert rng.random() == np.random.default_rng(0).random()
