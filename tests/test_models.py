import math
import os
import warnings
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spingap import models
from spingap.models import (
    EnergyClass,
    OddSizeError,
    beg,
    class_table,
    enumerate_beg_classes,
    enumerate_states,
    ising,
    warmup,
)

from oracles import (
    AlphabetError,
    beg_row_log_profile_by_rows,
    beg_row_log_weights,
    class_log_cardinality,
    class_log_state_weight,
    class_of,
    log_binom,
    log_weight,
    magnetization,
    quadrupole,
    signed_class_keys,
    state_index,
)


def test_spec_validation():
    with pytest.raises(OddSizeError):
        ising(5, beta=1.0)
    with pytest.raises(OddSizeError):
        beg(7, beta=1.0, K=1.0)
    with pytest.raises(ValueError):
        warmup(4, theta=1.0)
    with pytest.raises(ValueError):
        ising(4, beta=1.0, p1=0.8, p2=0.3)
    with pytest.raises(ValueError):
        ising(4, beta=1.0, p1=0.5, p2=None)
    with pytest.raises(ValueError):
        beg(4, beta=1.0, K=-2.0)
    with pytest.raises(ValueError):
        warmup(4, theta=2.0, epsilon=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_refuses_a_non_finite_parameter(value):
    # nan fails no comparison and inf passes beta >= 0, K > 0 and theta > 1
    for make, message in ((lambda: ising(4, beta=value), "beta must be a nonnegative real"),
                          (lambda: beg(4, beta=value, K=1.0), "beta must be a nonnegative real"),
                          (lambda: beg(4, beta=1.0, K=value), "K must be a positive real"),
                          (lambda: warmup(4, theta=value), f"theta must be > 1, got {value}")):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profiles_refuse_a_non_finite_parameter(value):
    for profile, message in (
            (lambda: models.ising_magnetization_log_profile(4, value),
             f"beta must be a finite real, got {value}"),
            (lambda: models.beg_row_log_profile(4, value, 1.0),
             f"beta and K must be finite reals, got {value}, 1.0"),
            (lambda: models.beg_row_log_profile(4, 1.0, value),
             f"beta and K must be finite reals, got 1.0, {value}")):
        with pytest.raises(ValueError) as refused:
            profile()
        assert str(refused.value) == message


def test_profiles_refuse_log_weights_that_overflow():
    # finite parameters whose profile values overflow: each used to return inf or nan
    for profile in (lambda: models.ising_magnetization_log_profile(10, 1e308),
                    lambda: models.beg_row_log_profile(5, 1e308, 1.0),
                    lambda: models.beg_row_log_profile(4, 1.0, 1e308)):
        with pytest.raises(ValueError, match="log weights .* not all finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            profile()


def test_magnetization():
    assert magnetization([1, 1, -1, -1]) == 0
    assert magnetization([1, 1, 1, 1]) == 4
    assert magnetization([1, 0, -1, 1]) == 1
    assert magnetization(-3) == -3


def test_quadrupole():
    m = beg(4, beta=1.0, K=1.0)
    assert quadrupole(m, [1, 0, -1, 1]) == 3
    assert quadrupole(m, [0, 0, 0, 0]) == 0
    assert quadrupole(m, [-1, -1, -1, -1]) == 4
    with pytest.raises(ValueError):
        quadrupole(ising(4, beta=1.0), [1, 1, -1, -1])


def test_log_weight_values():
    m = ising(4, beta=1.0)
    assert log_weight(m, [1, 1, -1, -1]) == 0.0
    # S = 4: beta * 16 / (2*4) = 2.0
    assert log_weight(m, [1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-15)
    b = beg(4, beta=1.0, K=1.0)
    # S = 0, R = 2: -beta*R + K*beta*S^2/N = -2
    assert log_weight(b, [1, -1, 0, 0]) == pytest.approx(-2.0, abs=1e-15)
    with pytest.raises(AlphabetError):
        log_weight(m, [1, 0, -1, 1])
    with pytest.raises(AlphabetError):
        log_weight(b, [2, 0, 0, 0])


def test_log_weight_vs_exhaustive_enumeration():
    # oracle: evaluate the exponent directly on every enumerated state
    b = beg(4, beta=1.3, K=0.7)
    states = enumerate_states(b)
    for x in states:
        s = int(x.sum())
        r = int(np.count_nonzero(x))
        expected = -b.beta * r + b.K * b.beta * s * s / b.N
        assert log_weight(b, x) == pytest.approx(expected, abs=1e-14)


def test_class_of():
    m = ising(4, beta=1.0)
    assert class_of(m, [1, -1, 1, 1]) == EnergyClass(2, None, 1)
    b = beg(4, beta=1.0, K=1.0)
    assert class_of(b, [-1, -1, 0, 0]) == EnergyClass(2, 2, -1)
    w = warmup(5, theta=2.0)
    assert class_of(w, -3) == EnergyClass(3, None, -1)


def _orbit_key(x):
    # multiset of spins up to global sign: the S_N x {+1,-1} orbit invariant
    a = tuple(sorted(x))
    b = tuple(sorted(-v for v in x))
    return min(a, b)


@pytest.mark.parametrize("spec", [ising(6, beta=0.8), beg(4, beta=1.1, K=0.9)])
def test_class_equals_orbit(spec):
    # two states share a class label iff one lies in the other's orbit
    states = enumerate_states(spec)
    by_class = {}
    by_orbit = {}
    for x in states:
        by_class.setdefault(class_of(spec, x), set()).add(tuple(x))
        by_orbit.setdefault(_orbit_key(x), set()).add(tuple(x))
    unsigned = {}
    for c, members in by_class.items():
        unsigned.setdefault((c.s, c.r), set()).update(members)
    assert set(map(frozenset, unsigned.values())) == set(map(frozenset, by_orbit.values()))


@pytest.mark.parametrize("spec", [ising(8, beta=1.7), beg(6, beta=0.6, K=2.0)])
def test_log_weight_constant_on_classes(spec):
    states = enumerate_states(spec)
    seen = {}
    for x in states:
        c = class_of(spec, x)
        lw = log_weight(spec, x)
        if c in seen:
            assert lw == seen[c]  # integer statistics: exactly equal
        else:
            seen[c] = lw


def test_enumerate_beg_classes():
    assert enumerate_beg_classes(2) == [(0, 0), (1, 1), (0, 2), (2, 2)]
    pairs4 = enumerate_beg_classes(4)
    assert len(pairs4) == 9
    assert (2, 4) in pairs4 and (0, 4) in pairs4
    with pytest.raises(OddSizeError):
        enumerate_beg_classes(5)
    # brute-force oracle: collect distinct (|S|, R) over all states
    spec = beg(4, beta=1.0, K=1.0)
    states = enumerate_states(spec)
    found = sorted(
        {(abs(int(x.sum())), int(np.count_nonzero(x))) for x in states},
        key=lambda t: (t[1], t[0]),
    )
    assert found == pairs4


@pytest.mark.parametrize("spec", [
    *(warmup(N, theta=2.0) for N in (1, 2, 5)),
    *(ising(N, beta=1.0) for N in (2, 4, 6, 8, 10)),
    *(beg(N, beta=1.0, K=1.0) for N in (2, 4, 6)),
])
def test_the_signed_class_order_matches_brute_force(spec):
    s, r = models.signed_class_order(spec)
    classes = s.tolist() if r is None else list(zip(s.tolist(), r.tolist()))
    keys = signed_class_keys(spec)
    # every state's (S, R) once, by S ascending, for beg by R and then S
    assert classes == sorted(set(keys), key=lambda k: k[::-1] if spec.kind == "beg" else k)
    assert len(classes) == models.state_count(spec, "signed")
    assert models.signed_class_position(spec, s, r).tolist() == list(range(len(classes)))
    # each state's class sits where the position formula puts it
    states = enumerate_states(spec)
    S = states if spec.kind == "warmup" else states.sum(axis=1)
    R = np.count_nonzero(states, axis=1) if spec.kind == "beg" else None
    assert models.signed_class_position(spec, S, R).tolist() == [classes.index(k) for k in keys]
    # the mirror of class (S, R) is (-S, R)
    mirror = models.signed_class_position(spec, -s, r)
    assert [classes[i] for i in mirror] == [
        -k if r is None else (-k[0], k[1]) for k in classes]


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
def test_beg_class_count_closed_form(N):
    count = sum(r // 2 + 1 for r in range(0, N + 1, 2)) + sum(
        (r + 1) // 2 for r in range(1, N + 1, 2)
    )
    assert len(enumerate_beg_classes(N)) == count


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10])
def test_ising_cardinalities_vs_enumeration(N):
    spec = ising(N, beta=1.0)
    table = class_table(spec)
    states = enumerate_states(spec)
    counts = Counter(class_of(spec, x) for x in states)
    for c, logcard in zip(table.classes, table.log_cardinality):
        assert math.exp(logcard) == pytest.approx(counts[c], rel=1e-12)
    # spot check the printed binomial: |X_2^+| = C(4,1) = 4
    t4 = class_table(ising(4, beta=1.0))
    i2 = t4.classes.index(EnergyClass(2, None, 1))
    assert math.exp(t4.log_cardinality[i2]) == pytest.approx(4.0)


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_beg_cardinalities_vs_enumeration(N):
    spec = beg(N, beta=0.9, K=1.4)
    table = class_table(spec)
    states = enumerate_states(spec)
    counts = Counter(class_of(spec, x) for x in states)
    assert set(counts) == set(table.classes)
    for c, logcard in zip(table.classes, table.log_cardinality):
        assert math.exp(logcard) == pytest.approx(counts[c], rel=1e-12)


def test_class_table_normalization_and_partition():
    for spec in (ising(12, beta=2.0), beg(8, beta=1.5, K=3.0), warmup(30, theta=2.0)):
        table = class_table(spec)
        probs = table.probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(table.log_class_weight == table.log_cardinality + table.log_state_weight)


@pytest.mark.parametrize("spec", [
    *(warmup(N, theta=theta) for N in (1, 7, 500) for theta in (1.5, 2.0, 3.7)),
    *(ising(N, beta=beta) for N in (2, 10, 60, 62, 1000) for beta in (0.3, 1.0, 2.7)),
    *(beg(N, beta=beta, K=K) for N in (2, 8, 58, 64, 150)
      for beta, K in ((0.3, 0.7), (1.0, 1.0), (2.5, 1.082))),
])
def test_class_table_matches_the_per_class_formulas_bit_for_bit(spec):
    table = class_table(spec)
    assert table.log_cardinality.tolist() == [
        class_log_cardinality(spec, c) for c in table.classes]
    assert table.log_state_weight.tolist() == [
        class_log_state_weight(spec, c) for c in table.classes]


@pytest.mark.parametrize("spec", [warmup(7, theta=2.0), ising(12, beta=1.0),
                                  beg(12, beta=1.0, K=1.0)])
def test_the_class_count_is_the_class_table_length(monkeypatch, spec):
    n = models.state_count(spec, "signed")
    monkeypatch.setattr(models, "MAX_CLASSES", n)
    assert len(class_table(spec)) == n
    monkeypatch.setattr(models, "MAX_CLASSES", n - 1)
    with pytest.raises(ValueError) as refused:
        models.check_class_count(spec)
    assert str(refused.value) == f"{n} classes exceed the limit {n - 1}"


@pytest.mark.parametrize("profile", [
    lambda N: models.ising_magnetization_log_profile(N, 1.0),
    lambda N: models.beg_row_log_profile(N, 1.0, 1.0),
], ids=["ising", "beg"])
@pytest.mark.parametrize("N", [0, -2, -3])
def test_profiles_refuse_n_below_1(profile, N):
    with pytest.raises(ValueError) as refused:
        profile(N)
    assert str(refused.value) == f"N must be positive, got {N}"


def test_class_table_matches_brute_force_partition():
    spec = ising(4, beta=1.0)
    table = class_table(spec)
    # enumerate all 16 states and lump
    lws = models.log_weights_all(spec)
    assert table.log_partition == pytest.approx(logsumexp(lws), abs=1e-12)
    # class X_0 has 6 states of weight 1 -> class weight 6
    i0 = table.classes.index(EnergyClass(0, None, 0))
    assert math.exp(table.log_class_weight[i0]) == pytest.approx(6.0, rel=1e-12)


def test_warmup_table_and_states():
    spec = warmup(6, theta=2.0)
    table = class_table(spec)
    assert len(table) == 2 * spec.N + 1
    states = enumerate_states(spec)
    assert states[0] == -6 and states[-1] == 6
    # singleton classes: exact geometric weights
    iplus = table.classes.index(EnergyClass(4, None, 1))
    assert table.log_class_weight[iplus] == pytest.approx(4 * math.log(2.0), abs=1e-14)


def test_state_index_roundtrip():
    for spec in (ising(6, beta=1.0), beg(4, beta=1.0, K=1.0), warmup(5, theta=1.5)):
        states = enumerate_states(spec)
        for i in np.linspace(0, len(states) - 1, 17).astype(int):
            assert state_index(spec, states[i]) == i


@pytest.mark.parametrize("N", [2, 4, 8, 14, 20])
def test_beg_row_profile_matches_table(N):
    # closed-form row profile vs summing the signed class table over s
    spec = beg(N, beta=1.2, K=0.8)
    table = class_table(spec)
    direct = models.beg_row_log_profile(N, spec.beta, spec.K)
    from_table = beg_row_log_weights(table)
    assert np.allclose(direct, from_table, rtol=1e-12, atol=1e-12)


def test_beg_row_profile_odd_N_runs():
    # the closed form stays meaningful at odd N (table route requires even)
    prof = models.beg_row_log_profile(15, beta=1.0, K=1.0)
    assert prof.shape == (16,)
    assert np.isfinite(prof).all()


def test_log_binom_exact_and_lgamma_agree():
    for n in (40, 60, 61, 200):
        for k in (0, 1, n // 3, n // 2, n):
            exact = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            assert log_binom(n, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)
    assert log_binom(5, 7) == -math.inf


def _bits(x):
    return np.float64(x).view(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=300),
       st.integers(0, 4), st.booleans())
def test_logsumexp_matches_scipy_bit_for_bit(values, ties, with_neg_inf):
    a = np.array(values)
    a[: min(ties, len(a))] = a.max()  # several maxima: they are set aside together
    if with_neg_inf:
        a[-1] = -np.inf
    got = models.logsumexp(a)
    assert isinstance(got, np.float64)
    assert _bits(got) == _bits(logsumexp(a))


@pytest.mark.parametrize("a", [[], [-np.inf], [-np.inf, -np.inf], [np.inf, 1.0], [5.0],
                               [0.0, -2.0, -3.0], [1e300, 1e300], [-745.0, -746.0]])
def test_logsumexp_edge_cases_match_scipy(a):
    assert _bits(models.logsumexp(a)) == _bits(logsumexp(a))


def test_cli_import_skips_scipy_special(tmp_path):
    # the solvers import scipy when they first run: importing the CLI and
    # sampling through it loads none of scipy.special, .linalg or .sparse
    code = (
        "import sys, spingap.cli\n"
        "wanted = ('scipy.special', 'scipy.linalg', 'scipy.sparse')\n"
        "print([m for m in wanted if m in sys.modules])\n"
        "for argv in (['--model', 'beg', '--n', '10', '--beta', '1', '--k', '1', '--trace'],\n"
        "             ['--model', 'ising', '--kind', 'naive', '--n', '10', '--beta', '1'],\n"
        "             ['--model', 'warmup', '--n', '10', '--theta', '2', '--epsilon', '0.3']):\n"
        "    assert spingap.cli.main(['simulate', *argv, '--steps', '2000', '--out', sys.argv[1]]) == 0\n"
        "print([m for m in wanted if m in sys.modules])\n"
    )
    src = str(Path(models.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]
    assert (tmp_path / "trace.csv").is_file()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 70), st.integers(70, 1100)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-2, n + 2))), min_size=1, max_size=40))
def test_log_binom_array_matches_scalar_bit_for_bit(pairs):
    n, k = np.array(pairs).T
    want = [log_binom(a, b) for a, b in pairs]
    assert models.log_binom_array(n, k).tolist() == want



def run_recording_warnings(profile, *args):
    """(the profile or its refusal, each distinct warning message in order of appearance)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = profile(*args).view(np.int64).tolist()
        except ValueError as err:
            out = str(err)
    return out, list(dict.fromkeys(str(w.message) for w in caught))


@pytest.mark.parametrize("N", [1, 2, 3, 6, 10, 30, 31, 61, 80, 150])
def test_beg_row_profile_equals_its_row_by_row_reference_bit_for_bit(N):
    for beta, K in ((0.0, 1.0), (0.3, 0.1), (1.0, 1.0), (2.5, 1.082), (3.0, 5.0), (40.0, 0.7)):
        assert (run_recording_warnings(models.beg_row_log_profile, N, beta, K)
                == run_recording_warnings(beg_row_log_profile_by_rows, N, beta, K))


@pytest.mark.parametrize("N,beta,K", [(5, 1e308, 1.0), (4, 1.0, 1e308), (6, 1e308, 1e308),
                                      (60, 1e200, 1e200), (60, 1e307, 0.5)])
def test_beg_row_profile_overflows_with_the_warnings_of_its_reference(N, beta, K):
    got = run_recording_warnings(models.beg_row_log_profile, N, beta, K)
    assert got == run_recording_warnings(beg_row_log_profile_by_rows, N, beta, K)
    assert "not all finite" in got[0]


def test_log_binom_array_reads_one_lgamma_table_in_any_call_order(monkeypatch):
    monkeypatch.setattr(models, "_log_factorials", np.zeros(1))
    for n in (61, 1100, 70, 3000, 62):
        k = np.arange(-1, n + 2)
        assert models.log_binom_array(n, k).tolist() == [log_binom(n, int(j)) for j in k]
    assert models._log_factorials.size >= 3001
