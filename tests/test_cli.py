import csv
import hashlib
import json
import math
import os
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spingap.cli as cli
from spingap import spectral, verify
from spingap.cli import (
    EXIT_AUDIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    INI_KEYS,
    build_parser,
    load_config,
    main,
    parse_int_range,
    parse_pair_list,
)
from spingap.kernels import ising_lumped_bd
from spingap.models import ising

from oracles import bd_kernel


def read_all(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_parse_helpers():
    assert parse_int_range("10..16..2") == [10, 12, 14, 16]
    assert parse_int_range("10..12") == [10, 11, 12]
    assert parse_int_range("4,8,12") == [4, 8, 12]
    assert parse_int_range("12") == [12]
    assert parse_pair_list("3:5,1.5:2") == [(3.0, 5.0), (1.5, 2.0)]
    with pytest.raises(Exception):
        parse_int_range("10..4")


def test_gap_scan_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["gap-scan", "--model", "ising", "--kind", "equi-energy",
            "--beta", "2", "--n", "10..20..2", "--p1", "0.5", "--p2", "0.25"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "gaps.csv").exists()
    assert (out1 / "provenance.json").exists()
    assert read_all(out1) == read_all(out2)  # byte-identical reruns
    header = (out1 / "gaps.csv").read_text().splitlines()[0]
    assert header.startswith("model,kind,N,beta")


def test_simulate_reproducible(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["simulate", "--model", "beg", "--n", "10", "--beta", "1", "--k", "1",
            "--p1", "0.5", "--p2", "0.25", "--steps", "2e4", "--seed", "7",
            "--observable", "quad", "--trace"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert read_all(out1) == read_all(out2)
    stats = json.loads((out1 / "runstats.json").read_text())
    assert stats["stats"]["n_samples"] > 0
    assert (out1 / "trace.csv").read_text().splitlines()[0] == "step,class,value"


def test_verify_warmup_ok_and_report(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "warmup", "--theta", "2", "--epsilon", "0.3",
               "--n", "10..40..2", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert (out / "fits.csv").exists()
    assert any(p.name.startswith("gap_vs_N") for p in out.iterdir())


def test_verify_exit_code_on_audit_failure(tmp_path, capsys):
    # an impossible slope threshold must trip exit code 3
    rc = main(["verify", "ising-slow", "--beta", "2", "--n", "10..30..2",
               "--slope-threshold", "-10", "--out", str(tmp_path / "f")])
    assert rc == EXIT_AUDIT_FAILED
    assert "AUDIT FAILURE" in capsys.readouterr().err


def test_unimodality_scan_outputs(tmp_path):
    out = tmp_path / "u"
    rc = main(["unimodality-scan", "--model", "beg", "--beta-k", "1:1,2.5:1.082",
               "--n", "15", "--out", str(out)])
    assert rc == EXIT_OK
    files = {p.name for p in out.iterdir()}
    assert "unimodality.csv" in files and "n0.json" in files
    assert any(f.startswith("qprofile_beg") and f.endswith(".dat") for f in files)
    n0 = json.loads((out / "n0.json").read_text())
    assert n0["2.5,1.082"] is None  # double peak at N=15


def test_conductance_and_export(tmp_path):
    out = tmp_path / "c"
    rc = main(["conductance", "--model", "warmup", "--n", "5", "--theta", "2",
               "--epsilon", "0.3", "--kind", "small-world", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads((out / "conductance.json").read_text())
    assert 0 < payload["h"] <= 1
    assert payload["cheeger_lower_lambda1"] <= payload["cheeger_upper_lambda1"]

    out2 = tmp_path / "k"
    rc = main(["export-kernel", "--model", "ising", "--n", "4", "--beta", "1",
               "--p1", "0.5", "--p2", "0.25", "--kind", "equi-energy",
               "--space", "signed", "--out", str(out2)])
    assert rc == EXIT_OK
    text = (out2 / "kernel.txt").read_text()
    assert len(text.strip().splitlines()) == 5  # signed classes at N=4
    assert text.splitlines()[0].startswith("-4:")


def test_conductance_interval_route(tmp_path):
    rc = main(["conductance", "--model", "ising", "--n", "40", "--beta", "2",
               "--kind", "naive", "--space", "signed", "--interval",
               "--out", str(tmp_path / "i")])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "i" / "conductance.json").read_text())
    assert "interval_bound" in payload


@pytest.mark.parametrize("n, underflow", [(20, False), (200, True)])
def test_conductance_interval_flags_underflow(tmp_path, n, underflow):
    # deep cuts fall under the floor that gap-scan flags gaps with
    rc = main(["conductance", "--model", "ising", "--n", str(n), "--beta", "2",
               "--kind", "naive", "--space", "signed", "--interval",
               "--out", str(tmp_path / "i")])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "i" / "conductance.json").read_text())
    assert payload["underflow"] is underflow


def test_conductance_interval_cuts_signed_table_past_dense_cap(tmp_path):
    # 20301 signed classes: read as a move table, never made dense
    rc = main(["conductance", "--model", "beg", "--n", "200", "--beta", "1", "--k", "1",
               "--kind", "naive", "--space", "signed", "--interval",
               "--out", str(tmp_path / "i")])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "i" / "conductance.json").read_text())
    assert payload["states"] == 20301
    assert 0.0 < payload["interval_bound"] < 1.0


def test_documented_invocations_work(tmp_path):
    # the invocations documented in the README, verbatim shapes
    rc = main(["gap-scan", "--model", "ising", "--beta", "2", "--n", "10..20..2",
               "--p1", "0.5", "--p2", "0.25", "--out", str(tmp_path / "g")])
    assert rc == EXIT_OK
    # equi-energy defaults p1=0.5, p2=0.25 fill in when omitted
    rc = main(["simulate", "--model", "beg", "--n", "10", "--beta", "1", "--k", "1",
               "--steps", "1e4", "--seed", "7", "--out", str(tmp_path / "s")])
    assert rc == EXIT_OK
    stats = json.loads((tmp_path / "s" / "runstats.json").read_text())
    assert float(stats["model"]["p1"]) == 0.5
    assert float(stats["model"]["p2"]) == 0.25


@pytest.mark.parametrize("grid", [
    "--model ising --kind naive --beta 0.5,2 --n 8..16..4",
    # BEG sectors on both sides of DENSE_SECTOR_MAX: dense and Lanczos solves
    "--model beg --kind naive --beta 1.5 --k 2 --n 30..70..10",
    # nine cells: the two shares differ in length
    "--model ising --kind equi-energy --beta 0.5,1,2 --n 8..16..4",
])
def test_gap_scan_parallel_matches_serial(tmp_path, monkeypatch, grid):
    base = ["gap-scan", *grid.split()]
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of two on any host
    assert main(base + ["--jobs", "2", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "gaps.csv").read_bytes() == (out2 / "gaps.csv").read_bytes()


def _one_cell_solve(*args):
    raise AssertionError("a gap-scan worker solved one cell alone")


def test_gap_scan_pool_solves_its_shares_in_batches(tmp_path, monkeypatch):
    # patched before the pool forks, so every worker inherits the refusals
    base = ["gap-scan", "--model", "ising", "--kind", "naive", "--beta", "0.5,1,2",
            "--n", "8..16..4"]
    assert main(base + ["--out", str(tmp_path / "serial")]) == EXIT_OK
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for module, name in ((verify, "exact_gap_record"), (spectral, "sector_spectrum")):
        monkeypatch.setattr(module, name, _one_cell_solve)
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "pool")]) == EXIT_OK
    assert ((tmp_path / "serial" / "gaps.csv").read_bytes()
            == (tmp_path / "pool" / "gaps.csv").read_bytes())


def test_config_file_strict_and_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nkind = ising\nn = 8\nbeta = 1.0\np1 = 0.5\np2 = 0.25\n"
                   "[run]\nchain = equi-energy\nsteps = 5000\nseed = 3\n")
    out = tmp_path / "cfg_out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    prov = json.loads((out / "provenance.json").read_text())
    assert int(prov["config"]["seed"]) == 3
    assert (out / "effective_config.ini").exists()
    # flag overrides config
    out2 = tmp_path / "cfg_out2"
    rc = main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
    assert rc == EXIT_OK
    prov2 = json.loads((out2 / "provenance.json").read_text())
    assert int(prov2["config"]["seed"]) == 9


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nkind = ising\nwibble = 1\n")
    with pytest.raises(Exception):
        load_config(str(cfg))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_USAGE


def test_validation_errors_exit_2(tmp_path):
    # odd N for ising
    rc = main(["gap-scan", "--model", "ising", "--beta", "1", "--n", "7",
               "--p1", "0.5", "--p2", "0.25", "--out", str(tmp_path / "odd")])
    assert rc == EXIT_USAGE
    # p1 + p2 >= 1
    rc = main(["simulate", "--model", "ising", "--n", "8", "--beta", "1",
               "--p1", "0.8", "--p2", "0.3", "--steps", "100",
               "--out", str(tmp_path / "pp")])
    assert rc == EXIT_USAGE
    # missing model
    rc = main(["simulate", "--n", "8", "--steps", "100", "--out", str(tmp_path / "mm")])
    assert rc == EXIT_USAGE


def test_beg_slow_runs_past_the_dense_cap(tmp_path):
    # N >= 128 has more than 8192 signed classes; the cut is summed over
    # the move table, so no dense matrix bounds the grid
    out = tmp_path / "deep"
    rc = main(["verify", "beg-slow", "--beta-k", "3:5", "--n", "126..132..2",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader((out / "report.csv").open()))
    assert [int(r["N"]) for r in rows] == [126, 128, 130, 132]
    assert all(math.isfinite(float(r["log_2h_cut"])) for r in rows)


@pytest.mark.parametrize("command,rc,message,fits", [
    # every gap underflows: the audit takes its cut route and passes
    ("verify ising-slow --beta 2 --n 100..200..10", EXIT_OK, "", ["semilog-2hcut-beta=2.0"]),
    ("verify beg-slow --beta-k 3:5 --n 6..16..2", EXIT_OK, "",
     ["semilog-2hcut-beta=3.0-K=5.0"]),
    ("verify warmup --n 8200,8300,8400", EXIT_OK, "",
     ["loglog-gapN2-tail", "semilog-naive-2hcut"]),
    # some gaps resolve, fewer than six: no verdict, so the audit fails
    ("verify ising-slow --beta 2 --n 60..100..10", EXIT_AUDIT_FAILED,
     "AUDIT FAILURE: beta=2.0: too few resolvable gaps to fit\n", ["semilog-2hcut-beta=2.0"]),
    ("verify beg-slow --beta-k 1.5:2 --n 20..44..4", EXIT_AUDIT_FAILED,
     "AUDIT FAILURE: beta=1.5,K=2.0: too few resolvable gaps to fit\n",
     ["semilog-2hcut-beta=1.5-K=2.0"]),
    ("verify warmup --n 30..50..2", EXIT_AUDIT_FAILED,
     "AUDIT FAILURE: fewer than 6 resolvable naive gaps\n", ["loglog-gapN2-tail"]),
])
def test_slow_audits_fall_back_to_the_cut_only_when_every_gap_underflows(
        tmp_path, capsys, command, rc, message, fits):
    assert main(command.split() + ["--out", str(tmp_path)]) == rc
    assert capsys.readouterr().err == message
    rows = csv.DictReader((tmp_path / "fits.csv").open())
    assert [row["label"] for row in rows] == fits


@pytest.mark.parametrize("command,rc,message", [
    ("gap-scan --model ising --kind naive --beta 400 --n 10..40..10", EXIT_OK, ""),
    ("gap-scan --model ising --kind equi-energy --beta 400 --n 10..40..10", EXIT_OK, ""),
    ("gap-scan --model beg --kind equi-energy --beta 400 --k 1 --n 6..12..2", EXIT_OK, ""),
    ("verify ising-slow --beta 400 --n 10..30..2", EXIT_OK, ""),
    ("gap-scan --model ising --kind naive --beta 1000 --n 10..40..10", EXIT_OK, ""),
    ("gap-scan --model ising --kind equi-energy --beta 1000 --n 10..40..10", EXIT_OK, ""),
    ("gap-scan --model beg --kind equi-energy --beta 1000 --k 1 --n 6..12..2", EXIT_OK, ""),
    ("verify ising-slow --beta 1000 --n 10..30..2", EXIT_OK, ""),
    ("verify beg-slow --beta-k 300:5 --n 6..16..2", EXIT_OK, ""),
    ("verify ising-slow --beta 1e5 --n 10..30..2", EXIT_AUDIT_FAILED,
     "AUDIT FAILURE: beta=100000.0: log(2h) at the negative-side cut is -inf "
     "at N=10,12,14,16,18,20,22,24,26,28,30\n"),
])
def test_a_deep_cell_is_solved_though_its_rates_underflow(tmp_path, capsys, command, rc, message):
    # a downhill rate past e^-708 is subnormal or 0; the pair takes its reverse's entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command.split() + ["--out", str(tmp_path)]) == rc
    assert capsys.readouterr().err == message
    if command.startswith("gap-scan"):
        rows = list(csv.DictReader((tmp_path / "gaps.csv").open()))
        deep = "naive" in command or "beg" in command
        assert [r["underflow"] for r in rows] == ["true" if deep else "false"] * len(rows)
        if not deep:
            assert float(rows[0]["gap"]) == pytest.approx(0.05)


@pytest.mark.parametrize("command,message", [
    ("verify beg-fast --beta-k 1:1 --n 6..16..2 --slope-floor 0",
     "AUDIT FAILURE: beta=1.0,K=1.0: slope CI [-1.219, -1.202] dips below 0.0\n"),
    ("verify beg-fast --beta-k 1:1 --n 2..4..2",
     "AUDIT FAILURE: beta=1.0,K=1.0: too few resolvable gaps to fit\n"),
])
def test_beg_fast_fails_in_the_format_of_every_audit(tmp_path, capsys, command, message):
    # it wrote (beta,K)=(1.0,1.0): … and "too few resolvable gaps"
    assert main(command.split() + ["--out", str(tmp_path)]) == EXIT_AUDIT_FAILED
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command,N", [
    ("unimodality-scan --model ising --beta 2 --n 0", 0),
    ("unimodality-scan --model ising --beta 2 --n -2", -2),
    ("unimodality-scan --model beg --beta-k 1:1 --n 0", 0),
    ("verify beg-fast --beta-k 1:1 --n 0,2,4", 0),
])
def test_a_profile_below_n_1_exits_2(tmp_path, capsys, command, N):
    # the ising scans reported an N=0 profile as unimodal; the beg ones
    # divided by zero
    assert main(command.split() + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: N must be positive, got {N}\n"


@pytest.mark.parametrize("steps,message", [
    ("1e15", "900000000000000 retained samples exceed the limit 268435456; "
             "thin the run with --thin"),
    ("1e20", "90000000000000000000 retained samples exceed the limit 268435456; "
             "thin the run with --thin"),
    ("1e400", "--steps must be a finite count, not '1e400'"),
])
def test_simulate_refuses_a_step_count_it_cannot_hold(tmp_path, capsys, steps, message):
    # 1e15 asked numpy for 6.39 PiB; 1e20 and 1e400 overflowed
    rc = main(["simulate", "--model", "ising", "--n", "4", "--beta", "1", "--steps", steps,
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runstats.json").exists()


def test_thin_takes_the_count_notation_of_steps(tmp_path):
    # --thin was parsed with int() and refused '1e2'
    run = ["simulate", "--model", "ising", "--n", "4", "--beta", "1", "--steps", "1e5"]
    assert main([*run, "--thin", "1e2", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*run, "--thin", "100", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    stats = json.loads((tmp_path / "a" / "runstats.json").read_text())["stats"]
    assert stats["thinning"] == 100 and stats["n_samples"] == 900


@pytest.mark.parametrize("args,message", [
    (["--steps", "1.7"], "--steps must be a whole count, not '1.7'"),
    (["--burn-in", "0.5"], "--burn-in must be a whole count, not '0.5'"),
    (["--thin", "2.5"], "--thin must be a whole count, not '2.5'"),
    (["--config", "run.ini"], "[run] steps must be a whole count, not '12.5'"),
])
def test_a_fractional_count_exits_2(tmp_path, capsys, monkeypatch, args, message):
    # --steps 1.7 ran one step and --burn-in 0.5 none
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[run]\nsteps = 12.5\n")
    rc = main(["simulate", "--model", "ising", "--n", "4", "--beta", "1", *args,
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "runstats.json").exists()


@pytest.mark.parametrize("command,message", [
    # numpy's "expected non-negative integer" and a bare unpacking error
    ("simulate --model ising --n 4 --beta 1 --seed -1", "seed must be nonnegative, not -1"),
    ("verify beg-slow --beta-k 3", "--beta-k must list beta:K pairs, not '3'"),
    ("verify beg-slow --beta-k 3:5 --deep 3:5:1", "--deep must list beta:K pairs, not '3:5:1'"),
    # float's and int's bare "could not convert string to float: ''" and the like
    ("verify beg-slow --beta-k 3:", "--beta-k must list beta:K pairs, not '3:'"),
    ("verify beg-slow --beta-k 3:5,3:x", "--beta-k must list beta:K pairs, not '3:x'"),
    ("verify ising-slow --beta 0.5,x", "--beta must list numbers, not 'x'"),
    ("verify ising-slow --beta 2 --n 10,x", "--n must list whole numbers, not 'x'"),
    ("verify ising-slow --beta 2 --n 10..x", "--n bad range '10..x'"),
])
def test_a_refusal_names_its_input(tmp_path, capsys, command, message):
    assert main([*command.split(), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    # a command refused before or while it runs leaves no provenance
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,message", [
    # each used to exit 0 or 3, writing nan or Infinity where it wrote a value
    ("export-kernel --model ising --n 4 --beta nan", "--beta must be a finite number, not 'nan'"),
    ("simulate --model warmup --n 10 --theta nan --epsilon 0.3 --steps 2000",
     "--theta must be a finite number, not 'nan'"),
    ("conductance --model ising --n 4 --beta inf --interval --space signed",
     "--beta must be a finite number, not 'inf'"),
    ("unimodality-scan --model beg --beta-k nan:1 --n 5..10..5",
     "--beta-k must list beta:K pairs, not 'nan:1'"),
    ("verify ising-slow --beta 2 --n 10..20..2 --slope-threshold nan",
     "--slope-threshold must be a finite number, not 'nan'"),
    # refused only at sector assembly, after a RuntimeWarning
    ("gap-scan --model ising --beta inf --n 10", "--beta must list numbers, not 'inf'"),
    ("gap-scan --model ising --beta 1,-inf --n 10", "--beta must list numbers, not '-inf'"),
    ("export-kernel --model ising --n 4 --config model.ini",
     "[model] beta must be a finite number, not '-inf'"),
])
def test_a_non_finite_real_exits_2(tmp_path, capsys, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.ini").write_text("[model]\nbeta = -inf\n")
    assert main([*command.split(), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    # the first exited 0 with nan rows, the second with "interval_bound": Infinity
    "export-kernel --model ising --n 4 --beta 1e308",
    "conductance --model ising --n 4 --beta 1e308 --interval --space signed",
    "gap-scan --model ising --beta 1e308 --n 10",
    # the scans exited 0 with inf in their profiles and an N0, the run with an estimate
    "unimodality-scan --model ising --beta 1e308 --n 10..20..10",
    "unimodality-scan --model beg --beta-k 1e308:1 --n 5",
    "simulate --model ising --n 4 --beta 1e308 --steps 100",
    "simulate --model beg --n 4 --beta 1e308 --k 1 --steps 100",
])
def test_log_weights_that_overflow_exit_2(tmp_path, capsys, command):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([*command.split(), "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith("error: the log weights of the stationary distribution are not all "
                        "finite: the parameters overflow float64\n")
    assert err.count("error:") == 1
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_a_refused_run_removes_only_the_empty_output_directory_it_made(tmp_path, capsys):
    argv = ["export-kernel", "--model", "ising", "--n", "4", "--beta", "1e308", "--out"]
    existing = tmp_path / "existing"
    existing.mkdir()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, str(existing)]) == EXIT_USAGE
        # it used to leave these behind, empty
        assert main([*argv, str(tmp_path / "made")]) == EXIT_USAGE
        assert main([*argv, str(tmp_path / "made" / "nested")]) == EXIT_USAGE
        assert main([*argv, str(existing / "nested")]) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert list(existing.iterdir()) == []


@pytest.mark.parametrize("command,code", [
    ("gap-scan --model ising --beta 1 --n 6..8..2", EXIT_OK),
    ("verify warmup --theta 2 --epsilon 0.3 --n 10..40..2", EXIT_OK),
    ("verify ising-slow --beta 2 --n 10..14..2 --slope-threshold -10", EXIT_AUDIT_FAILED),
    ("unimodality-scan --model beg --beta-k 1:1 --n 9", EXIT_OK),
    ("simulate --model ising --n 4 --beta 1 --steps 2000", EXIT_OK),
    ("conductance --model warmup --n 5 --theta 2 --epsilon 0.3", EXIT_OK),
    ("export-kernel --model ising --n 4 --beta 1", EXIT_OK),
])
def test_every_command_leaves_provenance_and_one_json_layout(tmp_path, command, code):
    # main writes provenance after a command returns 0 or 3, and every JSON
    # artifact is indented by 2 with sorted keys and a trailing newline
    assert main([*command.split(), "--out", str(tmp_path)]) == code
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert command.startswith(prov["subcommand"])
    assert (tmp_path / "effective_config.ini").exists()
    for path in tmp_path.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_a_deep_cell_outside_the_grid_exits_2(tmp_path, capsys):
    # it asserted nothing and passed
    rc = main(["verify", "beg-slow", "--beta-k", "3:5", "--deep", "1:1", "--n", "6..10..2",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: deep cells outside the grid: 1.0:1.0\n"
    assert not (tmp_path / "report.csv").exists()


#: sha256 of report.csv and fits.csv for small README-style grids, recorded
#: before the kernel layer lost its per-element loops (numpy 2.4, scipy 1.17,
#: x86-64); a refactor that moves one bit of a reported number changes them.
#: The ising-fast and beg-fast grids were recorded while each audit still
#: ran its own (cell, N) loop; the second beg-fast cell is skipped as
#: double-peaked
PINNED_DIGESTS = {
    "verify ising-fast --beta 0.5,2 --n 10..30..2 --p1 0.5 --p2 0.25": (
        "045549463545805c317c7747986cad08006ccad1cc487c81e70e00afe0fbd38d",
        "63324420e1f64393a166945aeb5d196cecb1e6be977e6b293322c44c3ef4c829"),
    "verify beg-fast --beta-k 1:1,2.5:1.082 --n 6..16..2 --p1 0.5 --p2 0.25": (
        "902321c8596d26148ee8a34c2a011e4fe854fa906c47d36ef3bbb6510c7c0236",
        "f81c31fa4d844b11782b84bfe447849200fadad3689709a3afb231b153220b6f"),
    "verify warmup --theta 2 --epsilon 0.3 --n 10..40..2": (
        "29f110bdbce3ca7a1575cef6b468fb635c2cedff8e0026764ee6e49f18e79f0d",
        "0c269f23ee4ed64301ccca3552c2d32e96442f9b2b1ca0085a177755f3f36896"),
    "verify ising-slow --beta 2 --n 10..60..2": (
        "48b51e7501f2e7efb987b7834650a682202d567dad3e72939f9bed63dcb9e882",
        "b1b82fe472f0dc2a4c44e5e8f96e4dea1b285641fd333f763396a2c92eccdba0"),
    "verify beg-slow --beta-k 3:5,1.5:2 --deep 3:5,1.5:2 --n 6..16..2": (
        "f7a13fdf1f180b14b018b509c06bb696cff1743036243c4bbe2060834d72c7d4",
        "327c489bfeb097eed771bd96e9d16d530783f5c1d789fafba5853e8388c183b5"),
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_verify_artifacts_match_pinned_digests(tmp_path, command):
    assert main(command.split() + ["--out", str(tmp_path)]) == EXIT_OK
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("report.csv", "fits.csv"))
    assert digests == PINNED_DIGESTS[command]


#: sha256 of gaps.csv for two warm-up gap-scans, recorded while the warm-up
#: move table was still read off its dense Metropolis chain
PINNED_GAP_DIGESTS = {
    "gap-scan --model warmup --kind small-world --theta 2 --epsilon 0.3 --n 10..400..10":
        "070369ebbe788b17ffafa3a37e596d62f3c335975d60a84b3ff8ff9771c172f5",
    "gap-scan --model warmup --kind naive --theta 1.5 --n 10..60..10":
        "f67e728c55a0eb98d2d48677f131cf8b5001bd8741b9a3b1dc32a1b5d4a24763",
}


@pytest.mark.parametrize("command", sorted(PINNED_GAP_DIGESTS))
def test_gap_scan_matches_pinned_digest(tmp_path, command):
    assert main(command.split() + ["--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "gaps.csv").read_bytes()).hexdigest()
    assert digest == PINNED_GAP_DIGESTS[command]


TRACED_RUN = ("simulate --model beg --n 30 --beta 1 --k 1 --p1 0.5 --p2 0.25 --steps 20000 "
              "--seed 7 --observable quad --trace")

#: sha256 of the artifacts written from dataclass records (report.json,
#: runstats.json) and of a trace, recorded while the records were
#: serialized field by field and the trace was held in memory until the end;
#: the fast audits' reports and the profile scans' tables were recorded while
#: each ran its own (cell, N) loop
PINNED_ARTIFACT_DIGESTS = {
    ("verify ising-fast --beta 0.5,2 --n 10..30..2 --p1 0.5 --p2 0.25", "report.json"):
        "4e38af24be175de368231b7d72807bf64185d9375b44249b71ae4f8ed934ebb4",
    ("verify beg-fast --beta-k 1:1,2.5:1.082 --n 6..16..2 --p1 0.5 --p2 0.25", "report.json"):
        "ee8ac596a1b6a7cdb63b212c605189e378dd065cc5c4db385d15836227af9d43",
    ("unimodality-scan --model beg --beta-k 1:1,2.5:1.082 --n 15", "unimodality.csv"):
        "7c86637a5723554aa018ead594c7d28f1122bb9fafc1e6016397663c2502e8b8",
    ("unimodality-scan --model beg --beta-k 1:1,2.5:1.082 --n 15", "n0.json"):
        "f9f356026882f8b1319710916d38e4fd2776b618f8af7ff5d195242b759cf8d9",
    ("unimodality-scan --model ising --beta 0.5,2 --n 4..20..2", "unimodality.csv"):
        "c220141513daf2da5a6485aa2d63d53f52311c4622de508f76cf0d7a29c39c97",
    ("unimodality-scan --model ising --beta 0.5,2 --n 4..20..2", "n0.json"):
        "a96791279a4407118436fd03a507bd43e54ffe8af19107a058b2817a22968bd4",
    ("verify warmup --theta 2 --epsilon 0.3 --n 10..40..2", "report.json"):
        "3e87feb93617b1c593ea242949fd9ca2e22fde6d67d092696cb6dd9abfa7aad0",
    (TRACED_RUN, "runstats.json"):
        "ab34bead3b628bfbc7cc12cd37aeef93d79a11cfd899d3d34378b1f78fe1968e",
    (TRACED_RUN, "trace.csv"):
        "eebc5c5d735b6b4b6bf983ff4185e6eedcfed4d9221dbe3a2fa0eb8e5a67f737",
}


@pytest.mark.parametrize("command,artifact", sorted(PINNED_ARTIFACT_DIGESTS))
def test_artifact_matches_pinned_digest(tmp_path, command, artifact):
    assert main(command.split() + ["--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACT_DIGESTS[command, artifact]


def test_a_full_trace_tail_cache_is_emptied_without_moving_a_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "TRACE_TAILS_CAP", 2)
    assert main(TRACED_RUN.split() + ["--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACT_DIGESTS[TRACED_RUN, "trace.csv"]


def test_trace_streams_to_disk(tmp_path):
    argv = TRACED_RUN.replace("20000", "5e4").split() + ["--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + 45000
    assert peak < 5e6  # the 45000 rows held in memory until the end took 16 MB


def test_full_space_interval_conductance_makes_no_dense_matrix(tmp_path):
    # BEG N=6 has 729 states; the interval cuts read the move table, whose
    # build peaks below one dense 729 x 729 matrix
    n = 3 ** 6
    tracemalloc.start()
    try:
        assert main(["conductance", "--model", "beg", "--n", "6", "--beta", "1", "--k", "1",
                     "--interval", "--out", str(tmp_path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "conductance.json").read_text())["states"] == n
    assert peak < 8 * n * n


def test_a_run_refused_before_its_first_step_writes_no_trace(tmp_path, capsys):
    rc = main(["simulate", "--model", "ising", "--n", "8", "--beta", "1", "--observable",
               "quad", "--trace", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "undefined outside the beg model" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("verify ising-fast --n 10..12..2", "--beta", ""),
    ("verify ising-slow --n 10..12..2", "--beta", ""),
    ("verify beg-slow --n 6..8..2", "--beta-k", ""),
    ("verify beg-fast --n 6..8..2", "--beta-k", ""),
    ("verify beg-slow --n 6..10..2", "--deep", ""),
    ("unimodality-scan --model beg --n 5", "--beta-k", ""),
    ("gap-scan --model ising", "--n", ","),
    ("gap-scan --model ising", "--n", ""),
])
def test_an_empty_grid_list_exits_2(tmp_path, capsys, command, flag, value):
    # an empty list used to run zero cells and pass (or, for --deep, to mean all cells)
    rc = main([*command.split(), flag, value, "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must list at least one value\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command,message", [
    # each exited 1 with a ZeroDivisionError traceback from the fit
    ("verify ising-slow --beta 2 --n 10,10,10", "--n must list each value once, not '10' again"),
    ("verify warmup --theta 2 --epsilon 0.3 --n 10,10,10",
     "--n must list each value once, not '10' again"),
    ("verify beg-slow --beta-k 3:5 --n 6,6,6", "--n must list each value once, not '6' again"),
    # each passed on a slope fitted to the rounding of mean(log N)
    ("verify ising-fast --beta 0.5 --n 10,10,10,10,10,10",
     "--n must list each value once, not '10' again"),
    ("verify beg-fast --beta-k 1:1 --n 6,6,6,6,6,6",
     "--n must list each value once, not '6' again"),
    # wrote two fits.csv rows but one fit and one N0 to report.json
    ("verify ising-fast --beta 0.5,0.5 --n 10..30..2",
     "--beta must list each value once, not '0.5' again"),
    ("unimodality-scan --model beg --beta-k 1:1,1.0:1 --n 5",
     "--beta-k must list each value once, not '1.0:1' again"),
])
def test_a_grid_that_repeats_a_value_exits_2(tmp_path, capsys, command, message):
    assert main([*command.split(), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_the_underflow_flag_alone_picks_the_gaps_fitted_and_plotted(monkeypatch, tmp_path):
    # a gap of exactly the floor is resolvable; the float just under it is not
    at, under = spectral.GAP_RESOLUTION, float(np.nextafter(spectral.GAP_RESOLUTION, 0))
    Ns = list(range(10, 26, 2))
    gaps = [10.0 ** -k for k in range(3, 9)] + [at, under]
    solved = iter(gaps)
    monkeypatch.setattr(verify, "_stack_spectra", lambda table, sizes: [
        SimpleNamespace(gap=g, lambda1=1 - g, lambda_min=0.0, dim=2)
        for _, g in zip(sizes, solved)])
    report = verify.verify_ising_slow([2.0], Ns)
    assert [r.values["underflow"] for r in report.records] == [False] * 7 + [True]
    want = verify.ols_fit(Ns[:7], [math.log(g) for g in gaps[:7]])
    assert dict(report.fits)["semilog-gap-beta=2.0"] == want  # the _collapse_fit route
    assert verify._gap_fit(report.records).n_points == 7
    cli._flatten_report(tmp_path, report)
    lines = (tmp_path / "gap_vs_N_beta2.0.dat").read_text().splitlines()
    assert lines[-1] == f"22 {cli.fmt(at)}" and len(lines) == 7


def test_an_empty_ini_grid_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.ini"
    cfg.write_text("[grid]\nbeta =\n")
    rc = main(["verify", "ising-fast", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: [grid] beta must list at least one value\n"


def test_verify_warmup_runs_down_to_n_1(tmp_path):
    # N <= 2 has no block A_{mid+2}, so the projection check skips it
    assert main(["verify", "warmup", "--n", "1..10", "--out", str(tmp_path)]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "report.csv").open()))
    assert [int(r["N"]) for r in rows] == list(range(1, 11))


def test_warmup_kind_defaults_to_small_world(tmp_path, capsys):
    base = "gap-scan --model warmup --theta 2 --epsilon 0.3 --n 10..40..10".split()
    assert main(base + ["--out", str(tmp_path / "default")]) == EXIT_OK
    assert main(base + ["--kind", "small-world", "--out", str(tmp_path / "explicit")]) == EXIT_OK
    assert read_all(tmp_path / "default") == read_all(tmp_path / "explicit")
    assert provenance(tmp_path / "default")["kind"] == "small-world"
    # the spin models keep the equi-energy default
    assert main(["gap-scan", "--model", "ising", "--n", "10", "--out", str(tmp_path / "i")]) == 0
    assert provenance(tmp_path / "i")["kind"] == "equi-energy"
    capsys.readouterr()
    rc = main(base + ["--kind", "equi-energy", "--out", str(tmp_path / "eq")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: equi-energy proposal is defined for ising/beg, not warmup\n")


@pytest.mark.parametrize("command", ["gap-scan", "simulate --steps 10",
                                     "export-kernel --space full",
                                     "export-kernel --space signed"])
@pytest.mark.parametrize("chain,message", [
    ("--model ising --beta 1 --kind small-world",
     "small-world proposal is a warmup construction, not ising"),
    ("--model warmup --theta 2 --kind equi-energy",
     "equi-energy proposal is defined for ising/beg, not warmup"),
    ("--model warmup --theta 2 --kind small-world", "small-world chain needs epsilon"),
])
def test_a_chain_the_model_lacks_is_refused_alike_by_every_command(tmp_path, capsys, command,
                                                                   chain, message):
    args = f"{command} {chain} --n 4".split() + ["--out", str(tmp_path)]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_flag_is_reported_with_the_command_usage(tmp_path, capsys):
    assert main(["verify", "beg-slow", "--beta", "2", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: spingap verify beg-slow ")
    assert "spingap verify beg-slow: error: unrecognized arguments: --beta 2" in err
    assert main(["gap-scan", "--model", "ising", "--bogus", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage: spingap gap-scan ")


def read_kernel_text(path: Path) -> dict:
    """kernel.txt as {(row label, column label): probability}."""
    out = {}
    for line in path.read_text().splitlines():
        row, entries = line.split(": ")
        for entry in entries.split():
            col, value = entry.split("=")
            out[row, col] = float(value)
    return out


def test_unsigned_export_follows_the_chain_kind(tmp_path):
    base = ["export-kernel", "--model", "ising", "--n", "4", "--beta", "1",
            "--p1", "0.5", "--p2", "0.25", "--space", "unsigned"]
    assert main(base + ["--kind", "naive", "--out", str(tmp_path / "naive")]) == EXIT_OK
    naive = read_kernel_text(tmp_path / "naive" / "kernel.txt")
    assert naive["0", "2"] == 0.5  # both single flips out of S=0, halved
    prov = json.loads((tmp_path / "naive" / "provenance.json").read_text())
    assert prov["config"]["kind"] == "naive"

    assert main(base + ["--kind", "equi-energy", "--out", str(tmp_path / "eq")]) == EXIT_OK
    got = read_kernel_text(tmp_path / "eq" / "kernel.txt")
    bd = bd_kernel(ising_lumped_bd(ising(4, beta=1.0, p1=0.5, p2=0.25)))
    want = np.array([[got.get((str(a), str(b)), 0.0) for b in bd.labels] for a in bd.labels])
    assert np.abs(want - bd.P).max() <= 1e-14


def test_unsigned_export_refuses_oversized_projection(tmp_path, capsys):
    # BEG N=400 has 40401 unsigned classes; the cap is checked before the
    # dense matrix is allocated
    rc = main(["export-kernel", "--model", "beg", "--n", "400", "--beta", "1", "--k", "1",
               "--p1", "0.5", "--p2", "0.25", "--kind", "equi-energy", "--space", "unsigned",
               "--out", str(tmp_path / "big")])
    assert rc == EXIT_USAGE
    assert "40401 blocks exceed the dense materialization cap 8192" in capsys.readouterr().err
    assert not (tmp_path / "big" / "kernel.txt").exists()


def test_signed_export_refusal_names_a_command(tmp_path, capsys):
    rc = main(["export-kernel", "--space", "signed", "--model", "beg", "--n", "200", "--beta", "1",
               "--k", "1", "--kind", "naive", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == ("error: 20301 states exceed the dense materialization cap "
                                       "8192; exact gaps at this size come from gap-scan\n")


@pytest.mark.parametrize("args,message", [
    ("--model ising --n 12 --beta 1 --kind naive",
     "exhaustive conductance is capped at 24 states, got 4096"),
    ("--model beg --n 8 --beta 1 --k 1", "exhaustive conductance is capped at 24 states, got 6561"),
    ("--model beg --n 200 --beta 1 --k 1 --space signed",
     "exhaustive conductance is capped at 24 states, got 20301"),
    ("--model ising --n 50 --beta 1 --space unsigned",
     "exhaustive conductance is capped at 24 states, got 26"),
    # the refusals the builds make first keep their order and their text
    ("--model ising --n 40 --beta 1 --kind small-world",
     "small-world proposal is a warmup construction, not ising"),
    ("--model warmup --n 40 --theta 2 --space unsigned --kind equi-energy",
     "unsigned projections exist for ising and beg"),
    ("--model beg --n 4000 --beta 1 --k 1 --space signed",
     "8006001 classes exceed the limit 2000000"),
    ("--model ising --n 14 --beta 1 --kind naive",
     "16384 states exceed the dense materialization cap 8192; use the class-space chains at this "
     "size"),
    ("--model beg --n 400 --beta 1 --k 1 --space unsigned",
     "40401 blocks exceed the dense materialization cap 8192"),
])
def test_exhaustive_conductance_refuses_before_building(monkeypatch, tmp_path, capsys, args,
                                                        message):
    def build(*args, **kwargs):
        raise AssertionError("a chain was built")

    for name in ("metropolis_chain", "signed_move_table", "unsigned_lumped_chain"):
        monkeypatch.setattr(cli, name, build)
    rc = main(["conductance", *args.split(), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value,rc,traced", [("false", EXIT_OK, False), ("true", EXIT_OK, True),
                                             ("maybe", EXIT_USAGE, False)])
def test_config_trace_is_a_boolean(tmp_path, capsys, value, rc, traced):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nkind = ising\nn = 8\nbeta = 1.0\n"
                   f"[run]\nchain = naive\nsteps = 2000\nseed = 3\ntrace = {value}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == rc
    assert (out / "trace.csv").exists() == traced
    if rc == EXIT_USAGE:
        assert "[run] trace must be" in capsys.readouterr().err


#: (command, flag) pairs that were accepted and then ignored; each command
#: now accepts only the flags it reads
UNREAD_FLAGS = [
    *[("verify ising-fast", f) for f in ("--model", "--k", "--theta", "--epsilon", "--jobs",
                                         "--beta-k", "--deep", "--slope-threshold",
                                         "--slope-floor")],
    *[("verify ising-slow", f) for f in ("--model", "--k", "--theta", "--epsilon", "--p1",
                                         "--p2", "--jobs", "--beta-k", "--deep",
                                         "--slope-floor")],
    *[("verify warmup", f) for f in ("--model", "--beta", "--k", "--p1", "--p2", "--jobs",
                                     "--beta-k", "--deep", "--slope-threshold",
                                     "--slope-floor")],
    *[("verify beg-slow", f) for f in ("--model", "--beta", "--k", "--theta", "--epsilon",
                                       "--p1", "--p2", "--jobs", "--slope-floor")],
    *[("verify beg-fast", f) for f in ("--model", "--beta", "--k", "--theta", "--epsilon",
                                       "--jobs", "--deep", "--slope-threshold")],
    *[("unimodality-scan", f) for f in ("--k", "--theta", "--epsilon", "--p1", "--p2",
                                        "--jobs")],
    ("simulate", "--jobs"), ("conductance", "--jobs"), ("export-kernel", "--jobs"),
]

#: a value each flag accepted, and a small valid run of each command
FLAG_VALUES = {"--model": "beg", "--beta": "1", "--k": "1", "--theta": "2", "--epsilon": "0.3",
               "--p1": "0.5", "--p2": "0.25", "--jobs": "2", "--beta-k": "3:5", "--deep": "3:5",
               "--slope-threshold": "-0.05", "--slope-floor": "-6.25"}
BASE_RUNS = {
    "simulate": "--model ising --n 4 --beta 1 --steps 100",
    "conductance": "--model warmup --n 3 --theta 2 --epsilon 0.3 --kind small-world",
    "export-kernel": "--model ising --n 4 --beta 1 --kind naive",
}


def test_every_unread_pair_is_listed():
    assert len(UNREAD_FLAGS) == len(set(UNREAD_FLAGS)) == 55
    # 144 pairs were accepted when every verify target took all 15 verify flags
    assert sum(len(c.options) for c in cli.COMMANDS) == 144 - 55


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command, flag):
    argv = [*command.split(), *BASE_RUNS.get(command, "").split(),
            f"{flag}={FLAG_VALUES[flag]}", "--out", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def provenance(outdir: Path) -> dict:
    return json.loads((outdir / "provenance.json").read_text())["config"]


def test_provenance_records_deep_and_trace(tmp_path):
    out = tmp_path / "deep"
    assert main(["verify", "beg-slow", "--beta-k", "3:5,1.5:2", "--deep", "3:5",
                 "--n", "6..10..2", "--out", str(out)]) == EXIT_OK
    assert provenance(out)["deep"] == "[(3.0, 5.0)]"

    base = ["simulate", "--model", "ising", "--n", "8", "--beta", "1", "--steps", "2000"]
    assert main(base + ["--trace", "--out", str(tmp_path / "flag")]) == EXIT_OK
    assert provenance(tmp_path / "flag")["trace"] is True
    assert main(base + ["--out", str(tmp_path / "off")]) == EXIT_OK
    assert provenance(tmp_path / "off")["trace"] is False
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ntrace = yes\n")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "ini")]) == EXIT_OK
    assert provenance(tmp_path / "ini")["trace"] is True
    assert (tmp_path / "ini" / "trace.csv").exists()


def test_provenance_records_every_option_but_out_and_config(tmp_path):
    # export-kernel and conductance used to record only model, n, kind and space
    for beta in ("1", "2"):
        assert main(["export-kernel", "--model", "ising", "--n", "4", "--beta", beta,
                     "--out", str(tmp_path / beta)]) == EXIT_OK
    assert provenance(tmp_path / "1") == {
        "model": "ising", "n": 4, "kind": "equi-energy", "beta": 1.0, "k": None,
        "theta": None, "epsilon": None, "p1": 0.5, "p2": 0.25, "space": "full"}
    assert provenance(tmp_path / "2")["beta"] == 2.0
    assert main(["conductance", "--model", "beg", "--n", "4", "--beta", "1", "--k", "1.5",
                 "--kind", "naive", "--space", "signed", "--out", str(tmp_path / "h")]) == EXIT_OK
    assert provenance(tmp_path / "h") == {
        "model": "beg", "n": 4, "kind": "naive", "beta": 1.0, "k": 1.5, "theta": None,
        "epsilon": None, "p1": None, "p2": None, "space": "signed", "interval": False}
    assert "k = 1.5\n" in (tmp_path / "h" / "effective_config.ini").read_text()
    # a scan records the grid its model does not read as empty
    assert main(["unimodality-scan", "--model", "ising", "--beta", "2", "--n", "10",
                 "--out", str(tmp_path / "i")]) == EXIT_OK
    assert provenance(tmp_path / "i")["beta_k"] == ""
    assert main(["unimodality-scan", "--model", "beg", "--beta-k", "1:1", "--n", "5",
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    assert provenance(tmp_path / "b")["beta"] == ""


def test_gap_scan_records_the_beta_it_ran(tmp_path):
    assert main(["gap-scan", "--model", "ising", "--n", "8..10..2",
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "gaps.csv").open()))
    assert {r["beta"] for r in rows} == {"1"}
    assert provenance(tmp_path)["beta"] == "1"
    assert provenance(tmp_path)["k"] == ""  # ising reads no K, and gaps.csv leaves it empty


def test_ini_keys_are_the_documented_set(tmp_path):
    keys = {
        "model": {"kind", "n", "beta", "k", "theta", "epsilon", "p1", "p2"},
        "run": {"chain", "steps", "burn_in", "thinning", "seed", "observable", "trace"},
        "grid": {"beta", "beta_k", "deep", "n", "theta", "epsilon", "p1", "p2"},
        "output": {"dir", "jobs"},
    }
    assert INI_KEYS == {f"{section}.{key}" for section, ks in keys.items() for key in ks}
    cfg = tmp_path / "all.ini"
    cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = 1\n" for k in ks)
                           for section, ks in keys.items()))
    assert {s: set(v) for s, v in load_config(str(cfg)).items()} == keys


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_gap_scan_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    rc = main(["gap-scan", "--model", "ising", "--n", "8", f"--jobs={jobs}",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("betas,cpus,workers", [("1", 64, 3), ("0.5,2", 2, 2)])
def test_gap_scan_pool_size_is_capped_by_cells_and_cpus(tmp_path, monkeypatch, betas, cpus,
                                                        workers):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(["gap-scan", "--model", "ising", "--kind", "naive", "--beta", betas,
                 "--n", "8..16..4", "--jobs", "100000", "--out", str(tmp_path)]) == EXIT_OK
    assert seen == [workers]


def readme_text() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_commands_parse():
    block = re.search(r"```\n(spingap .*?)```", readme_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "spingap"
        build_parser().parse_args(argv[1:])


def test_readme_lists_the_ini_keys():
    sentence = re.search(r"Config sections and keys: (.*?)\.\s", readme_text(), re.S).group(1)
    listed = {f"{section}.{key.strip()}"
              for section, keys in re.findall(r"`\[(\w+)\]` ([^;`]+)", sentence)
              for key in keys.split(",")}
    assert listed == INI_KEYS
