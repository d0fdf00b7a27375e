"""Batch command-line front end.

Subcommands: gap-scan, verify (ising-fast | ising-slow | warmup |
beg-slow | beg-fast), unimodality-scan, simulate, conductance,
export-kernel.  Every invocation writes its artifacts plus a provenance
record (effective configuration, master seed, version string) into the
output directory; reruns with identical inputs are byte-identical, so
no timestamps appear anywhere and floats are printed at 17 significant
digits.

Exit codes: 0 success, 2 validation error, 3 a theorem-audit inequality
failed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import models, spectral, verify as verify_mod
from .kernels import (
    CHAIN_KINDS,
    check_space,
    export_kernel_text,
    metropolis_chain,
    signed_move_table,
    unsigned_lumped_chain,
    format_label,
)
from .models import ModelSpec
from .sampling import OBSERVABLES, RunConfig, run_estimate
from .spectral import GAP_RESOLUTION, cheeger_interval, conductance_exact, interval_conductance
from .verify import exact_gap_records

VERSION = "spingap 0.1.0"
OUTPUT_ENV = "SPINGAP_OUTDIR"
TRACE_TAILS_CAP = 4096   # formatted trace tails a simulate run keeps at once

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AUDIT_FAILED = 3

#: the mixture weights an equi-energy chain gets when given neither
DEFAULT_P1 = 0.5
DEFAULT_P2 = 0.25


class ConfigError(ValueError):
    pass


def fmt(x) -> str:
    """Deterministic text for a value; floats at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def fmt_tag(x) -> str:
    """Deterministic filename fragment; floats as shortest round-trip text."""
    if isinstance(x, float):
        return repr(x)
    return fmt(x)


def _grid(text: str, convert: Callable[[str], Any], what: str) -> list:
    """The entries of a comma-separated list, converted, each value once.

    Refused: an empty list, which would audit nothing; an entry that does
    not convert or that repeats a value (a grid point solved and fitted
    twice), named in the message.
    """
    values = []
    for item in filter(None, (v.strip() for v in str(text).split(","))):
        try:
            value = convert(item)
        except ValueError:
            raise ConfigError(f"must list {what}, not {item!r}") from None
        if value in values:
            raise ConfigError(f"must list each value once, not {item!r} again")
        values.append(value)
    if not values:
        raise ConfigError("must list at least one value")
    return values


def _range(text: str) -> list[int]:
    """START..STOP[..STEP], inclusive; ValueError unless STEP >= 1 and STOP >= START."""
    start, stop, step = (text + "..1" if text.count("..") == 1 else text).split("..")
    start, stop, step = int(start), int(stop), int(step)
    if step < 1 or stop < start:
        raise ValueError(f"bad range {text!r}")
    return list(range(start, stop + 1, step))


def parse_int_range(text: str) -> list[int]:
    """'10..60..2' (inclusive), '10..60' (step 1), or '10,20,30', or '12'."""
    text = text.strip()
    if ".." in text:
        try:
            return _range(text)
        except ValueError:
            raise ConfigError(f"bad range {text!r}") from None
    return _grid(text, int, "whole numbers")


def parse_real(text: str) -> float:
    """A finite real: every real-valued option, list entry and pair member."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, not {text!r}")
    return value


def parse_float_list(text: str) -> list[float]:
    return _grid(text, parse_real, "numbers")


def _pair(item: str) -> tuple[float, float]:
    beta, K = item.split(":")
    return parse_real(beta), parse_real(K)


def parse_pair_list(text: str) -> list[tuple[float, float]]:
    """'3:5,1.5:2' -> [(3.0, 5.0), (1.5, 2.0)]."""
    return _grid(text, _pair, "beta:K pairs")


def parse_count(text: str) -> int:
    """A finite whole count, float notation allowed: '1e6' -> 1000000."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite count, not {text!r}")
    if not value.is_integer():
        raise ValueError(f"must be a whole count, not {text!r}")
    return int(value)


def parse_bool(text: str) -> bool:
    """configparser's boolean words: true/false, yes/no, on/off, 1/0."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ConfigError(f"must be true/false, yes/no, on/off or 1/0, not {text!r}")
    return states[text.lower()]


def load_config(path: str) -> dict:
    """Strict INI config: sections and keys outside the option table are rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"config parse error in {path}: {e}") from e
    out = {}
    for section in cp.sections():
        if section not in {key.split(".")[0] for key in INI_KEYS}:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        out[section] = {}
        for key, value in cp.items(section):
            if f"{section}.{key}" not in INI_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            out[section][key] = value
    return out


def _option_value(o: Option, args: argparse.Namespace, config: dict,
                  values: argparse.Namespace):
    """Resolution order: explicit flag, config file, default; a callable
    default gets the values resolved before it."""
    text, source = getattr(args, o.name), o.flag
    if text is None and o.ini:
        section, key = o.ini.split(".")
        text, source = config.get(section, {}).get(key), f"[{section}] {key}"
    if text is None:
        text = o.default(values) if callable(o.default) else o.default
    if text is None and o.required:
        raise ConfigError(f"{o.flag} is required")
    if not isinstance(text, str):
        return text
    try:
        value = o.parse(text)
    except ValueError as e:
        raise ConfigError(f"{source} {e}") from e
    if o.choices and value not in o.choices:
        raise ConfigError(f"{source} must be one of {', '.join(o.choices)}, not {value!r}")
    return value


def resolve(command: Command, args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """The value of each of the command's options; the model-dependent ones
    come last, when the run's model is known."""
    values = argparse.Namespace()
    for o in sorted(command.options, key=lambda o: bool(o.models)):
        read = not o.models or values.model in o.models
        setattr(values, o.name, _option_value(o, args, config, values) if read else None)
    return values


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------

#: provenance text of the list-valued options; other values stay JSON natives
_LIST_TEXT = {
    parse_int_range: lambda v: ",".join(map(str, v)),
    parse_float_list: lambda v: ",".join(map(fmt, v)),
    parse_pair_list: str,
}


def _write_json(path: Path, obj) -> None:
    """``obj`` as strict JSON: a float that is not finite is written as null."""
    text = json.dumps(obj, sort_keys=True, default=fmt)
    path.write_text(json.dumps(json.loads(text, parse_constant=lambda _: None), indent=2) + "\n")


def write_provenance(command: Command, values: argparse.Namespace) -> None:
    """provenance.json and effective_config.ini: each option but --out and --config."""
    effective = {}
    for o in command.options:
        if o in (OUT, CONFIG):
            continue
        value = getattr(values, o.name)
        if o.parse in _LIST_TEXT:
            value = "" if value is None else _LIST_TEXT[o.parse](value)
        effective[o.name] = value
    _, _, target = command.name.partition(" ")
    if target:
        effective["target"] = target
    record = {"version": VERSION, "subcommand": command.name, "config": effective}
    _write_json(values.out / "provenance.json", record)
    cp = configparser.ConfigParser()
    cp["effective"] = {k: fmt(v) for k, v in sorted(effective.items())}
    with open(values.out / "effective_config.ini", "w") as fh:
        cp.write(fh)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_series(path: Path, xs, ys) -> None:
    """One plot series per file: two whitespace-separated columns."""
    lines = [f"{fmt(x)} {fmt(y)}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")


_GNUPLOT_TEMPLATE = """# gnuplot template: plot every series file in this directory with
#   gnuplot -e "files='<file1> <file2> ...'" plot_template.gp
set logscale y
set xlabel "x"
set ylabel "y"
plot for [f in files] f using 1:2 with linespoints title f
"""


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _spec(o: argparse.Namespace, N: int, beta: Optional[float], K: Optional[float]) -> ModelSpec:
    """The model at one grid point; parameters its model does not read are None.

    An equi-energy chain given neither p1 nor p2 gets the documented defaults.
    """
    if o.kind == "equi-energy" and o.p1 is None and o.p2 is None:
        o.p1, o.p2 = DEFAULT_P1, DEFAULT_P2
    return ModelSpec(kind=o.model, N=N, beta=beta, K=K, theta=o.theta, p1=o.p1, p2=o.p2,
                     epsilon=o.epsilon)


def cmd_gap_scan(command: Command, o: argparse.Namespace) -> int:
    if o.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {o.jobs}")
    betas = [None] if o.beta is None else o.beta
    Ks = [None] if o.k is None else o.k
    specs = [_spec(o, N, beta, K) for beta in betas for K in Ks for N in o.n]
    # the pool forks all its workers on the first submit, so no more than
    # there are cells or processors
    workers = min(o.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # each worker solves a round-robin share in batches; cell i is
        # record i // workers of share i % workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(exact_gap_records, [specs[w::workers] for w in range(workers)],
                                   repeat(o.kind)))
        results = [shares[i % workers][i // workers] for i in range(len(specs))]
    else:
        results = exact_gap_records(specs, o.kind)
    gap_keys = ["gap", "one_minus_lambda1", "lambda1", "lambda_min", "underflow"]
    header = ["model", "kind", "N", "beta", "K", "theta", "epsilon", "p1", "p2", *gap_keys]
    rows = [[spec.kind, o.kind, spec.N, spec.beta, spec.K, spec.theta, spec.epsilon, spec.p1,
             spec.p2, *(rec[k] for k in gap_keys)] for spec, rec in zip(specs, results)]
    write_csv(o.out / "gaps.csv", header, rows)
    for beta in betas:
        for K in Ks:
            sel = [(spec, r) for spec, r in zip(specs, results)
                   if spec.beta == beta and spec.K == K and not r["underflow"]]
            if len(sel) >= 2:
                tag = "_".join(filter(None, [
                    o.model, None if beta is None else f"beta{fmt_tag(beta)}",
                    None if K is None else f"K{fmt_tag(K)}"]))
                write_series(o.out / f"gap_vs_N_{tag}.dat",
                             [spec.N for spec, _ in sel], [r["gap"] for _, r in sel])
    (o.out / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)
    return EXIT_OK


def _flatten_report(outdir: Path, report) -> None:
    _write_json(outdir / "report.json", report.to_dict())
    keys = []
    for rec in report.records:
        for k in list(rec.cell) + list(rec.values):
            if k not in keys:
                keys.append(k)
    header = keys + ["passed", "note"]
    rows = []
    for rec in report.records:
        merged = {**rec.cell, **rec.values}
        rows.append([merged.get(k) for k in keys] + [rec.passed, rec.note])
    write_csv(outdir / "report.csv", header, rows)
    fit_keys = ["slope", "stderr", "ci_lo", "ci_hi", "n_points"]
    write_csv(outdir / "fits.csv", ["label", *fit_keys],
              [[label, *(getattr(f, k) for k in fit_keys)] for label, f in report.fits])
    by_series = {}
    for rec in report.records:
        # a series plots the gaps that its records do not flag as underflow
        if "N" not in rec.cell or "gap" not in rec.values or rec.values["underflow"]:
            continue
        key = tuple(sorted((k, v) for k, v in rec.cell.items() if k != "N"))
        by_series.setdefault(key, []).append((rec.cell["N"], rec.values["gap"]))
    for key, pts in by_series.items():
        tag = "_".join(f"{k}{fmt_tag(v)}" for k, v in key if k not in ("model", "kind"))
        name = f"gap_vs_N_{tag}.dat" if tag else "gap_vs_N.dat"
        write_series(outdir / name, *zip(*sorted(pts)))
    (outdir / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)


def cmd_verify(command: Command, o: argparse.Namespace) -> int:
    report = command.audit(o)
    _flatten_report(o.out, report)
    if not report.passed:
        for failure in report.failures:
            print(f"AUDIT FAILURE: {failure}", file=sys.stderr)
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def cmd_unimodality_scan(command: Command, o: argparse.Namespace) -> int:
    if o.model == "beg":
        report = verify_mod.beg_unimodality_scan(o.beta_k, o.n)
    else:
        report = verify_mod.ising_profile_scan(o.beta, o.n)
    rows = []
    for s in report.series:
        p = s.params
        tag_parts = [f"{k}{fmt_tag(v)}" for k, v in sorted(p.items()) if k != "model"]
        tag = "_".join([p["model"]] + tag_parts)
        write_series(o.out / f"qprofile_{tag}.dat", s.x, s.log_values)
        rows.append([p["model"], p.get("beta"), p.get("K"), p["N"],
                     s.unimodal, s.monotone_decreasing])
    write_csv(o.out / "unimodality.csv",
              ["model", "beta", "K", "N", "unimodal", "monotone_decreasing"], rows)
    _write_json(o.out / "n0.json", report.n0)
    (o.out / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)
    return EXIT_OK


def cmd_simulate(command: Command, o: argparse.Namespace) -> int:
    spec = _spec(o, o.n, o.beta, o.k)
    cfg = RunConfig(steps=o.steps, seed=o.seed, burn_in=o.burn_in, thinning=o.thinning,
                    observable=o.observable)
    o.burn_in = cfg.effective_burn_in
    trace = None
    # class label -> its row's ",class,value" text (the value is a function of
    # the class); emptied when full, so a long run holds at most the cap
    tails = {}

    def sink(t, label, v):
        # created with the first row: a run refused before it leaves no file
        nonlocal trace
        if trace is None:
            trace = open(o.out / "trace.csv", "w")
            trace.write("step,class,value\n")
        tail = tails.get(label)
        if tail is None:
            if len(tails) >= TRACE_TAILS_CAP:
                tails.clear()
            tail = tails[label] = f",{format_label(label)},{fmt(v)}\n"
        trace.write(f"{t}{tail}")

    try:
        stats = run_estimate(spec, o.kind, cfg, trace_sink=sink if o.trace else None)
    finally:
        if trace is not None:
            trace.close()
    payload = {"version": VERSION, "model": asdict(spec), "stats": stats.to_dict()}
    _write_json(o.out / "runstats.json", payload)
    return EXIT_OK


def _chain(o: argparse.Namespace):
    """The spec and the move table of the requested space."""
    spec = _spec(o, o.n, o.beta, o.k)
    build = {"full": metropolis_chain, "signed": signed_move_table,
             "unsigned": unsigned_lumped_chain}[o.space]
    return spec, build(spec, o.kind)


def cmd_conductance(command: Command, o: argparse.Namespace) -> int:
    if not o.interval:
        # the exhaustive route is capped by a count: refuse before building
        n = check_space(_spec(o, o.n, o.beta, o.k), o.kind, o.space)
        spectral.check_conductance_states(n)
    spec, chain = _chain(o)
    payload = {"version": VERSION, "model": asdict(spec), "kind": o.kind,
               "space": o.space, "states": chain.n}
    if o.interval:
        h_up, cut = interval_conductance(chain)
        payload["interval_bound"] = h_up
        payload["cut_index"] = cut
        payload["underflow"] = bool(h_up < GAP_RESOLUTION)
        payload["note"] = "interval route: upper bound on h over order cuts"
    else:
        h, members = conductance_exact(chain.to_kernel())
        lo, hi = cheeger_interval(h)
        payload["h"] = h
        payload["argmin_set"] = [format_label(chain.labels[i]) for i in members]
        payload["cheeger_lower_lambda1"] = lo
        payload["cheeger_upper_lambda1"] = hi
    _write_json(o.out / "conductance.json", payload)
    return EXIT_OK


def cmd_export_kernel(command: Command, o: argparse.Namespace) -> int:
    _, table = _chain(o)
    (o.out / "kernel.txt").write_text(export_kernel_text(table.to_kernel()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# The option table: it drives argparse, the INI keys and provenance.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Option:
    """One option of a command: its flag, INI key, parser and default.

    ``name`` is the argparse destination and the provenance key.  Text
    from the flag, the INI file or a text default goes through
    ``parse`` and must give one of ``choices``, if any; ``parse_bool``
    options are flags without a value.  A callable ``default`` is given
    the values resolved before it.  For a model outside ``models``
    (empty: all) the option is not read and resolves to None.
    """

    name: str
    flag: str
    ini: Optional[str] = None  # "section.key"
    parse: Callable[[str], Any] = str
    default: Any = None
    choices: tuple = ()
    required: bool = False
    models: tuple = ()
    help: Optional[str] = None


@dataclass(frozen=True)
class Command:
    """A subcommand, or "verify <target>" with the ``audit`` that makes its report."""

    name: str
    help: str
    run: Callable[["Command", argparse.Namespace], int]
    options: tuple
    audit: Optional[Callable[[argparse.Namespace], Any]] = None


RANGE_HELP = "size or range: '12', '10..60..2', '10,20,30'"
PAIRS_HELP = "beg cells 'beta:K,beta:K'"
SPIN_MODELS = ("ising", "beg")

OUT = Option("out", "--out", "output.dir", Path, lambda _: os.environ.get(OUTPUT_ENV, "out"),
             help=f"output directory (default ${OUTPUT_ENV} or ./out)")
CONFIG = Option("config", "--config", help="INI config file; flags override it")
MODEL = Option("model", "--model", "model.kind", choices=models.KINDS, required=True)
#: follows --model, which every command lists before it
CHAIN = Option("kind", "--kind", "run.chain", choices=CHAIN_KINDS,
               default=lambda v: "small-world" if v.model == "warmup" else "equi-energy")
THETA = Option("theta", "--theta", "model.theta", parse_real, models=("warmup",))
EPSILON = Option("epsilon", "--epsilon", "model.epsilon", parse_real, models=("warmup",))
P1 = Option("p1", "--p1", "model.p1", parse_real, models=SPIN_MODELS)
P2 = Option("p2", "--p2", "model.p2", parse_real, models=SPIN_MODELS)
#: one model instance (simulate, conductance, export-kernel)
SPEC = (MODEL, Option("n", "--n", "model.n", int, required=True, help="system size"), CHAIN)
SPEC_PARAMS = (Option("beta", "--beta", "model.beta", parse_real, models=SPIN_MODELS),
               Option("k", "--k", "model.k", parse_real, models=("beg",), help="beg coupling K"),
               THETA, EPSILON, P1, P2)
SPACE = Option("space", "--space", default="full", choices=("full", "signed", "unsigned"))

GRID_N = Option("n", "--n", "grid.n", parse_int_range, "10..30..2", help=RANGE_HELP)
GRID_P1 = Option("p1", "--p1", "grid.p1", parse_real, DEFAULT_P1)
GRID_P2 = Option("p2", "--p2", "grid.p2", parse_real, DEFAULT_P2)
SLOPE_THRESHOLD = Option("slope_threshold", "--slope-threshold", parse=parse_real, default=-0.05)


def _verify(target: str, help: str, audit, *options: Option) -> Command:
    return Command(f"verify {target}", help, cmd_verify, (GRID_N, *options, OUT, CONFIG), audit)


COMMANDS = (
    Command("gap-scan", "exact spectral gaps over a parameter grid", cmd_gap_scan, (
        MODEL, CHAIN,
        Option("n", "--n", "model.n", parse_int_range, "10..40..10", help=RANGE_HELP),
        Option("beta", "--beta", "model.beta", parse_float_list, "1.0", models=SPIN_MODELS),
        Option("k", "--k", "model.k", parse_float_list, "1.0", models=("beg",),
               help="beg coupling K"),
        THETA, EPSILON, P1, P2,
        Option("jobs", "--jobs", "output.jobs", int, 1, help="parallel grid cells"),
        OUT, CONFIG)),
    # verifiers are looked up on their module at call time, where a tracer
    # may have wrapped them
    _verify("ising-fast", "polynomial gap floor of the equi-energy ising chain",
            lambda o: verify_mod.verify_ising_fast(o.beta, o.n, o.p1, o.p2),
            Option("beta", "--beta", "grid.beta", parse_float_list, "0.5,1,2,4"),
            GRID_P1, GRID_P2),
    _verify("ising-slow", "exponential gap collapse of the naive ising chain",
            lambda o: verify_mod.verify_ising_slow(o.beta, o.n, slope_threshold=o.slope_threshold),
            Option("beta", "--beta", "grid.beta", parse_float_list, "2"), SLOPE_THRESHOLD),
    _verify("warmup", "gap scaling of the naive and small-world warm-up chains",
            lambda o: verify_mod.verify_warmup(o.theta, o.epsilon, o.n),
            Option("theta", "--theta", "grid.theta", parse_real, 2.0),
            Option("epsilon", "--epsilon", "grid.epsilon", parse_real, 0.3)),
    _verify("beg-slow", "exponential gap collapse of the naive beg chain",
            lambda o: verify_mod.verify_beg_slow(o.beta_k, o.n, deep=o.deep or None,
                                                 slope_threshold=o.slope_threshold),
            Option("beta_k", "--beta-k", "grid.beta_k", parse_pair_list, "3:5", help=PAIRS_HELP),
            Option("deep", "--deep", "grid.deep", parse_pair_list,
                   help="subset of --beta-k that must show collapse"),
            SLOPE_THRESHOLD),
    _verify("beg-fast", "polynomial gap of the equi-energy beg chain",
            lambda o: verify_mod.verify_beg_fast(o.beta_k, o.n, o.p1, o.p2,
                                                 slope_floor=o.slope_floor),
            Option("beta_k", "--beta-k", "grid.beta_k", parse_pair_list, "1:1", help=PAIRS_HELP),
            GRID_P1, GRID_P2,
            Option("slope_floor", "--slope-floor", parse=parse_real, default=-6.25)),
    Command("unimodality-scan", "class-weight profile scans", cmd_unimodality_scan, (
        Option("model", "--model", "model.kind", default="beg", choices=SPIN_MODELS),
        Option("n", "--n", "grid.n", parse_int_range, "5..30..5", help=RANGE_HELP),
        Option("beta_k", "--beta-k", "grid.beta_k", parse_pair_list, "1:1,2.5:1.082",
               models=("beg",), help=PAIRS_HELP),
        Option("beta", "--beta", "grid.beta", parse_float_list, "0.5,2",
               models=("ising",)),
        OUT, CONFIG)),
    Command("simulate", "trajectory estimate at sampling scale", cmd_simulate, (
        *SPEC, *SPEC_PARAMS,
        Option("steps", "--steps", "run.steps", parse_count, 100000),
        Option("burn_in", "--burn-in", "run.burn_in", parse_count),
        Option("thinning", "--thin", "run.thinning", parse_count, 1),
        Option("seed", "--seed", "run.seed", int, 0),
        Option("observable", "--observable", "run.observable", default="mag",
               choices=OBSERVABLES),
        Option("trace", "--trace", "run.trace", parse_bool, False, help="write the thinned trace"),
        OUT, CONFIG)),
    Command("conductance", "exact bottleneck analysis (<= 24 states)", cmd_conductance, (
        *SPEC, *SPEC_PARAMS, SPACE,
        Option("interval", "--interval", parse=parse_bool, default=False,
               help="interval-cut upper bound instead of the exact h"),
        OUT, CONFIG)),
    Command("export-kernel", "write a kernel in the text format", cmd_export_kernel, (
        *SPEC, *SPEC_PARAMS, SPACE, OUT, CONFIG)),
)

#: every accepted INI key, as "section.key"
INI_KEYS = frozenset(o.ini for c in COMMANDS for o in c.options if o.ini)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spingap", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    targets = sub.add_parser("verify", help="theorem audits").add_subparsers(
        dest="target", required=True)
    for command in COMMANDS:
        group, _, target = command.name.partition(" ")
        # no abbreviations: a command accepts exactly the flags it reads
        p = (targets if target else sub).add_parser(target or group, help=command.help,
                                                    allow_abbrev=False)
        for o in command.options:
            if o.parse is parse_bool:
                p.add_argument(o.flag, dest=o.name, action="store_const", const=True, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.name, choices=o.choices or None, help=o.help)
        p.set_defaults(command=command, command_parser=p)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the sub-parsers hand unknown flags up to the root; report
            # them with the command's own usage line
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    made = []  # the directories this run creates, deepest first
    try:
        config = load_config(args.config) if args.config else {}
        values = resolve(args.command, args, config)
        made = [d for d in (values.out, *values.out.parents) if not d.exists()]
        values.out.mkdir(parents=True, exist_ok=True)
        code = args.command.run(args.command, values)
        # every command returns 0 or 3; one that raises leaves no provenance
        write_provenance(args.command, values)
        return code
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        # a refused run removes the directories it made while they are empty
        for d in made:
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
