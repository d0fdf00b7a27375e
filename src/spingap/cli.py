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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

from . import models, verify as verify_mod
from .kernels import (
    export_kernel_text,
    metropolis_chain,
    signed_lumped_chain,
    unsigned_lumped_chain,
    format_label,
)
from .models import ModelSpec
from .sampling import RunConfig, run_estimate
from .spectral import cheeger_interval, conductance_exact, interval_conductance
from .verify import exact_gap_record

VERSION = "spingap 0.1.0"
OUTPUT_ENV = "SPINGAP_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AUDIT_FAILED = 3

_CONFIG_SCHEMA = {
    "model": {"kind", "n", "beta", "k", "theta", "epsilon", "p1", "p2"},
    "run": {"chain", "steps", "burn_in", "thinning", "seed", "observable", "trace"},
    "grid": {"beta", "beta_k", "deep", "n", "theta", "epsilon", "p1", "p2"},
    "output": {"dir", "jobs"},
}


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


def parse_int_range(text: str) -> list[int]:
    """'10..60..2' (inclusive), '10..60' (step 1), or '10,20,30', or '12'."""
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            start, stop, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            start, stop, step = int(parts[0]), int(parts[1]), int(parts[2])
        else:
            raise ConfigError(f"bad range {text!r}")
        if step < 1 or stop < start:
            raise ConfigError(f"bad range {text!r}")
        return list(range(start, stop + 1, step))
    if "," in text:
        return [int(v) for v in text.split(",") if v.strip()]
    return [int(text)]


def parse_float_list(text: str) -> list[float]:
    return [float(v) for v in str(text).split(",") if v.strip()]


def parse_pair_list(text: str) -> list[tuple[float, float]]:
    """'3:5,1.5:2' -> [(3.0, 5.0), (1.5, 2.0)]."""
    out = []
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        a, b = item.split(":")
        out.append((float(a), float(b)))
    return out


def load_config(path: str) -> dict:
    """Strict INI config: unknown sections or keys are rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"config parse error in {path}: {e}") from e
    out = {}
    for section in cp.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        out[section] = {}
        for key, value in cp.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            out[section][key] = value
    return out


def _cfg(config: dict, section: str, key: str, override, default=None):
    """Resolution order: explicit CLI flag, config file, default."""
    if override is not None:
        return override
    if section in config and key in config[section]:
        return config[section][key]
    return default


def build_spec(kind: str, N: int, beta=None, K=None, theta=None, epsilon=None,
               p1=None, p2=None) -> ModelSpec:
    if kind == "ising":
        return models.ising(N, beta=beta, p1=p1, p2=p2)
    if kind == "beg":
        return models.beg(N, beta=beta, K=K, p1=p1, p2=p2)
    if kind == "warmup":
        return models.warmup(N, theta=theta, epsilon=epsilon)
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------

def _outdir(args, config) -> Path:
    out = _cfg(config, "output", "dir", args.out,
               os.environ.get(OUTPUT_ENV, "out"))
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_provenance(outdir: Path, subcommand: str, effective: dict) -> None:
    record = {
        "version": VERSION,
        "subcommand": subcommand,
        "config": effective,
    }
    (outdir / "provenance.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=fmt) + "\n")
    cp = configparser.ConfigParser()
    cp["effective"] = {k: fmt(v) for k, v in sorted(effective.items())}
    with open(outdir / "effective_config.ini", "w") as fh:
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

def _gap_cell(job):
    kind_model, chain_kind, N, beta, K, theta, epsilon, p1, p2 = job
    spec = build_spec(kind_model, N, beta=beta, K=K, theta=theta,
                      epsilon=epsilon, p1=p1, p2=p2)
    return exact_gap_record(spec, chain_kind)


def cmd_gap_scan(args, config) -> int:
    outdir = _outdir(args, config)
    model = _cfg(config, "model", "kind", args.model)
    if model is None:
        raise ConfigError("--model is required")
    chain = _cfg(config, "run", "chain", args.kind, "equi-energy")
    Ns = parse_int_range(str(_cfg(config, "model", "n", args.n, "10..40..10")))
    betas = parse_float_list(_cfg(config, "model", "beta", args.beta, "1.0")) \
        if model != "warmup" else [None]
    Ks = parse_float_list(_cfg(config, "model", "k", args.k, "1.0")) \
        if model == "beg" else [None]
    theta = _cfg(config, "model", "theta", args.theta)
    theta = float(theta) if theta is not None else None
    epsilon = _cfg(config, "model", "epsilon", args.epsilon)
    epsilon = float(epsilon) if epsilon is not None else None
    p1 = _cfg(config, "model", "p1", args.p1)
    p2 = _cfg(config, "model", "p2", args.p2)
    p1 = float(p1) if p1 is not None else None
    p2 = float(p2) if p2 is not None else None
    if chain == "equi-energy" and p1 is None and p2 is None:
        p1, p2 = DEFAULT_P1, DEFAULT_P2
    jobs = int(_cfg(config, "output", "jobs", args.jobs, 1))
    cells = [(model, chain, N, beta, K, theta, epsilon, p1, p2)
             for beta in betas for K in Ks for N in Ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_gap_cell, cells))
    else:
        results = [_gap_cell(c) for c in cells]
    header = ["model", "kind", "N", "beta", "K", "theta", "epsilon", "p1", "p2",
              "gap", "one_minus_lambda1", "lambda1", "lambda_min", "underflow"]
    rows = []
    for cell, rec in zip(cells, results):
        _, _, N, beta, K, th, eps, q1, q2 = cell
        rows.append([model, chain, N, beta, K, th, eps, q1, q2,
                     rec["gap"], rec["one_minus_lambda1"], rec["lambda1"],
                     rec["lambda_min"], rec["underflow"]])
    write_csv(outdir / "gaps.csv", header, rows)
    for beta in betas:
        for K in Ks:
            sel = [(c, r) for c, r in zip(cells, results)
                   if c[3] == beta and c[4] == K and not r["underflow"]]
            if len(sel) >= 2:
                tag = "_".join(filter(None, [
                    model, None if beta is None else f"beta{fmt_tag(beta)}",
                    None if K is None else f"K{fmt_tag(K)}"]))
                write_series(outdir / f"gap_vs_N_{tag}.dat",
                             [c[2] for c, _ in sel], [r["gap"] for _, r in sel])
    (outdir / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)
    write_provenance(outdir, "gap-scan", {
        "model": model, "kind": chain, "n": ",".join(map(str, Ns)),
        "beta": _cfg(config, "model", "beta", args.beta, ""),
        "k": _cfg(config, "model", "k", args.k, ""),
        "theta": theta, "epsilon": epsilon, "p1": p1, "p2": p2, "jobs": jobs,
    })
    return EXIT_OK


def _flatten_report(outdir: Path, report) -> None:
    (outdir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True, default=fmt) + "\n")
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
    fit_rows = [[label, f.slope, f.stderr, f.ci_lo, f.ci_hi, f.n_points]
                for label, f in report.fits]
    write_csv(outdir / "fits.csv",
              ["label", "slope", "stderr", "ci_lo", "ci_hi", "n_points"], fit_rows)
    by_series = {}
    for rec in report.records:
        if "N" not in rec.cell or "gap" not in rec.values:
            continue
        key = tuple(sorted((k, v) for k, v in rec.cell.items() if k != "N"))
        by_series.setdefault(key, []).append((rec.cell["N"], rec.values["gap"]))
    for key, pts in by_series.items():
        tag = "_".join(f"{k}{fmt_tag(v)}" for k, v in key if k not in ("model", "kind"))
        name = f"gap_vs_N_{tag}.dat" if tag else "gap_vs_N.dat"
        pts = [(n, g) for n, g in sorted(pts) if g >= verify_mod.UNDERFLOW]
        if pts:
            write_series(outdir / name, [p[0] for p in pts], [p[1] for p in pts])
    (outdir / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)


def cmd_verify(args, config) -> int:
    outdir = _outdir(args, config)
    target = args.target
    Ns = parse_int_range(str(_cfg(config, "grid", "n", args.n, "10..30..2")))
    p1 = float(_cfg(config, "grid", "p1", args.p1, 0.5))
    p2 = float(_cfg(config, "grid", "p2", args.p2, 0.25))
    effective = {"target": target, "n": ",".join(map(str, Ns)), "p1": p1, "p2": p2}
    if target == "ising-fast":
        betas = parse_float_list(_cfg(config, "grid", "beta", args.beta, "0.5,1,2,4"))
        report = verify_mod.verify_ising_fast(betas, Ns, p1, p2)
        effective["beta"] = ",".join(map(fmt, betas))
    elif target == "ising-slow":
        betas = parse_float_list(_cfg(config, "grid", "beta", args.beta, "2"))
        report = verify_mod.verify_ising_slow(betas, Ns,
                                              slope_threshold=args.slope_threshold)
        effective["beta"] = ",".join(map(fmt, betas))
        effective["slope_threshold"] = args.slope_threshold
    elif target == "warmup":
        theta = float(_cfg(config, "grid", "theta", args.theta, 2.0))
        epsilon = float(_cfg(config, "grid", "epsilon", args.epsilon, 0.3))
        report = verify_mod.verify_warmup(theta, epsilon, Ns)
        effective.update(theta=theta, epsilon=epsilon)
    elif target == "beg-slow":
        cells = parse_pair_list(_cfg(config, "grid", "beta_k", args.beta_k, "3:5"))
        deep_arg = _cfg(config, "grid", "deep", args.deep)
        deep = parse_pair_list(deep_arg) if deep_arg else None
        report = verify_mod.verify_beg_slow(cells, Ns, deep=deep,
                                            slope_threshold=args.slope_threshold)
        effective["beta_k"] = str(cells)
        effective["slope_threshold"] = args.slope_threshold
    elif target == "beg-fast":
        cells = parse_pair_list(_cfg(config, "grid", "beta_k", args.beta_k, "1:1"))
        report = verify_mod.verify_beg_fast(cells, Ns, p1, p2,
                                            slope_floor=args.slope_floor)
        effective["beta_k"] = str(cells)
        effective["slope_floor"] = args.slope_floor
    else:
        raise ConfigError(f"unknown verify target {target!r}")
    _flatten_report(outdir, report)
    write_provenance(outdir, f"verify {target}", effective)
    if not report.passed:
        for failure in report.failures:
            print(f"AUDIT FAILURE: {failure}", file=sys.stderr)
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def cmd_unimodality_scan(args, config) -> int:
    outdir = _outdir(args, config)
    model = _cfg(config, "model", "kind", args.model, "beg")
    Ns = parse_int_range(str(_cfg(config, "grid", "n", args.n, "5..30..5")))
    if model == "beg":
        pairs_text = _cfg(config, "grid", "beta_k", args.beta_k, "1:1,2.5:1.082")
        pairs = parse_pair_list(pairs_text)
        report = verify_mod.beg_unimodality_scan(pairs, Ns)
        effective = {"model": model, "beta_k": str(pairs), "n": ",".join(map(str, Ns))}
    elif model == "ising":
        betas = parse_float_list(_cfg(config, "grid", "beta", args.beta, "0.5,2"))
        report = verify_mod.ising_profile_scan(betas, Ns)
        effective = {"model": model, "beta": ",".join(map(fmt, betas)),
                     "n": ",".join(map(str, Ns))}
    else:
        raise ConfigError("unimodality scans exist for ising and beg")
    rows = []
    for s in report.series:
        p = s.params
        tag_parts = [f"{k}{fmt_tag(v)}" for k, v in sorted(p.items()) if k != "model"]
        tag = "_".join([p["model"]] + tag_parts)
        write_series(outdir / f"qprofile_{tag}.dat", s.x, s.log_values)
        rows.append([p["model"], p.get("beta"), p.get("K"), p["N"],
                     s.unimodal, s.monotone_decreasing])
    write_csv(outdir / "unimodality.csv",
              ["model", "beta", "K", "N", "unimodal", "monotone_decreasing"], rows)
    (outdir / "n0.json").write_text(
        json.dumps(report.n0, indent=2, sort_keys=True, default=fmt) + "\n")
    (outdir / "plot_template.gp").write_text(_GNUPLOT_TEMPLATE)
    write_provenance(outdir, "unimodality-scan", effective)
    return EXIT_OK


DEFAULT_P1 = 0.5
DEFAULT_P2 = 0.25


def _spec_from_args(args, config, chain_kind: Optional[str] = None) -> ModelSpec:
    model = _cfg(config, "model", "kind", args.model)
    if model is None:
        raise ConfigError("--model is required")
    N = int(_cfg(config, "model", "n", args.n, 0))
    if N == 0:
        raise ConfigError("--n is required (a single size here)")
    getf = lambda key, flag: (lambda v: float(v) if v is not None else None)(
        _cfg(config, "model", key, flag))
    p1 = getf("p1", args.p1)
    p2 = getf("p2", args.p2)
    if chain_kind == "equi-energy" and p1 is None and p2 is None:
        p1, p2 = DEFAULT_P1, DEFAULT_P2  # documented defaults
    return build_spec(model, N, beta=getf("beta", args.beta),
                      K=getf("k", args.k), theta=getf("theta", args.theta),
                      epsilon=getf("epsilon", args.epsilon),
                      p1=p1, p2=p2)


def cmd_simulate(args, config) -> int:
    outdir = _outdir(args, config)
    chain = _cfg(config, "run", "chain", args.kind, "equi-energy")
    spec = _spec_from_args(args, config, chain_kind=chain)
    steps = int(float(_cfg(config, "run", "steps", args.steps, 100000)))
    burn = _cfg(config, "run", "burn_in", args.burn_in)
    burn = int(float(burn)) if burn is not None else None
    thinning = int(_cfg(config, "run", "thinning", args.thin, 1))
    seed = int(_cfg(config, "run", "seed", args.seed, 0))
    observable = _cfg(config, "run", "observable", args.observable, "mag")
    cfg = RunConfig(steps=steps, seed=seed, burn_in=burn, thinning=thinning,
                    observable=observable)
    trace_rows = []
    sink = None
    trace = _cfg(config, "run", "trace", None, "false")
    if trace.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigError(f"[run] trace must be true/false, yes/no, on/off or 1/0, not {trace!r}")
    want_trace = args.trace or configparser.ConfigParser.BOOLEAN_STATES[trace.lower()]
    if want_trace:
        sink = lambda t, label, v: trace_rows.append([t, format_label(label), v])
    stats = run_estimate(spec, chain, cfg, trace_sink=sink)
    payload = {"version": VERSION, "model": _spec_dict(spec), "stats": stats.to_dict()}
    (outdir / "runstats.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=fmt) + "\n")
    if want_trace:
        write_csv(outdir / "trace.csv", ["step", "class", "value"], trace_rows)
    write_provenance(outdir, "simulate", {
        "model": spec.kind, "n": spec.N, "kind": chain, "steps": steps,
        "burn_in": cfg.effective_burn_in, "thinning": thinning, "seed": seed,
        "observable": observable, "beta": spec.beta, "k": spec.K,
        "theta": spec.theta, "epsilon": spec.epsilon, "p1": spec.p1, "p2": spec.p2,
    })
    return EXIT_OK


def _spec_dict(spec: ModelSpec) -> dict:
    return {k: getattr(spec, k) for k in
            ("kind", "N", "beta", "K", "theta", "p1", "p2", "epsilon", "a")}


def _chain_from_args(args, config):
    chain_kind = _cfg(config, "run", "chain", args.kind, "equi-energy")
    spec = _spec_from_args(args, config, chain_kind=chain_kind)
    space = args.space
    if space == "full":
        kernel = metropolis_chain(spec, chain_kind)
    elif space == "signed":
        kernel = signed_lumped_chain(spec, chain_kind)
    elif space == "unsigned":
        kernel = unsigned_lumped_chain(spec, chain_kind)
    else:
        raise ConfigError(f"unknown state space {space!r}")
    return spec, chain_kind, kernel


def cmd_conductance(args, config) -> int:
    outdir = _outdir(args, config)
    spec, chain_kind, kernel = _chain_from_args(args, config)
    payload = {"version": VERSION, "model": _spec_dict(spec), "kind": chain_kind,
               "space": args.space, "states": kernel.n}
    if args.interval:
        h_up, cut = interval_conductance(kernel)
        payload["interval_bound"] = h_up
        payload["cut_index"] = cut
        payload["note"] = "interval route: upper bound on h over order cuts"
    else:
        h, members = conductance_exact(kernel)
        lo, hi = cheeger_interval(h)
        payload["h"] = h
        payload["argmin_set"] = [format_label(kernel.labels[i]) for i in members]
        payload["cheeger_lower_lambda1"] = lo
        payload["cheeger_upper_lambda1"] = hi
    (outdir / "conductance.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=fmt) + "\n")
    write_provenance(outdir, "conductance", {
        "model": spec.kind, "n": spec.N, "kind": chain_kind, "space": args.space,
        "interval": bool(args.interval)})
    return EXIT_OK


def cmd_export_kernel(args, config) -> int:
    outdir = _outdir(args, config)
    spec, chain_kind, kernel = _chain_from_args(args, config)
    (outdir / "kernel.txt").write_text(export_kernel_text(kernel))
    write_provenance(outdir, "export-kernel", {
        "model": spec.kind, "n": spec.N, "kind": chain_kind, "space": args.space})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", choices=("ising", "beg", "warmup"))
    p.add_argument("--n", help="size or range: '12', '10..60..2', '10,20,30'")
    p.add_argument("--beta")
    p.add_argument("--k", help="beg coupling K")
    p.add_argument("--theta")
    p.add_argument("--epsilon")
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)


def _add_common(p):
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_ENV} or ./out)")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--jobs", type=int, help="parallel grid cells")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spingap", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gap-scan", help="exact spectral gaps over a parameter grid")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--kind", choices=("naive", "equi-energy", "small-world"))
    p.set_defaults(func=cmd_gap_scan)

    p = sub.add_parser("verify", help="theorem audits")
    p.add_argument("target", choices=("ising-fast", "ising-slow", "warmup",
                                      "beg-slow", "beg-fast"))
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--beta-k", help="beg cells 'beta:K,beta:K'")
    p.add_argument("--deep", help="subset of --beta-k that must show collapse")
    p.add_argument("--slope-threshold", type=float, default=-0.05)
    p.add_argument("--slope-floor", type=float, default=-6.25)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("unimodality-scan", help="class-weight profile scans")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--beta-k", help="beg cells 'beta:K,beta:K'")
    p.set_defaults(func=cmd_unimodality_scan)

    p = sub.add_parser("simulate", help="trajectory estimate at sampling scale")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--kind", choices=("naive", "equi-energy", "small-world"))
    p.add_argument("--steps")
    p.add_argument("--burn-in", dest="burn_in")
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--observable", choices=("mag", "abs_mag", "quad", "const"))
    p.add_argument("--trace", action="store_true", help="write the thinned trace")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conductance", help="exact bottleneck analysis (<= 24 states)")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--kind", choices=("naive", "equi-energy", "small-world"))
    p.add_argument("--space", choices=("full", "signed", "unsigned"), default="full")
    p.add_argument("--interval", action="store_true",
                   help="interval-cut upper bound instead of the exact h")
    p.set_defaults(func=cmd_conductance)

    p = sub.add_parser("export-kernel", help="write a kernel in the text format")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--kind", choices=("naive", "equi-energy", "small-world"))
    p.add_argument("--space", choices=("full", "signed", "unsigned"), default="full")
    p.set_defaults(func=cmd_export_kernel)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
