"""Command-line interface.

Exit codes: 0 on success, 1 when a verification command finds a failing
identity, 2 on usage/configuration errors, 3 on domain errors (inputs
outside the mathematical domain of an operation).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .coalgebra import delta_minus, delta_plus_ex, twisted_antipode
from .config import rational
from .errors import ConfigError, DomainError, ParseError
from .gaussian import CovarianceSpec, SymbolicCovariance, g_antipode
from .model import check_bphz_plain, check_gamma_bphz
from .structure import StructureSpec, generic_spec
from .trees import FormalSum, format_forest, format_symbol, format_tree, parse_symbol
from .roughsim import (
    KernelSpec,
    MollifierSpec,
    SimConfig,
    c_eps,
    c_eps_timedep,
    model_bound_probe,
    wz_experiment,
)

TENSOR = " (x) "


def _format_pair_terms(pairs, leg_formatter):
    lines = []
    for key, coeff in pairs.sorted_terms():
        legs = TENSOR.join(leg_formatter(leg) for leg in key)
        prefix = "" if coeff == 1 else f"{coeff}*"
        lines.append(f"{prefix}{legs}")
    return lines


def _parse_alpha(text, d):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise ConfigError(f"expected {d} alpha entries, got {len(parts)}")
    return tuple(rational(p) for p in parts)


def _spec_from_args(args):
    if args.alpha:
        return StructureSpec(d=args.d, alpha=_parse_alpha(args.alpha, args.d))
    return generic_spec(args.d, args.nmax)


def _cmd_delta_minus(args):
    x = parse_symbol(args.symbol, d=args.d)
    result = delta_minus(x)
    for line in _format_pair_terms(result, format_forest):
        print(line)
    return 0


def _cmd_delta_plus(args):
    spec = _spec_from_args(args)
    x = parse_symbol(args.symbol, d=args.d)
    acc = FormalSum()
    for f, c in x:
        if len(f.trees) > 1:
            raise DomainError("the positive coproduct acts on trees, not forests")
        tree = f.trees[0] if f.trees else None
        terms = delta_plus_ex(tree, spec) if tree is not None else FormalSum()
        acc += terms.scale(c)
    for line in _format_pair_terms(acc, format_tree):
        print(line)
    return 0


def _cmd_antipode(args):
    spec = _spec_from_args(args)
    x = parse_symbol(args.symbol, d=args.d)
    result = twisted_antipode(x, spec)
    print(format_symbol(result))
    return 0


def _cmd_g_antipode(args):
    spec = _spec_from_args(args)
    x = parse_symbol(args.symbol, d=args.d)
    if args.cov:
        cov = CovarianceSpec.from_text(_read_text(args.cov))
        if cov.d != args.d:
            raise ConfigError("covariance dimension does not match --d")
    else:
        cov = SymbolicCovariance(args.d)
    value = g_antipode(x, cov, spec)
    print(value)
    return 0


def _cmd_check_bphz(args):
    spec = generic_spec(args.d, args.nmax)
    report = check_bphz_plain(spec, args.nmax, SymbolicCovariance(args.d))
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["status"] == "pass" else 1


def _cmd_check_gamma(args):
    spec = generic_spec(args.d, args.nmax)
    report = check_gamma_bphz(spec, args.nmax, SymbolicCovariance(args.d))
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# simulation commands


def _read_text(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir, command, config_text, seed, outputs):
    manifest = {
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "config": config_text,
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fieldnames})


def _cmd_wong_zakai(args):
    config_text = _read_text(args.config)
    config = SimConfig.from_text(config_text)
    result = wz_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "wz.csv",
        ["eps", "path", "I_uncorr", "I_corr", "I_model", "I_ito"],
        result.rows,
    )
    _write_csv(
        out_dir / "wz_summary.csv",
        ["eps", "rms_uncorr", "rms_corr", "c_eps"],
        result.summary,
    )
    _write_manifest(
        out_dir, "simulate wong-zakai", config_text, config.seed,
        ["wz.csv", "wz_summary.csv"],
    )
    for row in result.summary:
        print(
            f"eps={row['eps']:.6g} rms_uncorr={row['rms_uncorr']:.6g} "
            f"rms_corr={row['rms_corr']:.6g} c_eps={row['c_eps']:.6g}"
        )
    return 0


def _cmd_c_eps(args):
    moll = MollifierSpec(args.mollifier)
    kernel = KernelSpec(H=args.H, T=args.T)
    if args.time is not None:
        value = c_eps_timedep(args.time, args.eps, args.H, moll)
        print(f"c_eps(t={args.time}) = {value:.12g}")
    else:
        value, err = c_eps(args.eps, kernel, moll, with_error=True)
        print(f"c_eps = {value:.12g} (quadrature error estimate {err:.3g})")
    return 0


def _cmd_bounds(args):
    config_text = _read_text(args.config)
    config = SimConfig.from_text(config_text)
    report = model_bound_probe(
        H=config.H,
        kappa=config.kappa,
        n_grid=config.n_grid,
        n_paths=config.n_paths,
        seed=config.seed,
        eps_list=config.eps_list,
        lambdas=config.lambdas,
        n_powers=config.powers,
        mollifier=config.mollifier,
        T=config.T,
        threads=config.threads,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "bounds.csv", ["tau", "lambda", "eps", "rms_pairing"], report["rows"]
    )
    _write_manifest(out_dir, "simulate bounds", config_text, config.seed, ["bounds.csv"])
    ok = True
    for tau, fit in report["fits"].items():
        print(
            f"{tau}: eps_exponent={fit['eps_exponent']:.4f} "
            f"lambda_exponent={fit['lambda_exponent']:.4f}"
        )
        if fit["eps_exponent"] <= 0:
            ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="roughrenorm",
        description="Symbolic renormalization combinatorics and the corrected "
        "Wong-Zakai simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sym = sub.add_parser("symbolic", help="exact tree/forest computations")
    symsub = sym.add_subparsers(dest="subcommand", required=True)

    def add_sym(name, fn, needs_symbol=True, needs_cov=False):
        p = symsub.add_parser(name)
        if needs_symbol:
            p.add_argument("symbol", help="symbol expression, e.g. 'Xi_1*I(Xi_2)^3'")
        p.add_argument("--d", type=int, default=2, help="number of noise channels")
        p.add_argument("--nmax", type=int, default=8, help="power bound")
        p.add_argument(
            "--alpha", default=None, help="comma-separated rational exponents"
        )
        if needs_cov:
            p.add_argument("--cov", default=None, help="covariance file (text)")
        p.set_defaults(fn=fn)
        return p

    add_sym("delta-minus", _cmd_delta_minus)
    add_sym("delta-plus", _cmd_delta_plus)
    add_sym("antipode", _cmd_antipode)
    add_sym("g-antipode", _cmd_g_antipode, needs_cov=True)
    add_sym("check-bphz", _cmd_check_bphz, needs_symbol=False)
    add_sym("check-gamma", _cmd_check_gamma, needs_symbol=False)

    sim = sub.add_parser("simulate", help="stochastic simulation commands")
    simsub = sim.add_subparsers(dest="subcommand", required=True)

    wz = simsub.add_parser("wong-zakai")
    wz.add_argument("--config", required=True)
    wz.add_argument("--out", default="wz_out")
    wz.set_defaults(fn=_cmd_wong_zakai)

    ce = simsub.add_parser("c-eps")
    ce.add_argument("--H", type=float, required=True)
    ce.add_argument("--eps", type=float, required=True)
    ce.add_argument("--T", type=float, default=1.0)
    ce.add_argument("--mollifier", default="bump")
    ce.add_argument("--time", type=float, default=None,
                    help="evaluate the time-dependent form at this time")
    ce.set_defaults(fn=_cmd_c_eps)

    bd = simsub.add_parser("bounds")
    bd.add_argument("--config", required=True)
    bd.add_argument("--out", default="bounds_out")
    bd.set_defaults(fn=_cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
