"""Command-line interface.

Exit codes: 0 on success, 1 when a verification command finds a failing
identity, 2 on usage/configuration errors, 3 on domain errors (inputs
outside the mathematical domain of an operation, or a ``c_eps`` that is
not finite), 141 when the reader of stdout closed it early (128 +
SIGPIPE, as a shell reports a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy
import scipy

from . import __version__
from .coalgebra import delta_minus, delta_plus_ex, twisted_antipode
from .config import rational
from .errors import ConfigError, DomainError, ParseError
from .gaussian import CovarianceSpec, SymbolicCovariance, g_antipode
from .model import check_bphz_plain, check_gamma_bphz
from .structure import MAX_TRUNCATION, StructureSpec, generic_spec, require_channels
from .trees import LEAF, FormalSum, format_forest, format_symbol, format_tree, parse_symbol
from .roughsim import (
    KernelSpec,
    SimConfig,
    c_eps,
    c_eps_timedep,
    model_bound_probe,
    usable_cpus,
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
        acc += delta_plus_ex(f.trees[0] if f.trees else LEAF, spec).scale(c)
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


def _cmd_check(args):
    if args.nmax > MAX_TRUNCATION:
        raise ConfigError(f"--nmax {args.nmax} is above the cap of {MAX_TRUNCATION}")
    report = args.check(generic_spec(args.d, args.nmax), args.nmax, SymbolicCovariance(args.d))
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


def _platform_string():
    """``platform.platform()`` on Linux, where its processor name is empty,
    ``unknown`` or the machine's, built without the ``uname -p`` subprocess
    it starts to read that name."""
    u = platform.uname()  # its system, release and machine need no subprocess
    if u.system != "Linux":
        return platform.platform()
    return platform._platform(u.system, u.release, u.machine, "with", "".join(platform.libc_ver()))


def _write_manifest(out_dir, command, config_text, seed, outputs, **extra):
    manifest = {
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "config": config_text,
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
        **extra,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": _platform_string(),
            "cpus": usable_cpus(),
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fieldnames})


def _write_outputs(args, config_text, seed, c_eps_table, timings, *tables):
    """Make ``--out``, write each ``(name, columns, rows)`` of ``tables`` as a
    CSV there, time that as the ``output`` phase of ``timings``, and write
    the manifest, with ``c_eps`` and its quadrature error per eps."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for name, columns, rows in tables:
        _write_csv(out_dir / name, columns, rows)
    timings["output"] = time.perf_counter() - start
    _write_manifest(
        out_dir, f"simulate {args.subcommand}", config_text, seed,
        [name for name, _, _ in tables],
        c_eps=[{"eps": e, "value": v, "quad_error": err} for e, (v, err) in c_eps_table.items()],
        timings=timings,
    )


def _cmd_wong_zakai(args):
    config_text = _read_text(args.config)
    config = SimConfig.from_text(config_text, bounds=False)
    result = wz_experiment(config)
    _write_outputs(
        args, config_text, config.seed, result.c_eps, result.timings,
        ("wz.csv", ["eps", "path", "I_uncorr", "I_corr", "I_model", "I_ito"], result.rows),
        ("wz_summary.csv", ["eps", "rms_uncorr", "rms_corr", "rms_model", "c_eps"]
         + ["se_uncorr", "se_corr", "se_model"], result.summary),
    )
    for row in result.summary:
        print(
            f"eps={row['eps']:.6g} rms_uncorr={row['rms_uncorr']:.6g} "
            f"rms_corr={row['rms_corr']:.6g} c_eps={row['c_eps']:.6g}"
        )
    return 0


def _cmd_c_eps(args):
    if args.time is not None:
        value = c_eps_timedep(args.time, args.eps, args.H)
        print(f"c_eps(t={args.time}) = {value:.12g}")
    else:
        value, err = c_eps(args.eps, KernelSpec(H=args.H, T=args.T))
        print(f"c_eps = {value:.12g} (quadrature error estimate {err:.3g})")
    return 0


def _cmd_bounds(args):
    config_text = _read_text(args.config)
    config = SimConfig.from_text(config_text)
    report = model_bound_probe(config)
    _write_outputs(
        args, config_text, config.seed, report["c_eps"], report["timings"],
        ("bounds.csv", ["tau", "lambda", "eps", "rms_pairing"], report["rows"]),
    )
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

    def add_sym(name, fn, symbol=True, nmax=True, alpha=True, cov=False, **defaults):
        # each subcommand takes only the flags its handler reads
        p = symsub.add_parser(name)
        if symbol:
            p.add_argument("symbol", help="symbol expression, e.g. 'Xi_1*I(Xi_2)^3'")
        p.add_argument("--d", type=int, default=2, help="number of noise channels")
        # --alpha fixes the spec, so --nmax beside it would go unread.  argparse
        # converts a str default; an int 8 would let "--nmax 8" pass as unset
        spec_flags = p.add_mutually_exclusive_group() if alpha else p
        if nmax:
            spec_flags.add_argument("--nmax", type=int, default="8", help="power bound")
        if alpha:
            spec_flags.add_argument(
                "--alpha", default=None, help="comma-separated rational exponents"
            )
        if cov:
            p.add_argument("--cov", default=None, help="covariance file (text)")
        p.set_defaults(fn=fn, **defaults)

    add_sym("delta-minus", _cmd_delta_minus, nmax=False, alpha=False)
    add_sym("delta-plus", _cmd_delta_plus)
    add_sym("antipode", _cmd_antipode)
    add_sym("g-antipode", _cmd_g_antipode, cov=True)
    add_sym("check-bphz", _cmd_check, symbol=False, alpha=False, check=check_bphz_plain)
    add_sym("check-gamma", _cmd_check, symbol=False, alpha=False, check=check_gamma_bphz)

    sim = sub.add_parser("simulate", help="stochastic simulation commands")
    simsub = sim.add_subparsers(dest="subcommand", required=True)

    wz = simsub.add_parser("wong-zakai")
    wz.add_argument("--config", required=True)
    wz.add_argument("--out", default="wz_out")
    wz.set_defaults(fn=_cmd_wong_zakai)

    ce = simsub.add_parser("c-eps")
    ce.add_argument("--H", type=float, required=True)
    ce.add_argument("--eps", type=float, required=True)
    # the time-dependent form reads no T; a str default, as --nmax's, lets "--T 1" count
    t_flags = ce.add_mutually_exclusive_group()
    t_flags.add_argument("--T", type=float, default="1")
    t_flags.add_argument("--time", type=float, default=None,
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
        if args.command == "symbolic":
            require_channels(args.d)  # delta-minus builds no StructureSpec to check it
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; send what is still buffered to devnull,
        # or the flush at interpreter exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
