"""The four benchmark workloads: their inputs, their run, and the check of
their output.

Why these four: ``wz`` and ``bounds`` are the two numerical harnesses of
the paper (the renormalised Wong-Zakai experiment and the model-bound
probe) and share ``roughsim`` but stress different parts of it; ``bphz``
is the exact symbolic pipeline (Delta-minus, twisted antipode, Gaussian
character); ``axioms`` is the only one that runs ``model``'s numeric
transport and ``poly`` substitution.

Inputs come from the benchmark seed: input set ``seed % INPUT_SETS`` of
a workload uses the acceptance-test seed plus that index, so seed 0 is
the acceptance-test input.  ``bphz`` takes no random input.  Outputs of
``wz`` and ``bounds`` are checked value by value against reference CSVs
produced by the unmodified package (see ``make_refs.py``).
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
from pathlib import Path

INPUT_SETS = 8
NAMES = ("wz", "bounds", "bphz", "axioms")
REFS = Path(__file__).resolve().parent / "refs"
OUTPUT = {"wz": "wz.csv", "bounds": "bounds.csv"}
REL_TOL = 1e-12  # numeric outputs must match the reference to this relative error
AXIOMS_TOL = 1e-10  # acceptance bound on check_model_axioms' worst relative error

_WZ = """\
H = 0.3
kappa = 0.01
N = {N}
P = {P}
seed = {seed}
eps = {eps}
f = sine
mollifier = bump
T = 1
threads = 1
"""

_BOUNDS = _WZ + "lambda = {lam}\npowers = 1\n"

# Full size is the acceptance-test configuration (wz: with half the paths);
# tiny is for the self-test.
SIZES = {
    "wz": {
        # test_09 at half its 200 paths, so that a 30 s run holds two samples
        False: {"N": 4096, "P": 100, "eps": "1/8,1/16,1/32,1/64,1/128"},
        True: {"N": 256, "P": 4, "eps": "1/16,1/32"},
    },
    "bounds": {
        False: {"N": 1024, "P": 100, "eps": "1/8,1/16,1/32,1/64", "lam": "1/4,1/8,1/16"},
        True: {"N": 256, "P": 8, "eps": "1/8,1/16,1/32", "lam": "1/4,1/8"},
    },
    "bphz": {False: {"nmax": 9}, True: {"nmax": 3}},
    "axioms": {
        False: {"truncation": 6, "points": 256, "triples": 100},
        True: {"truncation": 3, "points": 32, "triples": 3},
    },
}


def input_seeds(workload, seed):
    """The seeds of the package calls that input set ``seed`` makes."""
    index = seed % INPUT_SETS
    if workload in ("wz", "bounds"):
        return {"config_seed": (2024 if workload == "wz" else 33) + index}
    if workload == "axioms":
        return {"path_seed": 8 + index, "triple_seed": 77 + index}
    return {}  # bphz: exact symbolic computation, no random input


def reference_path(workload, seeds, tiny, refs=REFS):
    suffix = "-tiny" if tiny else ""
    if workload in ("wz", "bounds"):
        return Path(refs) / f"{workload}-{seeds['config_seed']}{suffix}.csv.gz"
    return Path(refs) / f"{workload}{suffix}.json"


def prepare(workload, seed, tiny, out_dir, refs=REFS):
    """Build the inputs of one run in ``out_dir``.

    Returns ``(seeds, run)``: ``run()`` calls the package, writes its
    result under ``out_dir``, checks it, and returns ``None`` or a
    description of the failed check.
    """
    size = SIZES[workload][tiny]
    seeds = input_seeds(workload, seed)
    out_dir = Path(out_dir)
    ref = reference_path(workload, seeds, tiny, refs)
    if workload in ("wz", "bounds"):
        argv = cli_argv(workload, seeds, tiny, out_dir)
        output = out_dir / OUTPUT[workload]

        def run():
            code, _ = run_cli(argv)
            if code != 0:
                return f"exit code {code}"
            return compare_csv(output, ref)

    elif workload == "bphz":
        argv = cli_argv(workload, seeds, tiny, out_dir)

        def run():
            code, text = run_cli(argv)
            (out_dir / "report.json").write_text(text)
            return compare_report(json.loads(text), code, ref)

    else:
        import numpy as np
        from roughrenorm.model import SamplePath
        from roughrenorm.structure import generic_spec

        n = size["points"]
        rng = np.random.default_rng(seeds["path_seed"])
        path = SamplePath(
            t=np.linspace(0.0, 1.0, n + 1),
            xi={
                1: 0.3 * np.cumsum(rng.normal(size=n + 1)),
                2: 0.3 * np.cumsum(rng.normal(size=n + 1)),
            },
            xid={1: rng.normal(size=n + 1), 2: rng.normal(size=n + 1)},
        )
        spec = generic_spec(2, size["truncation"])

        def run():
            from roughrenorm.model import check_model_axioms

            report = check_model_axioms(
                path, spec, n_triples=size["triples"], seed=seeds["triple_seed"]
            )
            (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
            if report["status"] != "pass":
                return f"status {report['status']}: {report['failures'][:1]}"
            if not report["worst_rel_err"] <= AXIOMS_TOL:
                return f"worst_rel_err {report['worst_rel_err']} > {AXIOMS_TOL}"
            return None

    return seeds, run


def cli_argv(workload, seeds, tiny, out_dir):
    """Command line of a ``wz``, ``bounds`` or ``bphz`` run; writes its config."""
    size = SIZES[workload][tiny]
    if workload == "bphz":
        return ["symbolic", "check-bphz", "--d", "2", "--nmax", str(size["nmax"])]
    template, command = (_WZ, "wong-zakai") if workload == "wz" else (_BOUNDS, "bounds")
    config = Path(out_dir) / "config.txt"
    config.write_text(template.format(seed=seeds["config_seed"], **size))
    return ["simulate", command, "--config", str(config), "--out", str(out_dir)]


def run_cli(argv):
    from roughrenorm import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def compare_report(report, code, ref):
    """``check-bphz``: status and case count must equal the reference."""
    want = json.loads(Path(ref).read_text())
    got = {"status": report.get("status"), "cases": report.get("cases"), "exit_code": code}
    return None if got == want else f"report {got} != reference {want}"


def compare_csv(out, ref):
    """Every cell must equal the reference cell, numbers to ``REL_TOL``."""
    with open(out, newline="") as handle:
        got = list(csv.reader(handle))
    with gzip.open(ref, "rt", newline="") as handle:
        want = list(csv.reader(handle))
    if len(got) != len(want):
        return f"{len(got)} lines, reference has {len(want)}"
    for line, (row, ref_row) in enumerate(zip(got, want), 1):
        if len(row) != len(ref_row):
            return f"line {line}: {len(row)} cells, reference has {len(ref_row)}"
        for a, b in zip(row, ref_row):
            if not _agree(a, b):
                return f"line {line}: {a} != reference {b}"
    return None


def _agree(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)
