"""Command-line interface: output formats, files, exit codes."""

import contextlib
import csv
import io
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st

import roughrenorm
from roughrenorm import cache_info, cli, clear_caches
from roughrenorm.cli import main


def test_delta_minus_output(capsys):
    assert main(["symbolic", "delta-minus", "Xi_1*I(Xi_1)"]) == 0
    out = capsys.readouterr().out
    assert "2*I(Xi_1) (x) Xi_1" in out
    assert "I(Xi_1)*Xi_1 (x) 1" in out
    assert " (x) " in out


def test_delta_plus_output(capsys):
    assert main(["symbolic", "delta-plus", "Xi_1*I(Xi_2)^2"]) == 0
    out = capsys.readouterr().out
    assert "2*I(Xi_2)*Xi_1 (x) I(Xi_2)" in out


@pytest.mark.parametrize(
    "symbol, lines",
    [("1", ["1 (x) 1"]), ("3 + I", ["3*1 (x) 1", "1 (x) I", "I (x) 1"])],
)
def test_delta_plus_keeps_the_unit(capsys, symbol, lines):
    assert main(["symbolic", "delta-plus", symbol]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_antipode_output(capsys):
    assert main(["symbolic", "antipode", "Xi_1"]) == 0
    assert capsys.readouterr().out.strip() == "-Xi_1"


def test_g_antipode_symbolic(capsys):
    assert main(["symbolic", "g-antipode", "Xi_1*I(Xi_2)"]) == 0
    assert "C[D1][X2]" in capsys.readouterr().out


def test_g_antipode_with_cov_file(tmp_path, capsys):
    cov = tmp_path / "cov.txt"
    cov.write_text("d = 2\nD1,X2 = 3/7\n")
    assert main(["symbolic", "g-antipode", "Xi_1*I(Xi_2)", "--cov", str(cov)]) == 0
    assert "-3/7" in capsys.readouterr().out


def test_parse_error_exit_code(capsys):
    assert main(["symbolic", "delta-minus", "Xi_1^2"]) == 2


@pytest.mark.parametrize(
    "command, symbol",
    [("delta-plus", "Xi_1 . Xi_1"), ("g-antipode", "I^2"), ("g-antipode", "Xi_1*I")],
)
def test_domain_error_exit_code(capsys, command, symbol):
    assert main(["symbolic", command, symbol]) == 3


_REPORT_KEYS = ["name", "status", "cases", "failures", "elapsed_s", "max_coproduct_terms"]


def test_check_commands_pass(capsys):
    assert main(["symbolic", "check-bphz", "--nmax", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert list(report) == _REPORT_KEYS
    assert report["elapsed_s"] > 0
    # the pruned table of Xi_i*I(Xi_j)^3: left legs 1, I(Xi_j)*Xi_i and the tree
    assert report["max_coproduct_terms"] == 3
    assert main(["symbolic", "check-gamma", "--nmax", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert list(report) == _REPORT_KEYS
    assert report["elapsed_s"] > 0
    assert report["max_coproduct_terms"] > 0


@pytest.mark.parametrize("command", ["check-bphz", "check-gamma"])
def test_checks_pass_at_nmax_zero(capsys, command):
    # both checks read nmax 0 as the symbols of power 0: the unit and the noises
    assert main(["symbolic", command, "--nmax", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["cases"] == (3 if command == "check-bphz" else 6)


def test_symbol_with_a_leading_minus(capsys):
    # after "--" argparse reads "-Xi_1" as the symbol, not as an option
    assert main(["symbolic", "antipode", "--", "-Xi_1"]) == 0
    assert capsys.readouterr().out.strip() == "Xi_1"
    with pytest.raises(SystemExit) as exc:
        main(["symbolic", "antipode", "-Xi_1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: symbol" in err
    assert "Traceback" not in err


def _without_elapsed(text):
    report = json.loads(text)
    del report["elapsed_s"]
    return report


def test_check_bphz_same_after_clear_caches(capsys):
    assert main(["symbolic", "check-bphz", "--nmax", "6"]) == 0
    first = _without_elapsed(capsys.readouterr().out)
    clear_caches()
    assert set(cache_info().values()) == {0}
    assert main(["symbolic", "check-bphz", "--nmax", "6"]) == 0
    assert _without_elapsed(capsys.readouterr().out) == first
    filled = cache_info()
    # g∘A reads the closed-form even tables: no extraction DP runs
    assert filled["coalgebra._EXTRACT_CACHE"] == 0
    assert filled["gaussian._G_ANTIPODE_CACHE"] > 0
    assert filled["structure._DEGREE_CACHE"] > 0
    # a cold run fills the same entries every time
    clear_caches()
    assert main(["symbolic", "check-bphz", "--nmax", "6"]) == 0
    capsys.readouterr()
    assert cache_info() == filled


@pytest.mark.parametrize(
    "command, other", [("check-gamma", "check-bphz"), ("check-bphz", "check-gamma")]
)
def test_check_report_same_from_warm_and_cold_caches(capsys, command, other):
    # a table's size is recorded on every read, so a cache hit counts as a build
    def report(name):
        assert main(["symbolic", name, "--nmax", "6"]) == 0
        return _without_elapsed(capsys.readouterr().out)

    clear_caches()
    cold = report(command)
    assert report(command) == cold
    clear_caches()
    report(other)
    assert report(command) == cold


_CONSTANT_TABLES = {"roughsim._SIM_KEYS"}  # config key types, not memo tables


def test_every_module_level_memo_table_is_counted_and_cleared(capsys):
    for argv in (
        ["symbolic", "check-bphz", "--nmax", "3"],
        ["symbolic", "check-gamma", "--nmax", "2"],
        ["symbolic", "delta-minus", "Xi_1*I(Xi_2)^2"],
        ["symbolic", "antipode", "Xi_1*I(Xi_2)^2"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    roughrenorm.delta_minus(roughrenorm.parse_symbol("Xi_1*I(Xi_2)"), repair=False)
    tables = {
        f"{module.__name__.removeprefix('roughrenorm.')}.{attr}": value
        for module in vars(roughrenorm).values()
        if isinstance(module, type(roughrenorm)) and module.__name__.startswith("roughrenorm.")
        for attr, value in vars(module).items()
        if isinstance(value, dict) and not attr.startswith("__")
    }
    assert "coalgebra._EXTRACT_CACHE" in tables and "roughsim._SIM_KEYS" in tables
    memo = {name: table for name, table in tables.items() if name not in _CONSTANT_TABLES}
    assert set(memo) <= set(cache_info())
    assert all(memo.values()), "each table is filled by the commands above"
    clear_caches()
    assert not any(memo.values())


@pytest.fixture
def wz_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "H = 0.3\nkappa = 0.01\nN = 256\nP = 4\nseed = 9\neps = 1/8,1/16\nf = sine\n"
    )
    return cfg


def _check_run_telemetry(manifest):
    timings = manifest["timings"]
    assert set(timings) == {"c_eps", "expansion", "paths", "route", "output"}
    assert all(seconds >= 0.0 for seconds in timings.values())
    assert timings["paths"] > 0.0 and timings["route"] > 0.0
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "scipy", "platform", "cpus"}
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == numpy.__version__
    assert environment["scipy"] == scipy.__version__
    assert environment["cpus"] >= 1


def test_wong_zakai_outputs(tmp_path, wz_config, capsys):
    out = tmp_path / "out"
    assert main(
        ["simulate", "wong-zakai", "--config", str(wz_config), "--out", str(out)]
    ) == 0
    with open(out / "wz.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"eps", "path", "I_uncorr", "I_corr", "I_model", "I_ito"}
    assert len(rows) == 2 * 4
    with open(out / "wz_summary.csv") as fh:
        srows = list(csv.DictReader(fh))
    assert list(srows[0]) == [
        "eps", "rms_uncorr", "rms_corr", "rms_model", "c_eps", "se_uncorr", "se_corr", "se_model"
    ]
    assert all(0.0 < float(srow["se_corr"]) < float(srow["rms_corr"]) for srow in srows)
    manifest = json.loads((out / "manifest.json").read_text())
    _check_run_telemetry(manifest)
    assert manifest["seed"] == 9
    assert set(manifest["outputs"]) == {"wz.csv", "wz_summary.csv"}
    assert len(manifest["outputs"]["wz.csv"]) == 64
    assert [row["eps"] for row in manifest["c_eps"]] == [0.125, 0.0625]
    for row, srow in zip(manifest["c_eps"], srows):
        assert row["value"] == float(srow["c_eps"])
        assert 0.0 < row["quad_error"] < 1e-6 * row["value"]


@pytest.fixture
def uncached_platform(monkeypatch):
    """platform's uname and platform string, to be read afresh."""
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})


@pytest.mark.parametrize("processor", ["", "unknown", "machine"])
def test_platform_string_is_platform_platform(uncached_platform, processor):
    uname = platform.uname()
    # the processor name platform.platform() would read from `uname -p`
    uname.__dict__["processor"] = uname.machine if processor == "machine" else processor
    assert cli._platform_string() == platform.platform()


def test_manifest_starts_no_subprocess(uncached_platform, monkeypatch, tmp_path, wz_config):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    out = tmp_path / "out"
    assert main(["simulate", "wong-zakai", "--config", str(wz_config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["platform"] == cli._platform_string()


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("H = 0.9\nkappa = 0.01\nN = 256\nP = 2\nseed = 1\neps = 1/8\n")
    assert main(["simulate", "wong-zakai", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic", "delta-minus", "Xi_1", "--nmax", "2"],
        ["symbolic", "delta-minus", "Xi_1", "--alpha", "1/3,1/5"],
        ["symbolic", "check-bphz", "--alpha", "1/3,1/5"],
        ["symbolic", "check-gamma", "--nmax", "2", "--alpha", "1/3,1/5"],
        ["simulate", "c-eps", "--H", "0.3", "--eps", "0.125", "--mollifier", "bump"],
        # --time reads no T; 1 is --T's default
        ["simulate", "c-eps", "--H", "0.3", "--eps", "0.1", "--time", "0.5", "--T", "1"],
    ],
)
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    expected = "not allowed with argument" if "--time" in argv else "unrecognized arguments"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("command", ["delta-plus", "antipode", "g-antipode"])
@pytest.mark.parametrize("nmax", ["0", "8"])  # 8 is the default
def test_nmax_is_unread_beside_alpha(capsys, command, nmax):
    with pytest.raises(SystemExit) as exc:
        main(["symbolic", command, "Xi_1*I(Xi_2)", "--alpha", "1/3,1/5", "--nmax", nmax])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_c_eps_command(capsys):
    assert main(["simulate", "c-eps", "--H", "0.3", "--eps", "0.125"]) == 0
    assert "c_eps = 0.762966975" in capsys.readouterr().out


def test_bounds_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "H = 0.3\nkappa = 0.01\nN = 256\nP = 6\nseed = 5\neps = 1/8,1/16\n"
        "lambda = 1/4,1/8\npowers = 1\n"
    )
    out = tmp_path / "bnd"
    code = main(["simulate", "bounds", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1)  # exponent sign is statistical at this tiny scale
    with open(out / "bounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"tau", "lambda", "eps", "rms_pairing"}
    manifest = json.loads((out / "manifest.json").read_text())
    _check_run_telemetry(manifest)
    assert [row["eps"] for row in manifest["c_eps"]] == [0.125, 0.0625]
    for row in manifest["c_eps"]:
        assert set(row) == {"eps", "value", "quad_error"}
        assert 0.0 < row["quad_error"] < 1e-6 * row["value"]
    # the same constants as the Wong-Zakai run writes for these eps
    assert manifest["c_eps"][1]["value"] == pytest.approx(0.8764189091348921, rel=1e-12)



_SIM = "H = 0.3\nkappa = 0.01\nN = 256\nP = 2\nseed = 1\n"
_WZ = ["simulate", "wong-zakai", "--config", "{file}", "--out", "{out}"]
_BOUNDS = ["simulate", "bounds", "--config", "{file}", "--out", "{out}"]
_G_ANTIPODE = ["symbolic", "g-antipode", "Xi_1*I(Xi_2)", "--cov", "{file}"]
_C_EPS = ["simulate", "c-eps", "--H", "0.3", "--eps"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["symbolic", "check-bphz", "--nmax", "-1"], None),
        (["symbolic", "antipode", "Xi_1", "--alpha", "1/2,x"], None),
        (_WZ, None),  # missing config file
        (_G_ANTIPODE, None),  # missing covariance file
        (_G_ANTIPODE, "d = x\n"),
        (_C_EPS + ["-0.1", "--time", "0.5"], None),
        (_C_EPS + ["0.125", "--time", "0"], None),
        (_C_EPS + ["0.125", "--time", "inf"], None),
        (_C_EPS + ["0.125", "--T", "nan"], None),
        (["simulate", "c-eps", "--H", "0.7", "--eps", "0.125"], None),
        (_WZ, _SIM + "eps = 1/8\nthreds = 4\n"),
        (_WZ, _SIM + "eps = 1/8\nthreads = -3\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 1/4,abc\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\npowers = 0\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 1/4,1/512\n"),  # 1/512 < dt
        (_BOUNDS, _SIM + "eps = 1/8\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 1/4\n"),
        (_WZ, _SIM + "eps = 1/8\neps = 1/4\n"),  # repeated key
        (_G_ANTIPODE, "d = 2\nD1,X2 = 1/3\nX2,D1 = 1/2\n"),  # one entry twice
        (_WZ, _SIM + "eps = 1\n"),  # eps > T/2
        (["symbolic", "delta-minus", "¹3"], None),  # non-ASCII digits
        (["symbolic", "delta-minus", "I^²"], None),
        (["symbolic", "delta-minus", "Xi_١"], None),
        (["symbolic", "delta-minus", "I^1000"], None),  # power above 999
        (["symbolic", "delta-minus", "I^" + "9" * 5000], None),  # beyond int()
        (_WZ, _SIM + "eps = 1/16,0.0625\n"),  # one eps twice
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 1/4,1/4,1/8\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\npowers = 1,2,1\n"),
        (_WZ, _SIM.replace("0.01", "0.2999999999") + "eps = 1/8\n"),  # truncation ~8e9
        (["symbolic", "delta-minus", "Xi_1^0"], None),  # power below 1
        (["symbolic", "delta-minus", "2/0*Xi_1"], None),  # zero denominator
        (["symbolic", "delta-minus", "I(1)"], None),  # I( takes only a noise
        (["symbolic", "delta-minus", "Xi_3", "--d", "2"], None),  # index above d
        (["symbolic", "delta-minus", "Xi_1 +"], None),  # sign without a term
        (["symbolic", "delta-minus", "1 2"], None),  # unit atom, then a stray digit
        (_WZ, _SIM + "eps = 1/8\npowers = 7\n"),  # read by bounds only
        (_WZ, _SIM + "eps = 1/8\nlambda = 1/4,1/8\n"),
        (_WZ, _SIM + "eps = 1/8\nmollifier = gauss\n"),
        (_WZ, _SIM.replace("N = 256", "N = 1099511627776") + "eps = 1/8\n"),  # 2^40 > MAX_GRID
        (_BOUNDS, _SIM + "eps = 1/8,1/16\npowers = 1,300\n"),  # 300 > MAX_TRUNCATION
        (["symbolic", "check-bphz", "--d", "33", "--nmax", "2"], None),  # d above 32
        (["symbolic", "check-bphz", "--d", "99999", "--nmax", "2"], None),
        (["symbolic", "check-gamma", "--d", "0", "--nmax", "2"], None),
        (["symbolic", "g-antipode", "Xi_1", "--d", "40"], None),
        # steps(lambda) + steps(eps) above N/2: 115 + 32 and 97 + 32 > 128
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 0.45,1/4\n"),
        (_BOUNDS, _SIM + "eps = 1/8,1/16\nlambda = 97/256,1/4\n"),
        # --nmax above the truncation cap of 64
        (["symbolic", "check-gamma", "--nmax", "65"], None),
        (["symbolic", "check-bphz", "--nmax", "65"], None),
        (["symbolic", "check-gamma", "--nmax", "1000000000000000000000"], None),
        # delta-minus builds no StructureSpec, yet reads the same --d rule
        (["symbolic", "delta-minus", "I", "--d", "-5"], None),
        (["symbolic", "delta-minus", "I", "--d", "0"], None),
        (["symbolic", "delta-minus", "Xi_1", "--d", "40"], None),
    ],
)
def test_bad_input_exits_2_with_one_line_error(tmp_path, capsys, argv, text):
    file = tmp_path / "input.txt"
    if text is not None:
        file.write_text(text)
    argv = [arg.format(file=file, out=tmp_path / "out") for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("extra", [[], ["--time", "0.5"]])
def test_non_finite_c_eps_exits_3_with_one_line_error(capsys, extra):
    # at eps = 1e-300 the quadrature overflows, and eps * eps underflows
    assert main(_C_EPS + ["1e-300"] + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (_C_EPS + ["1e200", "--T", "1e200"], None),
        (_C_EPS + ["1e200", "--time", "1e-3"], None),
        (_WZ, _SIM + "T = 1e201\neps = 1e200,5e199\n"),
    ],
)
def test_too_wide_mollifier_exits_3_with_one_line_error(tmp_path, capsys, argv, text):
    # beyond eps = 2^511, 1/eps^2 is not a normal double: c_eps read 0 there, and
    # wong-zakai wrote rms_* = nan after a RuntimeWarning
    file = tmp_path / "input.txt"
    if text is not None:
        file.write_text(text)
    argv = [arg.format(file=file, out=tmp_path / "out") for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["1e-320"], ["1e-160", "--time", "0.5"]])
def test_non_finite_c_eps_prints_no_quadrature_warning(argv):
    # the quadratures warn on their way to nan; only the error line is shown
    src = Path(roughrenorm.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "roughrenorm.cli"] + _C_EPS + argv,
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_closed_stdout_exits_141_without_traceback():
    src = Path(roughrenorm.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        done = subprocess.run(
            [sys.executable, "-m", "roughrenorm.cli", "symbolic", "check-bphz", "--nmax", "4"],
            cwd=src, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141, done.stderr
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# fuzz: every command line ends in a documented exit code


def _term(coefficient, root, factors):
    atoms = ([root] if root else []) + [f"{atom}^{power}" for atom, power in factors]
    return coefficient + ("*".join(atoms) or "1")


# a term is a coefficient, at most one root noise and at most six powered
# integration factors, which keeps every expansion cheap
_FACTORS = st.lists(
    st.tuples(st.sampled_from(["I(Xi_2)", "I(Xi_1)", "I", "I(Xi_3)"]), st.integers(1, 6)),
    max_size=2,
).filter(lambda factors: sum(power for _, power in factors) <= 6)
_TERMS = st.builds(
    _term,
    st.sampled_from(["", "2*", "1/3*"]),
    st.sampled_from(["Xi_1", "", "Xi_2", "Xi_3"]),
    _FACTORS,
)
_SYMBOLS = st.tuples(
    st.lists(_TERMS, min_size=1, max_size=2), st.sampled_from([" + ", " - ", " . "])
).map(lambda t: t[1].join(t[0]))
_COV_FILES = {
    "d2.txt": "d = 2\nD1,X2 = 1/3\n",
    "d3.txt": "d = 3\nD1,X2 = 1/3\nX3,X3 = 1/2\n",
    "bad.txt": "d = x\n",
}
_READS = {  # each command and the flags it reads, besides c-eps' --H and --eps
    "delta-minus": ["--d"],
    "delta-plus": ["--d", "--nmax", "--alpha"],
    "antipode": ["--d", "--nmax", "--alpha"],
    "g-antipode": ["--d", "--nmax", "--alpha", "--cov"],
    "check-bphz": ["--d"],  # and --nmax, always given: its default 8 is slow here
    "check-gamma": ["--d"],
    "c-eps": ["--T", "--time"],
}


@st.composite
def _argvs(draw, cov_dir):
    """Mostly command lines the parser takes; one in ten times free text
    for the symbol, a flag the command does not read, or a last token
    left out."""
    values = {
        "--d": ["2", "3", "1", "0", "x"],
        "--nmax": [str(n) for n in range(6, -2, -1)],
        "--alpha": ["1/3,1/5", "1/7,1/9", "1/7,1/9,1/11", "1/2", "0,1/2", "1/3,x"],
        "--cov": [str(cov_dir / name) for name in [*_COV_FILES, "none.txt"]],
        "--T": ["1", "0.1", "nan"],
        "--time": ["0.5", "0.01", "1e16", "0", "-1"],
    }
    rarely = st.integers(0, 9).map(lambda n: n == 9)  # Hypothesis favours 0
    command = draw(st.sampled_from(sorted(_READS)))
    if command == "c-eps":
        argv = ["simulate", command]
        argv += ["--H", draw(st.sampled_from(["0.3", "0.1", "0.49", "0.7", "nan", "x"]))]
        argv += ["--eps", draw(st.sampled_from(["0.125", "0.1", "0.5", "1e-300", "0", "inf"]))]
    elif command.startswith("check-"):
        argv = ["symbolic", command, "--nmax", draw(st.sampled_from(values["--nmax"]))]
    else:
        text = st.text(alphabet="Xi_I()^*+-./12 ", max_size=8)
        argv = ["symbolic", command, draw(text if draw(rarely) else _SYMBOLS)]
    for flag, choices in values.items():
        if draw(st.booleans()) and (flag in _READS[command] or draw(rarely)):
            argv += [flag, draw(st.sampled_from(choices))]
    if draw(rarely):
        argv = argv[:-1]  # a flag without its value, or a command without its symbol
    return argv


@pytest.fixture(scope="module")
def cov_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cov")
    for name, text in _COV_FILES.items():
        (path / name).write_text(text)
    return path


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_fuzzed_command_lines_end_in_a_documented_exit_code(cov_dir, data):
    argv = data.draw(_argvs(cov_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[1].startswith("check-")  # 1 means a verification failed
    if code in (2, 3):
        assert "Traceback" not in err.getvalue()
        assert sum("error: " in line for line in err.getvalue().splitlines()) == 1


# fuzz: simulation configs at the edges of their domains

_SIM_BASE = {"H": "0.3", "kappa": "0.01", "N": "64", "P": "2", "seed": "1", "eps": "1/8,1/16"}
_SIM_EDGES = {  # None leaves the key out; {dt}, {T} and {H} are the config's own values
    "H": [None, "0.49", "0.05", "0.5"],
    "kappa": [None, "{below_H}", "{H}", "0"],  # just below H: truncation far above 64
    "N": [None, "8", "2097152", "48"],  # 2097152 is one step past MAX_GRID
    "P": [None, "1", "0"],
    "seed": [None, "0", "x"],
    "eps": [None, "{dt4}", "{half_T}", "{dt4},{dt4}", "{dt2}"],  # 4 dt; 2 eps = T
    "f": ["constant", "linear", "quadratic", "sine", "cosine"],
    "mollifier": ["bump", "gauss"],
    "T": ["0.5", "2", "0"],
    "threads": ["2", "0"],
    "lambda": ["{dt},1/4", "1/4,1/4", "1/4,{half_T}"],
    "powers": ["65", "1,1", "2,3"],  # 65 is one step past MAX_TRUNCATION
    "threds": ["2"],  # unknown key
}


def _sim_config_text(fields):
    """The text of ``fields`` (key -> value or None), its placeholders
    filled from the config's own N, T and H."""
    n, T, H = int(fields.get("N") or 64), float(fields.get("T") or 1), float(fields.get("H") or 0.3)
    dt = T / n
    values = dict(
        dt=dt, dt2=2 * dt, dt4=4 * dt, half_T=T / 2, T=T, H=H, below_H=H * (1 - 1e-6)
    )
    return "".join(
        f"{key} = {value.format(**values)}\n" for key, value in fields.items() if value is not None
    )


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sim")


@st.composite
def _sim_edits(draw):
    """Up to three keys of ``_SIM_EDGES``, each with one of its values."""
    keys = draw(st.sets(st.sampled_from(sorted(_SIM_EDGES)), max_size=3))
    return {key: draw(st.sampled_from(_SIM_EDGES[key])) for key in sorted(keys)}


@given(command=st.sampled_from(["wong-zakai", "bounds"]), edits=_sim_edits())
@example(command="wong-zakai", edits={"f": "linear"})
@example(command="bounds", edits={"f": "linear", "eps": "{dt4},{half_T}"})
@settings(max_examples=50, deadline=None)
def test_fuzzed_sim_configs_end_in_a_documented_exit_code(sim_dir, command, edits):
    fields = {**_SIM_BASE, **({"lambda": "1/4,1/8"} if command == "bounds" else {}), **edits}
    config = sim_dir / "config.txt"
    config.write_text(_sim_config_text(fields))
    argv = ["simulate", command, "--config", str(config), "--out", str(sim_dir / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # bounds exits 1 when an eps exponent of its fit is not positive
    assert code in ((0, 1, 2, 3) if command == "bounds" else (0, 2, 3))
    if code in (2, 3):
        assert "Traceback" not in err.getvalue()
        assert sum("error: " in line for line in err.getvalue().splitlines()) == 1
