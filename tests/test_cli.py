"""Command-line interface: output formats, files, exit codes."""

import csv
import json

import pytest

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


def test_domain_error_exit_code(capsys):
    assert main(["symbolic", "delta-plus", "Xi_1 . Xi_1"]) == 3


def test_check_commands_pass(capsys):
    assert main(["symbolic", "check-bphz", "--nmax", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert main(["symbolic", "check-gamma", "--nmax", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"


@pytest.fixture
def wz_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "H = 0.3\nkappa = 0.01\nN = 256\nP = 4\nseed = 9\neps = 1/8,1/16\nf = sine\n"
    )
    return cfg


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
    assert set(srows[0]) == {"eps", "rms_uncorr", "rms_corr", "c_eps"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert set(manifest["outputs"]) == {"wz.csv", "wz_summary.csv"}
    assert len(manifest["outputs"]["wz.csv"]) == 64


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("H = 0.9\nkappa = 0.01\nN = 256\nP = 2\nseed = 1\neps = 1/8\n")
    assert main(["simulate", "wong-zakai", "--config", str(cfg)]) == 2


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
    assert (out / "manifest.json").exists()



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
