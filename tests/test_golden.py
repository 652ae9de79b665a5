"""Golden output of the symbolic commands.

``tests/golden`` holds the stdout of ``delta-minus``, ``antipode`` and
``g-antipode`` on a fixed symbol list, of ``delta-plus`` on its trees, of
``g-antipode`` at a covariance file with rational entries, and of
``check-bphz`` and ``check-gamma`` at nmax 8.  The output must stay
byte-identical; only the ``elapsed_s`` line of a check report, a wall
time, is left out.
"""

from pathlib import Path

import pytest

from roughrenorm.cli import main

GOLDEN = Path(__file__).parent / "golden"

SYMBOLS = [
    "Xi_1*I(Xi_1)",
    "Xi_1*I(Xi_2)^3",
    "Xi_2*I(Xi_1)^2*I(Xi_2)",
    "2*Xi_1*I(Xi_1) - 1/3*Xi_2*I(Xi_1) . Xi_1*I(Xi_2)",
]
# delta-plus acts on trees, so the forest term of the last symbol is left out;
# its rational scalar stays
TREE_SYMBOLS = SYMBOLS[:3] + ["2*Xi_1*I(Xi_1) - 1/3*Xi_2*I(Xi_1)"]


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def _transcript(capsys, command, symbols, *flags):
    """Per symbol, the command line after ``$ `` and the command's stdout."""
    text = ""
    for symbol in symbols:
        line = " ".join(["$ roughrenorm symbolic", command, f"'{symbol}'", *flags])
        text += line + "\n" + _stdout(["symbolic", command, symbol, *flags], capsys)
    return text


def test_symbolic_commands_match_golden(capsys):
    commands = ("delta-minus", "antipode", "g-antipode")
    text = "".join(_transcript(capsys, command, SYMBOLS) for command in commands)
    assert text == (GOLDEN / "symbolic.txt").read_text()


def test_delta_plus_matches_golden(capsys):
    text = _transcript(capsys, "delta-plus", TREE_SYMBOLS)
    assert text == (GOLDEN / "delta-plus.txt").read_text()


def test_g_antipode_at_a_rational_covariance_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the command line names the file as the golden text does
    text = _transcript(capsys, "g-antipode", SYMBOLS + ["Xi_1*I(Xi_2)"], "--cov", "cov-rational.txt")
    assert text == (GOLDEN / "g-antipode-cov.txt").read_text()


@pytest.mark.parametrize("command", ["check-bphz", "check-gamma"])
def test_check_report_matches_golden(capsys, command):
    lines = _stdout(["symbolic", command, "--nmax", "8"], capsys).splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith('"elapsed_s"')]
    assert len(kept) == len(lines) - 1
    assert "".join(kept) == (GOLDEN / f"{command}-8.json").read_text()
