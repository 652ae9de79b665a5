"""Golden output of the symbolic commands.

``tests/golden`` holds the stdout of ``delta-minus``, ``antipode`` and
``g-antipode`` on a fixed symbol list and of ``check-bphz`` and
``check-gamma`` at nmax 8.  The output must stay byte-identical; only the
``elapsed_s`` line of a check report, a wall time, is left out.
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


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_symbolic_commands_match_golden(capsys):
    text = ""
    for command in ("delta-minus", "antipode", "g-antipode"):
        for symbol in SYMBOLS:
            text += f"$ roughrenorm symbolic {command} '{symbol}'\n"
            text += _stdout(["symbolic", command, symbol], capsys)
    assert text == (GOLDEN / "symbolic.txt").read_text()


@pytest.mark.parametrize("command", ["check-bphz", "check-gamma"])
def test_check_report_matches_golden(capsys, command):
    lines = _stdout(["symbolic", command, "--nmax", "8"], capsys).splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith('"elapsed_s"')]
    assert len(kept) == len(lines) - 1
    assert "".join(kept) == (GOLDEN / f"{command}-8.json").read_text()
