"""CLI output pinned byte for byte: each file under tests/golden is the
stdout of the command next to it, so a refactor of the geometry cannot
change an answer or its formatting silently. After a deliberate change of
output, regenerate a file with ``spinchar <args> > tests/golden/<file>``."""

from pathlib import Path

import pytest

from spinchar.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "show_F4_B4.json": ["show", "--grading", "F4/B4", "--format", "json"],
    "show_E6_C4.json": ["show", "--grading", "E6/C4", "--format", "json"],
    "show_B4_alpha4.json": ["show", "--grading", "B4/alpha4", "--format", "json"],
    "spin_F4_1_0_0_0.json": ["spin", "--type", "F4", "--weight", "1,0,0,0", "--format", "json"],
    "spin_B4_2_0_0_0.json": ["spin", "--type", "B4", "--weight", "2,0,0,0", "--format", "json"],
    "spin_G2_1_0.json": ["spin", "--type", "G2", "--weight", "1,0", "--format", "json"],
    "spin_A1_36.json": ["spin", "--type", "A1", "--weight", "36", "--format", "json"],
    "spin_A1xB2_2_1_0.json": ["spin", "--type", "A1xB2", "--weight", "2,1,0",
                              "--format", "json"],
    "spin_A1xA1xA1xA1_1_1_1_1.json": ["spin", "--type", "A1xA1xA1xA1", "--weight",
                                      "1,1,1,1", "--format", "json"],
    "classify_4_6.md": ["classify", "--rank-bound", "4", "--height-bound", "6",
                        "--format", "markdown"],
    "classify_6_4.md": ["classify", "--rank-bound", "6", "--height-bound", "4",
                        "--format", "markdown"],
    "verify_table1.md": ["verify", "--suite", "table1", "--format", "markdown"],
    "verify_conjecture.md": ["verify", "--suite", "conjecture", "--format", "markdown"],
    "verify_identity.md": ["verify", "--suite", "identity", "--format", "markdown"],
    "verify_little_adjoint.md": ["verify", "--suite", "little-adjoint", "--format",
                                 "markdown"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_rank_5_and_6_coprimary_modules_follow_the_low_rank_pattern():
    # as at rank <= 4: the adjoint, the little adjoint and 2 omega_1, where
    # each is orthogonal with a co-primary Spin0
    lines = (GOLDEN / "classify_6_4.md").read_text().splitlines()
    assert lines[-1] == "41 co-primary modules among 2086 candidates"
    rows = [line.strip("| ").split(" | ") for line in lines if " | yes | " in line]
    found = {(t, w) for t, w, _, _ in rows if int(t[1:]) >= 5}
    assert found == {
        ("A5", "(1,0,0,0,1)"), ("A6", "(1,0,0,0,0,1)"),
        ("B5", "(1,0,0,0,0)"), ("B5", "(0,1,0,0,0)"), ("B5", "(2,0,0,0,0)"),
        ("B6", "(1,0,0,0,0,0)"), ("B6", "(0,1,0,0,0,0)"), ("B6", "(2,0,0,0,0,0)"),
        ("C5", "(0,1,0,0,0)"), ("C5", "(2,0,0,0,0)"),
        ("C6", "(0,1,0,0,0,0)"), ("C6", "(2,0,0,0,0,0)"),
        ("D5", "(0,1,0,0,0)"), ("D6", "(0,1,0,0,0,0)"),
        ("E6", "(0,1,0,0,0,0)"),
    }
