"""Checks that cannot be lost silently: no bare asserts in the library,
stray exceptions in a verify check, budget refusals that name their size."""

import ast
import pathlib

import pytest

from spinchar import BudgetExceeded, SubsystemDatum, build_root_system
from spinchar import verify

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinchar"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them the check
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_unexpected_exception_becomes_fail_record():
    def check():
        raise ValueError("reflection leaves the key lattice")

    record = verify._run("robustness:stray-error", check)
    assert record["status"] == "fail"
    assert "ValueError" in record["detail"]
    assert "key lattice" in record["detail"]


def test_subgroup_budget_refusal_reports_order():
    rs = build_root_system("B2")
    with pytest.raises(BudgetExceeded) as info:
        SubsystemDatum(rs, rs.positive_roots, budget=2)
    assert info.value.required == 8
    assert info.value.budget == 2


def test_route_disagreement_exits_one(monkeypatch, capsys):
    # a decomposition that lost a summand no longer matches the coset
    # formula: a consistency failure (exit 1), not a usage error (exit 2)
    from spinchar import gradings
    from spinchar.charring import Decomposition
    from spinchar.cli import main

    real = gradings.decompose

    def drop_one(*args, **kwargs):
        dec = real(*args, **kwargs)
        return Decomposition(dec.rs, dec.summands[:-1])

    monkeypatch.setattr(gradings, "decompose", drop_one)
    assert main(["show", "--grading", "A2/A1xT1"]) == 1
    assert "disagree" in capsys.readouterr().err
