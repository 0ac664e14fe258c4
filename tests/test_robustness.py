"""Checks that cannot be lost silently: no bare asserts in the library,
stray exceptions in a verify check, budget refusals that name their size
and reach every product, and one definition of each shared name."""

import ast
import pathlib
from fractions import Fraction

import pytest

from spinchar import BudgetExceeded, build_root_system
from spinchar import verify
from spinchar.charring import Decomposition

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinchar"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them the check
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_neither_raises_nor_catches_assertion_error():
    # a failed self-check raises ConsistencyError, which exits 1 and gives
    # a fail record; there is no second form of it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


def test_non_module_character_is_raised_only_on_inputs():
    # NonModuleCharacter means the input is no module character (exit 2);
    # every check that only a library fault can fail raises ConsistencyError
    assert _callers("NonModuleCharacter") == {
        ("charring.py", "_binomial_product"), ("charring.py", "exact_divide"),
        ("charring.py", "_check_invariant"), ("charring.py", "_decompose_product"),
        ("charring.py", "invariant_poincare")}


def test_unexpected_exception_becomes_fail_record():
    def check():
        raise ValueError("reflection leaves the key lattice")

    record = verify._run("robustness:stray-error", check)
    assert record["status"] == "fail"
    assert "ValueError" in record["detail"]
    assert "key lattice" in record["detail"]


def test_verify_runs_only_the_paper_suites():
    # the library's own properties are checked by the tests, not by verify
    assert sorted(verify.SUITES) == ["casimir", "classify", "conjecture", "identity",
                                     "inner", "little-adjoint", "outer", "spin-series",
                                     "table1"]


def test_coset_section_budget_refusal_reports_its_size():
    # the budget bounds the section walked, |W(F4)|/|W(B4)| = 3
    from spinchar import inner_grading, minimal_coset_reps

    rs = build_root_system("F4")
    sub = inner_grading(rs, 1).sub
    with pytest.raises(BudgetExceeded) as info:
        minimal_coset_reps(rs, sub, budget=2)
    assert info.value.required == 3
    assert info.value.budget == 2


def test_route_disagreement_exits_one(monkeypatch, capsys):
    # a decomposition that lost a summand no longer matches the coset
    # formula: a consistency failure (exit 1), not a usage error (exit 2)
    from spinchar import gradings
    from spinchar.charring import Decomposition
    from spinchar.cli import main

    real = gradings.spin0_decomposition

    def drop_one(*args, **kwargs):
        dec = real(*args, **kwargs)
        return Decomposition(dec.rs, dec.summands[:-1])

    monkeypatch.setattr(gradings, "spin0_decomposition", drop_one)
    assert main(["show", "--grading", "A2/A1xT1"]) == 1
    assert "disagree" in capsys.readouterr().err


def test_spin_and_show_never_expand_the_full_spin0(monkeypatch, capsys):
    from spinchar import cli, gradings, spinmod
    from spinchar.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("the full Spin0 product was expanded")

    for module in (spinmod, gradings, cli, verify):
        if hasattr(module, "spin0_character"):
            monkeypatch.setattr(module, "spin0_character", refuse)
    assert main(["spin", "--type", "B4", "--weight", "2,0,0,0"]) == 0
    assert main(["show", "--grading", "F4/B4"]) == 0
    capsys.readouterr()


def test_term_budget_bounds_the_spin0_product(capsys):
    from spinchar import freudenthal_weights, spin0_character
    from spinchar.cli import main

    assert main(["spin", "--type", "F4", "--weight", "1,0,0,0",
                 "--term-budget", "1"]) == 3
    assert "term budget 1" in capsys.readouterr().err
    rs = build_root_system("F4")
    with pytest.raises(BudgetExceeded) as info:
        spin0_character(freudenthal_weights(rs, rs.weight(1, 0, 0, 0)), term_budget=1)
    assert info.value.required > 1
    assert info.value.budget == 1


def test_casimir_suite_honours_term_budget():
    # the cached Spin of each grading is keyed by the budgets it was built under
    verify.suite_casimir()
    records = verify.suite_casimir(term_budget=1)
    assert records
    # the Weyl denominator of sl_odd(2)'s g0 merges with its Spin0 factors
    # so its product never holds more than the one state; all others skip
    passed = [r for r in records if r["status"] != "skip"]
    assert [(r["id"], r["status"]) for r in passed] == [("casimir:outer:sl_odd(2,)", "pass")]
    assert all("budget" in r["detail"] for r in records if r not in passed)


def test_casimir_suite_checks_the_closed_form(monkeypatch):
    # each inner record compares casimir_check's value with h^vee dim g1 / 8,
    # so a wrong value fails every one of them
    monkeypatch.setattr(verify, "casimir_check", lambda grading, sp: Fraction(1, 7))
    records = [r for r in verify.suite_casimir() if ":outer:" not in r["id"]]
    assert records
    assert all(r["status"] == "fail" and r["detail"] == "value != h^vee dim g1 / 8"
               for r in records)


@pytest.mark.parametrize("key", ["condition_ii", "condition_iii", "condition_iv",
                                 "casimir_scalar_on_dg"])
def test_conjecture_suite_checks_every_condition_on_every_pair(monkeypatch, key):
    # one pair check reads each row: flipping any condition, or the Casimir's
    # scalarity, fails every pair
    real = verify.equal_rank_pair

    def flipped(*args):
        report = real(*args)
        return {**report, key: not report[key]}

    monkeypatch.setattr(verify, "equal_rank_pair", flipped)
    records = verify.suite_conjecture()
    assert [r["id"] for r in records] == ["conjecture:G2>A2", "conjecture:C3>A1xA1xA1",
                                          "conjecture:symmetric-control"]
    assert {r["status"] for r in records} == {"fail"}, records


def test_coprimary_module_records_check_the_head(monkeypatch):
    # the little adjoints and the Cartan squares share one co-primary check,
    # which fails each of them when is_coprimary names a wrong head
    real = verify.is_coprimary

    def wrong_head(ws, *args):
        flag, dec = real(ws, *args)
        return flag, Decomposition(dec.rs, [(2 * lam, m) for lam, m in dec])

    monkeypatch.setattr(verify, "is_coprimary", wrong_head)
    records = {r["id"]: r for r in verify.suite_little_adjoint()}
    ids = [f"little-adjoint:{desc}" for desc in verify.LITTLE_ADJOINT_TYPES]
    ids += [f"little-adjoint:cartan-square:B{n}" for n in (2, 3, 4)]
    assert {i: records[i]["status"] for i in ids} == dict.fromkeys(ids, "fail")
    assert all(records[i]["detail"].startswith("Spin0 head ") for i in ids)


def test_f4_table_row_skips_under_a_reduced_weyl_budget():
    # no fallback path: the refusal is a skip naming |W(F4)| and the budget
    records = {r["id"]: r for r in verify.suite_table1(weyl_budget=10)}
    row = records["table1:f4:Vw1"]
    assert row["status"] == "skip"
    assert "1152" in row["detail"] and "budget 10" in row["detail"]


def test_classify_suite_skips_the_candidates_the_budget_refuses(monkeypatch):
    # |W(A3)| = 24 and |W(G2)| = 12 exceed the budget: those candidates
    # are neither missing nor found, and the record says how many
    records = verify.suite_classify(weyl_budget=10)
    assert [r["status"] for r in records] == ["skip"]
    assert records[0]["detail"] == ("9 co-primary modules, 10 skipped; the largest"
                                    " refusal needs 48 against the budget 10")
    # a mismatch among the decided candidates still fails
    monkeypatch.setattr(verify, "CLASSIFY_EXPECTED_3_6",
                        verify.CLASSIFY_EXPECTED_3_6 | {("A1", ("6",))})
    records = verify.suite_classify(weyl_budget=10)
    assert records[0]["status"] == "fail"
    assert "missing {('A1', ('6',))}" in records[0]["detail"]


# each shared name has one home; a copy elsewhere fails here
OWNERS = {
    "DEFAULT_WEYL_BUDGET": "weyl.py",
    "_check_weyl_budget": "weyl.py",
    "DEFAULT_TERM_BUDGET": "charring.py",
    "OUTER_INSTANCES": "gradings.py",
    "involutive_pivots": "gradings.py",
    "simple_types": "rootsys.py",
    "weights_up_to_height": "spinmod.py",
}


def _top_level_definitions():
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, set()).add(path.name)
    return defined


def test_shared_names_are_defined_once():
    defined = _top_level_definitions()
    assert {name: defined.get(name) for name in OWNERS} == {
        name: {owner} for name, owner in OWNERS.items()}
    assert {n: m for n, m in defined.items() if len(m) > 1} == {}
    # the valid ranks are read through simple_types, not copied out
    readers = {path.name for path in SRC.glob("*.py")
               if "_VALID_RANKS" in path.read_text()}
    assert readers == {"rootsys.py"}


def _constant_values(tree):
    """Values of the maximal all-constant expressions in a module."""
    values, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Constant, ast.BinOp)) and all(
                isinstance(n, (ast.Constant, ast.BinOp, ast.operator))
                for n in ast.walk(node)):
            values.append(eval(compile(ast.Expression(node), "<constant>", "eval")))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return values


def test_budget_defaults_are_not_copied_as_literals():
    from spinchar.charring import DEFAULT_TERM_BUDGET
    from spinchar.weyl import DEFAULT_WEYL_BUDGET

    for name, value in [("DEFAULT_WEYL_BUDGET", DEFAULT_WEYL_BUDGET),
                        ("DEFAULT_TERM_BUDGET", DEFAULT_TERM_BUDGET)]:
        holders = {path.name for path in SRC.glob("*.py")
                   if value in _constant_values(ast.parse(path.read_text()))}
        assert holders == {OWNERS[name]}, name


# No library function enumerates W: the alternating sums (tau identity,
# Weyl denominator, Weyl-formula oracle) walk one orbit with
# ``signed_orbit``, and W as elements serves only the tests' oracles
W_WALKERS = set()


def _callers(name):
    """(module, innermost enclosing function) of every call to ``name``."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.name, None))
    return found


def test_weyl_group_is_enumerated_only_where_the_walk_is_the_point():
    assert _callers("enumerate_weyl") == W_WALKERS


# walk applies a word to a vector; W, W0 and every descent move Dynkin
# labels through to_dominant and dominant_orbit instead. The last caller
# is the tests' oracle.
WORD_APPLIERS = {("weyl.py", "apply"), ("weyl.py", "apply_inverse"), ("weyl.py", "_spell"),
                 ("rootsys.py", "dominant_representative")}


def test_walk_only_applies_words():
    assert _callers("walk") == WORD_APPLIERS


# the Weyl, character, Spin and grading layers compute on integer keys; a
# Weight carries its own key and scale, and Fractions are made in rootsys
# (coords, fw_coefficients, inner) for output and oracles. Fraction( calls
# in these layers, by function:
KEY_LAYERS = ("charring.py", "weyl.py", "spinmod.py", "gradings.py")
FRACTION_MAKERS = set()


def test_key_layers_make_no_fractions():
    assert {where for where in _callers("Fraction")
            if where[0] in KEY_LAYERS} == FRACTION_MAKERS


# rootsys._dot, sum(map(mul, a, b)), is the one integer dot product; a
# sum over a generator of products over zip is a second, slower copy of it
DOT_KERNEL = ("rootsys.py", "_dot")


def _zip_product_sums():
    """(module, innermost enclosing function) of every sum(x * y for ... in
    zip(...)) in the library."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                and node.args and isinstance(node.args[0], ast.GeneratorExp)):
            gen = node.args[0]
            if (isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.Mult)
                    and any(getattr(getattr(g.iter, "func", None), "id", None) == "zip"
                            for g in gen.generators)):
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.name, None))
    return found


def test_integer_dot_products_call_the_one_kernel():
    assert _zip_product_sums() - {DOT_KERNEL} == set()


def test_cli_budget_defaults_are_the_library_constants(monkeypatch):
    from spinchar.charring import DEFAULT_TERM_BUDGET
    from spinchar.cli import _parser
    from spinchar.weyl import DEFAULT_WEYL_BUDGET

    monkeypatch.delenv("SPINCHAR_WEYL_BUDGET", raising=False)
    monkeypatch.delenv("SPINCHAR_TERM_BUDGET", raising=False)
    args = _parser().parse_args(["spin", "--type", "A1", "--weight", "1"])
    assert args.weyl_budget == DEFAULT_WEYL_BUDGET
    assert args.term_budget == DEFAULT_TERM_BUDGET
