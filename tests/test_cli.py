import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinchar import charring, cli, spinmod, verify
from spinchar.charring import Decomposition
from spinchar.cli import main
from spinchar.gradings import OUTER_INSTANCES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spin_rank_one_series_entry(capsys):
    code, out = run_cli(capsys, "spin", "--type", "A1", "--weight", "8")
    assert code == 0
    assert "V_(10)" in out and "V_(4)" in out
    assert "| no |" in out  # two summands: not co-primary


def test_spin_g2_little_adjoint(capsys):
    code, out = run_cli(capsys, "spin", "--type", "G2", "--weight", "1,0")
    assert code == 0
    assert "V_(1,0)" in out and "V_(0,0)" in out


def test_spin_c3_little_adjoint_coprimary(capsys):
    code, out = run_cli(capsys, "spin", "--type", "C3", "--weight", "0,1,0")
    assert code == 0
    assert "V_(1,1,0)" in out
    assert "| yes |" in out


def test_json_output_round_trips(capsys):
    code, out = run_cli(capsys, "spin", "--type", "A1", "--weight", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    report = data["spin"][0]
    assert report["orthogonality"] == "orthogonal"
    assert report["coprimary"] is True
    assert report["spin0_decomposition"][0]["fw"] == ["3"]


def test_usage_error_exit_code(capsys):
    code = main(["spin", "--type", "B99", "--weight", "1"])
    assert code == 2
    code = main(["spin", "--type", "B2", "--weight", "1"])  # wrong arity
    assert code == 2


def test_weight_without_a_module_is_a_usage_error(capsys):
    assert main(["spin", "--type", "A1", "--weight=-2"]) == 2
    assert main(["spin", "--type", "A2", "--weight", "1/2,0"]) == 2
    assert "not dominant integral" in capsys.readouterr().err


def test_half_a_fundamental_weight_is_a_usage_error(capsys):
    # the self-duality test takes any rational weight; the module check refuses it
    assert main(["spin", "--type", "B2", "--weight", "1/2,0"]) == 2
    assert "not dominant integral" in capsys.readouterr().err


def test_weight_errors_name_the_users_labels(capsys):
    assert main(["spin", "--type", "A1", "--weight", "1/2"]) == 2
    assert "error: (1/2) is not dominant integral" in capsys.readouterr().err


def test_malformed_weight_is_a_usage_error(capsys):
    # a coefficient that is not a rational number is the caller's mistake,
    # not a failed check: exit 2 with an error line, no traceback
    for bad in ("1,x", "1/0,0"):
        assert main(["spin", "--type", "B2", "--weight", bad]) == 2
        assert f"error: weight {bad!r}" in capsys.readouterr().err


def test_budget_refusal_exit_code(capsys):
    code = main(["spin", "--type", "F4", "--weight", "1,0,0,0",
                 "--weyl-budget", "100"])
    assert code == 3


def test_symplectic_queries_need_no_weyl_budget(capsys):
    # the sign is read off the labels, so |W| above the budget refuses
    # nothing that walks nothing; an orthogonal module still needs Spin0
    for desc, weight in [("E7", "0,0,0,0,0,0,1"), ("C8", "1,0,0,0,0,0,0,0")]:
        code, out = run_cli(capsys, "spin", "--type", desc, "--weight", weight)
        assert code == 0
        assert "| symplectic |" in out
    assert main(["spin", "--type", "B8", "--weight", "1,0,0,0,0,0,0,0"]) == 3
    assert "|W(B8)| = 10321920" in capsys.readouterr().err


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_spin_runs_freudenthal_only_for_orthogonal_modules(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, cli, "freudenthal_weights")
    code, out = run_cli(capsys, "spin", "--type", "C3", "--weight", "1,0,0")
    assert code == 0 and "| symplectic |" in out
    assert calls == []


def test_spin_expands_spin0_once(capsys, monkeypatch):
    # the extreme weights are certified against the printed decomposition
    floors = []
    real = charring._binomial_product
    for module in (charring, spinmod):
        monkeypatch.setattr(module, "_binomial_product",
                            lambda *a, **kw: floors.append(kw.get("floor")) or real(*a, **kw))
    code, out = run_cli(capsys, "spin", "--type", "F4", "--weight", "1,0,0,0")
    assert code == 0 and "| yes |" in out
    assert floors == [2]


def test_an_extreme_weight_off_the_decomposition_exits_1(capsys, monkeypatch):
    real = spinmod.spin0_decomposition
    monkeypatch.setattr(spinmod, "spin0_decomposition", lambda ws, *a: Decomposition(
        ws.rs, [(lam, 2 * m) for lam, m in real(ws, *a)]))
    assert main(["spin", "--type", "A1", "--weight", "4"]) == 1
    assert "extreme weight" in capsys.readouterr().err


def test_a_lost_witness_exits_1(capsys, monkeypatch):
    # the hyperplanes of A2 V_(2,2) cut the dominant cone into chambers;
    # a witness, the sum of a chamber's rays, off its chamber is a library bug
    real = spinmod._ray_sum
    monkeypatch.setattr(spinmod, "_ray_sum",
                        lambda rays, dim: tuple(-x for x in real(rays, dim)))
    assert main(["spin", "--type", "A2", "--weight", "2,2"]) == 1
    assert "lost its witness" in capsys.readouterr().err


def test_weyl_dimension_off_by_one_exits_1(capsys, monkeypatch):
    # Freudenthal's weights no longer sum to the Weyl dimension: the
    # library disagrees with itself, the input was fine
    from spinchar import charring
    real = charring.weyl_dimension
    monkeypatch.setattr(charring, "weyl_dimension", lambda rs, lam: real(rs, lam) + 1)
    assert main(["spin", "--type", "B2", "--weight", "1,0"]) == 1
    assert capsys.readouterr().err.startswith("consistency failure:")


def test_a_dropped_floor_2_term_exits_1(capsys, monkeypatch):
    # the pruned product loses a summand, which then no longer fills Spin0
    real = charring._binomial_product

    def drop_one(*args, **kwargs):
        terms = real(*args, **kwargs)
        if kwargs.get("floor") == 2:
            # a record is the key of lam + rho and then its slack fields,
            # so the greatest record is the top summand's
            del terms[max(terms)]
        return terms

    monkeypatch.setattr(charring, "_binomial_product", drop_one)
    assert main(["spin", "--type", "G2", "--weight", "1,0"]) == 1
    assert capsys.readouterr().err.startswith("consistency failure:")


def test_e6_adjoint_spin0_fits_a_small_term_budget(capsys):
    # each root weight of the adjoint merges with its Weyl-denominator
    # factor, which keeps the pruned product under 20000 states
    code, out = run_cli(capsys, "spin", "--type", "E6", "--weight", "0,1,0,0,0,0",
                        "--term-budget", "20000", "--format", "json")
    assert code == 0
    (summand,) = json.loads(out)["spin"][0]["spin0_decomposition"]
    assert summand["fw"] == ["1"] * 6 and summand["multiplicity"] == 1


def test_jobs_is_a_verify_flag_only(capsys):
    for argv in (["spin", "--type", "A1", "--weight", "2"],
                 ["classify", "--rank-bound", "1"], ["show", "--type", "A1"]):
        assert main(argv + ["--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_negative_counts_are_usage_errors(capsys, monkeypatch):
    # each count is checked as a flag and as its SPINCHAR_* variable
    spin = ["spin", "--type", "G2", "--weight", "1,0"]
    cases = [("weyl-budget", "-5", spin), ("term-budget", "-1", spin),
             ("rank-bound", "-1", ["classify"]), ("height-bound", "-1", ["classify"]),
             ("jobs", "0", ["verify", "--suite", "conjecture"])]
    for flag, value, argv in cases:
        assert main(argv + [f"--{flag}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --{flag}: invalid" in captured.err
        name = "SPINCHAR_" + flag.replace("-", "_").upper()
        monkeypatch.setenv(name, value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}={value!r} is not a valid")
        monkeypatch.delenv(name)


def test_tables_reuse_the_suite_computations(capsys, monkeypatch):
    # each table is built from its suite's memo, one computation per module
    verify._poincare_cached.cache_clear()
    verify._outer_cached.cache_clear()
    poincare = _count_calls(monkeypatch, verify, "invariant_poincare")
    code, out = run_cli(capsys, "verify", "--suite", "table1")
    assert code == 0 and "| F4 | f4: V_w1 | 2 | (1+t^9)(1+t^17) |" in out
    assert len(poincare) == 20
    spin = _count_calls(monkeypatch, verify, "spin_g1")
    code, out = run_cli(capsys, "verify", "--suite", "outer")
    assert code == 0 and "| e6 | sp8 | isotropy module |" in out
    assert len(spin) == len(OUTER_INSTANCES)


def test_verify_suite_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "spin-series")
    assert code == 0
    assert "summary:" in out
    assert "FAIL" not in out


def test_unknown_suite_is_a_usage_error_naming_the_suites(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert ", ".join(sorted(verify.SUITES) + ["all"]) in err


def test_a_spin_process_never_loads_verify_or_the_pool():
    # verify and the process pool cost a cold start tens of milliseconds;
    # only the verify command imports them. gradings stays eager: the
    # benchmark's tracer looks it up in sys.modules and refuses to run
    # without it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from spinchar import cli\n"
              "assert cli.main(['spin', '--type', 'B2', '--weight', '1,0']) == 0\n"
              "print([m for m in ('spinchar.verify', 'concurrent.futures',"
              " 'multiprocessing', 'spinchar.gradings') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['spinchar.gradings']"


def test_verify_jobs_fan_out_gives_the_serial_records(capsys, monkeypatch):
    import concurrent.futures
    import multiprocessing
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the children see the patched SUITES only when forked")
    monkeypatch.setattr(verify, "SUITES", {
        name: verify.SUITES[name] for name in ("conjecture", "spin-series")})
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)

    def records(jobs):
        code, out = run_cli(capsys, "verify", "--suite", "all", "--format", "json",
                            "--jobs", str(jobs))
        assert code == 0
        checks = json.loads(out)["checks"]
        for r in checks:
            del r["seconds"]
        return checks

    serial = records(1)
    assert not pools
    assert records(2) == serial and len(pools) == 1
    assert {r["id"].split(":")[0] for r in serial} == {"conjecture", "spin-series"}


def test_verify_skips_are_not_failures(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "identity",
                        "--weyl-budget", "50")
    assert code == 0
    assert "SKIP" in out


def test_budget_skips_carry_the_suites_own_ids():
    # a refused grading is skipped under the id of the suite that refused
    # it, not under the sweep type's inner:<type>
    suites = {"inner": verify.suite_inner, "identity": verify.suite_identity,
              "casimir": verify.suite_casimir}
    records = {name: suite(weyl_budget=50) for name, suite in suites.items()}
    ids = [r["id"] for recs in records.values() for r in recs]
    assert len(ids) == len(set(ids))
    for name, recs in records.items():
        assert all(r["id"].startswith(f"{name}:") for r in recs), name
    status = {r["id"]: r["status"] for recs in records.values() for r in recs}
    # the tau identity walks W(A4), |W| = 120; spin_g1 only W(A3), |W| = 24
    assert status["identity:A4/alpha1"] == "skip"
    assert status["casimir:A4/alpha1"] == status["inner:A4/alpha1"] == "pass"
    assert status["casimir:F4/alpha1"] == "skip"  # |W(B4)| = 384


def test_classify_suite_budget_refusals_are_skips(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "classify",
                        "--weyl-budget", "10")
    assert code == 0
    assert "SKIP  classify:rank<=3:height<=6 :: 9 co-primary modules, 10 skipped" in out


def test_classify_suite_skip_names_the_required_size_and_the_budget(capsys):
    # |W(B3)| = |W(C3)| = 48 is the largest refusal under a budget of 10
    code, out = run_cli(capsys, "verify", "--suite", "classify",
                        "--weyl-budget", "10")
    assert code == 0
    assert "the largest refusal needs 48 against the budget 10" in out


def test_classify_rank_one(capsys):
    code, out = run_cli(capsys, "classify", "--rank-bound", "1",
                        "--height-bound", "8")
    assert code == 0
    assert "(2)" in out and "(4)" in out
    assert "2 co-primary modules" in out


def test_classify_deterministic(capsys):
    _, first = run_cli(capsys, "classify", "--rank-bound", "1",
                       "--height-bound", "6", "--format", "json")
    _, second = run_cli(capsys, "classify", "--rank-bound", "1",
                        "--height-bound", "6", "--format", "json")
    assert first == second


def test_show_root_system(capsys):
    code, out = run_cli(capsys, "show", "--type", "F4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["root_system"]["type"] == "F4"
    assert data["root_system"]["bourbaki_numbering"] == [4, 3, 2, 1]
    assert len(data["root_system"]["positive_roots"]) == 24


@pytest.mark.parametrize("argv", [["--type", "A1"], ["--grading", "B2/alpha2"]])
def test_show_prints_its_json_once_in_every_format(capsys, argv):
    # show has no markdown form: each format prints the one JSON document
    outs = [run_cli(capsys, "show", *argv, "--format", f) for f in ("json", "markdown", "both")]
    assert {code for code, _ in outs} == {0}
    assert {out for _, out in outs} == {outs[0][1]}
    json.loads(outs[2][1])


def test_show_grading_dumps_section(capsys):
    code, out = run_cli(capsys, "show", "--grading", "F4/B4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["grading"]["multiplicity_free"] is True
    assert len(data["grading"]["summands"]) == 3
    assert data["grading"]["casimir_value"] == "18"
    assert len(data["grading"]["coset_section"]) == 3


def test_show_resolves_verify_labels_at_any_rank(capsys):
    # <type>/alpha<k>, as verify records print it, builds that inner grading
    code, out = run_cli(capsys, "show", "--grading", "F4/alpha1", "--format", "json")
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "show_F4_B4.json"
    assert out == golden.read_text()
    # past the catalog's rank 4: spin_g1 fits the budget (36 section points,
    # |W(A1xA5)| = 1440) and the tau identity's walk over W(E6) refuses
    assert main(["show", "--grading", "E6/alpha2", "--weyl-budget", "2000"]) == 3
    assert "|W(E6)| = 51840" in capsys.readouterr().err
    assert main(["show", "--grading", "E6/alpha4"]) == 2  # mark 3
    assert main(["show", "--grading", "nonsense"]) == 2


def test_show_builds_only_the_gradings_a_name_needs(capsys, monkeypatch):
    # a catalog name builds its own type's involutive pivots (F4: 1 and 4),
    # an outer label no inner grading; only an unknown name lists the catalog
    from spinchar import gradings

    built = []
    real = gradings.inner_grading

    def counted(rs, pivot):
        built.append((rs.descriptor(), pivot))
        return real(rs, pivot)

    monkeypatch.setattr(gradings, "inner_grading", counted)
    golden = pathlib.Path(__file__).parent / "golden"
    for name, most in [("F4/B4", 2), ("E6/C4", 0)]:
        built.clear()
        code, out = run_cli(capsys, "show", "--grading", name, "--format", "json")
        assert code == 0 and len(built) <= most, (name, built)
        assert out == (golden / f"show_{name.replace('/', '_')}.json").read_text()
    built.clear()
    assert gradings.named_grading("AIII(1,3)").label == "A3/alpha1"
    assert {d for d, _ in built} == {"A3"}
    # A1's g0 is the torus alone
    assert gradings.named_grading("A1/T1").label == "A1/alpha1"
    for name in ["F4/A4", "AIII(5,2)", "A1/xT1"]:
        assert main(["show", "--grading", name]) == 2
        assert f"unknown grading {name!r}" in capsys.readouterr().err


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SPINCHAR_FORMAT", "json")
    code, out = run_cli(capsys, "spin", "--type", "A1", "--weight", "2")
    assert code == 0
    json.loads(out)


def test_env_change_between_calls_rebuilds_the_defaults(capsys, monkeypatch):
    # parsers are kept per SPINCHAR_* environment, so a change still shows
    argv = ("spin", "--type", "A1", "--weight", "2")
    monkeypatch.setenv("SPINCHAR_FORMAT", "json")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["spin"]
    monkeypatch.setenv("SPINCHAR_FORMAT", "markdown")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("| type | weight |")
    monkeypatch.setenv("SPINCHAR_FORMAT", "json")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["spin"]


def test_malformed_env_integer_is_a_usage_error(capsys, monkeypatch):
    # a SPINCHAR_* value is checked like its flag: an error line naming the
    # variable and exit 2, not a ValueError traceback
    argv = {"SPINCHAR_WEYL_BUDGET": ["spin", "--type", "A1", "--weight", "2"],
            "SPINCHAR_TERM_BUDGET": ["spin", "--type", "A1", "--weight", "2"],
            "SPINCHAR_JOBS": ["verify", "--suite", "conjecture"],
            "SPINCHAR_RANK_BOUND": ["classify", "--height-bound", "1"],
            "SPINCHAR_HEIGHT_BOUND": ["classify", "--rank-bound", "1"]}
    for name, args in argv.items():
        monkeypatch.setenv(name, "abc")
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}='abc'")
        monkeypatch.delenv(name)
    # a command reads only its own variables: spin takes no --jobs
    monkeypatch.setenv("SPINCHAR_JOBS", "abc")
    assert main(["spin", "--type", "A1", "--weight", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_env_format_outside_the_choices_is_a_usage_error(capsys, monkeypatch):
    # argparse checks no default against choices; the environment is
    monkeypatch.setenv("SPINCHAR_FORMAT", "xml")
    assert main(["spin", "--type", "A1", "--weight", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SPINCHAR_FORMAT='xml'")


def test_family_and_rank_flags(capsys):
    code, out = run_cli(capsys, "spin", "--type", "B", "--rank", "2",
                        "--weight", "0,2")
    assert code == 0
    assert "V_(1,1)" in out  # adjoint Spin0 head is rho


def test_table_emitter(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "table1",
                        "--format", "markdown")
    assert code == 0
    assert "| algebra | module | dim P | Poincare polynomial |" in out
    assert "(1+t^9)(1+t^17)" in out


def test_outer_table_skips_rows_the_budget_refuses(capsys):
    # E6/C4 lives on F4 (|W| = 1152); its row is refused, not computed
    code, out = run_cli(capsys, "verify", "--suite", "outer",
                        "--weyl-budget", "50")
    assert code == 0
    assert "| e6 | sp8 | isotropy module | f4 | little adjoint V_w1 | skip |" in out
    assert "| sl4 | so4 | isotropy module | sp4 | little adjoint V_w2 | 2 |" in out


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.recursive(_JSON_SCALARS, lambda kids: st.lists(kids) | st.lists(kids).map(tuple)
                    | st.lists(st.text()) | st.dictionaries(st.text(), kids), max_leaves=25))
@example({"": [], "é": {}, "\u2603\n": [["a", "\x00"], [1.5, True, None]], "a": -0.0})
def test_json_writer_gives_the_bytes_of_json_dumps(tree):
    assert cli._json(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_output_into_a_pipe_closed_early_is_not_an_error():
    # ~140 KB of JSON overfills the pipe, so the reader's close is seen
    # mid-write: no traceback, and the command's own exit code stands
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "spinchar.cli", "spin", "--type", "A1",
            "--format", "json"] + ["--weight", "2"] * 300
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Error" not in err
