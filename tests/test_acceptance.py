"""Acceptance criteria, one test per numbered item.

Every check is exact (integer or rational equality); there are no
tolerances anywhere. Each test prints a single PASS line when its
criterion holds; budget skips are listed but only genuine mismatches
fail. The full module is budgeted to stay well under ten minutes.
"""

import time

import pytest

from spinchar import verify
from spinchar.weyl import DEFAULT_WEYL_BUDGET


def _report(n, title, records, allow_skips=False):
    failed = [r for r in records if r["status"] == "fail"]
    skipped = [r for r in records if r["status"] == "skip"]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {n:2d} {status} - {title}"
          f" ({sum(r['status'] == 'pass' for r in records)} checks"
          + (f", {len(skipped)} skipped" if skipped else "") + ")")
    for r in failed:
        print(f"    fail: {r['id']}: {r['detail']}")
    if skipped and not allow_skips:
        pytest.fail(f"unexpected skips: {[r['id'] for r in skipped]}")
    assert not failed, [r["id"] for r in failed]


def _timed(fn, *args):
    start = time.time()
    out = fn(*args)
    return out, time.time() - start


_SUITE_RECORDS = {}


def _suite_records(suite):
    """Run a suite once for all the tests that split its records."""
    if suite not in _SUITE_RECORDS:
        _SUITE_RECORDS[suite] = suite()
    return _SUITE_RECORDS[suite]


def _table1_records():
    return _suite_records(verify.suite_table1)


def test_acceptance_01_table_rows_small():
    records = _table1_records()
    small = [r for r in records if r["id"] != "table1:f4:Vw1"]
    _report(1, "free skew-invariant table at small parameters", small)
    elapsed = sum(r["seconds"] for r in small)
    assert elapsed < 60, f"small table rows took {elapsed:.0f}s"


def test_acceptance_02_table_row_f4():
    records = _table1_records()
    f4 = [r for r in records if r["id"] == "table1:f4:Vw1"]
    assert f4, "F4 row missing from the suite"
    print(f"    F4 path: {f4[0]['detail']} ({f4[0]['seconds']}s)")
    _report(2, "F4 26-dimensional row (1+t^9)(1+t^17)", f4)
    assert f4[0]["seconds"] < 300, f"F4 row took {f4[0]['seconds']}s"


def test_acceptance_03_rank_one_spin_series():
    records, _ = _timed(verify.suite_spin_series)
    _report(3, "rank-one Spin series and shift containment", records)


def test_acceptance_04_little_adjoint():
    records = _suite_records(verify.suite_little_adjoint)
    main = [r for r in records if not r["id"].startswith("little-adjoint:cartan")]
    _report(4, "little adjoint: Spin0 = V_rho_s, dual route, G2 control", main)


def test_acceptance_05_cartan_square_series():
    records = _suite_records(verify.suite_little_adjoint)
    squares = [r for r in records if r["id"].startswith("little-adjoint:cartan")]
    assert len(squares) == 3
    _report(5, "odd orthogonal Cartan squares: Spin0 = V_(rho+2w_n)", squares)


def test_acceptance_06_inner_decompositions():
    records, _ = _timed(verify.suite_inner)
    _report(6, "inner symmetric pairs: coset formula = character route", records)


def test_acceptance_07_tau_identity():
    records, _ = _timed(verify.suite_identity)
    skips = [r for r in records if r["status"] == "skip"]
    assert all(r["id"].startswith("identity:E") for r in skips), \
        "only the E series may be skipped"
    by_id = {r["id"]: r for r in records}
    assert by_id["identity:E6"]["status"] == "pass", by_id["identity:E6"]
    for desc, order in (("E7", 2903040), ("E8", 696729600)):
        rec = by_id[f"identity:{desc}"]
        assert rec["status"] == "skip"
        assert str(order) in rec["detail"]
        assert f"budget {DEFAULT_WEYL_BUDGET}" in rec["detail"]
    _report(7, "twisted denominator identity for every inner grading",
            records, allow_skips=True)


def test_acceptance_08_outer_families():
    records, _ = _timed(verify.suite_outer)
    _report(8, "outer families: fixtures, counts and dual-system bridge", records)


def test_acceptance_09_casimir():
    records, _ = _timed(verify.suite_casimir)
    _report(9, "Casimir scalar (rho,rho)-(rho0,rho0) on every grading", records)


def test_acceptance_10_equal_rank_evidence():
    records, _ = _timed(verify.suite_conjecture)
    _report(10, "non-symmetric equal-rank pairs break conditions (ii)-(iv)",
            records)


def test_acceptance_11_classification_sweep():
    records, _ = _timed(verify.suite_classify)
    _report(11, "co-primary sweep (rank <= 3, height <= 6) is exact", records)
