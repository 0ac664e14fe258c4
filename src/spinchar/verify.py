"""Named verification suites of the paper's claims.

Each check returns a record {id, status, detail}; budget refusals are
reported as skips, never as failures. The suites are what the command-line
``verify`` runs and what the acceptance tests assert on. They check what
the paper claims; the library's own properties (half-independence of
Spin0, exterior sums, exact Weyl division, coset factorization) are
checked by the tests in ``tests/``.

Each claim has one check: the little adjoints and the Cartan squares share
one co-primary module check, and every row of ``CONJECTURE_PAIRS`` is read
by one pair check, which asserts (ii), (iii) and (iv) on it.
"""

from __future__ import annotations

import os
import time
import traceback
from fractions import Fraction
from functools import cache
from math import comb

from .errors import BudgetExceeded, ConsistencyError, SpinCharError
from .charring import (
    DEFAULT_TERM_BUDGET,
    Character,
    WeightSystem,
    alternating_sum,
    decompose,
    freudenthal_weights,
    invariant_poincare,
    irreducible_character,
    plus_product,
    skew_plus_product,
    weight_key,
    weyl_dimension,
)
from .gradings import (
    INNER_SWEEP,
    OUTER_INSTANCES,
    OUTER_TABLE,
    inner_grading,
    involutive_pivots,
    outer_grading,
    outer_row,
    casimir_check,
    equal_rank_pair,
    spin_g1,
    verify_tau_identity,
)
from .rootsys import (
    Weight,
    build_root_system,
    dual_root_system,
    special_elements,
)
from .spinmod import (
    enumerate_dominant_halves,
    is_coprimary,
    classify_coprimary,
    spin0_decomposition,
    spin_character,
)
from .weyl import (
    DEFAULT_WEYL_BUDGET,
    SubsystemDatum,
    minimal_coset_reps,
)


def _record(check_id, status, detail="", seconds=0.0):
    return {"id": check_id, "status": status, "detail": str(detail),
            "seconds": round(seconds, 3)}


def _run(check_id, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        return _record(check_id, "pass", detail if detail is not None else "",
                       time.perf_counter() - start)
    except BudgetExceeded as exc:
        return _record(check_id, "skip", exc, time.perf_counter() - start)
    except SpinCharError as exc:
        return _record(check_id, "fail", exc, time.perf_counter() - start)
    except Exception as exc:  # a stray error fails this check, not the run
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return _record(check_id, "fail", f"{type(exc).__name__} at {where}: {exc}",
                       time.perf_counter() - start)


def _expect(condition, message):
    if not condition:
        raise ConsistencyError(message)


# ---------------------------------------------------------------------------
# inner gradings and their Spin, shared by the inner / identity / casimir
# suites. Every memo here is a functools.cache on value keys, budgets
# included; a refusal raises, so it is never memoised.

@cache
def _inner_grading_cached(desc, pivot):
    return inner_grading(build_root_system(desc), pivot)


@cache
def _spin_cached(desc, pivot, weyl_budget, term_budget):
    return spin_g1(_inner_grading_cached(desc, pivot), weyl_budget, term_budget)


def all_inner_gradings():
    """Inner gradings of the sweep types; a budget refuses each one's
    checks where they run, as a skip under the suite's own id."""
    return [_inner_grading_cached(desc, i) for desc in INNER_SWEEP
            for i in involutive_pivots(build_root_system(desc))]


# ---------------------------------------------------------------------------
# suite: table1


# (descriptor, table label or None); the table shows one adjoint row
TABLE1_ADJOINT_TYPES = [("A1", None), ("A2", "adjoint"), ("A3", None), ("B2", None),
                        ("B3", None), ("C2", None), ("C3", None), ("D3", None),
                        ("G2", None)]

TABLE1_ROWS = [
    # (id, descriptor, fw coefficients, expected (1+t^k) exponents, table label)
    ("sp4:Vw2", "C2", (0, 1), [5], "sp4: V_w2"),
    ("sp6:Vw2", "C3", (0, 1, 0), [5, 9], None),
    ("so5:V2w1", "B2", (2, 0), [5, 9], "so5: V_2w1"),
    ("so7:V2w1", "B3", (2, 0, 0), [5, 9, 13], None),
    ("sl2:V4w", "A1", (4,), [5], "sl2: V_4w"),
    ("so5:Vw1", "B2", (1, 0), [5], "so5: V_w1"),
    ("so6:Vw1", "D3", (1, 0, 0), [6], None),
    ("so7:Vw1", "B3", (1, 0, 0), [7], None),
    ("so8:Vw1", "D4", (1, 0, 0, 0), [8], None),
    ("sl2+sl2:VwxVw", "A1xA1", (1, 1), [4], "V_w x V_w'"),
]

# the 26-dimensional row: V_w1 = V_theta_s of F4
TABLE1_F4 = ("F4", (1, 0, 0, 0), "f4: V_w1")


@cache
def _poincare_cached(desc, coeffs, weyl_budget, term_budget):
    """(weight system, invariant Poincare polynomial) of the module; coeffs
    are its fw coefficients, or None for the adjoint module."""
    rs = build_root_system(desc)
    ws = (WeightSystem.adjoint(rs) if coeffs is None
          else freudenthal_weights(rs, rs.weight(*coeffs)))
    return ws, invariant_poincare(ws, weyl_budget, term_budget)


def suite_table1(weyl_budget=DEFAULT_WEYL_BUDGET, term_budget=DEFAULT_TERM_BUDGET):
    records = []
    for desc, _ in TABLE1_ADJOINT_TYPES:
        def chk(desc=desc):
            ws, gp = _poincare_cached(desc, None, weyl_budget, term_budget)
            rs = ws.rs
            expected = sorted(2 * m + 1 for m in rs.exponents())
            _expect(gp.factored() == expected,
                    f"{desc} adjoint invariants {gp}, expected exponents {expected}")
            _expect(gp.dimension() >= 2 ** rs.rank,
                    f"{desc} adjoint invariant dimension below 2^m(0)")
            return str(gp)
        records.append(_run(f"table1:adjoint:{desc}", chk))
    for check_id, desc, coeffs, exps, _ in TABLE1_ROWS:
        def chk(desc=desc, coeffs=coeffs, exps=exps):
            ws, gp = _poincare_cached(desc, coeffs, weyl_budget, term_budget)
            _expect(gp.factored() == exps, f"{desc} {coeffs}: {gp}, expected {exps}")
            _expect(gp.dimension() >= 2 ** ws.zero_mult, "below 2^m(0)")
            if ws.dimension() != 4:
                _expect(gp.coefficients[4] == 0 if len(gp.coefficients) > 4 else True,
                        "degree-4 invariant on a module of dimension != 4")
            label = " [free-by-convention]" if gp.dimension() == 2 else ""
            return str(gp) + label
        records.append(_run(f"table1:{check_id}", chk))
    records.append(_run("table1:f4:Vw1", lambda: _f4_row(weyl_budget, term_budget)))
    return records


def _f4_row(weyl_budget, term_budget):
    """The 26-dimensional row, by the direct Poincare computation."""
    desc, coeffs, _ = TABLE1_F4
    gp = _poincare_cached(desc, coeffs, weyl_budget, term_budget)[1]
    _expect(gp.factored() == [9, 17], f"F4 row gave {gp}")
    return f"{gp} [direct path]"


def table1_markdown(weyl_budget, term_budget):
    """The free skew-invariant table, in its two-column-plus-data layout,
    from the rows the table1 suite computes; a row the budgets refuse reads
    ``skip``."""
    rows = [(desc, None, label) for desc, label in TABLE1_ADJOINT_TYPES if label]
    rows += [(desc, coeffs, label) for _, desc, coeffs, _, label in TABLE1_ROWS if label]
    rows.append(TABLE1_F4)
    lines = ["| algebra | module | dim P | Poincare polynomial |",
             "|---|---|---|---|"]
    for desc, coeffs, label in rows:
        name = f"simple g ({desc} shown)" if coeffs is None else desc
        try:
            gp = _poincare_cached(desc, coeffs, weyl_budget, term_budget)[1]
        except BudgetExceeded:
            gp = dim_p = "skip"
        else:
            dim_p = "rk g" if coeffs is None else len(gp.factored() or [])
        lines.append(f"| {name} | {label} | {dim_p} | {gp} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suite: little adjoint (two-length types), plus the B_n 2w1 series


LITTLE_ADJOINT_TYPES = ["B2", "B3", "B4", "C2", "C3", "C4", "F4"]


def suite_little_adjoint(weyl_budget=DEFAULT_WEYL_BUDGET,
                         term_budget=DEFAULT_TERM_BUDGET):
    records = []
    for desc in LITTLE_ADJOINT_TYPES:
        records.append(_run(f"little-adjoint:{desc}",
                            lambda desc=desc: _little_adjoint_check(
                                desc, weyl_budget, term_budget)))
        records.append(_run(f"little-adjoint:dual-route:{desc}",
                            lambda desc=desc: _dual_route_check(
                                desc, weyl_budget, term_budget)))
    records.append(_run("little-adjoint:g2-control",
                        lambda: _g2_control(weyl_budget, term_budget)))
    for n in (2, 3, 4):
        records.append(_run(f"little-adjoint:cartan-square:B{n}",
                            lambda n=n: _cartan_square_check(n, weyl_budget,
                                                             term_budget)))
    return records


def _coprimary_module_check(rs, lam, zero_mult, positive, head, weyl_budget,
                            term_budget, square=True):
    """V_lam has m(0) = zero_mult and the nonzero weights +-positive (integer
    keys), is co-primary with Spin0 = V_head, and 2^{(dim - m(0))/2} =
    dim V_head; with ``square``, the exterior algebra is checked as
    2^{m(0)} (ch V_head)^2 term by term. Returns (weight system, dim V_head)."""
    ws = freudenthal_weights(rs, lam)
    _expect(ws.zero_mult == zero_mult, f"m(0) = {ws.zero_mult}, expected {zero_mult}")
    _expect(set(ws.nonzero) == positive | {tuple(-x for x in k) for k in positive},
            "nonzero weights differ from the expected roots")
    flag, dec = is_coprimary(ws, weyl_budget, term_budget)
    _expect(flag, f"{rs.descriptor()} V_{rs.format_weight(lam)} not co-primary: {dec}")
    _expect(dec.summands[0][0] == head, f"Spin0 head {dec.summands[0][0]} != {head}")
    dim_spin = 2 ** ((ws.dimension() - zero_mult) // 2)
    _expect(dim_spin == weyl_dimension(rs, head), "2^{(dim-m0)/2} != dim V_head")
    if square:
        spin_character(ws, term_budget=term_budget)
    return ws, dim_spin


def _little_adjoint_check(desc, weyl_budget, term_budget):
    """V_theta_s: Spin0 = V_rho_s, and dim = (h+1) m(0)."""
    rs = build_root_system(desc)
    se = special_elements(rs)
    shorts = {weight_key(rs, r) for r in rs.short_roots()}
    ws, dim_spin = _coprimary_module_check(rs, se.theta_s, len(se.simple_short), shorts,
                                           se.rho_s, weyl_budget, term_budget)
    _expect(ws.dimension() == (se.coxeter_number + 1) * ws.zero_mult,
            "dim != (h+1) m(0)")
    return f"Spin0 = V_rho_s, dim {dim_spin}"


def _dual_route_check(desc, weyl_budget, term_budget):
    """The dual-system route: the dual Weyl denominator identity factors as
    (denominator of g) x (plus product over the short positives)."""
    rs = build_root_system(desc)
    se = special_elements(rs)
    dual, _ = dual_root_system(rs)
    _expect(dual.rho == rs.rho + se.rho_s, "dual rho != rho + rho_s")
    lhs = alternating_sum(rs, dual.rho, weyl_budget)
    _expect(lhs == skew_plus_product(rs, rs.positive_roots, rs.short_roots(), term_budget),
            "dual denominator identity failed")
    spin0 = plus_product(rs, [(r, 1) for r in rs.short_roots()],
                         term_budget=term_budget)
    _expect(spin0 == irreducible_character(rs, se.rho_s, weyl_budget),
            "product over short positives != ch V_{rho_s}")
    return "dual-system identity verified"


def _g2_control(weyl_budget, term_budget):
    rs = build_root_system("G2")
    se = special_elements(rs)
    ws = freudenthal_weights(rs, se.theta_s)
    flag, dec = is_coprimary(ws, weyl_budget, term_budget)
    _expect(not flag, "G2 little adjoint unexpectedly co-primary")
    heads = sorted(tuple(rs.fw_coefficients(l)) for l, _ in dec)
    _expect(heads == [(0, 0), (1, 0)], f"G2 Spin heads {heads}")
    _expect(all(m == 1 for _, m in dec), "G2 Spin not multiplicity free")
    # ratio-3 analogue: ch V_{2 rho_s} is the product of (e^mu + 1 + e^-mu)
    lhs = irreducible_character(rs, 2 * se.rho_s, weyl_budget)
    rhs = Character.one(rs)
    zero = Weight((0,) * rs.space_dim)
    for mu in rs.short_roots():
        rhs = rhs.__mul__(Character.from_weights(rs, [(mu, 1), (zero, 1), (-mu, 1)]),
                          term_budget)
    _expect(lhs == rhs, "G2 triple-factor identity failed")
    dual, _ = dual_root_system(rs)
    _expect(dual.rho == rs.rho + 2 * se.rho_s, "G2 dual rho != rho + 2 rho_s")
    return "Spin(V_theta_s) = V_theta_s + trivial; triple identity holds"


def _cartan_square_check(n, weyl_budget, term_budget):
    """so_{2n+1} on the Cartan square V_2w1 of the defining module: m(0) = n,
    the weights Delta u 2 Delta_s, Spin0 = V_(rho+2w_n)."""
    rs = build_root_system("B", n)
    doubled = {tuple(2 * x for x in weight_key(rs, r)) for r in rs.short_roots()}
    # at n=4 the square has ~5*10^7 raw products, so only Spin0 is checked
    _, dim_spin = _coprimary_module_check(
        rs, 2 * rs.fundamental_weights[0], n, set(rs.positive_keys) | doubled,
        rs.rho + 2 * rs.fundamental_weights[n - 1], weyl_budget, term_budget,
        square=n <= 3)
    if n == 2:
        _expect(dim_spin == 64, "64-dimension check at n=2 failed")
    return f"Spin0 = V_(rho+2w_n), dim {dim_spin}"


# ---------------------------------------------------------------------------
# suite: inner symmetric decompositions


F4_B4_EXPECTED = {((2, 0, 0, 0), 44), ((0, 0, 1, 0), 84), ((1, 0, 0, 1), 128)}


def suite_inner(weyl_budget=DEFAULT_WEYL_BUDGET, term_budget=DEFAULT_TERM_BUDGET):
    records = []
    for grading in all_inner_gradings():
        def chk(grading=grading):
            sp = _spin_cached(grading.ambient.descriptor(), grading.metadata["pivot"],
                              weyl_budget, term_budget)
            _expect(sp.is_multiplicity_free(), "not multiplicity free")
            _expect(len(sp) * grading.g0.weyl_order() == grading.ambient.weyl_order(),
                    "summand count != #W / #W0")
            dim_g1 = grading.delta1.dimension()
            _expect(sp.total_dimension() == 2 ** (dim_g1 // 2),
                    "total dimension != 2^{dim g1 / 2}")
            halves = enumerate_dominant_halves(grading.delta1)
            _expect(len(halves) == len(sp),
                    "dominant-half count != summand count")
            return f"{len(sp)} summands, dim {sp.total_dimension()}"
        records.append(_run(f"inner:{grading.label}", chk))
    for n in (2, 3, 4):
        def chk(n=n):
            grading = _inner_grading_cached(f"B{n}", n)
            _expect(grading.g0.descriptor() in ("A1xA1", "A3", "D4"),
                    f"B{n} even-part type {grading.g0.descriptor()}")
            sp = _spin_cached(f"B{n}", n, weyl_budget, term_budget)
            halves = {tuple(Fraction(c) for c in s.lam.coords) for s in sp.summands}
            expected = set()
            for sign in (1, -1):
                expected.add(tuple([Fraction(1, 2)] * (n - 1) + [Fraction(sign, 2)]))
            _expect(halves == expected, f"B{n}/D{n} spinor weights {halves}")
            return "two half-spin summands"
        records.append(_run(f"inner:so{2*n+1}/so{2*n}:spinors", chk))

    def f4_chk():
        grading = _inner_grading_cached("F4", 1)
        _expect(grading.g0.descriptor() == "B4", "F4 pivot-1 even part not B4")
        sp = _spin_cached("F4", 1, weyl_budget, term_budget)
        got = {(tuple(int(c) for c in grading.g0.fw_coefficients(s.lam)), s.dimension)
               for s in sp.summands}
        _expect(got == F4_B4_EXPECTED, f"F4/B4 summands {got}")
        lam_id = {tuple(s.lam.coords) for s in sp.summands}
        _expect((Fraction(2), Fraction(0), Fraction(0), Fraction(0)) in lam_id,
                "rho - rho0 != 2 eps1")
        return "V_2w1 + V_w3 + V_(w1+w4), dims 44+84+128"
    records.append(_run("inner:f4/so9:weights", f4_chk))

    def hermitian_chk():
        grading = _inner_grading_cached("A2", 1)
        rs = grading.ambient
        wminus = [-w for w, _ in grading.delta1.canonical_half()]
        ext = Character.one(rs)
        zero = Weight((0,) * rs.space_dim)
        for mu in wminus:
            ext = ext.__mul__(Character.from_weights(rs, [(zero, 1), (mu, 1)]),
                              term_budget)
        dec = decompose(ext, grading.g0)
        heads = sorted(l.coords for l, _ in dec)
        expected = sorted((r.apply_inverse(rs.rho) - rs.rho).coords
                          for r in minimal_coset_reps(rs, grading.sub, weyl_budget))
        _expect(heads == expected,
                "exterior algebra heads != shifted coset images")
        return f"{len(heads)} heads match"
    records.append(_run("inner:hermitian:exterior-heads", hermitian_chk))
    return records


# ---------------------------------------------------------------------------
# suite: tau identity


def suite_identity(weyl_budget=DEFAULT_WEYL_BUDGET,
                   term_budget=DEFAULT_TERM_BUDGET):
    records = []

    def chk(grading):
        d1p = [w for w, _ in grading.delta1.canonical_half()]
        _expect(verify_tau_identity(grading.ambient, grading.sub, d1p,
                                    weyl_budget, term_budget), "tau identity failed")
        return f"|W| = {grading.ambient.weyl_order()} terms"

    def e_chk(desc):
        grading = _inner_grading_cached(desc, 1)
        return f"{grading.label}: {chk(grading)}"

    for grading in all_inner_gradings():
        records.append(_run(f"identity:{grading.label}", lambda g=grading: chk(g)))
    for desc in ("E6", "E7", "E8"):
        records.append(_run(f"identity:{desc}", lambda d=desc: e_chk(d)))
    return records


# ---------------------------------------------------------------------------
# suite: outer families


SO_FAMILY_EXPECTED = {
    (1, 1): {((Fraction(3, 2), Fraction(1, 2)), 8),
             ((Fraction(1, 2), Fraction(3, 2)), 8)},
    (2, 1): {((Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)), 40),
             ((Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)), 64),
             ((Fraction(1, 2), Fraction(1, 2), Fraction(5, 2)), 24)},
}

E6_EXPECTED_FW = {(5, 1, 1, 0), (3, 1, 1, 1), (1, 1, 3, 0)}


def _check_sl_even(grading, sp, n):
    _expect(grading.delta1.zero_mult == n - 1, "m(0) != n-1")
    # rho0 + 2 w_n and rho0 + 2 w_(n-1) of the realized D_n part,
    # written out as epsilon vectors to stay labeling-independent
    expected = {(grading.rho0 + Weight([1] * (n - 1) + [sign])).coords
                for sign in (1, -1)}
    _expect({s.lam.coords for s in sp.summands} == expected,
            f"sl{2*n}/so{2*n} weights differ")
    return f"rho0+2w_(n-1), rho0+2w_n; exterior factor 2^{n-1}"


def _check_so_odd_odd(grading, sp, n, m):
    _expect(len(sp) == comb(n + m, m), "summand count != binomial(n+m,m)")
    got = {(tuple(s.lam.coords), s.dimension) for s in sp.summands}
    _expect(got == SO_FAMILY_EXPECTED[(n, m)], f"so-family weights {got}")
    return f"{len(sp)} summands, total {sp.total_dimension()}"


def _check_e6_sp8(grading, sp):
    got = {tuple(int(c) for c in grading.g0.fw_coefficients(s.lam))
           for s in sp.summands}
    _expect(got == E6_EXPECTED_FW, f"e6/sp8 weights {got}")
    lam_set = {tuple(s.lam.coords) for s in sp.summands}
    expected_eps = {
        (Fraction(9, 2), Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(9, 2), Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)),
        (Fraction(9, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)),
    }
    _expect(lam_set == expected_eps, "epsilon coordinates differ")
    _expect(sp.total_dimension() == 2**20, "total dimension != 2^20")
    return "V_(5w1+w2+w3) + V_(w1+w2+3w3) + V_(rho0+2w1)"


def _check_sl_odd(grading, sp, n):
    _expect(len(sp) == 1, "diagram case should be irreducible")
    rs = grading.ambient
    target = rs.rho + 2 * rs.fundamental_weights[rs.rank - 1]
    _expect(sp.summands[0].lam == target, "head != rho + 2 w_n")
    return "W' = {id}; Spin0 = V_(rho+2w_n)"


OUTER_CHECKS = {"sl_even": _check_sl_even, "so_odd_odd": _check_so_odd_odd,
                "e6_sp8": _check_e6_sp8, "sl_odd": _check_sl_odd}


@cache
def _outer_cached(family, params, weyl_budget, term_budget):
    """(grading, spin_g1 of it) for one outer instance."""
    grading = outer_grading(family, *params)
    return grading, spin_g1(grading, weyl_budget, term_budget)


def suite_outer(weyl_budget=DEFAULT_WEYL_BUDGET, term_budget=DEFAULT_TERM_BUDGET):
    records = []
    for family, params in OUTER_INSTANCES:
        def chk(family=family, params=params):
            grading, sp = _outer_cached(family, params, weyl_budget, term_budget)
            detail = OUTER_CHECKS[family](grading, sp, *params)
            casimir_check(grading, sp)
            return detail
        records.append(_run(f"outer:{outer_row(family, *params).label}", chk))

    def bridge_chk():
        # dual-system transformation for sl_even: both the direct partition
        # and its dual-system image satisfy the twisted identity, with the
        # restricted rho = rho0 + rho1 on the left side of each
        for n in (2, 3):
            grading = outer_grading("sl_even", n)
            cn = grading.ambient
            d1p = [w for w, _ in grading.delta1.canonical_half()]
            _expect(verify_tau_identity(cn, grading.sub, d1p,
                                        weyl_budget, term_budget,
                                        rho=grading.rho_effective),
                    f"restricted identity failed for n={n}")
            dual, mapping = dual_root_system(cn)
            dual_sub_plus = [mapping[r] for r in grading.sub.delta0_plus]
            dual_sub = SubsystemDatum(dual, dual_sub_plus)
            long_d1 = [r for r in cn.positive_roots if cn.inner(r, r) == 2]
            _expect(dual.rho == grading.rho_effective,
                    "dual Weyl vector != restricted rho")
            _expect(verify_tau_identity(dual, dual_sub, long_d1,
                                        weyl_budget, term_budget,
                                        rho=dual.rho),
                    f"dual-system identity failed for n={n}")
        return "direct and dual-system identities hold for n=2,3"
    records.append(_run("outer:dual-system-bridge", bridge_chk))
    return records


def table2_markdown(weyl_budget, term_budget):
    """The outer-involution families, each at its first instance in
    OUTER_INSTANCES, with the summand counts the outer suite computes; a
    row the budgets refuse reads ``skip``."""
    lines = ["| g | g0 | g1 | diagram g0 | diagram g1 | #W'/W0 |",
             "|---|---|---|---|---|---|"]
    first = dict(reversed(OUTER_INSTANCES))
    for family in OUTER_TABLE:
        params = first[family]
        row = outer_row(family, *params)
        try:
            count = len(_outer_cached(family, params, weyl_budget, term_budget)[1])
        except BudgetExceeded:
            count = "skip"
        lines.append(
            f"| {row.g} | {row.g0} | isotropy module |"
            f" {row.diagram['g0bar']} | {row.diagram['g1bar']} | {count} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suite: casimir


def suite_casimir(weyl_budget=DEFAULT_WEYL_BUDGET, term_budget=DEFAULT_TERM_BUDGET):
    records = []
    for grading in all_inner_gradings():
        def chk(grading=grading):
            sp = _spin_cached(grading.ambient.descriptor(), grading.metadata["pivot"],
                              weyl_budget, term_budget)
            value = casimir_check(grading, sp)
            # the closed form h^vee dim g1 / 8, with h^vee = 1 + (rho, theta)
            rs = grading.ambient
            dual_coxeter = 1 + rs.inner(rs.rho, rs.highest_root())
            _expect(value == dual_coxeter * grading.delta1.dimension() / 8,
                    "value != h^vee dim g1 / 8")
            return f"eigenvalue {value}"
        records.append(_run(f"casimir:{grading.label}", chk))
    for family, params in OUTER_INSTANCES:
        def chk(family=family, params=params):
            grading, sp = _outer_cached(family, params, weyl_budget, term_budget)
            value = casimir_check(grading, sp)
            return f"eigenvalue {value}"
        records.append(_run(f"casimir:outer:{family}{params}", chk))
    return records


# ---------------------------------------------------------------------------
# suite: conjecture evidence (equal-rank non-symmetric pairs)


# (record id, type of g, expected type of h, whether the pair is symmetric,
# detail template over the report); h is spanned by the long roots of g
CONJECTURE_PAIRS = [
    ("conjecture:G2>A2", "G2", "A2", False,
     "#W^h={n_wh}, dim invariants={invariant_total}, (ii)-(iv) all fail"),
    ("conjecture:C3>A1xA1xA1", "C3", "A1xA1xA1", False,
     "#W^h={n_wh}, dim invariants={invariant_total}, (ii)-(iii) fail"),
    ("conjecture:symmetric-control", "B2", "A1xA1", True, "B2 > D2 satisfies (ii)-(iv)"),
]


def _conjecture_pair_check(desc, h, symmetric, detail, weyl_budget, term_budget):
    """The paper's conjecture on one equal-rank pair: (ii), (iii) and (iv)
    all hold exactly when the pair is symmetric, a non-symmetric pair has
    more invariants than #W^h, and the Casimir is scalar on the dg part."""
    rs = build_root_system(desc)
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    rep = equal_rank_pair(rs, longs, weyl_budget, term_budget)
    _expect(rep["h"] == h, f"h is {rep['h']}, expected {h}")
    for c in ("ii", "iii", "iv"):
        _expect(rep[f"condition_{c}"] == symmetric, f"({c}) is {not symmetric} on {desc} > {h}")
    _expect(symmetric or rep["invariant_total"] > rep["n_wh"],
            "invariants do not exceed #W^h")
    _expect(rep["casimir_scalar_on_dg"], "Casimir not scalar on the dg part")
    return detail.format(**rep)


def suite_conjecture(weyl_budget=DEFAULT_WEYL_BUDGET,
                     term_budget=DEFAULT_TERM_BUDGET):
    return [_run(check_id, lambda row=row: _conjecture_pair_check(
                *row, weyl_budget, term_budget))
            for check_id, *row in CONJECTURE_PAIRS]


# ---------------------------------------------------------------------------
# suite: the rank-one Spin series


SPIN_SERIES_EXPECTED = {1: [1], 2: [3], 3: [6, 0], 4: [10, 4], 5: [15, 9, 5]}


def suite_spin_series(weyl_budget=DEFAULT_WEYL_BUDGET,
                      term_budget=DEFAULT_TERM_BUDGET):
    records = []
    rs = build_root_system("A1")
    heads_by_d = {}

    def heads(d):
        # computed inside the checks, so a budget refusal is a skip
        if d not in heads_by_d:
            ws = freudenthal_weights(rs, rs.weight(2 * d))
            dec = spin0_decomposition(ws, weyl_budget, term_budget)
            _expect(all(m == 1 for _, m in dec), f"R_{2*d}: multiplicity > 1")
            heads_by_d[d] = sorted(
                (int(rs.fw_coefficients(l)[0]) for l, _ in dec), reverse=True)
        return heads_by_d[d]

    for d in range(1, 6):
        def chk(d=d):
            _expect(heads(d) == SPIN_SERIES_EXPECTED[d], f"Spin R_{2*d} = {heads(d)}")
            return f"Spin R_{2*d} = R_" + "+R_".join(map(str, heads(d)))
        records.append(_run(f"spin-series:R{2*d}", chk))
    for d in range(5, 8):
        def chk(d=d):
            shifted = {m + d + 1 for m in heads(d)}
            _expect(shifted <= set(heads(d + 1)),
                    f"shift containment fails at d={d}")
            return f"Spin R_{2*(d+1)} contains the d={d} summands shifted by {d+1}"
        records.append(_run(f"spin-series:shift:{2*d}->{2*(d+1)}", chk))
    return records


# ---------------------------------------------------------------------------
# suite: classification sweep


CLASSIFY_EXPECTED_3_6 = {
    ("A1", ("2",)), ("A1", ("4",)),
    ("A2", ("1", "1")),
    ("A3", ("1", "0", "1")),
    ("B2", ("0", "2")), ("B2", ("1", "0")), ("B2", ("2", "0")),
    ("B3", ("0", "1", "0")), ("B3", ("1", "0", "0")), ("B3", ("2", "0", "0")),
    ("C2", ("2", "0")), ("C2", ("0", "1")), ("C2", ("0", "2")),
    ("C3", ("2", "0", "0")), ("C3", ("0", "1", "0")),
    ("D3", ("0", "1", "1")),
    ("G2", ("0", "1")),
}


def suite_classify(weyl_budget=DEFAULT_WEYL_BUDGET,
                   term_budget=DEFAULT_TERM_BUDGET):
    records = []

    def chk():
        found = classify_coprimary(3, 6, weyl_budget, term_budget)
        got = {(r["type"], tuple(r["weight"])) for r in found if r["coprimary"]}
        # a module the budget refused is neither missing nor found
        refused = [r for r in found if r["filter"] == "budget-skipped"]
        skipped = {(r["type"], tuple(r["weight"])) for r in refused}
        missing = CLASSIFY_EXPECTED_3_6 - got - skipped
        extra = got - CLASSIFY_EXPECTED_3_6
        _expect(not missing and not extra,
                f"sweep mismatch: missing {missing}, extra {extra}")
        detail = f"{len(got)} co-primary modules, {len(skipped)} skipped"
        if refused:
            worst = max(refused, key=lambda r: r["required"])
            raise BudgetExceeded(
                f"{detail}; the largest refusal needs {worst['required']}"
                f" against the budget {worst['budget']}",
                required=worst["required"], budget=worst["budget"])
        return detail
    records.append(_run("classify:rank<=3:height<=6", chk))
    return records


# ---------------------------------------------------------------------------
# registry


TABLES = {"table1": table1_markdown, "outer": table2_markdown}

SUITES = {
    "table1": suite_table1,
    "little-adjoint": suite_little_adjoint,
    "inner": suite_inner,
    "identity": suite_identity,
    "outer": suite_outer,
    "casimir": suite_casimir,
    "conjecture": suite_conjecture,
    "spin-series": suite_spin_series,
    "classify": suite_classify,
}
