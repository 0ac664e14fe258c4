import copy
import json
import random
from functools import cache
from pathlib import Path

import pytest
from fractions import Fraction
from itertools import product

from spinchar import (
    BudgetExceeded,
    Character,
    ConsistencyError,
    InvalidDescriptor,
    NotClosed,
    SubsystemDatum,
    Weight,
    build_root_system,
    casimir_check,
    decompose,
    dual_root_system,
    enumerate_weyl,
    equal_rank_pair,
    grading_catalog,
    inner_grading,
    inner_gradings,
    invariant_poincare,
    kac_marks,
    minimal_coset_reps,
    outer_grading,
    spin_g1,
    verify_tau_identity,
)
from spinchar import charring, gradings
from spinchar.charring import freudenthal_weights, weyl_denominator
from spinchar.gradings import G1BAR, OUTER_INSTANCES, Z2Grading, parity_split
from spinchar.rootsys import simple_types, special_elements, subsystem
from oracles import factorize, invert, multiply, skew_product


def test_kac_marks():
    assert kac_marks(build_root_system("A3")) == (1, 1, 1)
    assert kac_marks(build_root_system("B3")) == (1, 2, 2)
    assert kac_marks(build_root_system("C3")) == (2, 2, 1)
    assert kac_marks(build_root_system("D4")) == (1, 2, 1, 1)
    assert kac_marks(build_root_system("G2")) == (3, 2)
    assert kac_marks(build_root_system("F4")) == (2, 4, 3, 2)


def test_high_mark_pivot_rejected():
    with pytest.raises(InvalidDescriptor):
        inner_grading(build_root_system("G2"), 1)  # mark 3
    with pytest.raises(InvalidDescriptor):
        inner_grading(build_root_system("F4"), 2)  # mark 4


def test_b2_inner_grading_even_part():
    grading = inner_grading(build_root_system("B2"), 2)
    assert grading.metadata["mark"] == 2
    assert not grading.metadata["hermitian"]
    assert grading.g0.descriptor() == "A1xA1"
    assert grading.delta1.dimension() == 4
    assert grading.delta1.zero_mult == 0


def test_rank_one_grading_torus_case():
    grading = inner_grading(build_root_system("A1"), 1)
    assert grading.metadata["hermitian"]
    assert grading.g0.rank == 0
    sp = spin_g1(grading)
    assert len(sp) == 2
    assert sp.total_dimension() == 2
    h = Fraction(1, 2)
    assert sorted(s.lam.coords for s in sp.summands) == [(-h, h), (h, -h)]


def test_hermitian_grading_metadata():
    grading = inner_grading(build_root_system("B2"), 1)
    assert grading.metadata["hermitian"]
    assert grading.g0.rank == 1


def test_spin_g1_bn_dn():
    for n in (2, 3, 4):
        grading = inner_grading(build_root_system("B", n), n)
        sp = spin_g1(grading)
        assert len(sp) == 2
        assert sp.total_dimension() == 2 ** n
        h = Fraction(1, 2)
        expected = {tuple([h] * (n - 1) + [s * h]) for s in (1, -1)}
        assert {s.lam.coords for s in sp.summands} == expected


def test_spin_g1_f4_so9():
    grading = inner_grading(build_root_system("F4"), 1)
    assert grading.g0.descriptor() == "B4"
    sp = spin_g1(grading)
    got = {(tuple(int(c) for c in grading.g0.fw_coefficients(s.lam)), s.dimension)
           for s in sp.summands}
    assert got == {((2, 0, 0, 0), 44), ((0, 0, 1, 0), 84), ((1, 0, 0, 1), 128)}
    lam_id = Weight((2, 0, 0, 0))
    assert lam_id == grading.ambient.rho - grading.rho0
    assert casimir_check(grading, sp) == 18


def test_a_repeated_coset_representative_is_a_consistency_failure(monkeypatch):
    # one representative read twice leaves the dict of coset weights, the
    # summands and their total dimension as they were; only the repeat
    # check sees it
    real = gradings.minimal_coset_reps

    def twice_the_first(rs, sub, budget):
        reps = real(rs, sub, budget)
        return reps + reps[:1]

    monkeypatch.setattr(gradings, "minimal_coset_reps", twice_the_first)
    with pytest.raises(ConsistencyError, match="coset weight .* repeats"):
        spin_g1(inner_grading(build_root_system("F4"), 1))
    # equal_rank_pair reads the same coset route
    b2 = build_root_system("B2")
    with pytest.raises(ConsistencyError, match="coset weight .* repeats"):
        equal_rank_pair(b2, [r for r in b2.positive_roots if b2.inner(r, r) == 2])


def test_all_rank_le_3_inner_gradings_are_multiplicity_free():
    for desc in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]:
        rs = build_root_system(desc)
        for grading in inner_gradings(rs):
            sp = spin_g1(grading)
            assert sp.is_multiplicity_free()
            group = enumerate_weyl(rs)
            assert len(sp) * len(grading.sub.group) == len(group)


def test_outer_sl4_so4():
    grading = outer_grading("sl_even", 2)
    assert grading.delta1.zero_mult == 1
    sp = spin_g1(grading)
    assert {s.lam.coords for s in sp.summands} == {
        (Fraction(2), Fraction(1)), (Fraction(2), Fraction(-1))}
    assert sp.total_dimension() == 16


@pytest.fixture(scope="module")
def e6_grading_and_spin():
    grading = outer_grading("e6_sp8")
    return grading, spin_g1(grading)


def test_outer_e6_sp8_data_matches_standard_presentation(e6_grading_and_spin):
    grading, sp = e6_grading_and_spin
    h = Fraction(1, 2)
    simple = [s.coords for s in grading.g0.simple_roots]
    assert simple == [
        (0, 1, 0, 0), (h, -h, -h, -h), (0, 0, 0, 1), (0, 0, 1, -1)]
    fw = [w.coords for w in grading.g0.fundamental_weights]
    assert fw == [
        (h, h, 0, 0), (1, 0, 0, 0), (1, 0, h, h), (1, 0, 1, 0)]
    # the coset section acts by the permutations (23) and (432) on the
    # epsilon basis, the latter sending eps4 to eps3
    perms = set()
    for s in sp.summands:
        images = tuple(
            tuple(s.rep.apply(Weight([1 if j == i else 0 for j in range(4)])).coords)
            for i in range(4))
        perms.add(images)
    e = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(4))
         for i in range(4)]
    id_action = tuple(e)
    swap23 = (e[0], e[2], e[1], e[3])
    cycle432 = (e[0], e[3], e[1], e[2])
    assert perms == {id_action, swap23, cycle432}


def test_outer_e6_sp8_weights(e6_grading_and_spin):
    grading, sp = e6_grading_and_spin
    got = {tuple(int(c) for c in grading.g0.fw_coefficients(s.lam))
           for s in sp.summands}
    assert got == {(5, 1, 1, 0), (3, 1, 1, 1), (1, 1, 3, 0)}
    assert sp.total_dimension() == 2 ** 20
    rho0 = grading.rho0
    fw1 = grading.g0.fundamental_weights[0]
    assert (rho0 + 2 * fw1).coords in {s.lam.coords for s in sp.summands}


def test_outer_e6_sp8_invariants_are_the_cohomology_of_e6_sp4(e6_grading_and_spin):
    # Cartan: H*(G/K) = (Lambda p)^K. The outer involution fixes the degrees
    # 2, 6, 8, 12 of e6 and negates 5 and 9; sp8 has degrees 2, 4, 6, 8. So
    # (1-t^4)(1-t^12)(1-t^16)(1-t^24) / (1-t^4)(1-t^8)(1-t^12)(1-t^16)
    # * (1+t^9)(1+t^17) = (1+t^8+t^16)(1+t^9)(1+t^17)
    grading, _ = e6_grading_and_spin
    expected = [0] * 43
    for a, b, c in product((0, 8, 16), (0, 9), (0, 17)):
        expected[a + b + c] += 1
    assert invariant_poincare(grading.delta1).coefficients == expected


def test_outer_family_validation():
    with pytest.raises(InvalidDescriptor):
        outer_grading("sl_even", 1)
    with pytest.raises(InvalidDescriptor):
        outer_grading("nonsense")
    with pytest.raises(InvalidDescriptor):
        outer_grading("so_odd_odd", 0, 1)


FOLDS = [(desc, "theta_s") for desc in ("C2", "C3", "C4", "B2", "B3", "B4", "F4")]
FOLDS += [(desc, "2w1") for desc in ("B2", "B3", "B4")]


@pytest.mark.parametrize("desc,g1bar", FOLDS)
def test_every_fold_builds(desc, g1bar):
    # sigma exp(pi i ad h) at h = 0 and at every pivot's coweight: both
    # Spin routes agree, the Casimir acts by one scalar, the split keeps
    # dim g = dim g0bar + dim g1bar, and for the little adjoint
    # rho0 + rho1 = rho + rho_s
    ambient = build_root_system(desc)
    se = special_elements(ambient)
    module = freudenthal_weights(ambient, G1BAR[g1bar](se))
    dim_g = ambient.rank + 2 * len(ambient.positive_roots) + module.dimension()
    for pivot in [None] + list(range(1, ambient.rank + 1)):
        delta0_plus, delta1_pairs, zero_mult = parity_split(ambient, pivot, module)
        grading = Z2Grading("outer", f"{desc}/{g1bar}@{pivot}", ambient,
                            delta0_plus, delta1_pairs, zero_mult)
        sp = spin_g1(grading)
        casimir_check(grading, sp)
        assert ambient.rank + 2 * len(delta0_plus) + grading.delta1.dimension() == dim_g
        if g1bar == "theta_s":
            assert grading.rho_effective == ambient.rho + se.rho_s
            if pivot is None:
                # SL2n/Sp2n, SO(2n+2)/SO(2n+1), E6/F4: g1 is the little
                # adjoint, and Spin is V_rho_s as the little-adjoint suite has it
                assert [s.lam for s in sp.summands] == [se.rho_s]
        if ambient.rank <= 3 or (desc == "F4" and pivot is None):
            d1p = [w for w, _ in grading.delta1.canonical_half()]
            assert verify_tau_identity(ambient, grading.sub, d1p,
                                       rho=grading.rho_effective), grading.label


def test_odd_weight_off_the_roots_is_refused():
    # 3 e1, the highest weight of B2's V_3w1, is odd at pivot 1 and no root
    ambient = build_root_system("B2")
    module = freudenthal_weights(ambient, ambient.weight(3, 0))
    with pytest.raises(InvalidDescriptor, match="not a root"):
        parity_split(ambient, 1, module)


def test_tau_identity_trivial_partition():
    # empty odd part: the identity degenerates to the Weyl denominator
    rs = build_root_system("B2")
    sub = SubsystemDatum(rs, rs.positive_roots)
    assert verify_tau_identity(rs, sub, [])
    assert weyl_denominator(rs) == skew_product(rs, rs.positive_roots)


def test_tau_identity_inner_and_negative_control():
    rs = build_root_system("B2")
    grading = inner_grading(rs, 2)
    d1p = [w for w, _ in grading.delta1.canonical_half()]
    assert verify_tau_identity(rs, grading.sub, d1p)
    # breaking the odd part must break the identity
    broken = [d1p[0], d1p[0]]
    assert not verify_tau_identity(rs, grading.sub, broken)


def _mutated_sub(sub, delta0_plus):
    # tau still reads the true subsystem; only the Delta0 factors change
    mutant = copy.copy(sub)
    mutant.delta0_plus = delta0_plus
    return mutant


@pytest.mark.parametrize("desc", ["B3", "F4"])
def test_tau_identity_catches_mutants(desc, monkeypatch):
    rs = build_root_system(desc)
    grading = inner_grading(rs, 1)
    sub = grading.sub
    d1p = [w for w, _ in grading.delta1.canonical_half()]
    assert verify_tau_identity(rs, sub, d1p)
    assert not verify_tau_identity(rs, _mutated_sub(sub, sub.delta0_plus[1:]), d1p)
    assert not verify_tau_identity(
        rs, _mutated_sub(sub, sub.delta0_plus + sub.delta0_plus[:1]), d1p)
    # tau flipped at one orbit point, that of an element other than the identity
    flipped = enumerate_weyl(rs)[1].key
    real = charring.signed_orbit

    def orbit(*args):
        signs = real(*args)
        signs[flipped] = -signs[flipped]
        return signs

    monkeypatch.setattr(charring, "signed_orbit", orbit)
    assert not verify_tau_identity(rs, sub, d1p)


def test_tau_identity_term_budget_bounds_the_product():
    rs = build_root_system("B3")
    grading = inner_grading(rs, 1)
    d1p = [w for w, _ in grading.delta1.canonical_half()]
    # the product ends on the |W| terms of the W side, so its peak is no smaller
    budget = rs.weyl_order() - 1
    with pytest.raises(BudgetExceeded) as caught:
        verify_tau_identity(rs, grading.sub, d1p, term_budget=budget)
    assert caught.value.budget == budget
    assert caught.value.required > budget


def test_equal_rank_requires_closed_generators():
    rs = build_root_system("B2")
    shorts = [r for r in rs.positive_roots if rs.inner(r, r) == 1]
    with pytest.raises(NotClosed):
        equal_rank_pair(rs, shorts)


def test_equal_rank_requires_full_rank():
    rs = build_root_system("B2")
    theta = rs.highest_root()
    with pytest.raises(InvalidDescriptor):
        equal_rank_pair(rs, [theta])


def test_symmetric_pair_through_equal_rank_interface():
    rs = build_root_system("B2")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    report = equal_rank_pair(rs, longs)
    assert report["condition_ii"] and report["condition_iii"]
    assert report["condition_iv"]
    assert report["casimir_expected"] == Fraction(3, 2)
    assert report["casimir_on_dg"] == [Fraction(3, 2)]


def test_g2_a2_pair_fails_symmetric_conditions():
    rs = build_root_system("G2")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    report = equal_rank_pair(rs, longs)
    assert report["n_wh"] == 2
    assert report["invariant_total"] > 2
    assert not report["condition_ii"]
    assert not report["condition_iii"]
    assert not report["condition_iv"]
    assert report["casimir_scalar_on_dg"]


def test_casimir_value_so5_so4():
    rs = build_root_system("B2")
    grading = inner_grading(rs, 2)
    value = casimir_check(grading)
    rho, rho0 = rs.rho, grading.rho0
    assert value == rs.inner(rho, rho) - rs.inner(rho0, rho0)
    assert value == Fraction(3, 2)


def test_catalog_queries():
    catalog = grading_catalog()
    assert "F4/B4" in catalog
    assert "E6/C4" in catalog
    grading = catalog["F4/B4"]()
    assert grading.g0.descriptor() == "B4"
    grading = catalog["E6/C4"]()
    assert grading.kind == "outer"
    assert "AIII(1,2)" in catalog


def test_hermitian_exterior_heads():
    # one A-type Hermitian grading: the heads of the exterior algebra of
    # the negative half are the shifted minimal-coset images of rho
    rs = build_root_system("A2")
    grading = inner_grading(rs, 1)
    wminus = [-w for w, _ in grading.delta1.canonical_half()]
    ext = Character.one(rs)
    zero = Weight((0,) * rs.space_dim)
    for mu in wminus:
        ext = ext * Character.from_weights(rs, [(zero, 1), (mu, 1)])
    dec = decompose(ext, grading.g0)
    heads = sorted(l.coords for l, _ in dec)
    group = enumerate_weyl(rs)
    reps = minimal_coset_reps(rs, grading.sub)
    expected = sorted((invert(group, r).apply(rs.rho) - rs.rho).coords
                      for r in reps)
    assert heads == expected


# tests/golden/subsystems.json pins the descriptor and the ordered simple
# roots of realized systems, the labels every g0 answer is printed in:
# every inner grading of rank <= PIN_RANK, the long and the short roots of
# each simple type of that rank, the maximal closed subsystems of rank
# <= MAXIMAL_RANK (one node of the extended diagram dropped), the catalog
# with the outer instances, and the duals of the two-length types. The
# file was written by the per-family ordering rules that the Cartan-matrix
# matcher replaced; a change to it is a change of answers.
PIN_RANK, MAXIMAL_RANK = 8, 7
SUBSYSTEM_PINS = Path(__file__).parent / "golden" / "subsystems.json"


def _reflection_closure(rs, generators):
    """The positive roots of the system the generators' reflections make:
    the orbit of the generators under those reflections, on integer keys,
    in the order of rs.positive_roots."""
    gens = [(k, rs.inner_keys(k, k)) for k in (g.key_at(rs.denom) for g in generators)]
    found = {k for g, _ in gens for k in (g, tuple(-x for x in g))}
    frontier = found
    while frontier:
        images = {tuple(x - 2 * rs.inner_keys(k, g) // n * y for x, y in zip(k, g))
                  for g, n in gens for k in frontier}
        frontier = images - found
        found |= frontier
    return [r for r, k in zip(rs.positive_roots, rs.positive_keys) if k in found]


@cache
def _subsystem_subsets():
    """(name, ambient, positive roots) of every subset that the pins
    realize through ``subsystem``."""
    cases = []
    for fam, rank in simple_types(PIN_RANK):
        rs = build_root_system(fam, rank)
        cases += [(g.label, rs, g.sub.delta0_plus) for g in inner_gradings(rs)]
        norms = {r: rs.inner(r, r) for r in rs.positive_roots}
        for length, norm in (("long", max(norms.values())), ("short", min(norms.values()))):
            if length == "long" or rs.short_roots():
                cases.append((f"{rs.descriptor()} {length} roots", rs,
                              [r for r, n in norms.items() if n == norm]))
        if rank <= MAXIMAL_RANK:
            nodes = [(f"alpha{i}", a) for i, a in enumerate(rs.simple_roots, start=1)]
            nodes.append(("-theta", -rs.highest_root()))
            for name, node in nodes:
                generators = [a for _, a in nodes if a is not node]
                cases.append((f"{rs.descriptor()} drop {name}", rs,
                              _reflection_closure(rs, generators)))
    for name, make in grading_catalog().items():
        grading = make()
        cases.append((name, grading.ambient, grading.sub.delta0_plus))
    return tuple(cases)


def _realization(rs):
    return [rs.descriptor(), [str(a) for a in rs.simple_roots]]


def test_subsystem_realizations_are_pinned():
    got = {name: _realization(subsystem(rs, roots)) for name, rs, roots in _subsystem_subsets()}
    for fam, rank in simple_types(PIN_RANK):
        if fam in "BCFG":
            rs = build_root_system(fam, rank)
            got[f"{rs.descriptor()} dual"] = _realization(dual_root_system(rs)[0])
    assert got == json.loads(SUBSYSTEM_PINS.read_text())


def test_subsystem_realization_does_not_depend_on_the_input_order():
    pins = json.loads(SUBSYSTEM_PINS.read_text())
    for name, rs, roots in _subsystem_subsets():
        for seed in range(3):
            shuffled = list(roots)
            random.Random(seed).shuffle(shuffled)
            assert _realization(subsystem(rs, shuffled)) == pins[name], (name, seed)


def _section_cases():
    """(name, ambient, subsystem datum): every catalog grading, and the
    long or short roots of B2, C3 and F4 where no grading has them."""
    cases = []
    for name, make in sorted(grading_catalog().items()):
        grading = make()
        cases.append((name, grading.ambient, grading.sub))
    for desc, norm in (("B2", 1), ("C3", 1), ("C3", 2), ("F4", 2)):
        rs = build_root_system(desc)
        roots = [r for r in rs.positive_roots if rs.inner(r, r) == norm]
        cases.append((f"{desc} roots of norm {norm}", rs, SubsystemDatum(rs, roots)))
    return cases


def test_walked_sections_are_the_factorized_representatives():
    # the oracle walks all of W: every element factors as w0 rep^{-1} over
    # its coset representative, and the enumerated element with the same
    # key has the same length and matrix as the spelled one
    for name, rs, sub in _section_cases():
        group = enumerate_weyl(rs)
        reps = minimal_coset_reps(rs, sub)
        assert len(reps) * len(sub.group) == len(group), name
        factored = set()
        for w in group:
            w0, rep = factorize(rs, sub, w)
            assert multiply(group, w0, invert(group, rep)) == w, name
            factored.add(rep)
        expected = sorted(factored, key=lambda r: (r.length, r.key))
        assert [(r.key, r.length, r.matrix) for r in reps] == \
            [(r.key, r.length, r.matrix) for r in expected], name
        enumerated = {w.key: w for w in group}
        assert [(r.length, r.matrix) for r in reps] == \
            [(enumerated[r.key].length, enumerated[r.key].matrix) for r in reps], name


E_SECTIONS = {"E6": [27, 36, 36, 36, 27], "E7": [63, 72, 63, 56], "E8": [135, 120]}


@pytest.mark.parametrize("desc", sorted(E_SECTIONS))
def test_exceptional_sections_walk_neither_w_nor_w0(monkeypatch, desc):
    rs = build_root_system(desc)
    monkeypatch.setattr(rs, "_weyl_cache", None)
    gradings = inner_gradings(rs)
    assert [len(minimal_coset_reps(rs, g.sub)) for g in gradings] == E_SECTIONS[desc]
    assert rs._weyl_cache is None
    assert all("group" not in g.sub.__dict__ for g in gradings)


def test_e6_spin_and_casimir_without_a_weyl_walk(monkeypatch):
    rs = build_root_system("E6")
    monkeypatch.setattr(rs, "_weyl_cache", None)
    for grading in inner_gradings(rs):
        sp = spin_g1(grading)
        assert len(sp) == rs.weyl_order() // grading.g0.weyl_order()
        casimir_check(grading, sp)
        assert "group" not in grading.sub.__dict__
    assert rs._weyl_cache is None
