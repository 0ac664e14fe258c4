import pytest
from fractions import Fraction

from spinchar import (
    BudgetExceeded,
    SubsystemDatum,
    Weight,
    build_root_system,
    cunning_parity,
    enumerate_weyl,
    inner_gradings,
    l0_of,
    minimal_coset_reps,
    weyl_denominator,
)
from spinchar.rootsys import _dot
from spinchar.weyl import signed_orbit
from oracles import (factorize, identity_element, invert, lookup, multiply,
                     reflection_matrix, skew_product)


def test_rank_one_group():
    rs = build_root_system("A1")
    group = enumerate_weyl(rs)
    assert len(group) == 2
    assert sorted(w.length for w in group) == [0, 1]


def test_b2_group_and_denominator_identity():
    rs = build_root_system("B2")
    group = enumerate_weyl(rs)
    assert len(group) == 8
    # independent route: expand the product over the positive roots
    product = skew_product(rs, rs.positive_roots)
    assert weyl_denominator(rs) == product
    assert len(product.terms) == 8


def test_f4_order():
    rs = build_root_system("F4")
    assert len(enumerate_weyl(rs)) == 1152


def test_budget_refusal_names_requirement():
    rs = build_root_system("E7")
    with pytest.raises(BudgetExceeded) as info:
        enumerate_weyl(rs)
    assert info.value.required == 2903040


def test_deterministic_enumeration_order():
    rs = build_root_system("B2")
    a = [w.key for w in enumerate_weyl(rs)]
    rs._weyl_cache = None
    b = [w.key for w in enumerate_weyl(rs)]
    assert a == b


def test_full_subsystem_has_trivial_section():
    rs = build_root_system("B2")
    sub = SubsystemDatum(rs, rs.positive_roots)
    reps = minimal_coset_reps(rs, sub)
    assert len(reps) == 1
    assert reps[0].length == 0


def test_so7_so6_section():
    # the even-part subsystem of B3 gives exactly two representatives:
    # the identity and the sign flip of the last coordinate
    rs = build_root_system("B3")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    sub = SubsystemDatum(rs, longs)
    reps = minimal_coset_reps(rs, sub)
    assert len(reps) == 2
    e3 = Weight((0, 0, 1))
    images = sorted(tuple(rep.apply(e3).coords) for rep in reps)
    assert images == [(Fraction(0), Fraction(0), Fraction(-1)),
                      (Fraction(0), Fraction(0), Fraction(1))]


def test_f4_so9_section_actions():
    # three minimal representatives; the two nontrivial ones act by the
    # half-sum matrices on the epsilon basis
    rs = build_root_system("F4")
    delta0 = [r for r in rs.positive_roots
              if rs.inner(r, r) == 2 or sum(1 for c in r.coords if c != 0) == 1]
    sub = SubsystemDatum(rs, delta0)
    reps = minimal_coset_reps(rs, sub)
    assert len(reps) == 3
    h = Fraction(1, 2)
    wp = ((h, h, h, h), (h, h, -h, -h), (h, -h, h, -h), (h, -h, -h, h))
    wpp = ((h, h, h, -h), (h, h, -h, h), (h, -h, h, h), (h, -h, -h, -h))

    def action(rep):
        return tuple(tuple(rep.apply(Weight([1 if j == i else 0 for j in range(4)])).coords)
                     for i in range(4))

    actions = {action(rep) for rep in reps if rep.length > 0}
    assert actions == {wp, wpp}


def test_cunning_parity_basics():
    rs = build_root_system("B2")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    sub = SubsystemDatum(rs, longs)
    group = enumerate_weyl(rs)
    identity = identity_element(group)
    assert cunning_parity(rs, sub, identity) == (1, 0)
    # reflection in a subsystem root has parity -1
    s = lookup(rs, reflection_matrix(rs, longs[0]))
    tau, l0 = cunning_parity(rs, sub, s)
    assert tau == -1 and l0 == 1


def test_cunning_parity_matches_factorization_on_b2():
    rs = build_root_system("B2")
    group = enumerate_weyl(rs)
    for pick in (1, 2):  # short subsystem and long subsystem
        roots = [r for r in rs.positive_roots if rs.inner(r, r) == pick]
        sub = SubsystemDatum(rs, roots)
        for w in group:
            tau, l0 = cunning_parity(rs, sub, w)
            w0, rep = factorize(rs, sub, w)
            l0_direct = sum(
                1 for r in sub.delta0_plus
                if tuple((-1 * w0.apply(r)).coords) in {x.coords for x in sub.delta0_plus})
            assert tau == (-1) ** l0_direct
            assert multiply(group, w0, invert(group, rep)) == w


def test_parity_is_usual_on_subgroup():
    rs = build_root_system("B2")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    sub = SubsystemDatum(rs, longs)
    for w0 in sub.group:
        tau, l0 = cunning_parity(rs, sub, lookup(rs, w0.matrix))
        assert l0 == w0.length  # length in W0 relative to Delta0+
        assert tau == (-1) ** w0.length


def test_nonclosed_subsystem_length_gap():
    # short roots of B2: l0(w) <= l(w) with strict inequality somewhere
    rs = build_root_system("B2")
    shorts = [r for r in rs.positive_roots if rs.inner(r, r) == 1]
    sub = SubsystemDatum(rs, shorts)
    group = enumerate_weyl(rs)
    gaps = []
    for w in group:
        l0 = l0_of(rs, sub, w)
        assert l0 <= w.length
        gaps.append(w.length - l0)
    assert any(g > 0 for g in gaps)


@pytest.mark.parametrize("desc", ["F4", "C4", "D4"])
def test_packed_l0_is_the_plain_count(desc):
    # the twisted sign that the packed orbit walk reads off each point w rho,
    # its Delta0+ fields that lost their guard bit, against l0 counted one
    # pairing at a time
    rs = build_root_system(desc)
    group = enumerate_weyl(rs)
    for grading in inner_gradings(rs):
        sub = grading.sub
        signs = signed_orbit(rs, rs.rho_key, rs.labels(rs.rho_key), len(group), sub)
        for w in group:
            l0 = sum(1 for f in sub.system.positive_w if _dot(w.key, f) < 0)
            assert l0_of(rs, sub, w) == l0, grading.label
            assert signs[w.key] == (-1) ** l0, grading.label


def test_sign_is_multiplicative():
    rs = build_root_system("B2")
    group = enumerate_weyl(rs)
    for a in group:
        for b in group:
            assert multiply(group, a, b).sign == a.sign * b.sign


def test_parabolic_length_additivity():
    # for a subsystem generated by a subset of the simple roots, lengths
    # add across the factorization and l0 agrees with l on the subgroup
    rs = build_root_system("B3")
    parabolic = [r for r, k in zip(rs.positive_roots, rs.positive_keys)
                 if rs.lattice_coords(k)[2] == 0]  # the A2 on the first two nodes
    sub = SubsystemDatum(rs, parabolic)
    group = enumerate_weyl(rs)
    for w in group:
        w0, rep = factorize(rs, sub, w)
        assert w.length == w0.length + rep.length
    for w0 in sub.group:
        assert l0_of(rs, sub, lookup(rs, w0.matrix)) == w0.length


def test_invalid_subsystem_rejected():
    from spinchar import InvalidDescriptor
    rs = build_root_system("B2")
    bad = [rs.weight(2, -2), rs.weight(1, 0)]  # e1-e2 and e1: not reflection-stable
    with pytest.raises(InvalidDescriptor):
        SubsystemDatum(rs, bad)


def test_factorize_identity_cases():
    rs = build_root_system("B2")
    longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
    sub = SubsystemDatum(rs, longs)
    group = enumerate_weyl(rs)
    for w0 in sub.group:
        big = lookup(rs, w0.matrix)
        part0, rep = factorize(rs, sub, big)
        assert part0 == big and rep.length == 0
    for rep in minimal_coset_reps(rs, sub):
        part0, rep2 = factorize(rs, sub, invert(group, rep))
        assert part0.length == 0 and rep2 == rep
