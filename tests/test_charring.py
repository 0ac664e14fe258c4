from fractions import Fraction

import pytest

from spinchar import (
    BudgetExceeded,
    Character,
    ConsistencyError,
    GradedPoincare,
    InvalidDescriptor,
    NonModuleCharacter,
    Weight,
    WeightSystem,
    build_root_system,
    decompose,
    freudenthal_weights,
    inner_grading,
    invariant_poincare,
    irreducible_character,
    multiplicity_of,
    outer_grading,
    special_elements,
    weyl_dimension,
)
from spinchar import charring
from spinchar.charring import alternating_sum, exact_divide
from spinchar.rootsys import HALF
from spinchar.gradings import INNER_SWEEP, OUTER_INSTANCES, involutive_pivots
from spinchar.verify import TABLE1_ADJOINT_TYPES, TABLE1_F4, TABLE1_ROWS
from oracles import exterior_powers, newton_exterior_powers, orbit_poincare


def a1_char(d):
    rs = build_root_system("A1")
    return irreducible_character(rs, rs.weight(d))


def test_rank_one_rho_character():
    rs = build_root_system("A1")
    ch = irreducible_character(rs, rs.rho)
    assert ch.dimension() == 2
    assert ch.coefficient(rs.rho) == 1
    assert ch.coefficient(-rs.rho) == 1


@pytest.mark.parametrize("desc", ["A2", "B2", "G2", "B3", "A1xA1"])
def test_alternating_sum_on_and_off_the_dominant_chamber(desc):
    # a regular x walks its orbit, and one off the dominant chamber
    # descends to it at the sign of its letters: s_i x gives minus the sum
    # at x, and a dominant x on a wall gives zero
    rs = build_root_system(desc)
    x = rs.rho + rs.weight(*range(rs.rank))
    total = alternating_sum(rs, x)
    assert len(total.terms) == rs.weyl_order()
    for i, alpha in enumerate(rs.simple_roots):
        y = x - rs.dynkin_labels(x)[i] * alpha
        assert alternating_sum(rs, y) == -1 * total
    wall = rs.weight(*[int(i > 0) for i in range(rs.rank)])
    assert alternating_sum(rs, wall).terms == {}


def test_alternating_sum_refuses_before_it_reads_x():
    # |W| is read off the type before x, in the words of _check_weyl_budget
    rs = build_root_system("E7")
    for x in (rs.rho, HALF * rs.rho, rs.weight(1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(BudgetExceeded) as caught:
            alternating_sum(rs, x, twist=inner_grading(build_root_system("B2"), 1).sub)
        assert str(caught.value) == "|W(E7)| = 2903040 exceeds the budget 1000000"
        assert caught.value.required == rs.weyl_order()


def test_a_twisted_sign_needs_a_regular_dominant_integral_x():
    rs = build_root_system("B3")
    sub = inner_grading(rs, 1).sub
    for x in (rs.weight(1, 0, 1), rs.weight(-1, 2, 1), HALF * rs.rho):
        with pytest.raises(InvalidDescriptor):
            alternating_sum(rs, x, twist=sub)
    with pytest.raises(InvalidDescriptor):
        alternating_sum(rs, HALF * rs.rho)
    assert alternating_sum(rs, rs.rho, twist=sub).terms[rs.rho_key] == 1


def test_an_orbit_walk_short_of_w_is_a_consistency_failure(monkeypatch):
    # the walk counts its points against |W| read off the type
    rs = build_root_system("B3")
    monkeypatch.setattr(rs, "weyl_order", lambda: 49)
    with pytest.raises(ConsistencyError, match="an orbit of 48 points, expected"):
        alternating_sum(rs, rs.rho)
    with pytest.raises(ConsistencyError):
        alternating_sum(rs, rs.rho, twist=inner_grading(rs, 1).sub)


def test_b2_dimension_64():
    # hand value: the four positive-root factors are 2, 3, 8/3 and 4
    rs = build_root_system("B2")
    lam = rs.weight(1, 3)
    assert weyl_dimension(rs, lam) == 64
    assert irreducible_character(rs, lam).dimension() == 64
    # a part orthogonal to the roots, off the key lattice, changes nothing
    a1 = build_root_system("A1")
    assert weyl_dimension(a1, a1.weight(2) + Weight((Fraction(1, 3),) * 2)) == 3


def test_f4_spin_dimension_4096():
    rs = build_root_system("F4")
    lam = rs.weight(1, 1, 0, 0)
    assert weyl_dimension(rs, lam) == 2 ** ((26 - 2) // 2)


def test_division_remainder_raises():
    rs = build_root_system("B2")
    bogus = 3 * Character.one(rs)
    with pytest.raises(NonModuleCharacter):
        exact_divide(bogus, rs.positive_roots, rs)


def test_nondominant_weight_rejected():
    rs = build_root_system("B2")
    from spinchar import InvalidDescriptor
    with pytest.raises(InvalidDescriptor):
        irreducible_character(rs, -rs.weight(1, 0))


def test_freudenthal_names_a_weight_off_the_key_lattice():
    # a g0 keeps its ambient's key scale, which need not clear its own
    # fundamental weights: the A2 of A3/A2xT1 at scale 8 cannot hold w1
    from spinchar import InvalidDescriptor, grading_catalog
    from spinchar.charring import weight_key
    from spinchar.spinmod import weights_up_to_height
    g0 = grading_catalog()["A3/A2xT1"]().g0
    with pytest.raises(InvalidDescriptor, match=r"\(1/8\)Z\^n of A2"):
        freudenthal_weights(g0, g0.weight(1, 0))
    off = 0
    for make in grading_catalog().values():
        rs = make().g0
        for coeffs in weights_up_to_height(rs.rank, 2):
            lam = rs.weight(*coeffs)
            try:
                weight_key(rs, lam)
            except ValueError:
                off += 1
                with pytest.raises(InvalidDescriptor, match=f"1/{rs.denom}"):
                    freudenthal_weights(rs, lam)
    assert off == 72


def test_freudenthal_adjoint_structure():
    rs = build_root_system("B2")
    ws = freudenthal_weights(rs, rs.weight(0, 2))
    assert ws.zero_mult == rs.rank
    roots = {r.coords for r in rs.positive_roots}
    roots |= {(-r).coords for r in rs.positive_roots}
    from spinchar.charring import key_weight
    assert {key_weight(rs, k).coords for k in ws.nonzero} == roots
    assert all(m == 1 for m in ws.nonzero.values())


@pytest.mark.parametrize("desc", ["B3", "C3", "F4", "G2"])
def test_little_adjoint_zero_weight_count(desc):
    rs = build_root_system(desc)
    se = special_elements(rs)
    ws = freudenthal_weights(rs, se.theta_s)
    assert ws.zero_mult == len(se.simple_short)
    assert ws.dimension() == (se.coxeter_number + 1) * ws.zero_mult


def test_freudenthal_matches_weyl_character():
    cases = [("B2", (1, 1)), ("A2", (2, 1)), ("C3", (0, 1, 0)), ("G2", (1, 0))]
    for desc, coeffs in cases:
        rs = build_root_system(desc)
        lam = rs.weight(*coeffs)
        ws = freudenthal_weights(rs, lam)
        assert ws.character() == irreducible_character(rs, lam)


def test_decompose_irreducible_is_identity():
    rs = build_root_system("C3")
    lam = rs.weight(1, 0, 1)
    dec = decompose(irreducible_character(rs, lam))
    assert dec.summands == ((lam, 1),)


def naive_clebsch_gordan(a, b):
    """Independent oracle: peel weight multiset of R_a x R_b by hand."""
    weights = []
    for i in range(-a, a + 1, 2):
        for j in range(-b, b + 1, 2):
            weights.append(i + j)
    out = []
    while weights:
        top = max(weights)
        out.append(top)
        for w in range(-top, top + 1, 2):
            weights.remove(w)
    return sorted(out)


def test_clebsch_gordan_against_naive_oracle():
    rs = build_root_system("A1")
    for a, b in [(2, 3), (1, 1), (4, 2), (3, 3)]:
        dec = decompose(a1_char(a) * a1_char(b))
        got = sorted(int(rs.fw_coefficients(lam)[0]) for lam, m in dec
                     for _ in range(m))
        assert got == naive_clebsch_gordan(a, b)


def test_spin_r6_decomposition():
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(6))
    from spinchar import spin0_character
    dec = decompose(spin0_character(ws))
    heads = sorted(int(rs.fw_coefficients(l)[0]) for l, _ in dec)
    assert heads == [0, 6]


def test_multiplicity_queries():
    rs = build_root_system("B2")
    lam = rs.weight(1, 1)
    ch = irreducible_character(rs, lam)
    assert multiplicity_of(ch, lam) == 1
    assert multiplicity_of(ch, rs.weight(3, 3)) == 0
    assert multiplicity_of(ch + ch, lam) == 2


def test_noninvariant_character_rejected():
    rs = build_root_system("B2")
    with pytest.raises(NonModuleCharacter):
        decompose(Character.from_weights(rs, [(rs.weight(1, 0), 1)]))


def test_a_negative_summand_is_named():
    # ch V_2 - 1 over A1 is W-invariant, and V_0 has multiplicity -1 in it
    rs = build_root_system("A1")
    with pytest.raises(NonModuleCharacter, match=r"V_\(0\) with multiplicity -1"):
        decompose(a1_char(2) - Character.one(rs))


def test_exterior_powers_of_rank_one_adjoint():
    rs = build_root_system("A1")
    ws = WeightSystem.adjoint(rs)
    powers = exterior_powers(ws)
    assert [p.dimension() for p in powers] == [1, 3, 3, 1]
    # top power is the trivial character for a semisimple algebra
    assert powers[3] == Character.one(rs)
    zero = Weight((0, 0))
    assert [multiplicity_of(p, zero) for p in powers] == [1, 0, 0, 1]


def test_exterior_methods_agree():
    modules = [WeightSystem.adjoint(build_root_system(d)) for d in ("A1", "B2")]
    for d in ("C2", "G2"):
        rs = build_root_system(d)
        modules.append(freudenthal_weights(rs, special_elements(rs).theta_s))
    a1 = build_root_system("A1")
    modules.append(freudenthal_weights(a1, a1.weight(4)))
    for ws in modules:
        newton = newton_exterior_powers(ws)
        product = exterior_powers(ws)
        assert all(a.terms == b.terms for a, b in zip(newton, product))
        assert sum(p.dimension() for p in newton) == 2 ** ws.dimension()


def test_exterior_powers_of_a_module_that_is_not_self_dual():
    # the weights of A2 V_w1 sum to zero, so Lambda^{n-i} is the conjugate
    # of Lambda^i: here Lambda^2 = V_w2, the dual of Lambda^1 = V_w1
    rs = build_root_system("A2")
    ws = freudenthal_weights(rs, rs.weight(1, 0))
    powers = exterior_powers(ws)
    assert [p.dimension() for p in powers] == [1, 3, 3, 1]
    assert powers[2] == powers[1].conjugate() and powers[2] != powers[1]
    assert powers[3] == Character.one(rs)
    assert powers == newton_exterior_powers(ws)


def test_invariant_poincare_table_values():
    c2 = build_root_system("C2")
    gp = invariant_poincare(freudenthal_weights(c2, c2.weight(0, 1)))
    assert gp == GradedPoincare([1, 0, 0, 0, 0, 1])
    assert gp.factored() == [5]
    b2 = build_root_system("B2")
    gp = invariant_poincare(freudenthal_weights(b2, b2.weight(2, 0)))
    assert gp.factored() == [5, 9]
    aa = build_root_system("A1xA1")
    gp = invariant_poincare(freudenthal_weights(aa, aa.weight(1, 1)))
    assert gp.factored() == [4]
    assert str(gp) == "(1+t^4)"


def test_invariant_poincare_refuses_a_dropped_weight():
    # the isotropy weights of F4/B4 are W0-invariant, with the cohomology of
    # the Cayley plane; with one dropped they are not, and invariance is
    # checked on the input, not per power
    from spinchar import inner_grading

    ws = inner_grading(build_root_system("F4"), 1).delta1
    assert str(invariant_poincare(ws)) == "1 + t^8 + t^16"
    key = min(ws.nonzero)
    dropped = dict(ws.nonzero)
    dropped[key] -= 1
    dropped = WeightSystem(ws.rs, {k: m for k, m in dropped.items() if m}, ws.zero_mult)
    with pytest.raises(NonModuleCharacter, match="not Weyl-invariant"):
        invariant_poincare(dropped)


def test_negative_invariant_dimension_is_an_input_error():
    # the A1 weights +-alpha without a zero weight are no module
    rs = build_root_system("A1")
    ws = WeightSystem(rs, [(rs.weight(2), 1), (rs.weight(-2), 1)])
    with pytest.raises(NonModuleCharacter, match="negative invariant dimension"):
        invariant_poincare(ws)


def test_an_unmirrored_poincare_polynomial_is_a_consistency_failure(monkeypatch):
    # the weights of C2 V_w2 sum to zero, so degree 5 - i must mirror
    # degree i; a product that lost its top invariant breaks the mirror
    real = charring._binomial_product

    def drop_top(rs, *args, **kwargs):
        # each record is a key, its degree and its slack fields
        terms = real(rs, *args, **kwargs)
        del terms[max(k for k in terms if k[:rs.space_dim] == rs.rho_key)]
        return terms

    c2 = build_root_system("C2")
    ws = freudenthal_weights(c2, c2.weight(0, 1))
    monkeypatch.setattr(charring, "_binomial_product", drop_top)
    with pytest.raises(ConsistencyError, match="not mirror-symmetric"):
        invariant_poincare(ws)


def _poincare_modules():
    """(id, weight system builder): the table1 modules, every inner grading
    of rank <= 3 and every outer instance but E6/C4."""
    def irreducible(desc, coeffs):
        rs = build_root_system(desc)
        return freudenthal_weights(rs, rs.weight(*coeffs))

    out = [(f"adjoint:{desc}", lambda desc=desc: WeightSystem.adjoint(build_root_system(desc)))
           for desc, _ in TABLE1_ADJOINT_TYPES]
    out += [(f"{desc}:{coeffs}", lambda desc=desc, coeffs=coeffs: irreducible(desc, coeffs))
            for desc, coeffs in [row[1:3] for row in TABLE1_ROWS] + [TABLE1_F4[:2]]]
    for desc in INNER_SWEEP:
        rs = build_root_system(desc)
        out += [(f"{desc}/alpha{i}", lambda rs=rs, i=i: inner_grading(rs, i).delta1)
                for i in involutive_pivots(rs) if rs.rank <= 3]
    out += [(f"{family}{params}", lambda family=family, params=params:
             outer_grading(family, *params).delta1)
            for family, params in OUTER_INSTANCES if family != "e6_sp8"]
    return out


POINCARE_MODULES = _poincare_modules()


@pytest.mark.parametrize("build", [b for _, b in POINCARE_MODULES],
                         ids=[name for name, _ in POINCARE_MODULES])
def test_invariant_poincare_matches_the_rho_orbit_oracle(build):
    # the pruned product with the Weyl denominator against every exterior
    # power expanded and read at the points of rho's orbit
    ws = build()
    assert invariant_poincare(ws).coefficients == orbit_poincare(ws).coefficients


def test_poincare_factoring_edge_cases():
    assert GradedPoincare([1, 0, 0, 1]).factored() == [3]
    assert GradedPoincare([1, 1, 1]).factored() is None
    assert GradedPoincare([1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1]
                          ).factored() == [5, 9]
    assert GradedPoincare([2, 0, 2]).factored() is None


def test_little_adjoint_product_identity():
    # ch V_{rho_s} equals the product over the positive short roots
    for desc in ["B2", "C2", "C3"]:
        rs = build_root_system(desc)
        se = special_elements(rs)
        from spinchar import plus_product
        lhs = irreducible_character(rs, se.rho_s)
        rhs = plus_product(rs, [(r, 1) for r in rs.short_roots()])
        assert lhs == rhs


def test_product_budget_guard():
    rs = build_root_system("B2")
    big = irreducible_character(rs, rs.weight(2, 2))
    with pytest.raises(BudgetExceeded):
        big.__mul__(big, 10)


def test_character_serialization_shape():
    rs = build_root_system("A1")
    data = a1_char(2).to_json()
    assert data["denom"] == rs.denom
    assert all(len(pair) == 2 for pair in data["terms"])
    assert sum(c for _, c in data["terms"]) == 3


def test_non_integral_weight_is_named_before_invariance():
    # Spin0 of V_1 over A1 has the weights +-alpha/4: W-invariant but not
    # integral, and the refusal says so
    from spinchar import spin0_character
    rs = build_root_system("A1")
    spin0 = spin0_character(freudenthal_weights(rs, rs.weight(1)))
    with pytest.raises(NonModuleCharacter, match="not integral"):
        decompose(spin0)
