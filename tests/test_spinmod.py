import pytest
from fractions import Fraction

from spinchar import (
    BudgetExceeded,
    Character,
    ConsistencyError,
    Decomposition,
    DominantHalf,
    InvalidDescriptor,
    NonModuleCharacter,
    NotSelfDual,
    Weight,
    WeightSystem,
    build_root_system,
    enumerate_dominant_halves,
    extreme_weights,
    frobenius_schur,
    freudenthal_weights,
    inner_grading,
    inner_gradings,
    invariant_poincare,
    irreducible_character,
    is_coprimary,
    is_decomposably_generated,
    multiplicity_of,
    orthogonality_type,
    outer_grading,
    special_elements,
    spin0_character,
    spin0_decomposition,
    spin_character,
    spin_scalar,
)
from spinchar import spinmod
from spinchar.charring import key_weight, weight_key
from spinchar.gradings import OUTER_INSTANCES, grading_catalog
from spinchar.rootsys import simple_types
from spinchar.spinmod import _cuts_the_cone, classify_candidate, classify_coprimary
from oracles import fold_decompose, stretch


def test_orthogonality_types():
    b2 = build_root_system("B2")
    assert orthogonality_type(b2, b2.weight(0, 2)) == "orthogonal"   # adjoint
    assert orthogonality_type(b2, b2.weight(0, 1)) == "symplectic"   # spinor
    c3 = build_root_system("C3")
    assert orthogonality_type(c3, c3.weight(1, 0, 0)) == "symplectic"
    a2 = build_root_system("A2")
    assert orthogonality_type(a2, a2.weight(1, 0)) == "neither"


def test_orthogonality_refuses_weights_without_a_module():
    # a highest weight must be dominant integral, self-dual or not
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    for rs, lam in [(a1, a1.weight(-2)), (a2, a2.weight(Fraction(1, 2), 0))]:
        with pytest.raises(InvalidDescriptor):
            frobenius_schur(rs, lam)
        with pytest.raises(InvalidDescriptor):
            orthogonality_type(rs, lam)


def test_frobenius_schur_agrees_with_square_split():
    # dual route: dim(S^2 V)^g - dim(L^2 V)^g from the squared character
    cases = [("B2", (1, 0)), ("C2", (1, 0)), ("A2", (1, 1)), ("A1", (2,))]
    zero2 = None
    for desc, coeffs in cases:
        rs = build_root_system(desc)
        lam = rs.weight(*coeffs)
        ch = irreducible_character(rs, lam)
        square = ch * ch
        doubled = stretch(ch, 2)
        zero = Weight((0,) * rs.space_dim)
        sym = decompose_free_multiplicity(square + doubled, rs, zero)
        alt = decompose_free_multiplicity(square - doubled, rs, zero)
        assert sym % 2 == alt % 2 == 0
        assert frobenius_schur(rs, lam) == (sym - alt) // 2


def decompose_free_multiplicity(ch, rs, lam):
    return multiplicity_of(ch, lam, rs)


def _character_route(rs, lam):
    """dim(S^2 V)^g - dim(L^2 V)^g: the trivial multiplicity in the
    character with every weight doubled, 0 for a module that is not
    self-dual."""
    ch = freudenthal_weights(rs, lam).character()
    return multiplicity_of(stretch(ch, 2), Weight((0,) * rs.space_dim), rs)


def test_frobenius_schur_parity_equals_the_character_route():
    # the sign (-1)^<lam, 2 rho~> against the Freudenthal + rho-orbit
    # lookup route: simple types, products, and every catalog g0 (centres and
    # rank 0 included). A g0 keeps its ambient's key scale, so Freudenthal
    # cannot hold a g0 weight off the ambient lattice (in the A2, A3 and
    # A1xA2 of Hermitian gradings); such a weight must read 0, and the
    # Fraction orbit oracle must find it not self-dual.
    heights = {1: 10, 2: 5, 3: 3, 4: 2}
    cases = [(build_root_system(fam, rank), heights[rank])
             for fam, rank in simple_types(4)]
    cases += [(build_root_system("A1xB2"), 3), (build_root_system("G2xA2"), 2)]
    cases += [(make().g0, 2) for make in grading_catalog().values()]
    assert any(rs.rank == 0 for rs, _ in cases)
    signs = set()
    for rs, height in cases:
        for coeffs in [(0,) * rs.rank, *spinmod.weights_up_to_height(rs.rank, height)]:
            lam = rs.weight(*coeffs)
            fs = frobenius_schur(rs, lam)
            try:
                weight_key(rs, lam)
            except ValueError:
                assert fs == 0 and rs.dominant_representative(-lam) != lam
                continue
            assert fs == _character_route(rs, lam), (rs.descriptor(), coeffs)
            signs.add(fs)
    assert signs == {-1, 0, 1}


def test_spin0_of_adjoint_is_rho_module():
    for desc in ["A2", "B2", "C3"]:
        rs = build_root_system(desc)
        ws = WeightSystem.adjoint(rs)
        assert spin0_character(ws) == irreducible_character(rs, rs.rho)
        assert spin_scalar(ws) == 2 ** (rs.rank // 2)


def test_spin_rank_one_series_entry():
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(4))
    assert ws.zero_mult == 1
    spin = spin_character(ws)
    assert spin == irreducible_character(rs, rs.weight(3))


def test_spin_of_w_plus_wstar():
    # A2 with W the defining module: Spin is the exterior algebra of W
    rs = build_root_system("A2")
    w_weights = freudenthal_weights(rs, rs.weight(1, 0))
    pairs = []
    for k, m in w_weights.nonzero.items():
        from spinchar.charring import key_weight
        mu = key_weight(rs, k)
        pairs.append((mu, m))
        pairs.append((-mu, m))
    ws = WeightSystem(rs, pairs, 0)
    spin = spin0_character(ws)
    expected = (2 * Character.one(rs)     # degrees 0 and 3 of the exterior algebra
                + irreducible_character(rs, rs.weight(1, 0))
                + irreducible_character(rs, rs.weight(0, 1)))
    assert spin == expected  # weight sum of W vanishes, so no central shift


def test_spin0_multiplies_over_direct_sums():
    rs = build_root_system("A1")
    w1 = freudenthal_weights(rs, rs.weight(2))
    w2 = freudenthal_weights(rs, rs.weight(4))
    combined = WeightSystem(rs, [*w1.nonzero.items(), *w2.nonzero.items()],
                            w1.zero_mult + w2.zero_mult)
    assert spin0_character(combined) == spin0_character(w1) * spin0_character(w2)


def test_spin_character_verifies_exterior_identity():
    rs = build_root_system("B2")
    ws = WeightSystem.adjoint(rs)
    spin = spin_character(ws)
    assert spin.dimension() == 2 ** (ws.zero_mult // 2) * 2 ** (
        (ws.dimension() - ws.zero_mult) // 2)


def test_non_self_dual_rejected():
    rs = build_root_system("A2")
    pairs = [(r, 1) for r in rs.positive_roots]  # only one half present
    with pytest.raises((NotSelfDual, InvalidDescriptor)):
        spin0_character(WeightSystem(rs, pairs, 0))


def test_zero_weight_in_nonzero_part_rejected():
    rs = build_root_system("A1")
    with pytest.raises(InvalidDescriptor):
        WeightSystem(rs, [(Weight((0, 0)), 1)], 0)


def test_unique_half_when_weights_on_root_lines():
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(4))
    halves = enumerate_dominant_halves(ws)
    assert len(halves) == 1
    ext = extreme_weights(ws, spin0_decomposition(ws))
    assert len(ext) == 1
    # the half-sum (2 eps + 4 eps)/2 is the highest weight of R3
    assert ext[0] == Fraction(3, 2) * rs.simple_roots[0]


def test_adjoint_extreme_weight_is_rho():
    rs = build_root_system("B2")
    ws = WeightSystem.adjoint(rs)
    assert extreme_weights(ws, spin0_decomposition(ws)) == [rs.rho]


def test_halves_of_the_even_split_module():
    # B3 restricted to its even part: the defining module has two halves
    from spinchar import inner_grading
    grading = inner_grading(build_root_system("B3"), 3)
    halves = enumerate_dominant_halves(grading.delta1)
    assert len(halves) == 2
    ext = extreme_weights(grading.delta1, spin0_decomposition(grading.delta1))
    h = Fraction(1, 2)
    assert sorted(w.coords for w in ext) == [(h, h, -h), (h, h, h)]


def test_f4_so9_extreme_weights():
    from spinchar import inner_grading
    grading = inner_grading(build_root_system("F4"), 1)
    halves = enumerate_dominant_halves(grading.delta1)
    assert len(halves) == 3
    ext = extreme_weights(grading.delta1, spin0_decomposition(grading.delta1))
    h = Fraction(1, 2)
    expected = {
        (Fraction(2), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1), Fraction(0)),
        (3 * h, h, h, h),
    }
    assert {w.coords for w in ext} == expected


def test_root_hyperplanes_miss_the_dominant_cone(monkeypatch):
    # a root has root coordinates of one sign, so no root hyperplane cuts
    # the cone and the dominant cone is the only chamber: the split never runs
    rs = build_root_system("B2")
    ws = WeightSystem.adjoint(rs)
    assert not any(_cuts_the_cone(rs, k) for k in ws.nonzero)

    def no_split(*args):
        raise AssertionError("the cone was split")
    monkeypatch.setattr(spinmod, "_split", no_split)
    assert len(enumerate_dominant_halves(ws)) == 1
    assert extreme_weights(ws, spin0_decomposition(ws)) == [rs.rho]


def test_the_split_makes_a_pinned_number_of_rays(monkeypatch):
    # only the extreme rays of each region are carried: a combination of a
    # pair that is not adjacent is redundant, and keeping those shows here
    # as more rays, long before it shows as time
    real, made = spinmod._split, []

    def counting(*args):
        sides = real(*args)
        made.extend(len(side[0]) for side in sides if side is not None)
        return sides
    monkeypatch.setattr(spinmod, "_split", counting)
    grading = inner_grading(build_root_system("D5"), 4)
    assert len(enumerate_dominant_halves(grading.delta1)) == 16
    assert (len(made), sum(made)) == (87, 440)


def test_rays_flipped_in_the_lineality_step_lose_the_witness(monkeypatch):
    # E6/alpha1 has a centre, so its first cut moves every ray along a
    # lineality vector; a moved ray on the wrong side of an earlier row
    # leaves a chamber whose ray sum is outside it
    real = spinmod._onto
    monkeypatch.setattr(spinmod, "_onto",
                        lambda h, z, v: tuple(-x for x in real(h, z, v)))
    grading = inner_grading(build_root_system("E6"), 1)
    with pytest.raises(ConsistencyError, match="lost its witness"):
        enumerate_dominant_halves(grading.delta1)


def test_extreme_weights_are_certified_against_the_decomposition():
    # an extreme head dropped, or with multiplicity 2, is a disagreement
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(8))
    dec = spin0_decomposition(ws)
    (head,) = extreme_weights(ws, dec)
    others = [(lam, m) for lam, m in dec if lam != head]
    assert others
    for summands in (others, others + [(head, 2)]):
        with pytest.raises(ConsistencyError, match="expected 1"):
            extreme_weights(ws, Decomposition(rs, summands))


def test_reduced_spin_dimension_check_is_a_consistency_error(monkeypatch):
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(4))
    real = spinmod._binomial_product
    monkeypatch.setattr(spinmod, "_binomial_product",
                        lambda *a, **kw: dict(list(real(*a, **kw).items())[1:]))
    with pytest.raises(ConsistencyError, match="reduced Spin dimension"):
        spin0_character(ws)


def test_exterior_algebra_check_is_a_consistency_error(monkeypatch):
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(4))
    real = spinmod.spin0_character
    monkeypatch.setattr(spinmod, "spin0_character", lambda ws, **kw: 2 * real(ws, **kw))
    with pytest.raises(ConsistencyError, match="exterior algebra"):
        spin_character(ws)


def test_mixed_sign_root_coordinates_cut_the_dominant_cone():
    rs = build_root_system("A2")
    a1, a2 = rs.simple_roots
    assert _cuts_the_cone(rs, weight_key(rs, a1 - a2))
    assert _cuts_the_cone(rs, weight_key(rs, rs.weight(1, -1)))
    assert not _cuts_the_cone(rs, weight_key(rs, rs.weight(1, 0)))


def test_weights_off_the_span_of_the_roots_cut_the_dominant_cone():
    # a Hermitian g0 has a centre, and every delta1 weight has a part on it
    for desc in ("A1", "B2", "C3"):
        rs = build_root_system(desc)
        for grading in inner_gradings(rs):
            if grading.metadata["hermitian"]:
                assert all(_cuts_the_cone(grading.g0, k) for k in grading.delta1.nonzero)


def test_witness_on_a_hyperplane_is_refused():
    rs = build_root_system("B2")
    with pytest.raises(InvalidDescriptor, match="on a weight hyperplane"):
        DominantHalf(WeightSystem.adjoint(rs), Weight((1, 0)))


def test_witness_outside_the_dominant_chamber_is_refused():
    rs = build_root_system("B2")
    witness = Weight((Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(InvalidDescriptor, match="not strictly dominant"):
        DominantHalf(WeightSystem.adjoint(rs), witness)


def test_witness_that_does_not_halve_the_weights_is_refused():
    rs = build_root_system("A2")
    positives = WeightSystem(rs, [(r, 1) for r in rs.positive_roots], 0)
    with pytest.raises(InvalidDescriptor, match="split the weights in half"):
        DominantHalf(positives, rs.rho)


def test_hyperplane_budget_refusal():
    rs = build_root_system("B2")
    ws = WeightSystem.adjoint(rs)
    with pytest.raises(BudgetExceeded):
        enumerate_dominant_halves(ws, hyperplane_budget=1)


def test_witness_certifies_half():
    rs = build_root_system("B2")
    ws = WeightSystem.adjoint(rs)
    for half in enumerate_dominant_halves(ws):
        for a in rs.simple_roots:
            assert rs.inner(half.witness, a) > 0
        for mu, _ in half.half:
            assert rs.inner(half.witness, mu) > 0


def test_coprimary_examples():
    for desc in ["A1", "A2", "B2", "C3", "D3", "G2", "F4"]:
        rs = build_root_system(desc)
        flag, dec = is_coprimary(WeightSystem.adjoint(rs))
        assert flag, f"{desc} adjoint"
        assert dec.summands[0][0] == rs.rho
    g2 = build_root_system("G2")
    se = special_elements(g2)
    flag, dec = is_coprimary(freudenthal_weights(g2, se.theta_s))
    assert not flag
    c2 = build_root_system("C2")
    flag, dec = is_coprimary(freudenthal_weights(c2, c2.weight(0, 1)))
    assert flag
    assert dec.summands[0][0] == special_elements(c2).rho_s


def test_decomposably_generated_examples():
    a1 = build_root_system("A1")
    assert is_decomposably_generated(freudenthal_weights(a1, a1.weight(4)))
    b2 = build_root_system("B2")
    assert is_decomposably_generated(WeightSystem.adjoint(b2))
    # the G2 little adjoint has the trivial summand, which is not extreme
    g2 = build_root_system("G2")
    se = special_elements(g2)
    assert not is_decomposably_generated(freudenthal_weights(g2, se.theta_s))


def test_symplectic_module_has_invariant_two_form():
    # a symplectic module always carries an invariant in degree two, which
    # is what rules its exterior invariants out of the free list
    rs = build_root_system("C2")
    ws = freudenthal_weights(rs, rs.weight(1, 0))
    assert invariant_poincare(ws).coefficients[2] == 1


def test_classify_rank_one():
    records = classify_coprimary(1, 8)
    found = sorted(r["weight"] for r in records if r["coprimary"])
    assert found == [["2"], ["4"]]
    r6 = next(r for r in records if r["weight"] == ["6"])
    assert r6["filter"] == "spin0-reducible"


def test_classify_filters():
    b2 = build_root_system("B2")
    # twice the highest root fails on the weight level, not at the top
    rec = classify_candidate(b2, b2.weight(0, 4))
    assert rec["filter"] == "weights-off-root-lines"
    rec = classify_candidate(b2, b2.weight(0, 1))
    assert rec["filter"] == "zero-weight"      # spinor: not in the root lattice
    a2 = build_root_system("A2")
    rec = classify_candidate(a2, a2.weight(1, 0))
    assert rec["filter"] == "not-self-dual"
    c3 = build_root_system("C3")
    rec = classify_candidate(c3, c3.weight(1, 0, 0))
    assert rec["filter"] in ("zero-weight", "symplectic",
                             "highest-weight-off-root-line")


def _classify_oracle(rs, lam):
    """The classify route that expands V_lam first: Freudenthal's full
    weight system, then the dominant representative of every weight
    checked against the root lines, all through Fraction weights."""
    record = {"type": rs.descriptor(), "weight": [str(c) for c in rs.fw_coefficients(lam)],
              "coprimary": False, "filter": None, "spin0": None}

    def on_root_line(w):
        if w.is_zero():
            return True
        line = spinmod._primitive(rs.dominant_representative(w).scaled()[0])
        return line in map(spinmod._primitive, rs.positive_keys)

    if rs.dominant_representative(-lam) != lam:
        record["filter"] = "not-self-dual"
    elif not rs.in_root_lattice(lam):
        record["filter"] = "zero-weight"
    elif not on_root_line(lam):
        record["filter"] = "highest-weight-off-root-line"
    else:
        ws = freudenthal_weights(rs, lam)
        if not all(on_root_line(key_weight(rs, k)) for k in ws.nonzero):
            record["filter"] = "weights-off-root-lines"
        elif frobenius_schur(rs, lam) != 1:
            record["filter"] = "symplectic"
        else:
            flag, dec = is_coprimary(ws)
            record.update(spin0=dec.to_json(), coprimary=flag,
                          filter="coprimary" if flag else "spin0-reducible")
    return record


def test_classify_matches_the_route_through_every_weight():
    # candidate by candidate, so that a wrong filter fails before it reaches
    # the Spin0 product of a large module
    seen = []
    for fam, rank in simple_types(3):
        rs = build_root_system(fam, rank)
        for coeffs in spinmod.weights_up_to_height(rank, 8):
            lam = rs.weight(*coeffs)
            oracle = _classify_oracle(rs, lam)
            assert classify_candidate(rs, lam) == oracle, oracle
            seen.append(oracle["filter"])
    assert len(seen) == 840
    # no candidate of this sweep stops at the symplectic filter
    assert set(seen) == set(spinmod.SWEEP_FILTERS) - {"symplectic"}


def test_classify_rejects_weights_off_root_lines_before_freudenthal(monkeypatch):
    calls = []
    original = spinmod.freudenthal_weights

    def counted(rs, lam):
        calls.append(lam)
        return original(rs, lam)

    monkeypatch.setattr(spinmod, "freudenthal_weights", counted)
    b2 = build_root_system("B2")
    assert classify_candidate(b2, b2.weight(0, 4))["filter"] == "weights-off-root-lines"
    assert calls == []
    assert classify_candidate(b2, b2.weight(0, 2))["filter"] == "coprimary"
    assert calls == [b2.weight(0, 2)]


def test_classify_stops_the_walk_at_the_first_weight_off_a_root_line(monkeypatch):
    read = []
    real = spinmod.dominant_weights

    def counted(rs, key):
        for pair in real(rs, key):
            read.append(pair)
            yield pair

    monkeypatch.setattr(spinmod, "dominant_weights", counted)
    c3 = build_root_system("C3")
    lam = c3.weight(0, 8, 0)
    assert classify_candidate(c3, lam)["filter"] == "weights-off-root-lines"
    assert 1 <= len(read) <= 2
    assert len(dict(real(c3, weight_key(c3, lam)))) == 71


@pytest.mark.parametrize("desc", ["A1xB2", "A1xA1", "A1xA2"])
def test_classify_matches_the_oracle_on_product_types(desc):
    # the sweep builds simple types only; here the labels and the -w0
    # permutation run over several factors, A2's off the first node
    rs = build_root_system(desc)
    for coeffs in spinmod.weights_up_to_height(rs.rank, 4):
        lam = rs.weight(*coeffs)
        assert classify_candidate(rs, lam) == _classify_oracle(rs, lam)


def test_classify_matches_the_oracle_off_the_root_span():
    # g0 = A1xA1xT1: the weights of g1 have a part on the centre, and A2
    # lies in a plane of its three coordinates; (1, 1) plus a part off the
    # span has labels fixed by -w0, so only that part makes it not self-dual
    grading = inner_grading(build_root_system("A3"), 2)
    g0, a2 = grading.g0, build_root_system("A2")
    cases = [(g0, g0.weight(*c)) for c in spinmod.weights_up_to_height(g0.rank, 6)]
    cases += [(g0, key_weight(g0, k)) for k in grading.delta1.nonzero]
    cases += [(a2, Weight((1, 1, 1))), (a2, a2.weight(1, 1) + Weight((1, 1, 1)))]
    off_span = 0
    for rs, lam in cases:
        if not rs.is_dominant(lam):
            continue
        record = classify_candidate(rs, lam)
        assert record == _classify_oracle(rs, lam)
        if rs.weight(rs.dynkin_labels(lam)) != lam:
            assert record["filter"] == "not-self-dual"
            off_span += 1
    assert off_span == 4


def test_classify_refuses_weights_without_a_module():
    b2 = build_root_system("B2")
    for lam in (b2.weight(1, -1), b2.weight(Fraction(1, 2), 0)):
        with pytest.raises(InvalidDescriptor, match="not dominant integral"):
            classify_candidate(b2, lam)


# ---------------------------------------------------------------------------
# the Spin0 * Delta route against the folded full product


def _oracle(ws):
    return fold_decompose(spin0_character(ws), ws.rs)


SPIN0_MODULES = [("A1", (n,)) for n in range(2, 41, 2)] + [
    ("B4", (2, 0, 0, 0)), ("F4", (1, 0, 0, 0)), ("C4", (0, 1, 0, 0))]


@pytest.mark.parametrize("desc,coeffs", SPIN0_MODULES)
def test_spin0_decomposition_matches_the_decomposed_product(desc, coeffs):
    rs = build_root_system(desc)
    ws = freudenthal_weights(rs, rs.weight(*coeffs))
    assert spin0_decomposition(ws) == _oracle(ws)


def test_spin0_decomposition_matches_on_every_grading():
    gradings = [g for fam, rank in simple_types(4)
                for g in inner_gradings(build_root_system(fam, rank))]
    gradings += [outer_grading(family, *params) for family, params in OUTER_INSTANCES]
    for g in gradings:
        assert spin0_decomposition(g.delta1) == _oracle(g.delta1), g.label


def test_spin0_routes_refuse_a_term_budget_of_one():
    rs = build_root_system("F4")
    ws = freudenthal_weights(rs, rs.weight(1, 0, 0, 0))
    with pytest.raises(BudgetExceeded) as info:
        spin0_decomposition(ws, term_budget=1)
    assert info.value.required > 1
    assert info.value.budget == 1


def test_spin0_decomposition_keeps_the_weyl_budget_and_self_duality():
    rs = build_root_system("F4")
    ws = freudenthal_weights(rs, rs.weight(1, 0, 0, 0))
    with pytest.raises(BudgetExceeded) as info:
        spin0_decomposition(ws, budget=100)
    assert (info.value.required, info.value.budget) == (1152, 100)
    a2 = build_root_system("A2")
    with pytest.raises(NotSelfDual):
        spin0_decomposition(freudenthal_weights(a2, a2.weight(1, 0)))


def test_spin0_decomposition_refuses_a_non_integral_summand():
    # the 2-dim module of A1 is symplectic: its Spin0 is e^{w/2} + e^{-w/2}
    rs = build_root_system("A1")
    ws = freudenthal_weights(rs, rs.weight(1))
    with pytest.raises(NonModuleCharacter):
        _oracle(ws)
    with pytest.raises(NonModuleCharacter, match="not a module"):
        spin0_decomposition(ws)
