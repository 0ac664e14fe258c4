"""Property tests: decomposition by the pruned product and by folding, and
the dominant-only routes, against the division-based Weyl character
formula, on random dominant weights; the records of a decomposition
against its Weights; multiplicities read off the orbit of
rho against the fold on characters that are no modules; exact
division against the skew product it inverts; integer simple-root pairings
against Fraction ones; the integer key primitives of RootSystem against
Fraction reflections and the enumerated group; products of binomials,
root ones merged with plus ones, against their plain expansion; the
integer Weyl layer against products of reflection matrices; Spin0
against the choice of half; the pruned Spin0 products against the full
one; extreme weights and chamber witnesses against the decomposed
Spin0 and Fraction pairings;
dominant halves against every sign vector of the weight hyperplanes that
Fourier-Motzkin elimination finds feasible; fundamental weights and
lattice rows against the coroots and the Cartan matrix; Weight
arithmetic, equality and order against tuples of Fractions;
RootSystem.weight against the Fraction sum of fundamental weights;
integer Dynkin labels and inner products against the Fraction form, and
self_dual against the dominant representative of -lam."""

import sys
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spinchar import (
    BudgetExceeded,
    InvalidDescriptor,
    SubsystemDatum,
    Weight,
    Character,
    Decomposition,
    NonModuleCharacter,
    build_root_system,
    decompose,
    dual_root_system,
    enumerate_dominant_halves,
    enumerate_weyl,
    extreme_weights,
    freudenthal_weights,
    frobenius_schur,
    grading_catalog,
    inner_grading,
    inner_gradings,
    irreducible_character,
    l0_of,
    minimal_coset_reps,
    multiplicity_of,
    outer_grading,
    spin0_character,
    spin0_decomposition,
    weyl_dimension,
)
from spinchar.charring import (_binomial_product, alternating_sum,
                               dominant_weights as dominant_weight_walk, exact_divide,
                               key_weight, weight_key)
from spinchar.gradings import OUTER_INSTANCES, involutive_pivots
from spinchar.rootsys import HALF, _dot, _wsum, simple_types
from spinchar.spinmod import _primitive, self_dual
from spinchar.weyl import cunning_parity, signed_orbit
from oracles import (_fm_stages, act_key, contains, expanded_binomials, factorize,
                     fold_decompose, fraction_inner, fraction_labels, invert, least_scale,
                     multiply, racah_speiser, reflect, reflection_matrix, skew_product,
                     stretch, vector_add, vector_scale, vector_sub)

TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "A1xA1"]
RANK_4_TYPES = ["A4", "B4", "C4", "D4", "F4"]

# fundamental-weight coefficient sums, small enough that the
# division oracle stays fast
HEIGHT = {1: 4, 2: 3, 3: 2, 4: 2}

PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def dominant_weights(draw, height_scale=1, types=TYPES):
    desc = draw(st.sampled_from(types))
    rs = build_root_system(desc)
    bound = max(1, HEIGHT[rs.rank] // height_scale)
    coeffs = draw(st.lists(st.integers(0, bound), min_size=rs.rank, max_size=rs.rank)
                  .filter(lambda c: sum(c) <= bound))
    return rs, rs.weight(*coeffs)


def greedy_decomposition(ch, rs):
    """Oracle: peel off the irreducible of the highest remaining weight.

    A weight of largest (mu, rho) has nothing above it by a positive root,
    so it is a highest weight; ties are broken by key.
    """
    def height(k):
        return rs.inner(key_weight(ch.rs, k), rs.rho), k

    rem = dict(ch.terms)
    out = []
    while rem:
        lead = max(rem, key=height)
        mult = rem[lead]
        lam = key_weight(ch.rs, lead)
        assert mult > 0 and rs.is_dominant(lam)
        for k, v in irreducible_character(rs, lam).terms.items():
            nv = rem.get(k, 0) - mult * v
            if nv:
                rem[k] = nv
            else:
                rem.pop(k, None)
        out.append((lam, mult))
    return tuple(sorted(out, key=lambda t: t[0].coords))


@PROPERTY
@given(st.data())
def test_folding_matches_greedy_division(data):
    rs, lam = data.draw(dominant_weights(height_scale=2))
    coeffs = data.draw(st.lists(st.integers(0, max(1, HEIGHT[rs.rank] // 2)),
                                min_size=rs.rank, max_size=rs.rank))
    mu = rs.weight(*coeffs)
    product = irreducible_character(rs, lam) * irreducible_character(rs, mu)
    greedy = greedy_decomposition(product, rs)
    assert decompose(product, rs).summands == greedy
    assert fold_decompose(product, rs).summands == greedy


@PROPERTY
@given(st.data())
def test_decomposition_records_match_the_weight_path(data):
    # the records read off the pruned product (labels from its slack
    # fields, dimensions from its keys, the order of its keys) against
    # dynkin_labels, weyl_dimension and the Weight order, on a tensor
    # product and on the reduced Spin of an orthogonal V_lam; built again
    # from its Weights, the decomposition is the same
    rs, lam = data.draw(dominant_weights())
    coeffs = data.draw(st.lists(st.integers(0, HEIGHT[rs.rank]), min_size=rs.rank,
                                max_size=rs.rank).filter(lambda c: sum(c) <= HEIGHT[rs.rank]))
    ws = freudenthal_weights(rs, lam)
    decs = [decompose(ws.character() * freudenthal_weights(rs, rs.weight(*coeffs)).character())]
    if frobenius_schur(rs, lam) == 1 and ws.dimension() <= 30:
        decs.append(spin0_decomposition(ws))
    for dec in decs:
        weights = [mu for mu, _ in dec]
        assert weights == sorted(weights)
        assert dec.keys == tuple(weight_key(rs, mu) for mu in weights)
        assert dec.labels == tuple(rs.dynkin_labels(mu) for mu in weights)
        assert dec.dimensions == tuple(weyl_dimension(rs, mu) for mu in weights)
        again = Decomposition(rs, reversed(dec.summands))
        fields = ("scale", "keys", "labels", "multiplicities", "dimensions", "summands")
        assert [getattr(again, f) for f in fields] == [getattr(dec, f) for f in fields]
        assert again.to_json() == dec.to_json()


@PROPERTY
@given(st.data())
def test_multiplicity_of_matches_the_fold_on_virtual_characters(data):
    # differences of irreducibles and stretched characters are W-invariant
    # but no modules; off the chamber, at w.nu = w(nu + rho) - rho, the
    # rho-orbit sum reads sgn(w) m_nu, so a lookup that skipped the
    # dominance test would not read 0 there
    rs, lam = data.draw(dominant_weights(height_scale=2))
    mu = rs.weight(*data.draw(st.lists(st.integers(0, max(1, HEIGHT[rs.rank] // 2)),
                                       min_size=rs.rank, max_size=rs.rank)))
    a, b = irreducible_character(rs, lam), irreducible_character(rs, mu)
    for ch in (a - b, stretch(a, 2), stretch(a, 2) - stretch(b, 2) - b):
        folded = racah_speiser(ch, rs)
        for nu in set(folded) | {lam, mu, 0 * rs.rho}:
            assert multiplicity_of(ch, nu, rs) == folded.get(nu, 0)
            for i, p in enumerate(rs.dynkin_labels(nu)):
                off = nu - (p + 1) * rs.simple_roots[i]
                assert multiplicity_of(ch, off, rs) == 0
        assert multiplicity_of(ch, HALF * rs.rho + lam, rs) == 0


@settings(PROPERTY, max_examples=40)
@given(dominant_weights(types=TYPES + RANK_4_TYPES))
def test_freudenthal_matches_weyl_division(case):
    rs, lam = case
    assert freudenthal_weights(rs, lam).character() == irreducible_character(rs, lam)


@PROPERTY
@given(dominant_weights())
def test_the_dominant_weight_walk_matches_weyl_division(case):
    rs, lam = case
    lam_key = weight_key(rs, lam)
    walk = dict(dominant_weight_walk(rs, lam_key))
    labels = {k: rs.labels(k) for k in irreducible_character(rs, lam).terms}
    assert walk == {tuple(p): k for k, p in labels.items() if min(p) >= 0}
    assert next(iter(walk.items())) == (rs.dynkin_labels(lam), lam_key)


@PROPERTY
@given(dominant_weights())
def test_frobenius_schur_matches_division_formula(case):
    rs, lam = case
    # trivial multiplicity of the doubled division character, as an
    # alternating sum over the enumerated Weyl group
    doubled = stretch(irreducible_character(rs, lam), 2)
    rho = rs.rho
    expected = sum(w.sign * doubled.coefficient(w.apply(rho) - rho)
                   for w in enumerate_weyl(rs))
    assert frobenius_schur(rs, lam) == expected


@PROPERTY
@given(st.data())
def test_exact_divide_inverts_the_skew_product(data):
    rs = build_root_system(data.draw(st.sampled_from(TYPES)))
    picks = data.draw(st.lists(st.integers(0, len(rs.positive_roots) - 1),
                               min_size=1, max_size=4, unique=True))
    roots = [rs.positive_roots[i] for i in picks]
    labels = st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank)
    terms = data.draw(st.lists(st.tuples(labels, st.integers(-3, 3).filter(bool)),
                               min_size=1, max_size=5))
    c = Character.from_weights(rs, [(rs.weight(*p), m) for p, m in terms])
    # the dividend is expanded by the product, independently of the division
    dividend = skew_product(rs, roots) * c
    assert exact_divide(dividend, roots, rs) == c
    # a root binomial is not a unit, so one more monomial leaves a remainder
    extra = data.draw(labels)
    with pytest.raises(NonModuleCharacter):
        exact_divide(dividend + Character.from_weights(rs, [(rs.weight(*extra), 1)]),
                     roots, rs)


@PROPERTY
@given(st.data())
def test_merged_binomial_products_match_their_expansion(data):
    # a signed factor at a root v with plus factors at +-v, +-2v and 4v, of
    # either sign and multiplicity, first or last: the merge of
    # e^{v/2} - e^{-v/2} with e^{v/2} + e^{-v/2} into e^v - e^{-v}, and on
    # along the chain, must give the plain product, pruned or not
    rs = build_root_system(data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3", "C3"])))
    factors = []
    for v in data.draw(st.lists(st.sampled_from(rs.positive_keys), min_size=1, max_size=2)):
        factors.append((v, data.draw(st.integers(1, 3)), -1))
        for c in data.draw(st.lists(st.sampled_from([1, -1, 2, -2, 4]), max_size=3)):
            factors.append((tuple(c * x for x in v), data.draw(st.integers(1, 2)),
                            data.draw(st.sampled_from([1, 1, -1]))))
    factors = data.draw(st.permutations(factors))
    labels = st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank)
    seed = data.draw(st.none() | st.dictionaries(
        labels.map(lambda p: weight_key(rs, rs.weight(*p))), st.integers(-2, 2).filter(bool),
        min_size=1, max_size=3))
    want = expanded_binomials(rs, factors, seed).terms
    assert Character(rs, _binomial_product(rs, factors, 10 ** 6, seed=seed)).terms == want
    # the strictly dominant part: every doubled label >= 2, each term's
    # record its key and then its slack, each doubled label less 2
    doubled = {k: rs.labels(tuple(x + x for x in k)) for k in want}
    dominant = {k + tuple(p - 2 for p in doubled[k]): c
                for k, c in want.items() if min(doubled[k]) >= 2}
    pruned = _binomial_product(rs, factors, 10 ** 6, floor=2, seed=seed)
    assert {k: c for k, c in pruned.items() if c} == dominant


@PROPERTY
@given(st.data())
def test_half_lattice_products_match_the_full_expansion(data):
    # an unpruned, unseeded product holds half the lattice: signed factors
    # at roots with plus factors at +-v and 2v (merged), plus factors at
    # short roots and at weights, any multiplicity, in any order. It must
    # give the binomials multiplied out, and the full-lattice loop's answer
    # or refusal (the same product seeded with 1 at zero), the term budget
    # counting the full support
    rs = build_root_system(data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3",
                                                      "C3", "A1xB2"])))
    shorts = [weight_key(rs, r) for r in rs.short_roots()] if rs.is_simple() else []
    factors = []
    for v in data.draw(st.lists(st.sampled_from(rs.positive_keys), max_size=3)):
        factors.append((v, data.draw(st.integers(1, 3)), -1))
        for c in data.draw(st.lists(st.sampled_from([1, -1, 2]), max_size=2)):
            factors.append((tuple(c * x for x in v), data.draw(st.integers(1, 2)), 1))
    for v in data.draw(st.lists(st.sampled_from(shorts), max_size=2)) if shorts else []:
        factors.append((v, data.draw(st.integers(1, 2)), 1))
    labels = st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank)
    for p in data.draw(st.lists(labels, max_size=2)):
        if any(p):
            factors.append((weight_key(rs, rs.weight(*p)), data.draw(st.integers(1, 2)),
                            data.draw(st.sampled_from([1, -1]))))
    assume(factors)
    factors = data.draw(st.permutations(factors))
    want = expanded_binomials(rs, factors).terms
    assert _binomial_product(rs, factors, 10 ** 6) == want
    zero = (0,) * rs.space_dim
    budget = data.draw(st.integers(1, 2 * len(want) + 1))

    def product(seed):
        try:
            return _binomial_product(rs, factors, budget, seed=seed)
        except BudgetExceeded as refusal:
            return refusal.required, refusal.budget

    assert product(None) == product({zero: 1})


# ---------------------------------------------------------------------------
# simple-root pairings read off the integer rows against Fraction pairings


@st.composite
def rational_weights(draw):
    """Dominant weights with rational labels, or arbitrary rational
    coordinates, which are off the root span for A and G2."""
    rs = build_root_system(draw(st.sampled_from(TYPES)))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if draw(st.booleans()):
        labels = st.fractions(min_value=0, max_value=3, max_denominator=3)
        return rs, rs.weight(*draw(st.lists(labels, min_size=rs.rank, max_size=rs.rank)))
    return rs, Weight(draw(st.lists(fractions, min_size=rs.space_dim, max_size=rs.space_dim)))


@PROPERTY
@given(rational_weights())
def test_integer_pairings_match_the_fraction_oracle(case):
    rs, x = case
    oracle = tuple(rs.pairing(x, a) for a in rs.simple_roots)
    assert rs.fw_coefficients(x) == oracle
    assert rs.is_dominant(x) == all(p >= 0 for p in oracle)
    assert rs.is_integral(x) == all(p.denominator == 1 for p in oracle)
    assert rs.cartan_matrix == tuple(tuple(rs.pairing(a, b) for b in rs.simple_roots)
                                     for a in rs.simple_roots)


# ---------------------------------------------------------------------------
# the exact Cartan inverse: fundamental weights dual to the coroots


def _systems(kind, name):
    if kind == "type":
        return [build_root_system(name)]
    if kind == "inner":
        rs = build_root_system(name)
        return [inner_grading(rs, i).g0 for i in involutive_pivots(rs)]
    if kind == "outer":
        family, params = name
        return [outer_grading(family, *params).g0]
    return [dual_root_system(build_root_system(name))[0]]


DUALITY_CASES = (
    [("type", f"{fam}{rank}") for fam, rank in simple_types(8)]
    + [("type", d) for d in ("A1xA1", "A1xB2", "G2xA2")]
    + [("inner", f"{fam}{rank}") for fam, rank in simple_types(4)]
    + [("outer", instance) for instance in OUTER_INSTANCES]
    + [("dual", d) for d in ("B3", "C3", "F4", "G2")])


@pytest.mark.parametrize("kind, name", DUALITY_CASES)
def test_fundamental_weights_are_dual_to_the_coroots(kind, name):
    for rs in _systems(kind, name):
        n = rs.rank
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert [tuple(rs.pairing(w, a) for a in rs.simple_roots)
                for w in rs.fundamental_weights] == unit
        assert [rs.fw_coefficients(w) for w in rs.fundamental_weights] == unit
        # root coordinates c = C^-T p of labels p: the lattice rows are
        # lattice_denom C^-T, so they times C^T give lattice_denom I
        c = rs.cartan_matrix
        assert [tuple(Fraction(sum(x * y for x, y in zip(row, c[k])), rs.lattice_denom)
                      for k in range(n)) for row in rs.lattice_rows] == unit


# ---------------------------------------------------------------------------
# Weight arithmetic against coordinatewise Fractions


def _fraction_lists(n):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12),
                    min_size=n, max_size=n)


@PROPERTY
@given(st.data())
def test_weight_arithmetic_is_coordinatewise(data):
    n = data.draw(st.integers(1, 8))
    a, b = data.draw(_fraction_lists(n)), data.draw(_fraction_lists(n))
    c = data.draw(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12)))
    x, y = Weight(a), Weight(b)
    assert (x + y).coords == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coords == tuple(p - q for p, q in zip(a, b))
    assert (-x).coords == tuple(-p for p in a)
    assert (c * x).coords == tuple(c * p for p in a)
    assert all(type(p) is Fraction for w in (x + y, x - y, -x, c * x) for p in w.coords)
    with pytest.raises(ValueError):
        x + Weight(b + [0])


@PROPERTY
@given(st.integers(1, 8).flatmap(_fraction_lists))
def test_scaled_is_the_least_integral_scale(coords):
    key, scale = Weight(coords).scaled()
    assert scale > 0 and all(type(k) is int for k in key)
    assert Weight(Fraction(k, scale) for k in key) == Weight(coords)
    assert not any(all((p * s).denominator == 1 for p in coords) for s in range(1, scale))


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
             min_size=n, max_size=n), min_size=3, max_size=6)),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_weight_matches_the_fraction_tuple_oracle(vectors, c):
    # a Weight holds (key, scale) in lowest terms; everything it answers
    # must be what the tuples of Fractions answer
    weights = [Weight(v) for v in vectors]
    tuples = [tuple(Fraction(x) for x in v) for v in vectors]
    for w, t in zip(weights, tuples):
        assert w.coords == t
        assert w.scaled() == (tuple(int(x * least_scale(t)) for x in t), least_scale(t))
        assert Weight.from_key(*w.scaled()) == w
        assert Weight.from_key(tuple(3 * k for k in w.key), 3 * w.scale).scaled() == w.scaled()
    x, y, tx, ty = weights[0], weights[1], tuples[0], tuples[1]
    assert (x + y).coords == vector_add(tx, ty)
    assert (x - y).coords == vector_sub(tx, ty)
    assert (-x).coords == vector_scale(-1, tx)
    assert (c * x).coords == vector_scale(c, tx)
    for w in (x + y, x - y, -x, c * x):
        assert w.scaled() == Weight(w.coords).scaled()
    for a, ta in zip(weights, tuples):
        for b, tb in zip(weights, tuples):
            assert (a == b) == (ta == tb)
            assert (a < b) == (ta < tb)
            if a == b:
                assert hash(a) == hash(b)
    assert [w.coords for w in sorted(weights)] == sorted(tuples)


@PROPERTY
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=8),
       st.one_of(st.just(1), st.integers(1, 12)))
@example([0, -3, 4], 1)
@example([0, -3, 4], 6)
def test_coord_strings_are_the_fraction_strings(key, scale):
    # negative, zero and scale-1 keys: each coordinate written as its
    # Fraction would be, with no Fraction made
    w = Weight.from_key(tuple(key), scale)
    assert tuple(w.coord_strings()) == tuple(str(c) for c in w.coords)


WEIGHT_SYSTEMS = (
    [(f"{fam}{rank}", lambda fam=fam, rank=rank: build_root_system(fam, rank))
     for fam, rank in simple_types(4)]
    + [(d, lambda d=d: build_root_system(d)) for d in ("A1xB2", "G2xA2")]
    # a subsystem shares its ambient's denom, which need not clear its
    # fundamental weights
    + [(f"g0 of {name}", lambda make=make: make().g0)
       for name, make in sorted(grading_catalog().items())])


@pytest.mark.parametrize("system", [make for _, make in WEIGHT_SYSTEMS],
                         ids=[name for name, _ in WEIGHT_SYSTEMS])
def test_weight_sums_the_fraction_fundamental_weights(system):
    rs = system()
    n = rs.rank
    cases = [[1 - i % 3 for i in range(n)],
             [Fraction((-1) ** i * (i + 1), i + 2) for i in range(n)],
             [Fraction(2 * i + 1, 3) if i % 2 else i for i in range(n)]]
    cases += [[int(i == j) for j in range(n)] for i in range(n)]
    for coeffs in cases:
        oracle = _wsum([c * w for c, w in zip(coeffs, rs.fundamental_weights)],
                       rs.space_dim)
        assert rs.weight(*coeffs) == oracle
        assert all(type(c) is Fraction for c in rs.weight(coeffs).coords)


@pytest.mark.parametrize("system", [make for _, make in WEIGHT_SYSTEMS],
                         ids=[name for name, _ in WEIGHT_SYSTEMS])
def test_integer_labels_and_inner_match_the_fraction_form(system):
    rs = system()
    n = rs.rank
    weights = [rs.weight(*coeffs) for coeffs in (
        [1 - i % 3 for i in range(n)], [Fraction(2 * i + 1, 3) for i in range(n)],
        [Fraction(i, 2) for i in range(n)])]
    weights += list(rs.simple_roots + rs.positive_roots + rs.fundamental_weights)
    weights += [rs.rho, Weight([Fraction(t + 1, 3) for t in range(rs.space_dim)])]
    for x in weights:
        labels = fraction_labels(rs, x)
        assert rs.fw_coefficients(x) == labels
        integral = all(p.denominator == 1 for p in labels)
        assert rs.dynkin_labels(x) == (tuple(map(int, labels)) if integral else None)
        assert all(type(p) is int for p in rs.dynkin_labels(x) or ())
        for y in weights[:8]:
            assert rs.inner(x, y) == fraction_inner(rs, x, y)


@pytest.mark.parametrize("system", [make for _, make in WEIGHT_SYSTEMS],
                         ids=[name for name, _ in WEIGHT_SYSTEMS])
def test_off_span_rows_agree_with_the_weight_round_trip(system):
    # x lies on the span of the roots iff the weight with x's labels is x;
    # half unit vectors, alone and added to weights on the span, leave it
    # wherever the roots do not span the space
    rs = system()
    n, dim, rows = rs.rank, rs.space_dim, rs.off_span_rows
    assert all(any(r) for r in rows) and bool(rows) == (dim > n)
    assert not any(_dot(r, k) for r in rows for k in rs.positive_keys)
    # the dominant cone's lineality, the same kernel under the form
    lineality = rs.cone_lineality
    assert all(any(v) for v in lineality) and bool(lineality) == (dim > n)
    assert not any(rs.inner_keys(v, k) for v in lineality for k in rs.positive_keys)
    on = [rs.weight(*coeffs) for coeffs in (
        [1 - i % 3 for i in range(n)], [Fraction(2 * i + 1, 3) for i in range(n)])]
    on += [rs.rho] + list(rs.positive_roots)
    units = [Weight([Fraction(int(s == t), 2) for s in range(dim)]) for t in range(dim)]
    sides = set()
    for x in on + units + [w + u for w in on[:3] for u in units]:
        on_span = not rs.off_span(x.key)
        assert on_span == (rs.weight(rs.fw_coefficients(x)) == x)
        sides.add(on_span)
    assert sides == ({True} if dim == n else {True, False})


@PROPERTY
@given(rational_weights())
def test_self_dual_is_minus_lambda_conjugate_to_lambda(case):
    # the oracle reflects Fraction weights; off the root span only 0 is self-dual
    rs, x = case
    assert self_dual(rs, x) == (rs.dominant_representative(-x) == x)


# ---------------------------------------------------------------------------
# the integer key primitives against Fraction reflections and enumerated W


@PROPERTY
@given(rational_weights())
def test_labels_match_fw_coefficients(case):
    # a key at m times the denom scale has m times the labels, when integral
    rs, x = case
    m = lcm(*((c * rs.denom).denominator for c in x.coords))
    key = tuple(int(c * rs.denom * m) for c in x.coords)
    expected = [m * p for p in rs.fw_coefficients(x)]
    assert rs.labels(key) == (expected if all(p.denominator == 1 for p in expected)
                              else None)


@st.composite
def integral_weights(draw):
    rs = build_root_system(draw(st.sampled_from(TYPES)))
    labels = draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank))
    return rs, rs.weight(*labels)


@PROPERTY
@given(integral_weights())
def test_to_dominant_matches_dominant_representative(case):
    rs, x = case
    key = weight_key(rs, x)
    labels, dom_key, letters = rs.to_dominant(rs.labels(key), key)
    dom = rs.dominant_representative(x)
    assert labels == rs.fw_coefficients(dom) and dom_key == weight_key(rs, dom)
    assert rs.to_dominant(list(labels), dom_key) == (labels, dom_key, [])
    # the letters, first applied first, form a w with w(x) = dom, so their
    # parity is det w; w is unique when dom is regular, and the letters
    # are then a reduced word of it
    assert rs.walk(letters, key) == (dom_key, 1)
    sign = -1 if len(letters) % 2 else 1
    found = {(w.sign, w.length) for w in enumerate_weyl(rs) if act_key(w, key) == dom_key}
    assert sign in {s for s, _ in found}
    if 0 not in labels:
        assert found == {(sign, len(letters))}


@PROPERTY
@given(dominant_weights())
def test_dominant_orbit_matches_the_enumerated_group(case):
    rs, lam = case
    key = weight_key(rs, lam)
    assert rs.dominant_orbit(key, rs.labels(key)).keys() == {
        act_key(w, key) for w in enumerate_weyl(rs)}


@PROPERTY
@given(st.data())
def test_walk_matches_fraction_reflections(data):
    rs, x = data.draw(rational_weights())
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=6))
    scale = lcm(*(c.denominator for c in x.coords))
    key, scale = rs.walk(word, tuple(int(c * scale) for c in x.coords), scale)
    for i in word:
        x = reflect(rs, rs.simple_roots[i], x)
    assert Weight(tuple(Fraction(k, scale) for k in key)) == x


# ---------------------------------------------------------------------------
# the integer Weyl layer against products of reflection matrices

WEYL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1"]


def _matmul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(len(n)))
                       for j in range(len(n[0]))) for i in range(len(m)))


def _matvec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _word_matrix(rs, generators, word):
    """The oracle: s_{i1} ... s_{ik} as a product of rational matrices."""
    n = rs.space_dim
    m = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for i in word:
        m = _matmul(m, reflection_matrix(rs, generators[i]))
    return m


def _subsystem_roots(rs, kind):
    """Long roots, short roots, or the parabolic subsystem away from node k."""
    norms = {rs.inner(r, r) for r in rs.positive_roots}
    if kind == "long":
        return [r for r in rs.positive_roots if rs.inner(r, r) == max(norms)]
    if kind == "short":
        return [r for r in rs.positive_roots if rs.inner(r, r) == min(norms)]
    return [r for r, k in zip(rs.positive_roots, rs.positive_keys)
            if rs.lattice_coords(k)[kind] == 0]


@st.composite
def weyl_cases(draw):
    """(ambient, subsystem datum) over the types above, plus the outer
    E6/C4 datum on its F4 ambient."""
    desc = draw(st.sampled_from(WEYL_TYPES + ["E6/C4"]))
    if desc == "E6/C4":
        sub = outer_grading("e6_sp8").sub
        return sub.rs, sub
    rs = build_root_system(desc)
    kind = draw(st.sampled_from(["long", "short"] + list(range(rs.rank))))
    return rs, SubsystemDatum(rs, _subsystem_roots(rs, kind))


def _draw_element(data, group):
    return group[data.draw(st.integers(0, len(group) - 1))]


def _image(rs, w):
    return tuple(Fraction(k, rs.denom) for k in w.key)


@PROPERTY
@given(st.data())
def test_key_group_operations_match_matrices(data):
    rs, _ = data.draw(weyl_cases())
    group = enumerate_weyl(rs)
    a, b = _draw_element(data, group), _draw_element(data, group)
    ma = _word_matrix(rs, rs.simple_roots, a.word)
    mb = _word_matrix(rs, rs.simple_roots, b.word)
    assert _matvec(ma, rs.rho.coords) == _image(rs, a)
    assert _matvec(_matmul(ma, mb), rs.rho.coords) == _image(rs, multiply(group, a, b))
    # s_ik ... s_i1 = w^{-1}: the reflections along the reversed word
    inv = _word_matrix(rs, rs.simple_roots, reversed(a.word))
    assert _matvec(inv, rs.rho.coords) == _image(rs, invert(group, a))
    n = rs.space_dim
    for i in range(n):
        e = Weight([int(i == j) for j in range(n)])
        assert a.apply(e).coords == _matvec(ma, e.coords)
    coords = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                                min_size=n, max_size=n))
    assert a.apply(Weight(coords)).coords == _matvec(ma, Weight(coords).coords)
    assert a.matrix == ma


@PROPERTY
@given(st.data())
def test_length_and_l0_match_matrix_definitions(data):
    rs, sub = data.draw(weyl_cases())
    w = _draw_element(data, enumerate_weyl(rs))
    m = _word_matrix(rs, rs.simple_roots, w.word)
    positive = {r.coords for r in rs.positive_roots}
    images = [_matvec(m, r.coords) for r in rs.positive_roots]
    assert w.length == sum(1 for v in images if tuple(-x for x in v) in positive)
    plus0 = {r.coords for r in sub.delta0_plus}
    # alpha in Delta- with w(alpha) in Delta0+
    assert l0_of(rs, sub, w) == sum(1 for v in images if tuple(-x for x in v) in plus0)
    # subgroup elements: words in the subsystem's simple reflections
    w0 = _draw_element(data, sub.group)
    m0 = _word_matrix(rs, sub.system.simple_roots, w0.word)
    assert _matvec(m0, rs.rho.coords) == _image(rs, w0)
    images0 = [_matvec(m0, r.coords) for r in sub.delta0_plus]
    assert w0.length == sum(1 for v in images0 if tuple(-x for x in v) in plus0)


@PROPERTY
@given(st.data())
def test_factorize_round_trips(data):
    rs, sub = data.draw(weyl_cases())
    group = enumerate_weyl(rs)
    w = _draw_element(data, group)
    w0, rep = factorize(rs, sub, w)
    assert rep in minimal_coset_reps(rs, sub)
    assert contains(sub.group, w0)
    m = _matmul(_word_matrix(rs, rs.simple_roots, w0.word),
                _word_matrix(rs, rs.simple_roots, reversed(rep.word)))
    assert m == _word_matrix(rs, rs.simple_roots, w.word)


DOMINANT_REP_TYPES = ["A2", "B2", "B3", "G2", "A1xA1"]


@PROPERTY
@given(st.data())
def test_dominant_representative_is_the_dominant_orbit_point(data):
    rs = build_root_system(data.draw(st.sampled_from(DOMINANT_REP_TYPES)))
    coords = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                                min_size=rs.space_dim, max_size=rs.space_dim))
    x = Weight(coords)
    dom = rs.dominant_representative(x)
    assert rs.is_dominant(dom)
    assert any(w.apply(x) == dom for w in enumerate_weyl(rs))


# ---------------------------------------------------------------------------
# the alternating sums: one orbit walk against the enumerated group

ORBIT_TYPES = WEYL_TYPES + ["C2", "A1xB2", "A1xA2"]


@PROPERTY
@given(st.data())
def test_alternating_sum_is_the_sum_over_the_enumerated_group(data):
    # x regular dominant, anywhere (descended at the sign of its letters)
    # or on a wall, and shifted off the root span where the roots do not
    # span the space: the walk gives sum_w det w e^{w x}, read word by word
    rs = build_root_system(data.draw(st.sampled_from(ORBIT_TYPES)))
    kind = data.draw(st.sampled_from(["regular", "any", "wall"]))
    labels = data.draw(st.lists(st.integers(1 if kind == "regular" else -3, 3),
                                min_size=rs.rank, max_size=rs.rank))
    if kind == "wall":
        labels[data.draw(st.integers(0, rs.rank - 1))] = 0
    key = weight_key(rs, rs.weight(*labels))
    for v in rs.cone_lineality:
        c = data.draw(st.integers(-2, 2))
        key = tuple(k + c * x for k, x in zip(key, v))
    want = {}
    for w in enumerate_weyl(rs):
        image = act_key(w, key)
        want[image] = want.get(image, 0) + w.sign
    assert alternating_sum(rs, key_weight(rs, key)) == Character(rs, want)


@PROPERTY
@given(st.data())
def test_orbit_signs_are_det_and_the_cunning_parity(data):
    # the sign at each point w x of a regular dominant x is det w, and with
    # a subsystem datum tau(w), on every element
    rs, sub = data.draw(weyl_cases())
    labels = data.draw(st.lists(st.integers(1, 3), min_size=rs.rank, max_size=rs.rank))
    key = weight_key(rs, rs.weight(*labels))
    plain = signed_orbit(rs, key, labels, rs.weyl_order())
    twisted = signed_orbit(rs, key, labels, rs.weyl_order(), sub, -1)
    for w in enumerate_weyl(rs):
        assert plain[act_key(w, key)] == w.sign
        assert twisted[act_key(w, key)] == -cunning_parity(rs, sub, w)[0]


def _graded_sums():
    """(label, grading) of every inner grading of rank <= 3 and every outer
    instance, whose rho_eff is not its ambient rho."""
    out = [(g.label, g) for t in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]
           for g in inner_gradings(build_root_system(t))]
    return out + [(f"{f}{p}", outer_grading(f, *p)) for f, p in OUTER_INSTANCES]


def test_tau_at_rho_eff_is_the_cunning_parity_on_every_grading():
    outer = 0
    for label, grading in _graded_sums():
        rs, sub, x = grading.ambient, grading.sub, grading.rho_effective
        outer += x != rs.rho
        key = weight_key(rs, x)
        signs = signed_orbit(rs, key, rs.labels(key), rs.weyl_order(), sub)
        assert len(signs) == rs.weyl_order(), label
        for w in enumerate_weyl(rs):
            assert signs[w.apply(x).key_at(rs.denom)] == cunning_parity(rs, sub, w)[0], label
    assert outer == len(OUTER_INSTANCES)


# ---------------------------------------------------------------------------
# Spin0 does not depend on the half of the weights it is built from


@PROPERTY
@given(st.data())
def test_spin0_does_not_depend_on_the_half(data):
    rs, lam = data.draw(dominant_weights(height_scale=2))
    assume(not lam.is_zero())
    dual = rs.dominant_representative(-lam)
    ws = freudenthal_weights(rs, lam if dual == lam else lam + dual)
    half = ws.canonical_half()
    flips = data.draw(st.lists(st.booleans(), min_size=len(half), max_size=len(half)))
    flipped = [(-w if flip else w, m) for (w, m), flip in zip(half, flips)]
    canonical = spin0_character(ws)
    assert spin0_character(ws, half=flipped) == canonical
    # the half of a dominant chamber, and Spin0 is self-dual
    assert spin0_character(ws, half=enumerate_dominant_halves(ws)[-1].half) == canonical
    assert canonical == canonical.conjugate()
    with pytest.raises(InvalidDescriptor):
        spin0_character(ws, half=flipped[1:])


# ---------------------------------------------------------------------------
# Spin0 decomposed from its product with the Weyl denominator


@PROPERTY
@given(dominant_weights())
def test_spin0_decomposition_is_the_decomposed_full_product(case):
    rs, lam = case
    dual = rs.dominant_representative(-lam)
    ws = freudenthal_weights(rs, lam if dual == lam else lam + dual)
    assume(ws.dimension() <= 40)
    full = spin0_character(ws)
    try:
        expected = fold_decompose(full, rs)
    except NonModuleCharacter:
        with pytest.raises(NonModuleCharacter):
            spin0_decomposition(ws)
    else:
        assert spin0_decomposition(ws) == expected


# ---------------------------------------------------------------------------
# extreme weights and the witnesses of their halves


@PROPERTY
@given(dominant_weights())
def test_extreme_weights_are_simple_spin0_heads(case):
    rs, lam = case
    assume(weyl_dimension(rs, lam) <= 30)
    assume(frobenius_schur(rs, lam) == 1)
    ws = freudenthal_weights(rs, lam)
    dec = decompose(spin0_character(ws), rs)
    heads = dict(dec.summands)
    assert all(heads.get(x) == 1 for x in extreme_weights(ws, dec))
    for h in enumerate_dominant_halves(ws):
        assert all(rs.pairing(h.witness, a) > 0 for a in rs.simple_roots)
        assert all(rs.inner(h.witness, mu) > 0 for mu, _ in h.half)


def _halves_by_sign_vectors(ws):
    """Oracle: the half of each sign vector over all distinct weight
    directions, unfiltered, whose open region with the simple rows
    Fourier-Motzkin finds feasible; None above 10 directions, as it runs
    2^directions eliminations."""
    rs = ws.rs
    side = {}
    for k in ws.nonzero:
        p = _primitive(k)
        d = max(p, tuple(-x for x in p))
        side[k] = (d, 1 if p == d else -1)
    dirs = sorted({d for d, _ in side.values()})
    if len(dirs) > 10:
        return None
    halves = []
    for signs in product((1, -1), repeat=len(dirs)):
        sign = dict(zip(dirs, signs))
        rows = list(rs.simple_w) + [rs._matvec(tuple(s * x for x in d))
                                    for d, s in sign.items()]
        if _fm_stages(rows, rs.space_dim) is not None:
            halves.append(frozenset((k, m) for k, m in ws.nonzero.items()
                                    if side[k][1] == sign[side[k][0]]))
    return halves


def _matches_sign_vectors(ws, label):
    """Whether the oracle ran; if so, the halves and extreme weights agree."""
    halves = _halves_by_sign_vectors(ws)
    if halves is None:
        return False
    got = enumerate_dominant_halves(ws)
    assert len(got) == len(halves), label
    assert {frozenset(h.keys) for h in got} == set(halves), label
    rs = ws.rs
    sums = {tuple(sum(m * k[t] for k, m in h) // 2 for t in range(rs.space_dim))
            for h in halves}
    assert [w.coords for w in extreme_weights(ws, spin0_decomposition(ws))] == \
        sorted(key_weight(rs, k).coords for k in sums), label
    return True


def _spin_query_modules():
    """The distinct modules of the spin-queries benchmark's job list."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import spin_jobs
    return sorted({(job["type"], tuple(job["weight"])) for job in spin_jobs(21)})


def test_halves_of_the_spin_queries_are_the_feasible_sign_vectors():
    modules = _spin_query_modules()
    covered = 0
    for desc, coeffs in modules:
        rs = build_root_system(desc)
        covered += _matches_sign_vectors(freudenthal_weights(rs, rs.weight(*coeffs)),
                                         f"{desc} {coeffs}")
    # 66 of the 69 have at most 10 directions: B4 V_2w1 has 16, and
    # C4 V_w2 and F4 V_w1 have 12
    assert covered >= 60


def test_halves_of_the_inner_gradings_are_the_feasible_sign_vectors():
    left_out = [g.label for fam, rank in simple_types(4)
                for g in inner_gradings(build_root_system(fam, rank))
                if not _matches_sign_vectors(g.delta1, g.label)]
    # 14 directions: 2^14 eliminations would take seconds
    assert left_out == ["F4/alpha4"]


def test_halves_of_the_catalog_gradings_are_the_feasible_sign_vectors():
    left_out = [name for name, make in sorted(grading_catalog().items())
                if not _matches_sign_vectors(make().delta1, name)]
    # 20 and 14 directions
    assert left_out == ["E6/C4", "F4/A1xC3"]


def test_halves_of_the_rank_5_inner_gradings_are_the_feasible_sign_vectors():
    # a g0 of rank below the dimension of its space, as a Hermitian one
    # with its centre is, starts the split with a lineality space, and the
    # cuts that see it move every ray along it
    covered = {g.label: g.g0.rank < g.g0.space_dim
               for fam, rank in simple_types(5) if rank == 5
               for g in inner_gradings(build_root_system(fam, rank))
               if _matches_sign_vectors(g.delta1, g.label)}
    # the other eight have 12 to 15 directions
    assert sorted(covered) == ["A5/alpha1", "A5/alpha2", "A5/alpha3", "A5/alpha4",
                               "A5/alpha5", "B5/alpha1", "B5/alpha5", "C5/alpha1",
                               "C5/alpha4", "D5/alpha1", "D5/alpha4", "D5/alpha5"]
    assert sum(covered.values()) == 9
