"""Property tests: the folding and dominant-only routes against the
division-based Weyl character formula, on random dominant weights."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinchar import (
    Weight,
    build_root_system,
    decompose,
    enumerate_weyl,
    freudenthal_weights,
    frobenius_schur,
    irreducible_character,
)
from spinchar.charring import _order_key, key_weight

TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "A1xA1"]

# fundamental-weight coefficient sums, small enough that the
# division oracle stays fast
HEIGHT = {1: 4, 2: 3, 3: 2}

PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def dominant_weights(draw, height_scale=1):
    desc = draw(st.sampled_from(TYPES))
    rs = build_root_system(desc)
    bound = max(1, HEIGHT[rs.rank] // height_scale)
    coeffs = draw(st.lists(st.integers(0, bound), min_size=rs.rank, max_size=rs.rank)
                  .filter(lambda c: sum(c) <= bound))
    return rs, rs.weight(*coeffs)


def greedy_decomposition(ch, rs):
    """Oracle: peel off the irreducible of the highest remaining weight."""
    okey = _order_key(rs)
    rem = dict(ch.terms)
    out = []
    while rem:
        lead = max(rem, key=okey)
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
    assert decompose(product, rs).summands == greedy_decomposition(product, rs)


@PROPERTY
@given(dominant_weights())
def test_freudenthal_matches_weyl_division(case):
    rs, lam = case
    assert freudenthal_weights(rs, lam).character() == irreducible_character(rs, lam)


@PROPERTY
@given(dominant_weights())
def test_frobenius_schur_matches_division_formula(case):
    rs, lam = case
    # trivial multiplicity of the doubled division character, as an
    # alternating sum over the enumerated Weyl group
    doubled = irreducible_character(rs, lam).stretch(2)
    rho = rs.rho
    expected = sum(w.sign * doubled.coefficient(w.apply(rho) - rho)
                   for w in enumerate_weyl(rs))
    assert frobenius_schur(rs, lam) == expected
