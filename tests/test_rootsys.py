import random
from fractions import Fraction

import pytest

from spinchar import (
    InvalidDescriptor,
    Weight,
    build_root_system,
    bourbaki_numbering,
    dual_root_system,
    parse_descriptor,
    special_elements,
)
from spinchar import rootsys
from spinchar.rootsys import (
    HALF, RootSystem, root_system_from_json, simple_types, subsystem)
from spinchar.weyl import enumerate_weyl
from oracles import reflect


POSITIVE_COUNTS = [
    ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("B4", 16),
    ("C2", 4), ("C3", 9), ("D3", 6), ("D4", 12), ("G2", 6), ("F4", 24),
    ("E6", 36),
]


@pytest.mark.parametrize("desc,count", POSITIVE_COUNTS)
def test_positive_root_counts(desc, count):
    rs = build_root_system(desc)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("fam,rank", simple_types(4))
def test_weyl_order_from_exponents_counts_the_group(fam, rank):
    # |W| = prod (m_i + 1) over the exponents, against the enumerated group
    rs = build_root_system(fam, rank)
    assert rs.weyl_order() == len(enumerate_weyl(rs))


def test_exceptional_weyl_orders():
    orders = {desc: build_root_system(desc).weyl_order() for desc in ("E6", "E7", "E8")}
    assert orders == {"E6": 51840, "E7": 2903040, "E8": 696729600}


RANK_LE_6 = (["A%d" % n for n in range(1, 7)] + ["B%d" % n for n in range(2, 7)]
             + ["C%d" % n for n in range(2, 7)] + ["D%d" % n for n in range(3, 7)]
             + ["G2", "F4", "E6"])


@pytest.mark.parametrize("desc", RANK_LE_6)
def test_rho_pairs_to_one_on_simples(desc):
    rs = build_root_system(desc)
    for a in rs.simple_roots:
        assert rs.pairing(rs.rho, a) == 1


def test_rho_is_sum_of_fundamental_weights():
    for desc in ["B3", "F4", "A2", "G2"]:
        rs = build_root_system(desc)
        assert rs.rho == rs.weight(*([1] * rs.rank))


def test_highest_root_normalization():
    for desc in ["A2", "B3", "C3", "D4", "G2", "F4", "E6"]:
        rs = build_root_system(desc)
        theta = rs.highest_root()
        assert rs.inner(theta, theta) == 2


def test_f4_distinguished_weights():
    # F4 numbering puts the short simple roots first
    rs = build_root_system("F4")
    se = special_elements(rs)
    assert rs.fw_coefficients(se.theta) == (0, 0, 0, 1)
    assert rs.fw_coefficients(se.theta_s) == (1, 0, 0, 0)
    assert rs.fw_coefficients(se.rho_s) == (1, 1, 0, 0)
    assert se.coxeter_number == 12
    assert bourbaki_numbering(rs) == [4, 3, 2, 1]


def test_c_family_distinguished_weights():
    for n in (2, 3, 4):
        rs = build_root_system("C", n)
        se = special_elements(rs)
        assert rs.fw_coefficients(se.theta) == (2,) + (0,) * (n - 1)
        assert rs.fw_coefficients(se.theta_s) == (0, 1) + (0,) * (n - 2)
        assert rs.fw_coefficients(se.rho_s) == (1,) * (n - 1) + (0,)
        assert se.coxeter_number == 2 * n


def test_b_family_distinguished_weights():
    for n in (3, 4):
        rs = build_root_system("B", n)
        se = special_elements(rs)
        assert rs.fw_coefficients(se.theta) == (0, 1) + (0,) * (n - 2)
        assert rs.fw_coefficients(se.theta_s) == (1,) + (0,) * (n - 1)
        assert rs.fw_coefficients(se.rho_s) == (0,) * (n - 1) + (1,)
    # rank 2 is the known exception: the highest root is twice the
    # spinor fundamental weight
    b2 = build_root_system("B2")
    se = special_elements(b2)
    assert b2.fw_coefficients(se.theta) == (0, 2)
    assert b2.fw_coefficients(se.theta_s) == (1, 0)
    assert se.coxeter_number == 4


def test_simply_laced_short_conventions():
    rs = build_root_system("A3")
    se = special_elements(rs)
    assert se.rho_s.is_zero()
    assert se.simple_short == ()
    assert se.theta_s == se.theta


@pytest.mark.parametrize("desc", ["B2", "B3", "B4", "C2", "C3", "C4", "F4"])
def test_even_pairing_on_short_coroots(desc):
    # (rho + rho_s, mu~) is even for every short root mu when the squared
    # length ratio is 2
    rs = build_root_system(desc)
    se = special_elements(rs)
    shifted = rs.rho + se.rho_s
    for mu in rs.short_roots():
        value = rs.pairing(shifted, mu)
        assert value.denominator == 1 and int(value) % 2 == 0


def test_dual_system_of_b_is_c():
    b3 = build_root_system("B3")
    dual, mapping = dual_root_system(b3)
    c3 = build_root_system("C3")
    assert dual.cartan_matrix == c3.cartan_matrix
    assert dual.type_label == (("C", 3),)
    # long roots fixed, short roots doubled
    for root, image in mapping.items():
        if b3.inner(root, root) == 2:
            assert image == root
        else:
            assert image == 2 * root


def test_dual_system_involution_on_cartan():
    for desc in ["B2", "C3", "F4", "G2"]:
        rs = build_root_system(desc)
        dual, _ = dual_root_system(rs)
        again, _ = dual_root_system(dual)
        assert again.cartan_matrix == rs.cartan_matrix


def test_dual_rho_shift():
    for desc, factor in [("B3", 1), ("C3", 1), ("F4", 1), ("G2", 2)]:
        rs = build_root_system(desc)
        se = special_elements(rs)
        dual, _ = dual_root_system(rs)
        assert dual.rho == rs.rho + factor * se.rho_s


def test_short_dominant_coroot_is_dual_highest_root():
    for desc in ["B3", "C4", "F4", "G2"]:
        rs = build_root_system(desc)
        se = special_elements(rs)
        dual, mapping = dual_root_system(rs)
        assert mapping[se.theta_s] == dual.highest_root()
        assert rs.pairing(rs.rho, se.theta_s) == se.coxeter_number - 1


def test_simply_laced_dual_is_isomorphic():
    a2 = build_root_system("A2")
    dual, _ = dual_root_system(a2)
    assert dual.cartan_matrix == a2.cartan_matrix


def test_parse_descriptors():
    assert parse_descriptor("B2") == [("B", 2)]
    assert parse_descriptor("A1xA1") == [("A", 1), ("A", 1)]
    assert parse_descriptor("so5") == [("B", 2)]
    assert parse_descriptor("so6") == [("D", 3)]
    assert parse_descriptor("sp6") == [("C", 3)]
    assert parse_descriptor("sl4") == [("A", 3)]
    assert parse_descriptor("e6") == [("E", 6)]


@pytest.mark.parametrize("bad", ["H3", "B1", "D2", "F5", "G3", "E5", "", "B0"])
def test_invalid_descriptors_rejected(bad):
    with pytest.raises(InvalidDescriptor):
        build_root_system(bad)


def test_rank_limit_rejection():
    with pytest.raises(InvalidDescriptor):
        build_root_system("B99")


def test_product_system():
    rs = build_root_system("A1xB2")
    assert rs.type_label == (("A", 1), ("B", 2))
    assert len(rs.positive_roots) == 5
    assert rs.space_dim == 4
    # block-diagonal form keeps factors orthogonal
    assert rs.inner(rs.simple_roots[0], rs.simple_roots[1]) == 0


def test_a_product_reuses_its_cached_simple_factors(monkeypatch):
    # once A1 and B2 are built, A1xB2 constructs only the product itself
    a1, b2 = build_root_system("A1"), build_root_system("B2")
    monkeypatch.setattr(rootsys, "_BUILD_CACHE", {
        k: v for k, v in rootsys._BUILD_CACHE.items() if k != (("A", 1), ("B", 2))})
    built = []
    init = rootsys.RootSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rootsys.RootSystem, "__init__", counted)
    rs = build_root_system("A1xB2")
    assert built == [rs]
    assert build_root_system("A1") is a1 and build_root_system("B2") is b2


# a fundamental weight outside the root lattice of each type
OUTSIDE_ROOT_LATTICE = {
    "A1": (1,), "A2": (1, 0), "B2": (0, 1), "C2": (1, 0), "A3": (1, 0, 0),
    "B3": (0, 0, 1), "C3": (1, 0, 0), "D3": (1, 0, 0), "A1xA1": (1, 0),
}


def test_root_lattice_membership():
    b2 = build_root_system("B2")
    assert b2.in_root_lattice(b2.weight(1, 0))       # the short root e1
    assert not b2.in_root_lattice(b2.weight(0, 1))   # the spinor weight
    assert b2.in_root_lattice(b2.weight(0, 2))
    for desc in [f"{fam}{rank}" for fam, rank in simple_types(3)] + ["A1xA1"]:
        rs = build_root_system(desc)
        assert rs.in_root_lattice(2 * rs.rho), desc  # the sum of the positive roots
        assert not rs.in_root_lattice(HALF * rs.fundamental_weights[0]), desc  # label 1/2
        if desc == "G2":
            # the weight lattice is the root lattice; (1, 1, 1) is off the
            # sum-zero plane the roots span, with integral labels (0, 0)
            assert rs.in_root_lattice(rs.weight(1, 0))
            assert not rs.in_root_lattice(Weight((1, 1, 1)))
        else:
            assert not rs.in_root_lattice(rs.weight(*OUTSIDE_ROOT_LATTICE[desc])), desc


def test_dominant_representative():
    b2 = build_root_system("B2")
    lam = b2.weight(1, 1)
    w = -lam
    dom = b2.dominant_representative(w)
    assert b2.is_dominant(dom)
    assert dom == lam  # -1 is in the Weyl group of B2


def test_json_round_trip():
    rs = build_root_system("G2")
    data = rs.to_json()
    back = root_system_from_json(data)
    assert back.cartan_matrix == rs.cartan_matrix
    assert back.type_label == rs.type_label
    assert [w.coords for w in back.fundamental_weights] == [
        w.coords for w in rs.fundamental_weights]


@pytest.mark.parametrize("desc", ["F4xA1", "A1xF4", "G2xA2xA1"]
                         + [f"{fam}{rank}" for fam, rank in simple_types(4)])
def test_a_json_round_trip_keeps_the_descriptor_and_numbering(desc):
    # the factors are read in the order their components come, and each
    # node is numbered where it stands
    rs = build_root_system(desc)
    back = root_system_from_json(rs.to_json())
    assert back.descriptor() == rs.descriptor()
    assert bourbaki_numbering(back) == bourbaki_numbering(rs)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_a_permuted_f4_basis_is_numbered_as_built(seed):
    # reversed (seed None) or shuffled, each simple root keeps its number
    f4 = build_root_system("F4")
    perm = list(range(4))[::-1]
    if seed is not None:
        random.Random(seed).shuffle(perm)
    permuted = RootSystem([f4.simple_roots[i] for i in perm], f4.form)
    assert permuted.descriptor() == "F4"
    assert bourbaki_numbering(permuted) == [bourbaki_numbering(f4)[i] for i in perm]


def test_dependent_simple_roots_are_an_invalid_descriptor():
    # A2 plus a third simple root alpha1 + alpha2: the Cartan matrix is singular
    data = build_root_system("A2").to_json()
    data["simple_roots"] = data["simple_roots"] + [["1", "0", "-1"]]
    with pytest.raises(InvalidDescriptor, match="linearly dependent"):
        root_system_from_json(data)


def test_wrong_number_of_weight_coefficients_is_an_invalid_descriptor():
    rs = build_root_system("B2")
    with pytest.raises(InvalidDescriptor, match="expected 2 coefficients, got 3"):
        rs.weight(1, 0, 0)


CLOSURE_TYPES = [f"{fam}{rank}" for fam, rank in simple_types(8)] + ["A1xA1", "A1xB2", "G2xA2"]


@pytest.mark.parametrize("desc", CLOSURE_TYPES)
def test_closure_against_fraction_reflections(desc):
    rs = build_root_system(desc)
    roots = set(rs.positive_roots) | {-r for r in rs.positive_roots}
    for a in rs.simple_roots:
        # s_a(-r) = -s_a(r), so the positive roots decide stability
        assert {reflect(rs, a, r) for r in rs.positive_roots} <= roots
    # |Delta+| is the sum of the exponents
    assert len(rs.positive_roots) == sum(rs.exponents())
    dominant = [r for r in rs.positive_roots
                if all(rs.pairing(r, a) >= 0 for a in rs.simple_roots)]
    top = max(rs.inner(r, r) for r in dominant)
    longest = [r for r in dominant if rs.inner(r, r) == top]
    if rs.is_simple():
        assert longest == [rs.highest_root()]
    else:
        with pytest.raises(InvalidDescriptor):
            rs.highest_root()


@pytest.mark.parametrize("fam,rank", simple_types(8))
def test_a_shuffled_simple_basis_reports_its_type(fam, rank):
    # read off the Cartan matrix under some ordering. Where the given order
    # is a type's own numbering, that type is reported: a chain of three
    # nodes is D3 when its middle node comes first and A3 otherwise, and a
    # double bond of two nodes is B2 with the long root first, C2 with the
    # short root first
    rs = build_root_system(fam, rank)
    for seed in range(4):
        roots = list(rs.simple_roots)
        random.Random(seed).shuffle(roots)
        expected = (fam, rank)
        if rank == 3 and fam in "AD":
            expected = ("D" if all(rs.inner(roots[0], r) for r in roots[1:]) else "A", 3)
        elif rank == 2 and fam in "BC":
            expected = ("B" if rs.inner(roots[0], roots[0]) > rs.inner(roots[1], roots[1])
                        else "C", 2)
        assert RootSystem(roots, rs.form).type_label == (expected,), roots


def test_a_given_order_is_read_in_a_type_it_numbers():
    b2 = build_root_system("B2")
    long, short = b2.simple_roots
    assert RootSystem([long, short], b2.form).type_label == (("B", 2),)
    assert RootSystem([short, long], b2.form).type_label == (("C", 2),)
    assert dual_root_system(b2)[0].type_label == (("C", 2),)
    d3 = build_root_system("D3")
    middle, a, b = d3.simple_roots
    assert RootSystem([a, middle, b], d3.form).type_label == (("A", 3),)
    assert RootSystem([middle, a, b], d3.form).type_label == (("D", 3),)
    assert RootSystem([a, b, middle], d3.form).type_label == (("A", 3),)


def test_a_root_system_types_itself_and_takes_no_type_label():
    # F4's basis, once accepted with the label B4, read B4 and |W| = 384
    f4 = build_root_system("F4")
    with pytest.raises(TypeError):
        RootSystem(f4.simple_roots, f4.form, type_label=[("B", 4)])
    rs = RootSystem(f4.simple_roots, f4.form)
    assert rs.descriptor() == "F4"
    assert rs.weyl_order() == 1152
    assert bourbaki_numbering(rs) == [4, 3, 2, 1]


def test_numbering_reads_the_typing_made_at_construction(monkeypatch):
    f4 = build_root_system("F4")
    perm = [2, 0, 3, 1]
    systems = [f4, build_root_system("F4xA1"),
               RootSystem([f4.simple_roots[i] for i in perm], f4.form)]

    def no_matching(*args):
        raise AssertionError("bourbaki_numbering ran the matcher")
    monkeypatch.setattr(rootsys, "_relabellings", no_matching)
    assert bourbaki_numbering(systems[0]) == [4, 3, 2, 1]
    assert bourbaki_numbering(systems[1]) == [4, 3, 2, 1, 5]
    assert bourbaki_numbering(systems[2]) == [[4, 3, 2, 1][i] for i in perm]


def test_a_single_length_dual_is_the_system_itself():
    e6 = build_root_system("E6")
    dual, mapping = dual_root_system(e6)
    assert dual is e6
    assert all(mapping[r] == r for r in e6.positive_roots)


def test_subsystem_refusals():
    a2 = build_root_system("A2")
    a1, a2_ = a2.simple_roots
    # +-S is all of A2, but S is not closed: no positive system
    with pytest.raises(InvalidDescriptor, match="not the positive system"):
        subsystem(a2, [a1, a2_, -(a1 + a2_)])
    g2 = build_root_system("G2")
    with pytest.raises(InvalidDescriptor, match="not stable under its own reflections"):
        subsystem(g2, g2.simple_roots)
    # <b, e1~> = 1/2 and <e1, b~> = 8/17 for b = (1/4, 1): both reflections
    # would fix the other root if the coefficients were rounded
    b2 = build_root_system("B2")
    with pytest.raises(InvalidDescriptor, match="not stable under its own reflections"):
        subsystem(b2, [Weight((1, 0)), Weight((Fraction(1, 4), 1))])
