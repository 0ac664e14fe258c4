"""Symmetric-pair gradings and Spin of the isotropy module.

Inner gradings split the roots by parity of the coefficient at a pivot
simple root (possible exactly when the pivot's coefficient in the highest
root is 1 or 2). Outer gradings are data: each of the four families below
carries its restricted-root system, realized in the standard coordinates
of the associated diagram subalgebra, where all the character computations
then take place.

For every grading, Spin(g1) is computed twice: from the closed formula
(highest weights w^{-1} rho - rho0 over the minimal coset section) and by
decomposing the reduced Spin character of the isotropy weights, read off
the dominant part of its product with the Weyl denominator of g0. The two
routes must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError, InvalidDescriptor, NonModuleCharacter, NotClosed
from .charring import (
    DEFAULT_TERM_BUDGET,
    WeightSystem,
    alternating_sum,
    exact_divide,
    invariant_poincare,
    plus_product,
)
from .rootsys import (
    HALF,
    RootSystem,
    Weight,
    build_root_system,
    simple_types,
    special_elements,
)
from .spinmod import enumerate_dominant_halves, spin0_decomposition
from .weyl import DEFAULT_WEYL_BUDGET, SubsystemDatum, cunning_parity, minimal_coset_reps


class Z2Grading:
    """A symmetric-pair datum on a common Cartan coordinate space.

    ``ambient``: the root system whose Weyl group drives the coset section
    (the full algebra for inner type, the associated diagram subalgebra in
    the restricted coordinates for outer type). ``sub`` realizes the
    positive roots of g0 there; ``delta1`` is the weight system of g1 over
    the realized g0.
    """

    def __init__(self, kind, label, ambient, delta0_plus, delta1_pairs,
                 zero_mult, rho_effective, metadata=None):
        self.kind = kind
        self.label = label
        self.ambient = ambient
        self.sub = SubsystemDatum(ambient, delta0_plus)
        self.g0 = self.sub.system
        self.delta1 = WeightSystem(self.g0, delta1_pairs, zero_mult)
        self.rho_effective = rho_effective
        self.metadata = metadata or {}

    @property
    def rho0(self) -> Weight:
        return self.g0.rho

    def __repr__(self):
        return f"Z2Grading({self.label}, {self.kind})"


# ---------------------------------------------------------------------------
# inner gradings


def kac_marks(rs: RootSystem):
    """Coefficients of the highest root over the simple roots."""
    theta = rs.highest_root()
    return rs.root_coords(theta)


def _parity_condition(rs: RootSystem, parity):
    """Root sums must respect the Z/2 split: checked over all pairs, on
    the integer root coordinates over the simple roots."""
    index = {}
    for r in rs.positive_roots:
        c = rs.root_coords(r)
        index[c] = index[tuple(-x for x in c)] = parity(r)
    # (c1, c2) and (-c1, -c2) give opposite sums of one parity, and the
    # positive roots sit at the even places: c1 > 0 suffices
    for c1, p1 in list(index.items())[::2]:
        for c2, p2 in index.items():
            s = tuple(a + b for a, b in zip(c1, c2))
            if s in index and index[s] != (p1 + p2) % 2:
                raise InvalidDescriptor("parity condition fails on a root sum")


def inner_grading(rs: RootSystem, pivot: int) -> Z2Grading:
    """The inner grading splitting roots by coefficient parity at a pivot.

    ``pivot`` is 1-based. Marks 1 and 2 are the only involutive cases; a
    mark-1 pivot leaves a one-dimensional centre (Hermitian case), a
    mark-2 pivot a semisimple fixed subalgebra.
    """
    if not rs.is_simple():
        raise InvalidDescriptor("inner gradings are built per simple factor")
    if not 1 <= pivot <= rs.rank:
        raise InvalidDescriptor(f"pivot {pivot} out of range")
    mark = kac_marks(rs)[pivot - 1]
    if mark > 2:
        raise InvalidDescriptor(
            f"pivot {pivot} has mark {mark}; no involution there")

    def parity(root: Weight) -> int:
        return rs.root_coords(root)[pivot - 1] % 2

    _parity_condition(rs, parity)
    delta0_plus = [r for r in rs.positive_roots if parity(r) == 0]
    delta1_plus = [r for r in rs.positive_roots if parity(r) == 1]
    delta1_pairs = [(r, 1) for r in delta1_plus] + [(-r, 1) for r in delta1_plus]
    grading = Z2Grading(
        kind="inner",
        label=f"{rs.descriptor()}/alpha{pivot}",
        ambient=rs,
        delta0_plus=delta0_plus,
        delta1_pairs=delta1_pairs,
        zero_mult=0,
        rho_effective=rs.rho,
        metadata={"pivot": pivot, "mark": int(mark)},
    )
    span_rank = grading.g0.rank
    if mark == 2 and span_rank != rs.rank:
        raise InvalidDescriptor("mark-2 grading should have full-rank Delta0")
    if mark == 1 and span_rank != rs.rank - 1:
        raise InvalidDescriptor("mark-1 grading should leave a 1-dim centre")
    grading.metadata["hermitian"] = (mark == 1)
    grading.metadata["g0"] = grading.g0.descriptor() + ("xT1" if mark == 1 else "")
    return grading


def involutive_pivots(rs: RootSystem):
    """The 1-based pivots of mark 1 or 2, where an inner grading exists."""
    return [i for i, mark in enumerate(kac_marks(rs), start=1) if mark <= 2]


def inner_gradings(rs: RootSystem):
    """All inner gradings of a simple system, one per involutive pivot."""
    return [inner_grading(rs, i) for i in involutive_pivots(rs)]


# ---------------------------------------------------------------------------
# outer gradings (restricted-root data per family)


def _eps_weight(dim, *pairs) -> Weight:
    v = [Fraction(0)] * dim
    for i, c in pairs:
        v[i] = Fraction(c)
    return Weight(v)


def _outer_sl_even(n: int):
    """(sl_{2n}, so_{2n}): restricted roots in the standard sp_{2n} space."""
    if n < 2:
        raise InvalidDescriptor("sl_even family needs n >= 2")
    ambient = build_root_system("C", n)
    delta0_plus = [r for r in ambient.positive_roots
                   if ambient.inner(r, r) == 1]  # the D_n part {e_i +- e_j}
    delta1_pairs = [(r, 1) for r in ambient.positive_roots]
    delta1_pairs += [(-r, 1) for r in ambient.positive_roots]
    return {
        "label": f"SL{2*n}/SO{2*n}",
        "g": f"sl{2*n}", "g0": f"so{2*n}",
        "ambient": ambient,
        "delta0_plus": delta0_plus,
        "delta1_pairs": delta1_pairs,
        "zero_mult": n - 1,
        "count_roots_g": 2 * n * (2 * n - 1),
        "diagram": {"g0bar": f"sp{2*n}", "g1bar": "little adjoint V_w2"},
    }


def _outer_so_odd_odd(n: int, m: int):
    """(so_{2n+2m+2}, so_{2n+1} + so_{2m+1}) in the standard B_{n+m} space."""
    if n < 1 or m < 1:
        raise InvalidDescriptor("so_odd_odd family needs n, m >= 1")
    ambient = build_root_system("B", n + m)
    dim = ambient.space_dim
    first = range(n)
    second = range(n, n + m)
    delta0_plus = []
    for block in (first, second):
        idx = list(block)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                delta0_plus.append(_eps_weight(dim, (idx[a], 1), (idx[b], 1)))
                delta0_plus.append(_eps_weight(dim, (idx[a], 1), (idx[b], -1)))
            delta0_plus.append(_eps_weight(dim, (idx[a], 1)))
    delta1_half = []
    for i in first:
        for k in second:
            for s in (1, -1):
                delta1_half.append(_eps_weight(dim, (i, 1), (k, s)))
    for i in first:
        delta1_half.append(_eps_weight(dim, (i, 1)))
    for k in second:
        delta1_half.append(_eps_weight(dim, (k, 1)))
    delta1_pairs = [(w, 1) for w in delta1_half] + [(-w, 1) for w in delta1_half]
    return {
        "label": f"SO{2*n+2*m+2}/SO{2*n+1}xSO{2*m+1}",
        "g": f"so{2*n+2*m+2}", "g0": f"so{2*n+1}+so{2*m+1}",
        "ambient": ambient,
        "delta0_plus": delta0_plus,
        "delta1_pairs": delta1_pairs,
        "zero_mult": 1,
        "count_roots_g": 2 * (n + m + 1) * (n + m),
        "diagram": {"g0bar": f"so{2*(n+m)+1}", "g1bar": "little adjoint V_w1"},
    }


def _outer_e6_sp8():
    """(e6, sp8): restricted roots in the standard F4 coordinates."""
    ambient = build_root_system("F", 4)
    dim = 4
    long_in_h = []
    for (i, j) in ((0, 1), (2, 3)):
        for s in (1, -1):
            long_in_h.append(_eps_weight(dim, (i, 1), (j, s)))
    shorts_plus = [r for r in ambient.positive_roots if ambient.inner(r, r) == 1]
    delta0_plus = shorts_plus + long_in_h
    long_in_h_set = {w.coords for w in long_in_h} | {(-w).coords for w in long_in_h}
    delta1_half = list(shorts_plus)
    for r in ambient.positive_roots:
        if ambient.inner(r, r) == 2 and r.coords not in long_in_h_set:
            delta1_half.append(r)
    delta1_pairs = [(w, 1) for w in delta1_half] + [(-w, 1) for w in delta1_half]
    return {
        "label": "E6/C4",
        "g": "e6", "g0": "sp8",
        "ambient": ambient,
        "delta0_plus": delta0_plus,
        "delta1_pairs": delta1_pairs,
        "zero_mult": 2,
        "count_roots_g": 72,
        "diagram": {"g0bar": "f4", "g1bar": "little adjoint V_w1"},
    }


def _outer_sl_odd(n: int):
    """(sl_{2n+1}, so_{2n+1}): the isolated diagram case, W' = {id}."""
    if n < 2:
        raise InvalidDescriptor("sl_odd family needs n >= 2 in this realization")
    ambient = build_root_system("B", n)
    se = special_elements(ambient)
    delta0_plus = list(ambient.positive_roots)
    delta1_half = list(ambient.positive_roots)
    delta1_half += [2 * r for r in se.rs.short_roots()]
    delta1_pairs = [(w, 1) for w in delta1_half] + [(-w, 1) for w in delta1_half]
    return {
        "label": f"SL{2*n+1}/SO{2*n+1}",
        "g": f"sl{2*n+1}", "g0": f"so{2*n+1}",
        "ambient": ambient,
        "delta0_plus": delta0_plus,
        "delta1_pairs": delta1_pairs,
        "zero_mult": n,
        "count_roots_g": 2 * n * (2 * n + 1),
        "diagram": {"g0bar": f"so{2*n+1}", "g1bar": "V_{2w1}"},
    }


OUTER_FAMILIES = {
    "sl_even": _outer_sl_even,
    "so_odd_odd": _outer_so_odd_odd,
    "e6_sp8": _outer_e6_sp8,
    "sl_odd": _outer_sl_odd,
}

# the (family, params) instances the catalog, suites and tables build
OUTER_INSTANCES = (
    ("sl_even", (2,)), ("sl_even", (3,)),
    ("so_odd_odd", (1, 1)), ("so_odd_odd", (2, 1)),
    ("e6_sp8", ()), ("sl_odd", (2,)),
)


def outer_grading(family: str, *params) -> Z2Grading:
    """Build one of the four outer families from its restricted-root data.

    The data is validated against the root-count bookkeeping
    #Delta = #Delta0 + #Delta1, the relation rho = rho0 + rho1 in the
    restricted space, and the zero multiplicity rk g - rk g0.
    """
    if family not in OUTER_FAMILIES:
        raise InvalidDescriptor(f"unknown outer family {family!r}")
    data = OUTER_FAMILIES[family](*params)
    ambient = data["ambient"]
    n_delta0 = 2 * len(data["delta0_plus"])
    n_delta1 = len(data["delta1_pairs"])
    if n_delta0 + n_delta1 != data["count_roots_g"]:
        raise InvalidDescriptor(
            f"{data['label']}: #Delta0 + #Delta1 = {n_delta0}+{n_delta1}"
            f" != #Delta = {data['count_roots_g']}")
    se = special_elements(ambient)
    rho_eff = ambient.rho + se.rho_s if family != "sl_odd" else None
    grading = Z2Grading(
        kind="outer",
        label=data["label"],
        ambient=ambient,
        delta0_plus=data["delta0_plus"],
        delta1_pairs=data["delta1_pairs"],
        zero_mult=data["zero_mult"],
        rho_effective=rho_eff,  # recomputed below as rho0 + rho1
        metadata={"family": family, "params": params, "g": data["g"],
                  "g0": data["g0"], "diagram": data["diagram"]},
    )
    # rho1 = half-sum of a half of Delta1, multiplicities included
    total = Weight((0,) * ambient.space_dim)
    for w, m in grading.delta1.canonical_half():
        total = total + Fraction(m) * w
    rho1 = HALF * total
    rho01 = grading.rho0 + rho1
    if grading.rho_effective is None:
        grading.rho_effective = rho01
    elif grading.rho_effective != rho01:
        raise InvalidDescriptor(
            f"{data['label']}: rho0 + rho1 != rho(g0bar) + rho_s(g0bar)")
    return grading


# ---------------------------------------------------------------------------
# Spin(g1)


class SpinSummand:
    def __init__(self, rep, lam, dimension):
        self.rep = rep          # minimal coset representative, an ambient WeylElement
        self.lam = lam          # highest weight, ambient coordinates
        self.dimension = dimension

    def to_json(self, grading):
        g0 = grading.g0
        return {
            "lambda": [str(c) for c in self.lam.coords],
            "fw": [str(c) for c in g0.fw_coefficients(self.lam)],
            "dimension": self.dimension,
            "w_action": [[str(x) for x in row] for row in self.rep.matrix],
        }


class SpinDecomposition:
    def __init__(self, grading, summands, decomposition):
        self.grading = grading
        self.summands = summands
        self.decomposition = decomposition

    def total_dimension(self):
        return sum(s.dimension for s in self.summands)

    def is_multiplicity_free(self):
        return self.decomposition.is_multiplicity_free()

    def __len__(self):
        return len(self.summands)


def spin_g1(grading: Z2Grading, budget: int = DEFAULT_WEYL_BUDGET,
            term_budget: int = DEFAULT_TERM_BUDGET) -> SpinDecomposition:
    """Spin of the isotropy module, by the coset formula and by decomposing
    the reduced Spin character (its product with the Weyl denominator of
    g0, pruned to the strictly dominant chamber); a mismatch raises."""
    lams = {}
    for rep in minimal_coset_reps(grading.ambient, grading.sub, budget):
        lam = rep.apply_inverse(grading.rho_effective) - grading.rho0
        if not grading.g0.is_dominant(lam):
            raise ConsistencyError(f"coset weight {lam} is not dominant for g0")
        if lam.coords in lams:
            raise ConsistencyError(f"coset weight {lam} repeats")
        lams[lam.coords] = (rep, lam)
    dec = spin0_decomposition(grading.delta1, budget, term_budget)
    formula = sorted(lams)
    direct = sorted(lam.coords for lam, _ in dec)
    if formula != direct or not dec.is_multiplicity_free():
        raise ConsistencyError(
            f"{grading.label}: coset formula and character decomposition disagree:"
            f" {formula} vs {direct}")
    # the routes agree, so each summand's dimension is the decomposition's
    dims = {lam.coords: d for (lam, _), d in zip(dec.summands, dec.dimensions)}
    summands = [SpinSummand(rep, lam, dims[coords])
                for coords, (rep, lam) in lams.items()]
    result = SpinDecomposition(grading, summands, dec)
    expected_dim = 2 ** ((grading.delta1.dimension() - grading.delta1.zero_mult) // 2)
    if result.total_dimension() != expected_dim:
        raise ConsistencyError(
            f"{grading.label}: Spin0 dimensions sum to {result.total_dimension()},"
            f" expected {expected_dim}")
    return result


def verify_tau_identity(rs: RootSystem, sub: SubsystemDatum, delta1_plus,
                        budget: int = DEFAULT_WEYL_BUDGET,
                        term_budget: int = DEFAULT_TERM_BUDGET,
                        rho: Weight = None) -> bool:
    """The twisted denominator identity: sum over W of tau(w) e^{w rho},
    a full walk over W, divided exactly by the Delta0+ root binomials, must
    equal the plus product over Delta1+ (an inexact division fails). With
    no zero divisors in the group algebra this holds exactly when the
    expanded identity does. For partitions of a restricted system, pass the
    restricted rho = rho0 + rho1; the default is the system's own Weyl
    vector, which is the inner-type case.
    """
    lhs = alternating_sum(rs, rho if rho is not None else rs.rho, budget,
                          sign=lambda w: cunning_parity(rs, sub, w)[0])
    try:
        quotient = exact_divide(lhs, sub.delta0_plus, rs, term_budget)
    except NonModuleCharacter:
        return False
    pairs = [(w, 1) for w in delta1_plus]
    return quotient == plus_product(rs, pairs, term_budget=term_budget)


def casimir_check(grading: Z2Grading, spin: SpinDecomposition = None) -> Fraction:
    """The quadratic Casimir of g0 acts on every Spin summand by the same
    scalar (rho, rho) - (rho0, rho0); returns that value after checking."""
    ambient = grading.ambient
    if spin is None:
        spin = spin_g1(grading)
    rho_eff = grading.rho_effective
    rho0 = grading.rho0
    expected = ambient.inner(rho_eff, rho_eff) - ambient.inner(rho0, rho0)
    for s in spin.summands:
        value = ambient.inner(s.lam + 2 * rho0, s.lam)
        if value != expected:
            raise ConsistencyError(
                f"{grading.label}: Casimir value {value} on {s.lam},"
                f" expected {expected}")
    return expected


# ---------------------------------------------------------------------------
# equal-rank non-symmetric pairs


def equal_rank_pair(rs: RootSystem, generators,
                    budget: int = DEFAULT_WEYL_BUDGET,
                    term_budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Isotropy data for a closed full-rank subsystem h in g.

    Reports the invariant dimensions of the exterior algebra of m, the
    extreme-weight structure of its reduced Spin, and which of the
    symmetric-pair equivalences hold: (ii) dim invariants = #W^h,
    (iii) Spin0(m) generated by its extreme weights, (iv) the twisted
    denominator identity.
    """
    delta_h_plus = [w if isinstance(w, Weight) else Weight(w) for w in generators]
    pos_set = {r.coords for r in rs.positive_roots}
    h_set = {r.coords for r in delta_h_plus}
    if not h_set <= pos_set:
        raise InvalidDescriptor("generators must be positive roots of g")
    full_h = h_set | {tuple(-x for x in c) for c in h_set}
    all_roots = pos_set | {tuple(-x for x in c) for c in pos_set}
    for a in full_h:
        for b in full_h:
            s = tuple(x + y for x, y in zip(a, b))
            if s in all_roots and s not in full_h:
                raise NotClosed(f"subsystem not closed: {a} + {b}")
    sub = SubsystemDatum(rs, delta_h_plus)
    if sub.system.rank != rs.rank:
        raise InvalidDescriptor("subsystem is not full rank")
    h = sub.system
    m_plus = [r for r in rs.positive_roots if r.coords not in h_set]
    m_pairs = [(r, 1) for r in m_plus] + [(-r, 1) for r in m_plus]
    ws = WeightSystem(h, m_pairs, 0)

    lam_ws = [rep.apply_inverse(rs.rho) - h.rho for rep in minimal_coset_reps(rs, sub, budget)]
    n_wh = len(lam_ws)
    dec = spin0_decomposition(ws, budget, term_budget)
    dg_set = sorted(l.coords for l in lam_ws)
    dec_set = sorted(l.coords for l, _ in dec)
    halves = enumerate_dominant_halves(ws)
    inv_dims = invariant_poincare(ws, budget, term_budget).coefficients
    identity_ok = verify_tau_identity(rs, sub, m_plus, budget, term_budget)
    casimir_expected = rs.inner(rs.rho, rs.rho) - rs.inner(h.rho, h.rho)
    casimir_values = sorted({rs.inner(l + 2 * h.rho, l) for l in lam_ws})
    return {
        "g": rs.descriptor(),
        "h": h.descriptor(),
        "n_wh": n_wh,
        "extreme_count": len(halves),
        "dg_weights": dg_set,
        "spin0_weights": dec_set,
        "spin0_multiplicity_free": dec.is_multiplicity_free(),
        "invariant_dims": inv_dims,
        "invariant_total": sum(inv_dims),
        "condition_ii": sum(inv_dims) == n_wh,
        "condition_iii": dg_set == dec_set and dec.is_multiplicity_free(),
        "condition_iv": identity_ok,
        "casimir_on_dg": casimir_values,
        "casimir_expected": casimir_expected,
        "casimir_scalar_on_dg": casimir_values == [casimir_expected],
    }


# ---------------------------------------------------------------------------
# catalog


def grading_catalog(max_rank: int = 4):
    """Named constructors for the gradings the library knows how to build."""
    catalog = {}
    for fam, rank in simple_types(max_rank):
        rs = build_root_system(fam, rank)
        for i in involutive_pivots(rs):
            def make(rs=rs, i=i):
                return inner_grading(rs, i)
            g = make()
            name = f"{rs.descriptor()}/{g.metadata['g0']}"
            if name in catalog:
                name = f"{name}@alpha{i}"
            catalog[name] = make
            if fam == "A" and g.metadata["hermitian"]:
                catalog.setdefault(f"AIII({i},{rank + 1 - i})", make)
    for family, params in OUTER_INSTANCES:
        def make(family=family, params=params):
            return outer_grading(family, *params)
        catalog[OUTER_FAMILIES[family](*params)["label"]] = make
    return catalog
