"""Symmetric-pair gradings and Spin of the isotropy module.

Every grading comes from one parity split. An involution is sigma
exp(pi i ad h), with sigma a diagram automorphism and h a coweight of the
folded algebra g0bar = g^sigma; g splits as g0bar + g1bar, g1bar the
sigma = -1 part, and g0 = (g0bar)_even + (g1bar)_odd, with parity taken at
h. Inner gradings have sigma = 1, so g1bar = 0 and h is the coweight of a
pivot simple root (an involution exactly when the pivot's coefficient in
the highest root is 1 or 2). Each of the four outer families is one table
row: its folded type, its g1bar (the little adjoint V_theta_s, or V_2w1
for A_2n) and its pivot. The character computations then take place in
the coordinates of g0bar.

For every grading, Spin(g1) is computed twice: from the closed formula
(highest weights w^{-1} rho - rho0 over the minimal coset section) and by
decomposing the reduced Spin character of the isotropy weights, read off
the dominant part of its product with the Weyl denominator of g0. The two
routes must agree exactly.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import ConsistencyError, InvalidDescriptor, NotClosed
from .charring import (
    DEFAULT_TERM_BUDGET,
    WeightSystem,
    alternating_sum,
    freudenthal_weights,
    invariant_poincare,
    key_weight,
    skew_plus_product,
    weight_key,
)
from .rootsys import (
    EXPONENTS,
    RootSystem,
    Weight,
    build_root_system,
    simple_types,
    special_elements,
)
from .spinmod import enumerate_dominant_halves, spin0_decomposition
from .weyl import DEFAULT_WEYL_BUDGET, SubsystemDatum, minimal_coset_reps


class Z2Grading:
    """A symmetric-pair datum on a common Cartan coordinate space.

    ``ambient``: the root system whose Weyl group drives the coset section
    (the full algebra for inner type, the folded algebra for outer type).
    ``sub`` realizes the positive roots of g0 there; ``delta1`` is the
    weight system of g1 over the realized g0. ``rho_effective`` defaults
    to rho0 + rho1, rho1 the half-sum of the canonical half of Delta1 with
    multiplicities.
    """

    def __init__(self, kind, label, ambient, delta0_plus, delta1_pairs,
                 zero_mult, rho_effective=None, metadata=None):
        self.kind = kind
        self.label = label
        self.ambient = ambient
        self.sub = SubsystemDatum(ambient, delta0_plus)
        self.g0 = self.sub.system
        self.delta1 = WeightSystem(self.g0, delta1_pairs, zero_mult)
        if rho_effective is None:
            half = self.delta1.canonical_half_keys()
            rho_effective = self.rho0 + Weight.from_key(
                tuple(sum(m * k[t] for k, m in half) for t in range(ambient.space_dim)),
                2 * ambient.denom)
        self.rho_effective = rho_effective
        self.metadata = metadata or {}

    @property
    def rho0(self) -> Weight:
        return self.g0.rho

    def __repr__(self):
        return f"Z2Grading({self.label}, {self.kind})"


# ---------------------------------------------------------------------------
# the parity split


def parity_split(ambient: RootSystem, pivot=None, odd_module=None):
    """The two eigenspaces of sigma exp(pi i ad h) on ambient + odd_module.

    ``ambient`` is the folded algebra g^sigma and ``odd_module`` the
    weight system of its -1 eigenspace under sigma (None for an inner
    grading, where sigma = 1); h is the pivot's fundamental coweight, or
    0 when ``pivot`` is None, so a root or weight has the parity of its
    coefficient at the pivot (Kac, Infinite-dimensional Lie algebras,
    8.6). g0 is the even part of ambient plus the odd part of odd_module
    and g1 the rest, odd_module's zero weights included.

    Returns (Delta0+, Delta1 as (key, multiplicity) pairs, m(0)); an odd
    weight of odd_module that is not a root of g0 raises.
    """
    def odd(key):
        if pivot is None:
            return False
        c = ambient.lattice_coords(key)
        if c is None or c[pivot - 1] % ambient.lattice_denom:
            raise InvalidDescriptor(
                f"{key_weight(ambient, key)} has no parity at alpha{pivot}")
        return c[pivot - 1] // ambient.lattice_denom % 2 == 1

    roots = dict(zip(ambient.positive_keys, ambient.positive_roots))
    parity = {k: odd(k) for k in roots}
    delta0_plus = [r for k, r in roots.items() if not parity[k]]
    odd_roots = [k for k in roots if parity[k]]
    delta1_pairs = [(k, 1) for k in odd_roots] + [
        (tuple(-x for x in k), 1) for k in odd_roots]
    if odd_module is None:
        return delta0_plus, delta1_pairs, 0
    for k, m in odd_module.nonzero.items():
        if not odd(k):
            delta1_pairs.append((k, m))
        elif m != 1 or not (k in roots or tuple(-x for x in k) in roots):
            raise InvalidDescriptor(
                f"odd weight {key_weight(ambient, k)} is not a root of g0")
        elif k in roots:
            delta0_plus.append(roots[k])
    return delta0_plus, delta1_pairs, odd_module.zero_mult


# ---------------------------------------------------------------------------
# inner gradings


def kac_marks(rs: RootSystem):
    """Coefficients of the highest root over the simple roots."""
    c = rs.lattice_coords(weight_key(rs, rs.highest_root()))
    return tuple(x // rs.lattice_denom for x in c)


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
    delta0_plus, delta1_pairs, zero_mult = parity_split(rs, pivot)
    grading = Z2Grading(
        kind="inner",
        label=f"{rs.descriptor()}/alpha{pivot}",
        ambient=rs,
        delta0_plus=delta0_plus,
        delta1_pairs=delta1_pairs,
        zero_mult=zero_mult,
        rho_effective=rs.rho,
        metadata={"pivot": pivot, "mark": int(mark)},
    )
    span_rank = grading.g0.rank
    if mark == 2 and span_rank != rs.rank:
        raise InvalidDescriptor("mark-2 grading should have full-rank Delta0")
    if mark == 1 and span_rank != rs.rank - 1:
        raise InvalidDescriptor("mark-1 grading should leave a 1-dim centre")
    grading.metadata["hermitian"] = (mark == 1)
    parts = [grading.g0.descriptor()] + (["T1"] if mark == 1 else [])
    grading.metadata["g0"] = "x".join(p for p in parts if p)
    return grading


# the types whose inner gradings the catalog names and the suites sweep
INNER_SWEEP = [f"{fam}{rank}" for fam, rank in simple_types(4)]


def involutive_pivots(rs: RootSystem):
    """The 1-based pivots of mark 1 or 2, where an inner grading exists."""
    return [i for i, mark in enumerate(kac_marks(rs), start=1) if mark <= 2]


def inner_gradings(rs: RootSystem):
    """All inner gradings of a simple system, one per involutive pivot."""
    return [inner_grading(rs, i) for i in involutive_pivots(rs)]


# ---------------------------------------------------------------------------
# outer gradings: one table row per family


# g_type and folded: the (family, rank) of g and of the folded algebra
# g0bar = g^sigma; pivot: None for h = 0; g1bar: the highest weight of
# g1bar, a key of G1BAR
OuterRow = namedtuple("OuterRow", "label g g0 g_type folded pivot g1bar diagram")


# the highest weight of the little adjoint g1bar, or of V_2w1 for A_2n
G1BAR = {
    "theta_s": lambda se: se.theta_s,
    "2w1": lambda se: 2 * se.rs.fundamental_weights[0],
}

OUTER_TABLE = {
    "sl_even": lambda n: OuterRow(
        f"SL{2*n}/SO{2*n}", f"sl{2*n}", f"so{2*n}", ("A", 2 * n - 1), ("C", n), n,
        "theta_s", {"g0bar": f"sp{2*n}", "g1bar": "little adjoint V_w2"}),
    "so_odd_odd": lambda n, m: OuterRow(
        f"SO{2*n+2*m+2}/SO{2*n+1}xSO{2*m+1}", f"so{2*n+2*m+2}",
        f"so{2*n+1}+so{2*m+1}", ("D", n + m + 1), ("B", n + m), n,
        "theta_s", {"g0bar": f"so{2*(n+m)+1}", "g1bar": "little adjoint V_w1"}),
    "e6_sp8": lambda: OuterRow(
        "E6/C4", "e6", "sp8", ("E", 6), ("F", 4), 4,
        "theta_s", {"g0bar": "f4", "g1bar": "little adjoint V_w1"}),
    "sl_odd": lambda n: OuterRow(
        f"SL{2*n+1}/SO{2*n+1}", f"sl{2*n+1}", f"so{2*n+1}", ("A", 2 * n), ("B", n), None,
        "2w1", {"g0bar": f"so{2*n+1}", "g1bar": "V_{2w1}"}),
}

# the (family, params) instances the catalog, suites and tables build
OUTER_INSTANCES = (
    ("sl_even", (2,)), ("sl_even", (3,)),
    ("so_odd_odd", (1, 1)), ("so_odd_odd", (2, 1)),
    ("e6_sp8", ()), ("sl_odd", (2,)),
)


def outer_row(family: str, *params) -> OuterRow:
    """The table row of one outer family at its parameters."""
    if family not in OUTER_TABLE:
        raise InvalidDescriptor(f"unknown outer family {family!r}")
    if family == "so_odd_odd" and min(params) < 1:
        # pivot n + m would fold to SO(2n+2m+2)/SO(2n+2m+1) instead
        raise InvalidDescriptor("so_odd_odd family needs n, m >= 1")
    return OUTER_TABLE[family](*params)


def outer_grading(family: str, *params) -> Z2Grading:
    """One outer family, split by parity from its folded algebra and g1bar.

    The split is checked against dim g0 + dim g1 = dim g, read off the
    type of g, and for the little adjoint against
    rho0 + rho1 = rho(g0bar) + rho_s(g0bar) in the folded coordinates.
    For V_2w1 the restricted roots are of type BC, and rho0 + rho1 is
    taken as it comes.
    """
    row = outer_row(family, *params)
    ambient = build_root_system(*row.folded)
    se = special_elements(ambient)
    g1bar = freudenthal_weights(ambient, G1BAR[row.g1bar](se))
    delta0_plus, delta1_pairs, zero_mult = parity_split(ambient, row.pivot, g1bar)
    fam, rank = row.g_type
    dim_g = rank + 2 * sum(EXPONENTS[fam](rank))
    dim = ambient.rank + 2 * len(delta0_plus) + sum(m for _, m in delta1_pairs) + zero_mult
    if dim != dim_g:
        raise InvalidDescriptor(
            f"{row.label}: dim g0 + dim g1 = {dim} != dim {row.g} = {dim_g}")
    grading = Z2Grading(
        kind="outer",
        label=row.label,
        ambient=ambient,
        delta0_plus=delta0_plus,
        delta1_pairs=delta1_pairs,
        zero_mult=zero_mult,
        metadata={"family": family, "params": params, "g": row.g,
                  "g0": row.g0, "diagram": row.diagram},
    )
    if row.g1bar == "theta_s" and grading.rho_effective != ambient.rho + se.rho_s:
        raise InvalidDescriptor(
            f"{row.label}: rho0 + rho1 != rho(g0bar) + rho_s(g0bar)")
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
            "lambda": self.lam.coord_strings(),
            "fw": [str(c) for c in g0.dynkin_labels(self.lam)],
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


def _coset_route(grading: Z2Grading, budget: int, term_budget: int):
    """Both Spin routes: the coset weights w^{-1} rho_eff - rho0, each dominant
    for g0 and met once, mapped to their representatives; the decomposition
    of the reduced Spin of g1; and whether the two give the same weights once."""
    lams = {}
    for rep in minimal_coset_reps(grading.ambient, grading.sub, budget):
        lam = rep.apply_inverse(grading.rho_effective) - grading.rho0
        if not grading.g0.is_dominant(lam):
            raise ConsistencyError(f"coset weight {lam} is not dominant for g0")
        if lam in lams:
            raise ConsistencyError(f"coset weight {lam} repeats")
        lams[lam] = rep
    dec = spin0_decomposition(grading.delta1, budget, term_budget)
    # the coset weights against the decomposition's records, by key
    keys = sorted(lam.key_at(dec.scale) for lam in lams if dec.scale % lam.scale == 0)
    agree = (len(keys) == len(lams) and keys == list(dec.keys)
             and dec.is_multiplicity_free())
    return lams, dec, agree


def spin_g1(grading: Z2Grading, budget: int = DEFAULT_WEYL_BUDGET,
            term_budget: int = DEFAULT_TERM_BUDGET) -> SpinDecomposition:
    """Spin of the isotropy module, by the coset formula and by decomposing
    the reduced Spin character (its product with the Weyl denominator of
    g0, pruned to the strictly dominant chamber); a mismatch raises."""
    lams, dec, agree = _coset_route(grading, budget, term_budget)
    if not agree:
        raise ConsistencyError(
            f"{grading.label}: coset formula and character decomposition disagree:"
            f" {sorted(lams)} vs {sorted(lam for lam, _ in dec)}")
    # the routes agree, so each summand's dimension is the decomposition's
    dims = dict(zip(dec.keys, dec.dimensions))
    summands = [SpinSummand(rep, lam, dims[lam.key_at(dec.scale)]) for lam, rep in lams.items()]
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
    one walk over the orbit W.rho with tau read off each point, against
    the Delta0+ root binomials times the Delta1+ plus binomials expanded
    as one product on half the lattice, term by term. For partitions of a
    restricted system, pass the restricted rho = rho0 + rho1; the default
    is the system's own Weyl vector, the inner-type case. The term budget
    bounds the product's full support.
    """
    lhs = alternating_sum(rs, rho if rho is not None else rs.rho, budget, twist=sub)
    return lhs == skew_plus_product(rs, sub.delta0_plus, delta1_plus, term_budget)


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

    The pair is a grading with g0 = h, g1 = m = +-(Delta+ minus Delta_h+)
    and rho_eff = rho. Reports the invariant dimensions of the exterior
    algebra of m, the extreme-weight structure of its reduced Spin, and
    which of the symmetric-pair equivalences hold: (ii) dim invariants =
    #W^h, (iii) Spin0(m) generated by its extreme weights, that is, the
    two Spin routes agree, (iv) the twisted denominator identity.
    """
    roots = dict(zip(rs.positive_roots, rs.positive_keys))
    delta_h_plus = [w if isinstance(w, Weight) else Weight(w) for w in generators]
    if not all(r in roots for r in delta_h_plus):
        raise InvalidDescriptor("generators must be positive roots of g")
    h_keys = {roots[r] for r in delta_h_plus}
    full_h = h_keys | {tuple(-x for x in k) for k in h_keys}
    all_keys = set(roots.values()) | {tuple(-x for x in k) for k in roots.values()}
    for a in full_h:
        for b in full_h:
            s = tuple(x + y for x, y in zip(a, b))
            if s in all_keys and s not in full_h:
                raise NotClosed(f"subsystem not closed: {key_weight(rs, a)}"
                                f" + {key_weight(rs, b)}")
    m_plus = [r for r, k in roots.items() if k not in h_keys]
    grading = Z2Grading("equal-rank", rs.descriptor(), rs, delta_h_plus,
                        [(r, 1) for r in m_plus] + [(-r, 1) for r in m_plus], 0,
                        rho_effective=rs.rho)
    h = grading.g0
    if h.rank != rs.rank:
        raise InvalidDescriptor("subsystem is not full rank")
    lams, dec, agree = _coset_route(grading, budget, term_budget)
    halves = enumerate_dominant_halves(grading.delta1)
    inv_dims = invariant_poincare(grading.delta1, budget, term_budget).coefficients
    identity_ok = verify_tau_identity(rs, grading.sub, m_plus, budget, term_budget)
    casimir_expected = rs.inner(rs.rho, rs.rho) - rs.inner(h.rho, h.rho)
    casimir_values = sorted({rs.inner(l + 2 * h.rho, l) for l in lams})
    return {
        "g": rs.descriptor(),
        "h": h.descriptor(),
        "n_wh": len(lams),
        "extreme_count": len(halves),
        "dg_weights": sorted(l.coords for l in lams),
        "spin0_weights": sorted(l.coords for l, _ in dec),
        "spin0_multiplicity_free": dec.is_multiplicity_free(),
        "invariant_dims": inv_dims,
        "invariant_total": sum(inv_dims),
        "condition_ii": sum(inv_dims) == len(lams),
        "condition_iii": agree,
        "condition_iv": identity_ok,
        "casimir_on_dg": casimir_values,
        "casimir_expected": casimir_expected,
        "casimir_scalar_on_dg": casimir_values == [casimir_expected],
    }


# ---------------------------------------------------------------------------
# catalog


def _named_inner(desc: str) -> dict:
    """The inner gradings of one sweep type by catalog name: <type>/<g0>,
    with @alpha<k> where a g0 repeats, and AIII(p,q) for the Hermitian
    gradings of type A."""
    rs = build_root_system(desc)
    named = {}
    for i in involutive_pivots(rs):
        g = inner_grading(rs, i)
        name = f"{desc}/{g.metadata['g0']}"
        if name in named:
            name = f"{name}@alpha{i}"
        named[name] = g
        if desc[0] == "A" and g.metadata["hermitian"]:
            named.setdefault(f"AIII({i},{rs.rank + 1 - i})", g)
    return named


def grading_catalog():
    """Named constructors for the gradings the library knows how to build:
    the inner gradings of the sweep types, each built here to read its
    name, and the outer instances."""
    catalog = {}
    for desc in INNER_SWEEP:
        catalog.update({name: (lambda g=g: g) for name, g in _named_inner(desc).items()})
    for family, params in OUTER_INSTANCES:
        def make(family=family, params=params):
            return outer_grading(family, *params)
        catalog[outer_row(family, *params).label] = make
    return catalog


def named_grading(name: str) -> Z2Grading:
    """The grading a name denotes, building only what the name needs.

    <type>/alpha<k>, as verify records print it, is that inner grading at
    any rank. An outer label builds its outer grading alone. A catalog
    name of a sweep type, <type>/<g0>[@alpha<k>] or AIII(p,q), builds that
    type's involutive pivots. Only an unknown name builds the catalog, to
    list it.
    """
    match = re.fullmatch(r"(\w+)/alpha(\d+)", name)
    if match:
        return inner_grading(build_root_system(match[1]), int(match[2]))
    for family, params in OUTER_INSTANCES:
        if outer_row(family, *params).label == name:
            return outer_grading(family, *params)
    match = re.fullmatch(r"AIII\((\d+),(\d+)\)", name)
    desc = f"A{int(match[1]) + int(match[2]) - 1}" if match else name.split("/")[0]
    grading = _named_inner(desc).get(name) if desc in INNER_SWEEP else None
    if grading is None:
        raise InvalidDescriptor(
            f"unknown grading {name!r}; known: <type>/alpha<k>,"
            f" {', '.join(sorted(grading_catalog()))}")
    return grading
