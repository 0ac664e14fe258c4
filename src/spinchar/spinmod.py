"""Spin and reduced Spin of orthogonal modules.

A V_lam is self-dual when -w0, a permutation of the Dynkin labels, fixes
lam's, and then orthogonal or symplectic by the sign (-1)^<lam, 2 rho~>,
one integer pairing per positive root; no character is formed to decide it.

The reduced Spin character of a self-dual weight system is the product of
(e^{mu/2} + e^{-mu/2}) over any half of the nonzero weights; the scalar
2^[m(0)/2] restores the full Spin. It is decomposed without expanding it,
as a product with the Weyl denominator pruned to the strictly dominant
chamber, the route of ``charring.decompose``. A weight of the half that
is a root alpha (or a multiple of one) merges with alpha's denominator
factor: (e^{alpha/2} - e^{-alpha/2})(e^{alpha/2} + e^{-alpha/2}) is the one
binomial e^alpha - e^{-alpha} (see ``charring._binomial_product``). So an
adjoint module expands half the binomials, and any module whose weights
lie on root lines expands fewer. Dominant halves are
enumerated as open chambers of the dominant cone cut by the weight
hyperplanes, skipping those that miss it: by Farkas, the hyperplane of
mu = sum c_i alpha_i with no two c_i of opposite sign (the hyperplane
budget still counts them). The split is the double description method
(Motzkin, Raiffa, Thompson and Thrall, 1953): each region is a cone and
carries its extreme rays and vectors spanning its lineality space,
integers handed from parent to child, so no region is solved from
scratch; a chamber's witness is the sum of its rays. The half-sums of the halves are the
extreme weights: always highest weights of the reduced Spin, each a
summand of multiplicity one in its decomposition, which is where they are
certified (see ``extreme_weights``).
"""

from __future__ import annotations

from operator import neg as _neg

from .errors import BudgetExceeded, ConsistencyError, InvalidDescriptor, NotSelfDual
from .charring import (
    Character,
    DEFAULT_TERM_BUDGET,
    Decomposition,
    WeightSystem,
    _binomial_product,
    _decompose_product,
    dominant_weights,
    freudenthal_weights,
    key_weight,
    weight_key,
)
from .rootsys import RootSystem, Weight, _dot, _primitive, build_root_system, simple_types
from .weyl import DEFAULT_WEYL_BUDGET, _check_weyl_budget

DEFAULT_HYPERPLANE_BUDGET = 64


# ---------------------------------------------------------------------------
# orthogonality


def self_dual(rs: RootSystem, lam: Weight) -> bool:
    """A highest weight is self-dual iff -lam is Weyl-conjugate to lam.

    W moves only the part of lam in the span of the roots, which its Dynkin
    labels fix. For a dominant lam the dominant point of -lam is -w0 lam,
    whose labels are lam's permuted by ``RootSystem.minus_w0``; so the
    labels, integral or not, must be >= 0 and fixed by that permutation,
    and the rest of lam must be zero (``RootSystem.off_span``).
    """
    labels = rs.dynkin_labels(lam) or rs.fw_coefficients(lam)
    return min(labels, default=0) >= 0 and _self_dual(rs, labels, lam.key)


def _self_dual(rs: RootSystem, labels: tuple, key) -> bool:
    """``self_dual`` for a dominant lam, on its labels already read and its key."""
    return (tuple(map(labels.__getitem__, rs.minus_w0)) == labels
            and not rs.off_span(key))


def frobenius_schur(rs: RootSystem, lam: Weight) -> int:
    """+1 orthogonal, -1 symplectic, 0 not self-dual.

    exp(2 pi i rho~) is central, with rho~ half the sum of the positive
    coroots, and acts on a self-dual V_lam by the sign of its invariant
    form (Bourbaki, Lie VIII, 7.5): (-1)^<lam, 2 rho~>, where
    <lam, 2 rho~> = sum_{beta>0} <lam, beta~> is one integer pairing
    2 (lam, beta) / (beta, beta) per positive root. A lam that is not
    dominant integral has no module and raises InvalidDescriptor.
    """
    labels = rs.dynkin_labels(lam)
    if labels is None or any(p < 0 for p in labels):
        raise InvalidDescriptor(f"{rs.format_weight(lam)} is not dominant integral")
    if not _self_dual(rs, labels, lam.key):
        return 0
    # <lam, beta~> = 2 (lam, beta) / (beta, beta), lam read at its own scale
    total = sum(2 * rs.denom * _dot(lam.key, w) // (lam.scale * _dot(b, w))
                for b, w in zip(rs.positive_keys, rs.positive_w))
    return -1 if total % 2 else 1


def orthogonality_type(rs: RootSystem, lam: Weight) -> str:
    return {1: "orthogonal", -1: "symplectic", 0: "neither"}[frobenius_schur(rs, lam)]


# ---------------------------------------------------------------------------
# Spin characters


def _half_factors(ws: WeightSystem, half=None):
    """(key, m, +1) product factors over a half of the nonzero weights, the
    canonical one by default, after checking that the system is self-dual
    and that the half covers it."""
    if not ws.is_self_dual():
        raise NotSelfDual("weight system is not self-dual")
    keys = ws.canonical_half_keys() if half is None else [
        (weight_key(ws.rs, mu), m) for mu, m in half]
    if 2 * sum(m for _, m in keys) != sum(ws.nonzero.values()):
        raise InvalidDescriptor("half does not cover the nonzero weights")
    return [(k, m, 1) for k, m in keys]


def spin0_character(ws: WeightSystem, half=None,
                    term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Character of the reduced Spin: prod (e^{mu/2}+e^{-mu/2})^{m(mu)}.

    The result does not depend on the chosen half; callers may pass one to
    exercise exactly that independence. The library decomposes Spin0
    through ``spin0_decomposition``; the full product stays for the
    identities that need it and as that route's oracle.
    """
    ch = Character(ws.rs, _binomial_product(ws.rs, _half_factors(ws, half), term_budget))
    expected = 2 ** ((ws.dimension() - ws.zero_mult) // 2)
    if ch.dimension() != expected:
        raise ConsistencyError(f"reduced Spin dimension {ch.dimension()}, expected {expected}")
    return ch


def spin0_decomposition(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                        term_budget: int = DEFAULT_TERM_BUDGET) -> Decomposition:
    """The reduced Spin as a sum of irreducibles, from its product with
    the Weyl denominator pruned to the strictly dominant chamber (see
    ``charring._decompose_product``). A non-integral or negative summand
    (a symplectic module shows so) raises NonModuleCharacter, and summands
    that do not fill 2^{(dim - m(0))/2} raise ConsistencyError; the budget
    is checked against |W| from the type, and the term budget bounds the
    states.
    """
    _check_weyl_budget(ws.rs, budget)
    return _decompose_product(ws.rs, None, _half_factors(ws),
                              2 ** ((ws.dimension() - ws.zero_mult) // 2),
                              "the reduced Spin", term_budget)


def spin_scalar(ws: WeightSystem) -> int:
    return 2 ** (ws.zero_mult // 2)


def spin_character(ws: WeightSystem, term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Full Spin character, 2^[m(0)/2] times the reduced one, after
    checking the exterior-algebra identity ch Lambda(V) = 2^{m(0)} (ch Spin0)^2
    term by term.
    """
    spin0 = spin0_character(ws, term_budget=term_budget)
    rs = ws.rs
    ext = Character.one(rs)
    if ws.zero_mult:
        ext = 2**ws.zero_mult * ext
    for k, m in sorted(ws.nonzero.items()):
        mu = key_weight(rs, k)
        factor = Character.from_weights(rs, [(Weight((0,) * rs.space_dim), 1), (mu, 1)])
        for _ in range(m):
            ext = ext.__mul__(factor, term_budget)
    square = 2**ws.zero_mult * spin0.__mul__(spin0, term_budget)
    if ext != square:
        raise ConsistencyError("exterior algebra != 2^{m(0)} Spin0^2")
    return spin_scalar(ws) * spin0


# ---------------------------------------------------------------------------
# dominant halves: double description down the chamber tree


def _onto(h, z, v):
    """v moved along z onto the hyperplane h . x = 0, for h . z > 0:
    (h . z) v - (h . v) z, primitive, which keeps v's side of every row that
    vanishes on z."""
    hz, hv = _dot(h, z), _dot(h, v)
    return _primitive([hz * x - hv * y for x, y in zip(v, z)])


def _split(h, bit, rays, lineality):
    """The regions {h . x >= 0} and {h . x <= 0} of a region, each as
    (rays, lineality) or None where it has no interior.

    A region is its lineality space, spanned by the vectors ``lineality``
    (they may be dependent), plus the cone on its extreme rays, each ray
    held with the bit mask of the rows it is tight on; ``bit`` is h's. A
    lineality vector z that h sees puts both sides on h along z, and each
    side gets +-z as a new ray, tight on every earlier row; the lineality
    vectors moved onto h that end at zero, z among them, are dropped.
    Otherwise the rays split by the sign of h . r: a side is a region when
    it keeps a ray strictly on its side, and both sides share the rays
    tight on h and one combination of each adjacent (+, -) pair, adjacent
    when no third ray is tight on every row that both are tight on (Fukuda
    and Prodon, *Double description method revisited*, 1996).
    """
    z = next((v for v in lineality if _dot(h, v)), None)
    if z is not None:
        if _dot(h, z) < 0:
            z = tuple(map(_neg, z))
        moved = [(_onto(h, z, r), m | bit) for r, m in rays]
        rest = [v for v in (_onto(h, z, u) for u in lineality) if any(v)]
        return ((moved + [(z, bit - 1)], rest),
                (moved + [(tuple(map(_neg, z)), bit - 1)], rest))
    pos, neg, tight = [], [], []
    for r, m in rays:
        value = _dot(h, r)
        if value > 0:
            pos.append((r, m, value))
        elif value < 0:
            neg.append((r, m, value))
        else:
            tight.append((r, m | bit))
    masks = [m for _, m in rays]
    for p, mp, vp in pos:
        for n, mn, vn in neg:
            common = mp & mn
            if sum(common & m == common for m in masks) == 2:
                tight.append((_primitive([vp * x - vn * y for x, y in zip(n, p)]),
                              common | bit))
    return tuple(([(r, m) for r, m, _ in side] + tight, lineality) if side else None
                 for side in (pos, neg))


def _ray_sum(rays, dim):
    """The sum of a region's rays: inside it, as every row is positive on
    some ray of a region with interior and vanishes on its lineality."""
    return tuple(sum(r[t] for r, _ in rays) for t in range(dim))


class DominantHalf:
    """A half of the nonzero weights cut out by a regular dominant witness;
    ``keys`` holds its (key, multiplicity) pairs, ``half`` their weights."""

    def __init__(self, ws: WeightSystem, witness: Weight):
        self.ws = ws
        self.witness = witness
        rs = ws.rs
        # (key, row) is a positive multiple of (weight, witness)
        row = rs._matvec(witness.key)
        self.keys = []
        for k, m in sorted(ws.nonzero.items()):
            value = _dot(k, row)
            if value == 0:
                raise InvalidDescriptor("witness lies on a weight hyperplane")
            if value > 0:
                self.keys.append((k, m))
        # witness must certify a genuine half and lie in the open chamber
        if 2 * sum(m for _, m in self.keys) != sum(ws.nonzero.values()):
            raise InvalidDescriptor("witness does not split the weights in half")
        if any(_dot(k, row) <= 0 for k in rs.simple_keys):
            raise InvalidDescriptor("witness is not strictly dominant")

    @property
    def half(self):
        return [(key_weight(self.ws.rs, k), m) for k, m in self.keys]

    def extreme_weight(self) -> Weight:
        """Half the sum of the half: one integer sum of its keys."""
        return key_weight(self.ws.rs, tuple(
            sum(m * k[t] for k, m in self.keys) // 2 for t in range(self.ws.rs.space_dim)))


def _cuts_the_cone(rs: RootSystem, key) -> bool:
    """Whether the hyperplane (key, x) = 0 meets the open dominant region
    {x : (x, alpha_i) > 0}. By Farkas it misses it exactly when key is
    sum c_i alpha_i with no two c_i of opposite sign, the c_i read off
    ``lattice_coords``; a key with a part off the span of the roots (a
    centre of g0) always cuts."""
    c = rs.lattice_coords(key)
    return c is None or min(c) < 0 < max(c)


def enumerate_dominant_halves(ws: WeightSystem,
                              hyperplane_budget: int = DEFAULT_HYPERPLANE_BUDGET):
    """One DominantHalf per open chamber of C° minus the weight hyperplanes.

    The budget counts every distinct weight direction, but only those
    whose hyperplane cuts C° split it. Each region of the split carries
    its extreme rays and vectors spanning its lineality space (``_split``),
    from those of the closed dominant cone: the primitive keys of the
    fundamental weights and ``RootSystem.cone_lineality``. A chamber's witness is the sum of its
    rays, checked against every row of the chamber.
    """
    rs, dim = ws.rs, ws.rs.space_dim
    directions = {}
    for k in ws.nonzero:
        if not any(k):
            raise InvalidDescriptor("degenerate zero weight in the nonzero set")
        prim = _primitive(k)
        directions.setdefault(max(prim, tuple(map(_neg, prim))), k)
    if len(directions) > hyperplane_budget:
        raise BudgetExceeded(
            f"{len(directions)} weight hyperplanes exceed the budget"
            f" {hyperplane_budget}", required=len(directions),
            budget=hyperplane_budget)
    # the row of v is x -> (x, v) on plain coordinates, up to a positive factor
    hyper = [rs._matvec(d) for d, k in sorted(directions.items())
             if _cuts_the_cone(rs, k)]
    halves = []

    def rec(i, rows, rays, lineality):
        if i == len(hyper):
            witness = _ray_sum(rays, dim)
            if any(_dot(r, witness) <= 0 for r in rows):
                raise ConsistencyError("feasible region lost its witness")
            halves.append(DominantHalf(ws, Weight.from_key(witness)))
            return
        h = hyper[i]
        sides = _split(h, 1 << (rs.rank + i), rays, lineality)
        for row, side in zip((h, tuple(map(_neg, h))), sides):
            if side is not None:
                rec(i + 1, rows + [row], *side)

    # the simple row i is tight on every fundamental weight but the i-th
    full = (1 << rs.rank) - 1
    rec(0, list(rs.simple_w),
        [(_primitive(w.key), full ^ (1 << i)) for i, w in enumerate(rs.fundamental_weights)],
        rs.cone_lineality)
    halves.sort(key=lambda h: h.witness)
    return halves


def extreme_weights(ws: WeightSystem, dec: Decomposition):
    """The extreme weights: half-sums over all dominant halves, made unique,
    each certified as a summand of multiplicity one in ``dec``, the
    decomposition of the reduced Spin of ``ws``.

    Let H be a dominant half, cut out by a strictly dominant witness x.
    Then lam = (1/2) sum H is the unique maximiser of (., x) over the
    weights of Spin0, since any other signed half-sum loses some |(mu, x)|;
    its Spin0 coefficient is 1. A summand V_nu with nu != lam that had lam
    as a weight would give nu - lam a nonzero sum of positive roots, so
    (nu, x) > (lam, x), impossible for nu, itself a weight of Spin0. So the
    Spin0 coefficient of e^lam is its multiplicity in ``dec``, and anything
    but 1 there raises ConsistencyError. The multiplicity is read off
    ``dec``'s records by lam's key.
    """
    out = sorted({h.extreme_weight() for h in enumerate_dominant_halves(ws)})
    mults = dict(zip(dec.keys, dec.multiplicities))
    for lam in out:
        m = mults.get(lam.key_at(dec.scale), 0)
        if m != 1:
            raise ConsistencyError(
                f"extreme weight {lam} has multiplicity {m} in the Spin0"
                f" decomposition, expected 1")
    return out


# ---------------------------------------------------------------------------
# predicates


def is_coprimary(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                 term_budget: int = DEFAULT_TERM_BUDGET):
    """Whether the reduced Spin is irreducible; returns (flag, witness)."""
    dec = spin0_decomposition(ws, budget, term_budget)
    flag = len(dec) == 1 and dec.is_multiplicity_free()
    return flag, dec


def is_decomposably_generated(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                              term_budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Whether every highest weight of the reduced Spin is extreme."""
    dec = spin0_decomposition(ws, budget, term_budget)
    if not dec.is_multiplicity_free():
        return False
    return {w for w, _ in dec} == set(extreme_weights(ws, dec))


# ---------------------------------------------------------------------------
# classification sweep


SWEEP_FILTERS = (
    "not-self-dual",
    "zero-weight",
    "highest-weight-off-root-line",
    "weights-off-root-lines",
    "symplectic",
    "spin0-reducible",
    "coprimary",
)


def weights_up_to_height(rank: int, height_bound: int):
    """The nonzero fundamental-weight coefficient tuples of the given length
    with sum <= height_bound, in lexicographic order."""
    def rec(i, remaining):
        if i == rank:
            yield ()
            return
        for c in range(remaining + 1):
            for rest in rec(i + 1, remaining - c):
                yield (c,) + rest
    for coeffs in rec(0, height_bound):
        if any(coeffs):
            yield coeffs


def classify_candidate(rs: RootSystem, lam: Weight,
                       budget: int = DEFAULT_WEYL_BUDGET,
                       term_budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Run one candidate through the co-primary filters, cheapest first.

    lam's labels are read once: self-dual means fixed by ``minus_w0``, with
    no part of lam off the root span (``off_span``), and the root
    lattice means lattice_rows . labels in lattice_denom Z. Whether every
    weight of V_lam is 0 or W-conjugate to a positive multiple of a root is
    Weyl-invariant: the walk ``dominant_weights`` decides it without
    Freudenthal's recursion, and stops at the first dominant weight off
    ``root_lines``. The Frobenius-Schur sign is read off the labels, and
    Freudenthal runs only for an orthogonal lam. After the root-lattice
    filter the symplectic one cannot fire, as <alpha_i, 2 rho~> = 2 makes
    <lam, 2 rho~> even on the root lattice; it stays as the check of the
    paper's orthogonality. A lam that is not dominant integral has no
    module and raises InvalidDescriptor.
    """
    labels = rs.dynkin_labels(lam)
    if labels is None or any(p < 0 for p in labels):
        raise InvalidDescriptor(f"{rs.format_weight(lam)} is not dominant integral")
    record = {
        "type": rs.descriptor(),
        "weight": [str(c) for c in labels],
        "coprimary": False,
        "filter": None,
        "spin0": None,
    }
    if not _self_dual(rs, labels, lam.key):
        record["filter"] = "not-self-dual"
        return record
    if any(_dot(row, labels) % rs.lattice_denom for row in rs.lattice_rows):
        record["filter"] = "zero-weight"
        return record
    lines = rs.root_lines

    def on_a_root_line(k):
        return not any(k) or _primitive(k) in lines

    key = weight_key(rs, lam)
    if not on_a_root_line(key):
        record["filter"] = "highest-weight-off-root-line"
        return record
    if not all(on_a_root_line(k) for _, k in dominant_weights(rs, key)):
        record["filter"] = "weights-off-root-lines"
        return record
    if frobenius_schur(rs, lam) != 1:
        record["filter"] = "symplectic"
        return record
    ws = freudenthal_weights(rs, lam)
    flag, dec = is_coprimary(ws, budget, term_budget)
    record["spin0"] = dec.to_json()
    if flag:
        record["coprimary"] = True
        record["filter"] = "coprimary"
    else:
        record["filter"] = "spin0-reducible"
    return record


def classify_coprimary(rank_bound: int, height_bound: int,
                       budget: int = DEFAULT_WEYL_BUDGET,
                       term_budget: int = DEFAULT_TERM_BUDGET) -> list:
    """Sweep all orthogonal irreducibles of bounded rank and height."""
    records = []
    for fam, rank in simple_types(rank_bound):
        rs = build_root_system(fam, rank)
        for coeffs in weights_up_to_height(rank, height_bound):
            lam = rs.weight(*coeffs)
            try:
                records.append(classify_candidate(rs, lam, budget, term_budget))
            except BudgetExceeded as exc:
                records.append({
                    "type": rs.descriptor(),
                    "weight": [str(c) for c in coeffs],
                    "coprimary": None,
                    "filter": "budget-skipped",
                    "detail": str(exc),
                    "required": exc.required,
                    "budget": exc.budget,
                })
    return records
