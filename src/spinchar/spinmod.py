"""Spin and reduced Spin of orthogonal modules.

The reduced Spin character of a self-dual weight system is the product of
(e^{mu/2} + e^{-mu/2}) over any half of the nonzero weights; the scalar
2^[m(0)/2] restores the full Spin. Dominant halves are enumerated as open
chambers of the dominant cone cut by the weight hyperplanes: Fourier-Motzkin
elimination on integer rows decides each chamber, and back-substitution
through its stages gives an exact rational witness point. Their half-sums
are the extreme weights: always highest weights of the reduced Spin, each
with coefficient one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BudgetExceeded, InvalidDescriptor, NotSelfDual
from .charring import (
    Character,
    DEFAULT_TERM_BUDGET,
    WeightSystem,
    _check_weyl_budget,
    decompose,
    freudenthal_weights,
    key_weight,
    multiplicity_of,
    plus_product,
)
from .rootsys import RootSystem, Weight, build_root_system, simple_types
from .weyl import DEFAULT_WEYL_BUDGET

DEFAULT_HYPERPLANE_BUDGET = 64


# ---------------------------------------------------------------------------
# orthogonality


def self_dual(rs: RootSystem, lam: Weight) -> bool:
    """A highest weight is self-dual iff -lam is Weyl-conjugate to lam."""
    return rs.dominant_representative(-lam) == lam


def frobenius_schur(rs: RootSystem, lam: Weight,
                    budget: int = DEFAULT_WEYL_BUDGET, weights=None) -> int:
    """+1 orthogonal, -1 symplectic, 0 not self-dual.

    Computed as the multiplicity of the trivial module in the character
    with every weight doubled, which equals dim(S^2 V)^g - dim(L^2 V)^g:
    the weights come from Freudenthal's recursion and the multiplicity
    from Racah-Speiser folding. For a self-dual lam the budget is checked
    against |W| up front, computed from the type without enumerating W.
    A caller that already holds lam's Freudenthal weight system passes it
    as ``weights``, and self-duality is then read off its symmetry.
    """
    if not (self_dual(rs, lam) if weights is None else weights.is_self_dual()):
        return 0
    _check_weyl_budget(rs, budget)
    if weights is None:
        weights = freudenthal_weights(rs, lam)
    ch = weights.character()
    zero = Weight((0,) * rs.space_dim)
    return multiplicity_of(ch.stretch(2), zero, rs, budget)


def orthogonality_type(rs: RootSystem, lam: Weight,
                       budget: int = DEFAULT_WEYL_BUDGET, weights=None) -> str:
    fs = frobenius_schur(rs, lam, budget, weights)
    return {1: "orthogonal", -1: "symplectic", 0: "neither"}[fs]


# ---------------------------------------------------------------------------
# Spin characters


def spin0_character(ws: WeightSystem, half=None,
                    term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Character of the reduced Spin: prod (e^{mu/2}+e^{-mu/2})^{m(mu)}.

    The result does not depend on the chosen half; callers may pass one to
    exercise exactly that independence.
    """
    if not ws.is_self_dual():
        raise NotSelfDual("weight system is not self-dual")
    if half is None:
        half = ws.canonical_half()
    total = sum(m for _, m in half)
    if 2 * total != sum(ws.nonzero.values()):
        raise InvalidDescriptor("half does not cover the nonzero weights")
    ch = plus_product(ws.rs, half, ambient=ws.rs, term_budget=term_budget)
    expected = 2 ** ((ws.dimension() - ws.zero_mult) // 2)
    if ch.dimension() != expected:
        raise InvalidDescriptor(
            f"reduced Spin dimension {ch.dimension()}, expected {expected}")
    return ch


def spin_scalar(ws: WeightSystem) -> int:
    return 2 ** (ws.zero_mult // 2)


def spin_character(ws: WeightSystem, verify: bool = True,
                   term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Full Spin character, 2^[m(0)/2] times the reduced one.

    With ``verify`` the exterior-algebra identity
    ch Lambda(V) = 2^{m(0)} (ch Spin0)^2 is checked term by term.
    """
    spin0 = spin0_character(ws, term_budget=term_budget)
    if verify:
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
            raise InvalidDescriptor("exterior algebra != 2^{m(0)} Spin0^2")
    return spin_scalar(ws) * spin0


# ---------------------------------------------------------------------------
# dominant halves: Fourier-Motzkin on integer rows, rational witnesses


def _primitive(row):
    """The primitive integer row on the ray of an integer row (0 stays 0)."""
    g = 0
    for x in row:
        g = gcd(g, x)
    return tuple(x // g for x in row) if g else tuple(row)


def _fm_stages(rows, dim):
    """Fourier-Motzkin elimination of {r . x > 0} over integer rows.

    Stage j holds the primitive rows over the first dim - j coordinates;
    returns the stages, or None once the system is infeasible: a zero row
    reads 0 > 0, and eliminating the first coordinate leaves one for each
    pair of rows of opposite sign.
    """
    stages = []
    for var in range(dim - 1, -1, -1):
        system = list(dict.fromkeys(_primitive(r) for r in rows))
        if any(not any(r) for r in system):
            return None
        stages.append(system)
        neg = [q for q in system if q[var] < 0]
        rows = [r[:var] for r in system if r[var] == 0]
        rows += [tuple(p[var] * q[j] - q[var] * p[j] for j in range(var))
                 for p in system if p[var] > 0 for q in neg]
    return None if rows else stages


def _fm_witness(stages):
    """An exact rational point of a feasible system, by back-substitution
    through its stages: each coordinate in turn takes the midpoint of its
    open interval, one step past its only bound, or 0. None unless the
    point is strictly positive on every row of the system."""
    point = []
    for system in reversed(stages):
        var = len(point)
        lower = upper = None
        for r in system:
            if r[var] == 0:
                continue
            bound = Fraction(-sum(c * x for c, x in zip(r, point))) / r[var]
            if r[var] > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is None:
            point.append(Fraction(0) if upper is None else upper - 1)
        elif upper is None:
            point.append(lower + 1)
        else:
            point.append((lower + upper) / 2)
    if any(sum(c * x for c, x in zip(r, point)) <= 0 for r in stages[0]):
        return None
    return tuple(point)


class DominantHalf:
    """A half of the nonzero weights cut out by a regular dominant witness."""

    def __init__(self, ws: WeightSystem, witness: Weight):
        self.ws = ws
        self.witness = witness
        rs = ws.rs
        geom = rs.key_geometry()
        scale = lcm(*(c.denominator for c in witness.coords))
        # (key, row) is a positive multiple of (weight, witness)
        row = geom._matvec(tuple(int(c * scale) for c in witness.coords))
        self.half = []
        for k, m in sorted(ws.nonzero.items()):
            value = sum(a * b for a, b in zip(k, row))
            if value == 0:
                raise InvalidDescriptor("witness lies on a weight hyperplane")
            if value > 0:
                self.half.append((key_weight(rs, k), m))
        # witness must certify a genuine half and lie in the open chamber
        if 2 * sum(m for _, m in self.half) != sum(ws.nonzero.values()):
            raise InvalidDescriptor("witness does not split the weights in half")
        if any(sum(a * b for a, b in zip(k, row)) <= 0 for k in geom.simple_keys):
            raise InvalidDescriptor("witness is not strictly dominant")

    def extreme_weight(self) -> Weight:
        total = Weight((0,) * self.ws.rs.space_dim)
        for mu, m in self.half:
            total = total + m * Fraction(1, 2) * mu
        return total


def enumerate_dominant_halves(ws: WeightSystem,
                              hyperplane_budget: int = DEFAULT_HYPERPLANE_BUDGET):
    """One DominantHalf per open chamber of C° minus the weight hyperplanes."""
    geom = ws.rs.key_geometry()
    dim = ws.rs.space_dim
    directions = set()
    for k in ws.nonzero:
        if not any(k):
            raise InvalidDescriptor("degenerate zero weight in the nonzero set")
        prim = _primitive(k)
        directions.add(max(prim, tuple(-x for x in prim)))
    if len(directions) > hyperplane_budget:
        raise BudgetExceeded(
            f"{len(directions)} weight hyperplanes exceed the budget"
            f" {hyperplane_budget}", required=len(directions),
            budget=hyperplane_budget)
    # the row of v is x -> (x, v) on plain coordinates, up to a positive factor
    hyper = [geom._matvec(k) for k in sorted(directions)]
    halves = []

    def rec(i, rows):
        stages = _fm_stages(rows, dim)
        if stages is None:
            return
        if i < len(hyper):
            rec(i + 1, rows + [hyper[i]])
            rec(i + 1, rows + [tuple(-x for x in hyper[i])])
            return
        witness = _fm_witness(stages)
        if witness is None:
            raise InvalidDescriptor("feasible region lost its witness")
        halves.append(DominantHalf(ws, Weight(witness)))

    rec(0, list(geom.simple_w))
    halves.sort(key=lambda h: h.witness.coords)
    return halves


def extreme_weights(ws: WeightSystem, spin0: Character = None,
                    hyperplane_budget: int = DEFAULT_HYPERPLANE_BUDGET):
    """The extreme weights: half-sums over all dominant halves, made unique.

    Each is a highest weight of the reduced Spin, occurring there with
    coefficient exactly 1; this is checked against ``spin0``, the reduced
    Spin character, computed at the default term budget when not given.
    """
    halves = enumerate_dominant_halves(ws, hyperplane_budget)
    seen = {}
    for h in halves:
        lam = h.extreme_weight()
        seen[lam.coords] = lam
    out = [seen[c] for c in sorted(seen)]
    if spin0 is None:
        spin0 = spin0_character(ws)
    for lam in out:
        if spin0.coefficient(lam) != 1:
            raise InvalidDescriptor(
                f"extreme weight {lam} has Spin0 coefficient"
                f" {spin0.coefficient(lam)}, expected 1")
    return out


# ---------------------------------------------------------------------------
# predicates


def is_coprimary(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                 term_budget: int = DEFAULT_TERM_BUDGET):
    """Whether the reduced Spin is irreducible; returns (flag, witness)."""
    spin0 = spin0_character(ws, term_budget=term_budget)
    dec = decompose(spin0, ws.rs, budget)
    flag = len(dec) == 1 and dec.is_multiplicity_free()
    return flag, dec


def is_decomposably_generated(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                              term_budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Whether every highest weight of the reduced Spin is extreme."""
    spin0 = spin0_character(ws, term_budget=term_budget)
    dec = decompose(spin0, ws.rs, budget)
    if not dec.is_multiplicity_free():
        return False
    extremes = {w.coords for w in extreme_weights(ws, spin0)}
    heads = {w.coords for w, _ in dec}
    return heads == extremes


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


def _on_root_line(rs: RootSystem, w: Weight) -> bool:
    """Whether w is 0 or W-conjugate to a positive multiple of a root, i.e.
    its dominant representative lies on the ray of a positive root (which
    is then dominant too)."""
    if w.is_zero():
        return True
    dom = rs.dominant_representative(w).coords
    scale = lcm(*(c.denominator for c in dom))
    line = _primitive(tuple(int(c * scale) for c in dom))
    return line in map(_primitive, rs.key_geometry().positive_keys)


def classify_candidate(rs: RootSystem, lam: Weight,
                       budget: int = DEFAULT_WEYL_BUDGET,
                       term_budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Run one candidate through the co-primary filters, cheapest first."""
    record = {
        "type": rs.descriptor(),
        "weight": [str(c) for c in rs.fw_coefficients(lam)],
        "coprimary": False,
        "filter": None,
        "spin0": None,
    }
    if not self_dual(rs, lam):
        record["filter"] = "not-self-dual"
        return record
    if not rs.in_root_lattice(lam):
        record["filter"] = "zero-weight"
        return record
    if not _on_root_line(rs, lam):
        record["filter"] = "highest-weight-off-root-line"
        return record
    ws = freudenthal_weights(rs, lam)
    for k in ws.nonzero:
        if not _on_root_line(rs, key_weight(rs, k)):
            record["filter"] = "weights-off-root-lines"
            return record
    if frobenius_schur(rs, lam, budget) != 1:
        record["filter"] = "symplectic"
        return record
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
