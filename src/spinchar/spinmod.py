"""Spin and reduced Spin of orthogonal modules.

The reduced Spin character of a self-dual weight system is the product of
(e^{mu/2} + e^{-mu/2}) over any half of the nonzero weights; the scalar
2^[m(0)/2] restores the full Spin. Dominant halves are enumerated as open
chambers of the dominant cone cut by the weight hyperplanes, with exact
rational feasibility checks, and their half-sums are the extreme weights:
always highest weights of the reduced Spin, each with coefficient one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
# dominant halves via exact chamber enumeration


def _normalize_row(row):
    """Scale a rational row to a primitive integer row (positive scaling)."""
    den = 1
    for x in row:
        x = Fraction(x)
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(Fraction(x) * den) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _fm_eliminate_last(system, var):
    """One Fourier-Motzkin step on {r . x > 0}: eliminate coordinate var.

    Returns the reduced system (rows of length var), or None the moment a
    zero row (0 > 0) witnesses infeasibility.
    """
    pos = [r for r in system if r[var] > 0]
    neg = [r for r in system if r[var] < 0]
    zero = [r for r in system if r[var] == 0]
    out, seen = [], set()

    def push(row):
        n = _normalize_row(row)
        if all(x == 0 for x in n):
            return False
        if n not in seen:
            seen.add(n)
            out.append(n)
        return True

    for r in zero:
        if not push(r[:var]):
            return None
    for p in pos:
        for q in neg:
            combo = [p[var] * q[j] - q[var] * p[j] for j in range(var)]
            if not push(combo):
                return None
    return out


def _fm_stages(rows, dim):
    """All elimination stages of {r . x > 0}, or None if infeasible."""
    system = []
    seen = set()
    for r in rows:
        n = _normalize_row(r)
        if all(x == 0 for x in n):
            return None
        if n not in seen:
            seen.add(n)
            system.append(n)
    stages = [system]
    for var in range(dim - 1, 0, -1):
        system = _fm_eliminate_last(system, var)
        if system is None:
            return None
        stages.append(system)
    # one variable left: rows are (c,) with c != 0; need a sign choice,
    # which always exists unless both signs appear
    last = stages[-1]
    if any(r[0] > 0 for r in last) and any(r[0] < 0 for r in last):
        return None
    return stages


def _fm_feasible(rows, dim) -> bool:
    return _fm_stages(rows, dim) is not None


def _fm_witness(rows, dim):
    """An exact rational interior point of {r . x > 0}, or None."""
    stages = _fm_stages(rows, dim)
    if stages is None:
        return None
    point = []
    for var in range(dim):
        system = stages[dim - 1 - var]
        lower, upper = None, None
        for r in system:
            c = Fraction(r[var])
            rest = -sum(Fraction(r[j]) * point[j] for j in range(var))
            if c > 0:
                bound = rest / c
                lower = bound if lower is None else max(lower, bound)
            elif c < 0:
                bound = rest / c
                upper = bound if upper is None else min(upper, bound)
            elif rest >= 0:
                return None  # constraint reads 0 > nonnegative
        if lower is None and upper is None:
            point.append(Fraction(0))
        elif upper is None:
            point.append(lower + 1)
        elif lower is None:
            point.append(upper - 1)
        else:
            if lower >= upper:
                return None
            point.append((lower + upper) / 2)
    return tuple(point)


class DominantHalf:
    """A half of the nonzero weights cut out by a regular dominant witness."""

    def __init__(self, ws: WeightSystem, witness: Weight):
        self.ws = ws
        self.witness = witness
        rs = ws.rs
        self.half = []
        for k, m in sorted(ws.nonzero.items()):
            mu = key_weight(rs, k)
            value = rs.inner(witness, mu)
            if value == 0:
                raise InvalidDescriptor("witness lies on a weight hyperplane")
            if value > 0:
                self.half.append((mu, m))
        # witness must certify a genuine half and lie in the open chamber
        if 2 * sum(m for _, m in self.half) != sum(ws.nonzero.values()):
            raise InvalidDescriptor("witness does not split the weights in half")
        for a in rs.simple_roots:
            if rs.inner(witness, a) <= 0:
                raise InvalidDescriptor("witness is not strictly dominant")

    def extreme_weight(self) -> Weight:
        total = Weight((0,) * self.ws.rs.space_dim)
        for mu, m in self.half:
            total = total + m * Fraction(1, 2) * mu
        return total


def enumerate_dominant_halves(ws: WeightSystem,
                              hyperplane_budget: int = DEFAULT_HYPERPLANE_BUDGET):
    """One DominantHalf per open chamber of C° minus the weight hyperplanes."""
    rs = ws.rs
    dim = rs.space_dim
    directions = {}
    for k in ws.nonzero:
        if all(x == 0 for x in k):
            raise InvalidDescriptor("degenerate zero weight in the nonzero set")
        g = 0
        for x in k:
            g = gcd(g, x)
        prim = tuple(x // g for x in k)
        if prim < tuple(-x for x in prim):
            prim = tuple(-x for x in prim)
        directions[prim] = True
    directions = sorted(directions)
    if len(directions) > hyperplane_budget:
        raise BudgetExceeded(
            f"{len(directions)} weight hyperplanes exceed the budget"
            f" {hyperplane_budget}", required=len(directions),
            budget=hyperplane_budget)
    # row r encodes the functional x -> (x, v) on plain coordinates
    def functional(v: Weight):
        from .linalg import matvec
        return tuple(matvec(rs.form, v.coords))

    base = [functional(a) for a in rs.simple_roots]
    hyper = [functional(key_weight(rs, k)) for k in directions]
    halves = []

    def rec(i, constraints):
        if not _fm_feasible(constraints, dim):
            return
        if i == len(hyper):
            witness = _fm_witness(constraints, dim)
            if witness is None:
                raise InvalidDescriptor("feasible region lost its witness")
            halves.append(DominantHalf(ws, Weight(witness)))
            return
        row = hyper[i]
        rec(i + 1, constraints + [row])
        rec(i + 1, constraints + [tuple(-x for x in row)])

    rec(0, list(base))
    halves.sort(key=lambda h: h.witness.coords)
    return halves


def extreme_weights(ws: WeightSystem, check_coefficients: bool = True,
                    hyperplane_budget: int = DEFAULT_HYPERPLANE_BUDGET):
    """The extreme weights: half-sums over all dominant halves, made unique.

    Each is a highest weight of the reduced Spin, occurring there with
    coefficient exactly 1 (checked unless disabled).
    """
    halves = enumerate_dominant_halves(ws, hyperplane_budget)
    seen = {}
    for h in halves:
        lam = h.extreme_weight()
        seen[lam.coords] = lam
    out = [seen[c] for c in sorted(seen)]
    if check_coefficients:
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
    extremes = {w.coords for w in extreme_weights(ws, check_coefficients=False)}
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
    if w.is_zero():
        return True
    dom = rs.dominant_representative(w)
    for root in rs.positive_roots:
        if not rs.is_dominant(root):
            continue
        # dom proportional to the dominant root?
        ratio = None
        ok = True
        for a, b in zip(dom.coords, root.coords):
            if b == 0:
                if a != 0:
                    ok = False
                    break
            else:
                r = a / b
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ok = False
                    break
        if ok and ratio is not None and ratio > 0:
            return True
    return False


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
                })
    return records
