"""Weyl groups: enumeration, lengths, coset sections, cunning parity.

Elements are stored as exact rational matrices acting on the ambient
coordinate space; an element is identified by its image of a fixed regular
vector, which also makes enumeration order deterministic (BFS by length,
ties broken lexicographically).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceeded, InvalidDescriptor
from .linalg import identity, inverse, mat_t, matmul, matvec
from .rootsys import RootSystem, Weight, subsystem

DEFAULT_WEYL_BUDGET = 10**6

_FORM_INVERSES = {}


def inverse_orthogonal(rs: RootSystem, matrix):
    """Inverse of a form-preserving matrix: F^{-1} m^T F."""
    if rs.form not in _FORM_INVERSES:
        _FORM_INVERSES[rs.form] = inverse(rs.form)
    return matmul(matmul(_FORM_INVERSES[rs.form], mat_t(matrix)), rs.form)


class WeylElement:
    __slots__ = ("matrix", "length", "_image")

    def __init__(self, matrix, length, image):
        self.matrix = matrix
        self.length = length
        self._image = image

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, w: Weight) -> Weight:
        return Weight(matvec(self.matrix, w.coords))

    def __eq__(self, other):
        return self._image == other._image

    def __hash__(self):
        return hash(self._image)

    def __repr__(self):
        return f"WeylElement(length={self.length})"


def reflection_matrix(rs: RootSystem, alpha: Weight):
    n = rs.space_dim
    aa = rs.inner(alpha, alpha)
    falpha = matvec(rs.form, alpha.coords)
    return tuple(
        tuple(
            (Fraction(1) if i == j else Fraction(0)) - 2 * alpha.coords[i] * falpha[j] / aa
            for j in range(n)
        )
        for i in range(n)
    )


def _length(rs: RootSystem, matrix, positives) -> int:
    neg = {(-r).coords for r in positives}
    return sum(1 for r in positives if matvec(matrix, r.coords) in neg)


class WeylGroup:
    """A reflection group on the ambient space, fully enumerated.

    ``positives`` is the positive system the length function refers to;
    for a subgroup generated by reflections in a subset of roots this is
    that subset's own positive system.
    """

    def __init__(self, rs: RootSystem, elements, positives):
        self.rs = rs
        self.elements = elements
        self.positives = tuple(positives)
        self._by_image = {w._image: w for w in elements}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def identity_element(self) -> WeylElement:
        return next(w for w in self.elements if w.length == 0)

    def lookup(self, matrix) -> WeylElement:
        image = tuple(matvec(matrix, self.rs.rho.coords))
        return self._by_image[image]

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.lookup(matmul(a.matrix, b.matrix))

    def invert(self, a: WeylElement) -> WeylElement:
        # elements preserve the form, so w^{-1} = F^{-1} w^T F
        return self.lookup(inverse_orthogonal(self.rs, a.matrix))

    def contains_matrix(self, matrix) -> bool:
        return tuple(matvec(matrix, self.rs.rho.coords)) in self._by_image


def _enumerate(rs: RootSystem, generators, positives, budget, required):
    """BFS closure of a generating set of reflections, dedup via w(rho).

    ``required`` is the expected group order, reported by the budget
    refusal (up front when it exceeds the budget).
    """
    if required > budget:
        raise BudgetExceeded(
            f"Weyl enumeration of {required} elements exceeds budget {budget}",
            required=required, budget=budget)
    n = rs.space_dim
    gens = [reflection_matrix(rs, g) for g in generators]
    regular = rs.rho
    start = identity(n)
    seen = {tuple(regular.coords): start}
    frontier = [start]
    order = [start]
    while frontier:
        frontier.sort(key=lambda m: tuple(matvec(m, regular.coords)))
        new = []
        for m in frontier:
            for g in gens:
                prod = matmul(g, m)
                image = tuple(matvec(prod, regular.coords))
                if image not in seen:
                    seen[image] = prod
                    new.append(prod)
                    order.append(prod)
                    if len(order) > budget:
                        raise BudgetExceeded(
                            f"Weyl enumeration exceeds budget {budget}",
                            required=required, budget=budget)
        frontier = new
    elements = []
    for m in order:
        image = tuple(matvec(m, regular.coords))
        elements.append(WeylElement(m, _length(rs, m, positives), image))
    elements.sort(key=lambda w: (w.length, w._image))
    return elements


def enumerate_weyl(rs: RootSystem, budget: int = DEFAULT_WEYL_BUDGET) -> WeylGroup:
    """The full Weyl group of rs, refusing politely when |W| > budget."""
    if rs._weyl_cache is not None and len(rs._weyl_cache) <= budget:
        return rs._weyl_cache
    required = rs.weyl_order()
    if required > budget:
        raise BudgetExceeded(
            f"|W({rs.descriptor()})| = {required} exceeds the budget {budget}",
            required=required, budget=budget)
    group = WeylGroup(rs, _enumerate(rs, rs.simple_roots, rs.positive_roots, budget,
                                     required), rs.positive_roots)
    if len(group) != required:
        raise InvalidDescriptor(
            f"enumerated {len(group)} elements of W({rs.descriptor()}),"
            f" expected {required}")
    rs._weyl_cache = group
    return group


class SubsystemDatum:
    """A subset of positive roots forming a root system of its own, with
    its reflection subgroup enumerated inside the ambient Weyl group."""

    def __init__(self, rs: RootSystem, delta0_plus, budget: int = DEFAULT_WEYL_BUDGET):
        self.rs = rs
        self.delta0_plus = tuple(
            w if isinstance(w, Weight) else Weight(w) for w in delta0_plus)
        self.system = subsystem(rs, self.delta0_plus)
        elements = _enumerate(rs, self.delta0_plus, self.delta0_plus, budget,
                              self.system.weyl_order())
        self.group = WeylGroup(rs, elements, self.delta0_plus)
        self._plus = {r.coords for r in self.delta0_plus}
        self._minus = {(-r).coords for r in self.delta0_plus}

    @property
    def rho0(self) -> Weight:
        return self.system.rho

    def contains_plus(self, coords) -> bool:
        return coords in self._plus


def minimal_coset_reps(rs: RootSystem, sub: SubsystemDatum,
                       budget: int = DEFAULT_WEYL_BUDGET):
    """Minimal-length coset representatives W0 = {w : w(Delta0+) in Delta+}.

    Verifies that (rep, w0) -> w0 rep^{-1} hits every element of W exactly
    once before returning.
    """
    group = enumerate_weyl(rs, budget)
    plus = {r.coords for r in rs.positive_roots}
    simples0 = sub.system.simple_roots
    reps = [
        w for w in group
        if all(tuple(matvec(w.matrix, b.coords)) in plus for b in simples0)
    ]
    if len(reps) * len(sub.group) != len(group):
        raise InvalidDescriptor("coset section has the wrong cardinality")
    seen = set()
    for rep in reps:
        inv = group.invert(rep)
        for w0 in sub.group:
            image = tuple(matvec(matmul(w0.matrix, inv.matrix), rs.rho.coords))
            if image in seen:
                raise InvalidDescriptor("coset factorization is not a bijection")
            seen.add(image)
    return reps


def factorize(rs: RootSystem, sub: SubsystemDatum, w: WeylElement,
              budget: int = DEFAULT_WEYL_BUDGET):
    """Unique factorization w = w0 (rep)^{-1} with w0 in W0, rep minimal.

    Descent: starting from u = w^{-1}, right-multiply by reflections of
    subsystem simple roots sent to negative roots; each step repairs one
    and the result is the minimal representative.
    """
    group = enumerate_weyl(rs, budget)
    plus = {r.coords for r in rs.positive_roots}
    simples0 = sub.system.simple_roots
    refl = [reflection_matrix(rs, b) for b in simples0]
    u = group.invert(w).matrix
    while True:
        bad = next((i for i, b in enumerate(simples0)
                    if tuple(matvec(u, b.coords)) not in plus), None)
        if bad is None:
            break
        u = matmul(u, refl[bad])
    rep = group.lookup(u)
    w0 = group.multiply(w, rep)
    if not sub.group.contains_matrix(w0.matrix):
        raise InvalidDescriptor("descent left the reflection subgroup")
    return w0, rep


def l0_of(rs: RootSystem, sub: SubsystemDatum, w: WeylElement) -> int:
    """l0(w) = #{alpha in Delta- : w(alpha) in Delta0+}."""
    count = 0
    for r in rs.positive_roots:
        image = tuple(matvec(w.matrix, (-r).coords))
        if sub.contains_plus(image):
            count += 1
    return count


def cunning_parity(rs: RootSystem, sub: SubsystemDatum, w: WeylElement):
    """The parity extending W0's sign through the minimal coset section.

    Returns (tau, l0). tau is multiplicative on W0 but not, in general,
    on all of W.
    """
    l0 = l0_of(rs, sub, w)
    return (-1) ** l0, l0
