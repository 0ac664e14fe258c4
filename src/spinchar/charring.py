"""The group algebra of the weight lattice: exact sparse characters.

A Character is a finite integer combination of formal exponentials e^mu.
Keys are coordinate tuples scaled by the ambient system's ``denom`` so that
every expression in sight (including half-weights e^{mu/2}) has integer
keys. Products, the Weyl character formula, Freudenthal multiplicities,
exterior invariants and decomposition into irreducibles are all exact;
any division that fails to be exact raises instead of rounding.

Multiplicities are read off the Weyl character formula
ch * sum_w sgn(w) e^{w rho} = sum m_lam A_{lam+rho}, forwards, and by one
route: a product with the Weyl denominator pruned to the strictly
dominant chamber, whose term at lam + rho is m_lam. Each term comes out
of the packed product as one integer record, the key of lam + rho and
2 <lam, alpha_i~> per label, and a ``Decomposition`` holds one integer
record per summand (key, labels, multiplicity, dimension) read off it,
with no ``Weight`` made until one is asked for. ``decompose`` and the
reduced Spin (without expanding it) read all of its terms,
``multiplicity_of`` one, and ``invariant_poincare`` the terms at rho of
the exterior algebra, its degree in one more key coordinate. Freudenthal's
recursion visits dominant weights only, and nothing here enumerates W.
``exact_divide`` divides by root binomials e^{a/2} - e^{-a/2} along
a-strings, exact only when each string's running sum ends at zero; it
serves the Weyl character formula, the oracle the tests and verification
suites compare them against. The denominator identities walk one orbit
for their left sides and multiply their right sides out on half the
lattice, since each unpruned product is +-symmetric.
"""

from __future__ import annotations

from math import lcm, prod
from operator import add, neg, sub

from .errors import BudgetExceeded, ConsistencyError, InvalidDescriptor, NonModuleCharacter
from .rootsys import HALF, RootSystem, Weight, _dot, coord_strings
from .weyl import DEFAULT_WEYL_BUDGET, SubsystemDatum, _check_weyl_budget, signed_orbit

DEFAULT_TERM_BUDGET = 5 * 10**6


def weight_key(rs: RootSystem, w: Weight):
    return w.key_at(rs.denom)


def key_weight(rs: RootSystem, key) -> Weight:
    return Weight.from_key(key, rs.denom)


class Character:
    """A sparse integer-valued function on (half of) the weight lattice."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms=None):
        self.rs = rs
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def one(cls, rs):
        return cls(rs, {(0,) * rs.space_dim: 1})

    @classmethod
    def from_weights(cls, rs, pairs):
        terms = {}
        for w, c in pairs:
            k = weight_key(rs, w)
            terms[k] = terms.get(k, 0) + c
        return cls(rs, terms)

    def coefficient(self, w: Weight) -> int:
        try:
            return self.terms.get(weight_key(self.rs, w), 0)
        except ValueError:
            return 0

    def dimension(self) -> int:
        return sum(self.terms.values())

    def _compatible(self, other):
        if self.rs.space_dim != other.rs.space_dim or self.rs.denom != other.rs.denom:
            raise InvalidDescriptor("characters live in different coordinate lattices")

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return Character(self.rs, terms)

    def __sub__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) - v
        return Character(self.rs, terms)

    def __rmul__(self, c: int):
        return Character(self.rs, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other, term_budget: int = DEFAULT_TERM_BUDGET):
        self._compatible(other)
        if len(self.terms) * len(other.terms) > 4 * term_budget:
            raise BudgetExceeded(
                f"product with {len(self.terms)} x {len(other.terms)} terms"
                f" exceeds the term budget {term_budget}",
                required=len(self.terms) * len(other.terms), budget=term_budget)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        if len(out) > term_budget:
            raise BudgetExceeded(
                f"product support {len(out)} exceeds the term budget {term_budget}",
                required=len(out), budget=term_budget)
        return Character(self.rs, out)

    def __eq__(self, other):
        return isinstance(other, Character) and self.terms == other.terms

    def conjugate(self):
        return Character(self.rs, {tuple(-x for x in k): v for k, v in self.terms.items()})

    def to_json(self):
        return {
            "denom": self.rs.denom,
            "terms": [[list(k), v] for k, v in sorted(self.terms.items())],
        }

    def __repr__(self):
        n = len(self.terms)
        return f"Character({n} terms, dim {self.dimension()})"


# ---------------------------------------------------------------------------
# Weyl machinery


def alternating_sum(rs: RootSystem, x: Weight, budget: int = DEFAULT_WEYL_BUDGET,
                    twist: SubsystemDatum = None) -> Character:
    """sum over W of sign(w) e^{w x}, det w or, for a subsystem datum
    ``twist`` and a regular dominant x, tau(w): one ``signed_orbit`` walk
    once |W| is within the budget. For det, x descends by ``to_dominant``
    at the sign of its letters, and a singular x gives 0. A non-integral
    x, or a twisted sign at any other x, raises InvalidDescriptor.
    """
    key = weight_key(rs, x)
    required = _check_weyl_budget(rs, budget)
    labels = rs.labels(key)
    if labels is None:
        raise InvalidDescriptor(f"{x} is not integral for {rs.descriptor()}")
    labels, key, letters = rs.to_dominant(labels, key)
    if twist is not None and (letters or not all(labels)):
        raise InvalidDescriptor(f"a twisted sign needs a regular dominant x, not {x}")
    if not all(labels):
        return Character(rs)
    return Character(rs, signed_orbit(rs, key, labels, required, twist,
                                      -1 if len(letters) % 2 else 1))


def weyl_denominator(rs: RootSystem, budget: int = DEFAULT_WEYL_BUDGET) -> Character:
    """The alternating sum over W of e^{w rho}."""
    return alternating_sum(rs, rs.rho, budget)


def _merge_roots(items, plus) -> list:
    """The [labels, half, m, s] items of ``_binomial_product`` with each
    signed binomial merged with the plus binomials at +-v, and on along the
    chain (see there); ``plus`` files each plus item under +-half. A plus
    binomial keeps its place, with what is left of its m."""
    merged = []
    for f in items:
        labels, half, m, s = f
        if s == 1:
            merged.append(f)  # its m is read below, once the signed ones took theirs
            continue
        while half in plus:
            taken = 0
            for g in plus[half]:
                t = min(g[2], m - taken)
                g[2] -= t
                taken += t
            if not taken:
                break
            if taken < m:
                merged.append((labels, half, m - taken, s))
            # the taken pairs: e^v - e^{-v}, a signed binomial at 2v
            labels, half = tuple(map(add, labels, labels)), tuple(map(add, half, half))
            m, s = taken, -1
        merged.append((labels, half, m, s))
    return [f for f in merged if f[2]]


def _binomial_product(rs: RootSystem, factors, term_budget: int,
                      floor: int = None, seed=None) -> dict:
    """The seed terms {key: coefficient} (by default the single term 1)
    times prod (e^{v/2} + s e^{-v/2})^m over (key v, m, s) factors, as
    {key of the exponent: coefficient}, one binomial at a time.

    States are packed into one integer, one offset field per coordinate,
    so a move is one addition. With a ``floor``, only the terms whose
    doubled Dynkin labels (those of rs) are all >= floor are wanted:
    factors go in descending m * sum |labels|, and a partial sum is dropped
    once some doubled label, plus the remaining factors' |labels|, falls
    below the floor. Each state carries that slack in one field per label,
    above a guard bit; a move only lowers it, so the prune is one test of
    the guard bits. Once every factor is in, the slack of label i is
    2 label_i - floor, and each term is written as one integer record: the
    key followed by those slack fields. At floor 2 the record of the key
    lam + rho ends in 2 label_i(lam), odd where lam is not integral. More
    states than the term budget raise BudgetExceeded.

    With no floor and no seed, P(-k) = S P(k) for S the product of the
    signs, so only the states at or above zero (base) in the packed order
    are held. Each moves to k + h, h taken above zero, and to k - h or its
    mirror h - k; the term budget counts the full support.

    Before the sort, each signed factor (v, m, -1) takes in up to m plus
    factors at +-v: (e^{v/2} - e^{-v/2})(e^{v/2} + e^{-v/2}) = e^v - e^{-v}
    is one signed binomial at 2v, which may take in plus factors at +-2v in
    turn, and so on along the chain. So a weight of Spin0 that is a root
    costs no binomial beside the Weyl denominator's. What is not taken in
    stays as given; when no signed factor meets a plus factor, the factors
    are read once.
    """
    n = 0 if floor is None else rs.rank
    items, plus, minus = [], {}, []
    for v, m, s in factors:
        labels = rs.labels(v) if n else []
        if labels is None:
            raise NonModuleCharacter(
                f"weight {key_weight(rs, v)} is not integral for {rs.descriptor()}")
        if any(x % 2 for x in v):
            raise InvalidDescriptor(f"half of {key_weight(rs, v)} is off the key lattice")
        f = [labels, tuple([x // 2 for x in v]), m, s]
        items.append(f)
        if s == 1:  # a plus binomial at v is the one at -v: a signed one meets either
            plus.setdefault(f[1], []).append(f)
            plus.setdefault(tuple(map(neg, f[1])), []).append(f)
        else:
            minus.append(f[1])
    if not plus.keys().isdisjoint(minus):
        items = _merge_roots(items, plus)
    items.sort(key=lambda f: -f[2] * sum(map(abs, f[0])))
    # the key length is the one given: a trailing coordinate no label reads
    # (the degree of ``invariant_poincare``) rides along unpruned
    dim = len(items[0][1] if items else next(iter(seed or ()), rs.rho_key))
    reach = [sum(m * abs(p[i]) for p, _, m, _ in items) for i in range(n)]
    # a seed term starts with its doubled labels plus the reach, less the
    # floor, as slack; its weights are integral (``decompose`` checks them)
    starts = [([r - floor for r in reach], (0,) * dim, 1)] if seed is None else [
        ([2 * p + r - floor for p, r in zip(rs.labels(k) if n else [], reach)], k, c)
        for k, c in seed.items()]
    starts = [t for t in starts if min(t[0], default=0) >= 0]
    # no field leaves [off - 2 bound, off + bound], inside [0, 2 off)
    bound = max(reach + [sum(m * abs(h[t]) for _, h, m, _ in items) for t in range(dim)])
    if seed is not None:
        bound += max((abs(x) for sl, k, _ in starts for x in sl + list(k)), default=0)
    bits = (2 * bound).bit_length() + 1
    off, mask = 1 << (bits - 1), (1 << bits) - 1
    pack = lambda fields: sum(x << (bits * t) for t, x in enumerate(fields))
    guard = pack([off] * len(reach))
    terms = {pack([off + x for x in sl + list(k)]): c for sl, k, c in starts}
    signed = seed is not None
    half_only = seed is None and not n and all(any(h) for _, h, _, _ in items)
    if half_only:  # e^h + s e^{-h} = s (e^{-h} + s e^h); -k is 2 base - k
        base, parity = next(iter(terms)), 1  # the one state, at zero
        terms[base] = prod(s ** m for _, h, m, s in items if h[::-1] < (0,) * dim)
        mirror = 2 * base
    for labels, half, m, s in items:
        up = pack([p - abs(p) for p in labels] + list(half))
        down = pack([-p - abs(p) for p in labels] + [-x for x in half])
        signed = signed or s < 0
        if half_only and up < 0:
            up, down = down, up
        for _ in range(m):
            out = {}
            if half_only:  # k + h is above zero; k - h or its mirror h - k
                zero = terms.pop(base, 0)
                for k, c in terms.items():
                    a, b = k + up, k + down
                    out[a] = out.get(a, 0) + c
                    if b >= base:
                        out[b] = out.get(b, 0) + s * c
                    if b <= base:
                        out[mirror - b] = out.get(mirror - b, 0) + parity * c
                if zero:  # zero is its own mirror: one move
                    out[base + up] = out.get(base + up, 0) + zero
                parity *= s
            else:
                for k, c in terms.items():
                    a, b = k + up, k + down
                    if a & guard == guard:
                        out[a] = out.get(a, 0) + c
                    if b & guard == guard:
                        out[b] = out.get(b, 0) + s * c
            terms = {k: c for k, c in out.items() if c} if signed else out
            support = 2 * len(terms) - (base in terms) if half_only else len(terms)
            if support > term_budget:
                raise BudgetExceeded(
                    f"product support {support} exceeds the term budget {term_budget}",
                    required=support, budget=term_budget)
    shifts = [bits * t for t in (*range(n, n + dim), *range(n))]
    out = {tuple(((k >> t) & mask) - off for t in shifts): c for k, c in terms.items()}
    if half_only:  # the mirrors; zero is its own
        out.update([(tuple(map(neg, k)), parity * c) for k, c in out.items()])
    return out


def plus_product(rs: RootSystem, weights_with_mult,
                 term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Expand prod (e^{mu/2} + e^{-mu/2})^{m(mu)}."""
    factors = [(weight_key(rs, mu), m, 1) for mu, m in weights_with_mult]
    return Character(rs, _binomial_product(rs, factors, term_budget))


def skew_plus_product(rs: RootSystem, roots, weights,
                      term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Expand prod (e^{a/2} - e^{-a/2}) over the given roots times
    prod (e^{mu/2} + e^{-mu/2}) over the given weights, as one product.

    The binomials go in ascending height (v, rho), on half the lattice.
    The term budget bounds the full supports: their peak is 4,572 terms on
    E6/C4 and 182,168 on E6/alpha1.
    """
    rho_w = rs._matvec(rs.rho_key)
    factors = sorted([(weight_key(rs, a), 1, -1) for a in roots]
                     + [(weight_key(rs, mu), 1, 1) for mu in weights],
                     key=lambda f: _dot(f[0], rho_w))
    return Character(rs, _binomial_product(rs, factors, term_budget))


def exact_divide(num: Character, roots, rs: RootSystem,
                 term_budget: int = DEFAULT_TERM_BUDGET) -> Character:
    """Exact division of num by prod (e^{a/2} - e^{-a/2}) over the given
    roots of rs, one root binomial at a time.

    The keys of the dividend p fall into a-strings k + Z a. The quotient q
    by one binomial satisfies q(nu) = p(nu + a/2) + q(nu + a): a running
    sum from the top of each string, moved down by a/2. The division is
    exact if and only if every running sum is back at zero at the bottom
    of its string; otherwise NonModuleCharacter names the root. Roots go
    in descending height (a, rho), which keeps the intermediate supports
    small; one above the term budget raises BudgetExceeded.
    """
    roots = sorted(roots, key=lambda r: rs.inner(r, rs.rho), reverse=True)
    steps = [(weight_key(num.rs, a), weight_key(num.rs, HALF * a)) for a in roots]
    # Keys are packed into integers, one offset field per coordinate, so a
    # move is one addition. No key met leaves [-bound, bound], and the
    # fields fit the difference of two keys less a multiple of a root.
    bound = max((abs(x) for k in num.terms for x in k), default=0)
    bound += sum(abs(x) for _, half in steps for x in half)
    bits = 2 * bound.bit_length() + 4
    off, mask = 1 << (bits - 1), (1 << bits) - 1
    pack = lambda key, o=0: sum((x + o) << (bits * t) for t, x in enumerate(key))
    terms = {pack(k, off): c for k, c in num.terms.items()}
    for root, (a_key, half_key) in zip(roots, steps):
        i = next(t for t, x in enumerate(a_key) if x)
        ai, shift, a, half = a_key[i], bits * i, pack(a_key), pack(half_key)
        strings = {}  # per string, its place j = k_i // a_i -> coefficient
        for k, c in terms.items():
            j = (((k >> shift) & mask) - off) // ai
            strings.setdefault(k - j * a - half, {})[j] = c
        terms = {}
        for base, col in strings.items():
            lo, running = min(col), 0
            for j in range(max(col), lo, -1):
                running += col.get(j, 0)
                if running:
                    terms[base + j * a] = running
            if running + col[lo]:
                raise NonModuleCharacter(
                    f"division by the binomial of the root {root} is not exact")
        if len(terms) > term_budget:
            raise BudgetExceeded(
                f"division support {len(terms)} exceeds the term budget {term_budget}",
                required=len(terms), budget=term_budget)
    dim = num.rs.space_dim
    return Character(num.rs, {
        tuple(((k >> (bits * t)) & mask) - off for t in range(dim)): c
        for k, c in terms.items()})


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam: the product of
    (lam + rho, a) / (rho, a) over the positive roots, as one integer
    product of key pairings and one exact division."""
    scale = lcm(rs.denom, lam.scale)
    m = scale // rs.denom
    shifted = [x * (scale // lam.scale) + m * r for x, r in zip(lam.key, rs.rho_key)]
    num = 1
    for fa in rs.positive_w:
        num *= _dot(shifted, fa)
    dim, rem = divmod(num, rs.rho_heights * m ** len(rs.positive_w))
    if rem:
        raise InvalidDescriptor(f"Weyl dimension for {lam} not integral")
    return dim


def irreducible_character(rs: RootSystem, lam: Weight,
                          budget: int = DEFAULT_WEYL_BUDGET) -> Character:
    """Weyl character formula: the alternating sum over W of e^{w(lam + rho)},
    divided exactly by the root binomials of the positive roots.

    Walks the orbit of lam + rho; the library's own paths use
    ``freudenthal_weights`` and this stays as their independent oracle.
    """
    if not rs.is_dominant(lam):
        raise InvalidDescriptor(f"{rs.format_weight(lam)} is not dominant")
    if not rs.is_integral(lam):
        raise InvalidDescriptor(f"{rs.format_weight(lam)} is not integral")
    num = alternating_sum(rs, lam + rs.rho, budget)
    ch = exact_divide(num, rs.positive_roots, rs)
    if ch.dimension() != weyl_dimension(rs, lam):
        raise ConsistencyError(
            f"character of {lam} has dimension {ch.dimension()},"
            f" Weyl formula gives {weyl_dimension(rs, lam)}")
    return ch


# ---------------------------------------------------------------------------
# weight systems


class WeightSystem:
    """The multiset of weights of a finite-dimensional module."""

    def __init__(self, rs: RootSystem, nonzero, zero_mult: int = 0):
        self.rs = rs
        self.nonzero = {}
        for w, m in (nonzero.items() if isinstance(nonzero, dict) else nonzero):
            if m <= 0:
                raise InvalidDescriptor("weight multiplicities must be positive")
            k = w if isinstance(w, tuple) else weight_key(rs, w)
            if all(x == 0 for x in k):
                raise InvalidDescriptor("zero weight passed in the nonzero part")
            self.nonzero[k] = self.nonzero.get(k, 0) + m
        self.zero_mult = zero_mult

    def dimension(self) -> int:
        return self.zero_mult + sum(self.nonzero.values())

    def weight_sum(self) -> Weight:
        total = (0,) * self.rs.space_dim
        for k, m in self.nonzero.items():
            total = tuple(t + m * x for t, x in zip(total, k))
        return Weight.from_key(total, self.rs.denom)

    def is_self_dual(self) -> bool:
        return all(self.nonzero.get(tuple(map(neg, k))) == m
                   for k, m in self.nonzero.items())

    def character(self) -> Character:
        terms = dict(self.nonzero)
        if self.zero_mult:
            terms[(0,) * self.rs.space_dim] = self.zero_mult
        return Character(self.rs, terms)

    def canonical_half_keys(self):
        """One key from each +-pair (lexicographically positive side)."""
        return [(k, m) for k, m in sorted(self.nonzero.items()) if k > tuple(map(neg, k))]

    def canonical_half(self):
        """The canonical half as (weight, multiplicity) pairs."""
        return [(key_weight(self.rs, k), m) for k, m in self.canonical_half_keys()]

    @classmethod
    def adjoint(cls, rs: RootSystem) -> "WeightSystem":
        pairs = [(r, 1) for r in rs.positive_roots] + [(-r, 1) for r in rs.positive_roots]
        return cls(rs, pairs, zero_mult=rs.rank)

    def __repr__(self):
        return f"WeightSystem(dim {self.dimension()}, m(0)={self.zero_mult})"


def dominant_weights(rs: RootSystem, lam_key):
    """The dominant weights of V_lam for a dominant integral key, yielded
    as (Dynkin labels, key) pairs as they are found, lam first.

    They are the dominant weights below lam, reached from lam by chains of
    dominant weights that differ by positive roots (Stembridge), and each
    has positive multiplicity, so a breadth-first walk on labels finds them
    without Freudenthal's recursion; a consumer that stops reading stops it.
    """
    top = tuple(rs.labels(lam_key))
    keys = {top: lam_key}
    yield top, lam_key
    frontier = [top]
    while frontier:
        nxt = []
        for p in frontier:
            k = keys[p]
            for la, a in zip(rs.positive_labels, rs.positive_keys):
                q = tuple(map(sub, p, la))
                if min(q) >= 0 and q not in keys:
                    keys[q] = kq = tuple(map(sub, k, a))
                    yield q, kq
                    nxt.append(q)
        frontier = nxt


def freudenthal_weights(rs: RootSystem, lam: Weight) -> WeightSystem:
    """Full weight multiset of the irreducible V_lam via Freudenthal's
    recursion, cross-checked against the Weyl dimension formula.

    The recursion visits dominant weights only (Moody-Patera), the whole
    walk of ``dominant_weights`` read into a dict. Inside lam + Q a weight
    is fixed by its Dynkin labels. An alpha-string ends where its dominant
    representative leaves that set, since strings of weights are unbroken.
    The dominant multiplicities are then spread over their orbits; W is
    never enumerated.
    """
    if not rs.is_dominant(lam) or not rs.is_integral(lam):
        raise InvalidDescriptor(f"{rs.format_weight(lam)} is not dominant integral")
    try:
        lam_k = weight_key(rs, lam)
    except ValueError:  # a g0 keeps its ambient's key scale
        raise InvalidDescriptor(f"{lam} is off the key lattice (1/{rs.denom})Z^n"
                                f" of {rs.descriptor()}") from None
    if rs.rank == 0:
        return WeightSystem(rs, [(lam, 1)] if not lam.is_zero() else [],
                            1 if lam.is_zero() else 0)
    rho_k = rs.rho_key
    # per positive root: labels, form vector, scaled (alpha, alpha)
    root_steps = [(la, fa, _dot(a, fa)) for la, fa, a
                  in zip(rs.positive_labels, rs.positive_w, rs.positive_keys)]
    keys = dict(dominant_weights(rs, lam_k))
    top_labels = next(iter(keys))

    def shifted_norm(k):
        s = tuple(map(add, k, rho_k))
        return rs.inner_keys(s, s)

    rho_w = rs._matvec(rho_k)
    # every dominant representative of mu + k alpha lies strictly above mu
    order = sorted(keys, key=lambda p: (-_dot(rho_w, keys[p]), p))
    dominant_of = {}

    def dominant_labels(p):
        d = dominant_of.get(p)
        if d is None:
            d = dominant_of[p] = rs.to_dominant(p)[0]
        return d

    top = shifted_norm(lam_k)
    mult = {top_labels: 1}
    for p in order[1:]:
        mu = keys[p]
        denom = top - shifted_norm(mu)  # in key units, like the sums below
        if denom <= 0:
            raise ConsistencyError(
                f"Freudenthal denominator {denom} on the dominant weight"
                f" {key_weight(rs, mu)}")
        total = 0
        for la, fa, step in root_steps:
            ip = _dot(mu, fa)
            q = p
            while True:
                q = tuple(map(add, q, la))
                ip += step
                d = dominant_labels(q)
                if d not in keys:
                    break
                total += mult[d] * ip
        total *= 2
        if total % denom:
            raise ConsistencyError("Freudenthal recursion gave a non-integer")
        value = total // denom
        if value <= 0:
            raise ConsistencyError(
                f"Freudenthal multiplicity {value} on the dominant weight"
                f" {key_weight(rs, mu)}")
        mult[p] = value

    # expand dominant multiplicities over Weyl orbits
    nonzero = {}
    zero_mult = 0
    total_dim = 0
    zero_key = (0,) * rs.space_dim
    for p, m in mult.items():
        orbit = rs.dominant_orbit(keys[p], list(p))
        total_dim += m * len(orbit)
        for k in orbit:
            if k == zero_key:
                zero_mult += m
            else:
                nonzero[k] = m
    if total_dim != weyl_dimension(rs, lam):
        raise ConsistencyError(
            f"Freudenthal weights of {lam} sum to {total_dim},"
            f" Weyl formula gives {weyl_dimension(rs, lam)}")
    return WeightSystem(rs, nonzero, zero_mult)


# ---------------------------------------------------------------------------
# decomposition


class Decomposition:
    """A multiset of irreducibles, sorted by highest weight lam, held as one
    integer record per summand: lam's key at ``scale`` (``keys``), its
    Dynkin labels (``labels``), its multiplicity and its dimension.
    ``summands``, the (Weight, multiplicity) pairs, is built on first read.

    Built from (Weight, multiplicity) pairs, each record is read off its
    weight: the keys at the least scale of the weights and rs.denom, the
    labels by ``dynkin_labels`` and the dimension by ``weyl_dimension``.
    ``_decompose_product`` builds one straight from the product's records
    (``from_records``).
    """

    __slots__ = ("rs", "scale", "keys", "labels", "multiplicities", "dimensions",
                 "_summands")

    def __init__(self, rs: RootSystem, summands):
        pairs = tuple(sorted(summands, key=lambda t: t[0]))
        self.rs, self._summands = rs, pairs
        self.scale = scale = lcm(rs.denom, *(lam.scale for lam, _ in pairs))
        self.keys = tuple(lam.key_at(scale) for lam, _ in pairs)
        self.labels = tuple(rs.dynkin_labels(lam) for lam, _ in pairs)
        self.multiplicities = tuple(m for _, m in pairs)
        self.dimensions = tuple(weyl_dimension(rs, lam) for lam, _ in pairs)

    @classmethod
    def from_records(cls, rs: RootSystem, keys, labels, multiplicities, dimensions):
        """The decomposition of the given records, tuples in step: keys at
        rs.denom and in ascending order, which is the order of their
        weights."""
        dec = cls.__new__(cls)
        dec.rs, dec.scale, dec._summands = rs, rs.denom, None
        dec.keys, dec.labels, dec.multiplicities, dec.dimensions = (
            keys, labels, multiplicities, dimensions)
        return dec

    @property
    def summands(self) -> tuple:
        if self._summands is None:
            self._summands = tuple((Weight.from_key(k, self.scale), m)
                                   for k, m in zip(self.keys, self.multiplicities))
        return self._summands

    def total_dimension(self) -> int:
        return _dot(self.multiplicities, self.dimensions)

    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def to_json(self):
        s = self.scale
        return [
            {"weight": coord_strings(k, s),
             "fw": list(map(str, p)),
             "multiplicity": m,
             "dimension": d}
            for k, p, m, d in zip(self.keys, self.labels, self.multiplicities,
                                  self.dimensions)
        ]

    def __eq__(self, other):
        return self.summands == other.summands

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.keys)

    def __repr__(self):
        parts = [f"{m} x V_{self.rs.format_weight(lam)}" for lam, m in self.summands]
        return "Decomposition(" + " + ".join(parts) + ")"


def _check_invariant(ch: Character, rs: RootSystem):
    """NonModuleCharacter unless ch is W-invariant, checked on the simple
    reflections of rs; a non-integral weight is named first."""
    if rs.denom != ch.rs.denom:
        raise InvalidDescriptor("characters live in different coordinate lattices")
    labels = {k: rs.labels(k) for k in ch.terms}
    for k, p in labels.items():
        if p is None:
            raise NonModuleCharacter(
                f"weight {key_weight(ch.rs, k)} is not integral for {rs.descriptor()}")
    for k, v in ch.terms.items():
        for p, a in zip(labels[k], rs.simple_keys):
            if ch.terms.get(tuple(x - p * y for x, y in zip(k, a)), 0) != v:
                raise NonModuleCharacter("character is not Weyl-invariant")


def _dominant_numerator(rs: RootSystem, seed, factors, term_budget: int) -> dict:
    """seed * prod(factors) of ``_binomial_product`` times the Weyl
    denominator prod_{a>0} (e^{a/2} - e^{-a/2}), pruned to the terms whose
    doubled labels are all >= 2. For a W-invariant character that product
    is sum m_lam A_{lam+rho}, so the term at lam + rho is m_lam."""
    factors = list(factors) + [(a, 1, -1) for a in rs.positive_keys]
    return _binomial_product(rs, factors, term_budget, floor=2, seed=seed)


def _decompose_product(rs: RootSystem, seed, factors, dimension: int, what: str,
                       term_budget: int) -> Decomposition:
    """The W-invariant character seed * prod(factors) of ``_binomial_product``,
    of the given dimension, as a sum of irreducibles, one per term of
    ``_dominant_numerator``, whose record is the key k of lam + rho and
    2 label_i(lam) per label. The records are read as they are: an odd
    label field (lam not integral) or m_lam < 0 raises NonModuleCharacter,
    naming ``what``; lam's labels are half those fields, its dimension is
    prod (k, alpha) / prod (rho, alpha) over the positive roots, and the
    records go in the order of k, which is lam's. Summands that do not fill
    the dimension raise ConsistencyError.
    """
    dim, rho, forms, heights = rs.space_dim, rs.rho_key, rs.positive_w, rs.rho_heights
    keys, labels, mults, dims = [], [], [], []
    for record, m in sorted(_dominant_numerator(rs, seed, factors, term_budget).items()):
        k, twice = record[:dim], record[dim:]
        lam = tuple(map(sub, k, rho))
        if m < 0 or any(p % 2 for p in twice):
            raise NonModuleCharacter(f"{what} has V_{rs.format_weight(key_weight(rs, lam))}"
                                     f" with multiplicity {m}; not a module")
        keys.append(lam)
        labels.append(tuple([p // 2 for p in twice]))
        mults.append(m)
        dims.append(prod(_dot(k, f) for f in forms) // heights)
    dec = Decomposition.from_records(rs, tuple(keys), tuple(labels), tuple(mults), tuple(dims))
    if dec.total_dimension() != dimension:
        raise ConsistencyError(f"summands have total dimension {dec.total_dimension()},"
                               f" {what} has dimension {dimension}")
    return dec


def decompose(ch: Character, rs: RootSystem = None) -> Decomposition:
    """Decomposition of a W-invariant character into irreducibles, from its
    product with the Weyl denominator pruned to the strictly dominant
    chamber (bounded by the default term budget). Fails loudly on a
    non-integral weight, named first, on a character that is not
    W-invariant, on a negative multiplicity, and on summands that do not
    fill the character's dimension."""
    rs = rs or ch.rs
    _check_invariant(ch, rs)
    return _decompose_product(rs, ch.terms, [], ch.dimension(), "the character",
                              DEFAULT_TERM_BUDGET)


def multiplicity_of(ch: Character, lam: Weight, rs: RootSystem = None) -> int:
    """Multiplicity of the irreducible V_lam in the W-invariant character
    ch, virtual or not: the term at lam + rho of ch times the Weyl
    denominator, pruned to the strictly dominant chamber (see
    ``_dominant_numerator``); 0 for a lam that is not dominant integral.
    |W| from the type is checked against the default Weyl budget first."""
    rs = rs or ch.rs
    _check_weyl_budget(rs, DEFAULT_WEYL_BUDGET)
    _check_invariant(ch, rs)
    if not (rs.is_dominant(lam) and rs.is_integral(lam)):
        return 0
    try:
        key = weight_key(ch.rs, lam)
    except ValueError:  # off the key lattice, as is every term of the product
        return 0
    numerator = _dominant_numerator(rs, ch.terms, [], DEFAULT_TERM_BUDGET)
    record = (*map(add, key, rs.rho_key), *(2 * p for p in rs.dynkin_labels(lam)))
    return numerator.get(record, 0)


# ---------------------------------------------------------------------------
# invariants of the exterior algebra


class GradedPoincare:
    """Coefficients of the Poincare polynomial of graded invariants."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)

    def dimension(self) -> int:
        return sum(self.coefficients)

    def factored(self):
        """Factorization into (1 + t^k) terms by trial division, or None.

        In any such factorization the lowest nonconstant degree is forced
        to be a factor, so the division order is determined.
        """
        poly = list(self.coefficients)
        while poly and poly[-1] == 0:
            poly.pop()
        if poly[:1] != [1]:
            return None
        factors = []
        while len(poly) > 1:
            k = next(i for i in range(1, len(poly)) if poly[i])
            quot, ok = _divide_poly(poly, k)
            if not ok:
                return None
            factors.append(k)
            poly = quot
        if poly == [1] and factors:
            return sorted(factors)
        return None

    def __str__(self):
        factors = self.factored()
        if factors is not None:
            return "".join(f"(1+t^{k})" for k in factors)
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                prefix = "" if c == 1 else f"{c}*"
                parts.append(f"{prefix}t^{i}")
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        a = list(self.coefficients)
        b = list(other.coefficients) if isinstance(other, GradedPoincare) else list(other)
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        return a == b


def _divide_poly(poly, k):
    """Divide a coefficient list by 1 + t^k within nonnegative-coefficient
    polynomials; returns (quotient, exact?)."""
    if len(poly) <= k:
        return poly, False
    rem = list(poly)
    quot = [0] * (len(poly) - k)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + k]
        quot[i] = c
        rem[i + k] = 0
        rem[i] -= c
    if any(rem) or any(c < 0 for c in quot):
        return poly, False
    return quot, True


def invariant_poincare(ws: WeightSystem, budget: int = DEFAULT_WEYL_BUDGET,
                       term_budget: int = DEFAULT_TERM_BUDGET) -> GradedPoincare:
    """Graded dimensions of the invariants in the exterior algebra.

    The exterior algebra's character is prod (1 + t e^mu)^{m(mu)}, and
    coefficient i is the trivial multiplicity in its degree-i part: the
    term at (rho, t^i) of its product with the Weyl denominator, pruned to
    the strictly dominant chamber, one product for every degree. Each
    factor is 1 + t e^mu = e^{v/2} (e^{v/2} + e^{-v/2}) with v = (mu, 2):
    twice the degree rides in one trailing key coordinate that no label
    reads, and the seed is e^{sum m(mu) v/2}. |W| from the type is checked
    against the budget up front. An exterior power of a W-invariant
    multiset is W-invariant, so invariance is checked once, on the input
    weights. When they sum to zero, degree n - i must mirror degree i.
    """
    rs = ws.rs
    _check_weyl_budget(rs, budget)
    _check_invariant(ws.character(), rs)
    n, total = ws.dimension(), weight_key(rs, ws.weight_sum())
    weights = [*ws.nonzero.items(), ((0,) * rs.space_dim, ws.zero_mult)]
    factors = ([(k + (2,), m, 1) for k, m in weights]
               + [(a + (0,), 1, -1) for a in rs.positive_keys])
    seed = {tuple(x // 2 for x in total) + (n,): 1}
    numerator = _binomial_product(rs, factors, term_budget, floor=2, seed=seed)
    # the record at rho: its key, the degree, and slack 2 label_i(0)
    coeffs = [numerator.get(rs.rho_key + (2 * i,) + (0,) * rs.rank, 0) for i in range(n + 1)]
    if not any(total) and coeffs != coeffs[::-1]:
        raise ConsistencyError(f"invariant dimensions {coeffs} are not mirror-symmetric")
    if any(c < 0 for c in coeffs):
        raise NonModuleCharacter("negative invariant dimension")
    return GradedPoincare(coeffs)
