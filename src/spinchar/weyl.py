"""Weyl groups: orbit walks, enumeration, lengths, coset sections, cunning parity.

An element w is the integer key of w(rho) (coordinates scaled by the
system's ``denom``) together with a reduced word in the simple reflections
that generate its group. Since rho is regular, w -> w(rho) is injective,
so W and every W0 are the rho-orbit that the generating ``RootSystem``'s
``dominant_orbit`` walks on Dynkin labels, each point with its word, and
descents to a chamber are its ``to_dominant``. Actions apply the word to
a vector with ``walk``; an element's rational matrix is derived only when
asked for. Enumeration order is deterministic: by length, ties broken by
key. A minimal coset section walks its |W|/|W0| points and an alternating
sum its orbit (``signed_orbit``), so only oracles enumerate W or W0.
"""

from __future__ import annotations

from functools import cached_property
from operator import sub as _sub

from .errors import BudgetExceeded, ConsistencyError
from .rootsys import RootSystem, Weight, _dot, subsystem

DEFAULT_WEYL_BUDGET = 10**6


class WeylElement:
    """``key``: the integer key of w(rho). ``word``: a reduced word, the
    product s_{i1} ... s_{ik} stored as (i1, ..., ik), in the simple
    reflections of ``_system``, the system generating the element's group."""

    __slots__ = ("key", "length", "word", "_system", "_matrix")

    def __init__(self, key, word, system: RootSystem):
        self.key = key
        self.length = len(word)
        self.word = word
        self._system = system
        self._matrix = None

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, w: Weight) -> Weight:
        return Weight.from_key(*self._system.walk(reversed(self.word), w.key, w.scale))

    def apply_inverse(self, w: Weight) -> Weight:
        """w^{-1} on a weight: the word read first letter first."""
        return Weight.from_key(*self._system.walk(self.word, w.key, w.scale))

    @property
    def matrix(self):
        """The exact rational matrix of w on the ambient coordinates."""
        if self._matrix is None:
            n = len(self.key)
            cols = [self.apply(Weight([1 if i == j else 0 for i in range(n)])).coords
                    for j in range(n)]
            self._matrix = tuple(zip(*cols))
        return self._matrix

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"WeylElement(length={self.length})"


def _check_weyl_budget(rs: RootSystem, budget: int, what: str = None) -> int:
    """|W(rs)|, from the type alone; BudgetExceeded up front when it exceeds
    the budget, naming the group ``what``, W(rs) by default."""
    required = rs.weyl_order()
    if required > budget:
        raise BudgetExceeded(
            f"|{what or f'W({rs.descriptor()})'}| = {required} exceeds the budget {budget}",
            required=required, budget=budget)
    return required


def _enumerate(rs: RootSystem, gen: RootSystem, budget, what):
    """W(gen), for gen rs itself or a subsystem, as the tuple of the
    elements of rs's rho-orbit under gen's simple reflections, identity
    first, refused up front when |W(gen)| exceeds the budget. rho is
    dominant and regular for gen too (Delta0+ lies in Delta+), so
    ``dominant_orbit`` reaches each element once, with a reduced word."""
    required = _check_weyl_budget(gen, budget, what)
    words = gen.dominant_orbit(rs.rho_key, gen.labels(rs.rho_key))
    if len(words) != required:
        raise ConsistencyError(f"enumerated {len(words)} elements of {what},"
                               f" expected {required}")
    return tuple(sorted((WeylElement(key, word, gen) for key, word in words.items()),
                        key=lambda w: (w.length, w.key)))


def enumerate_weyl(rs: RootSystem, budget: int = DEFAULT_WEYL_BUDGET) -> tuple:
    """The elements of the full Weyl group of rs, identity first, refusing
    politely when |W| > budget."""
    if rs._weyl_cache is not None and len(rs._weyl_cache) <= budget:
        return rs._weyl_cache
    rs._weyl_cache = _enumerate(rs, rs, budget, f"W({rs.descriptor()})")
    return rs._weyl_cache


class SubsystemDatum:
    """A subset of positive roots forming a root system of its own; ``group``,
    its reflection subgroup inside the ambient W, is enumerated on first read."""

    def __init__(self, rs: RootSystem, delta0_plus):
        self.rs = rs
        self.delta0_plus = tuple(
            w if isinstance(w, Weight) else Weight(w) for w in delta0_plus)
        self.system = subsystem(rs, self.delta0_plus)

    @cached_property
    def group(self) -> tuple:
        return _enumerate(self.rs, self.system, DEFAULT_WEYL_BUDGET,
                          f"W({self.system.descriptor()}) in W({self.rs.descriptor()})")


def signed_orbit(rs: RootSystem, key, labels, required: int,
                 twist: SubsystemDatum = None, sign: int = 1) -> dict:
    """{w x: sign det w}, or sign tau(w) for the datum ``twist``, over the
    orbit of a regular dominant key x with Dynkin labels ``labels``; no
    element is made, and an orbit of other than ``required`` points raises
    ConsistencyError. A point packs its labels, key and pairings with each
    positive root in offset fields, so s_i is K - p_i move_i; a system keeps
    the last orbit walked. The points are x - sum d_i alpha_i, 0 <= d_i <= c_i
    for c = x - w0 x, which sizes the fields (-w0 permutes x's coordinates).
    (alpha, w x) has the sign of (alpha, w rho): l(w) and l0(w) count the
    fields of Delta+ and Delta0+ that lost their guard bit.
    """
    if rs._orbit_cache[0] != key:
        pos = rs.positive_w
        cx = [_dot(row, labels) for row in rs.lattice_rows]
        c = [-(-(v + max(cx)) // rs.lattice_denom) for v in cx]
        rows = [(*a, *k, *[_dot(k, w) for w in pos])
                for a, k in zip(rs.cartan_matrix, rs.simple_keys)]
        x = (*labels, *key, *[_dot(key, w) for w in pos])
        bits = max(abs(v) + _dot(c, [abs(r[j]) for r in rows])
                   for j, v in enumerate(x)).bit_length() + 1
        off, mask = 1 << (bits - 1), (1 << bits) - 1
        steps = [(bits * i, sum(v << (bits * t) for t, v in enumerate(r)))
                 for i, r in enumerate(rows)]
        seen = {sum((off + v) << (bits * t) for t, v in enumerate(x))}
        todo = list(seen)
        while todo:
            k = todo.pop()
            for shift, move in steps:
                p = ((k >> shift) & mask) - off
                if p > 0 and (y := k - p * move) not in seen:
                    seen.add(y)
                    todo.append(y)
        top = bits * (rs.rank + len(key))
        rs._orbit_cache = (
            key, {tuple([((k >> t) & mask) - off for t in range(bits * rs.rank, top, bits)]): k
                  for k in seen},
            {a: 1 << (top + bits * j + bits - 1) for j, a in enumerate(rs.positive_keys)})
    _, points, guards = rs._orbit_cache
    if len(points) != required:
        raise ConsistencyError(f"an orbit of {len(points)} points, expected |W| = {required}")
    roots = rs.positive_keys if twist is None else twist.system.positive_keys
    fields = sum(guards[a] for a in roots)
    return {k: -sign if (len(roots) - (p & fields).bit_count()) % 2 else sign
            for k, p in points.items()}


def _spell(rs: RootSystem, key) -> WeylElement:
    """The u with u^{-1}(rho) = key: descending key to rho by s_{i1}, ..., s_{ik}
    spells u^{-1} = s_{i1} ... s_{ik}, reduced, so u is that word reversed."""
    letters = rs.to_dominant(rs.labels(key))[2]
    return WeylElement(rs.walk(letters, rs.rho_key)[0], tuple(reversed(letters)), rs)


def minimal_coset_reps(rs: RootSystem, sub: SubsystemDatum,
                       budget: int = DEFAULT_WEYL_BUDGET):
    """Minimal-length coset representatives W0 = {w : w(Delta0+) in Delta+},
    sorted by (length, key); the budget bounds their number |W|/|W0|.

    w(beta) > 0 for a simple root beta of Delta0+ exactly when
    (beta, w^{-1}(rho)) > 0, so the points w^{-1}(rho) are the Delta0-dominant
    points of the rho-orbit (Dyer, "Reflection subgroups of Coxeter systems",
    J. Algebra 1990). They are walked from rho without W, by up-steps: at
    x = u(rho), a positive root gamma with <x, gamma~> = 1 is u(alpha_i) with
    l(u s_i) = l(u) + 1, and x - gamma = u s_i(rho). By induction on length,
    up-steps through Delta0-dominant points reach every point: if u(rho) is
    one and s_i a right descent of u, so is u s_i(rho). Were
    (beta, u s_i(rho)) < 0 for some beta in Delta0+, s_i would send
    u^{-1}(beta) > 0 below zero, so u^{-1}(beta) = alpha_i and
    beta = u(alpha_i) < 0. As rho is regular, |W|/|W0| distinct points, both
    orders read off the types, are the whole section; each is spelled by
    descending it to rho.
    """
    gen = sub.system
    required = rs.weyl_order() // gen.weyl_order()
    if required > budget:
        raise BudgetExceeded(
            f"|W({rs.descriptor()})|/|W({gen.descriptor()})| = {required}"
            f" exceeds the budget {budget}", required=required, budget=budget)
    walls = [(k, w, _dot(k, w)) for k, w in zip(rs.positive_keys, rs.positive_w)]
    seen, frontier = {rs.rho_key}, [rs.rho_key]
    while frontier and len(seen) < required:
        x = frontier.pop()
        for k, w, n in walls:
            if 2 * _dot(x, w) == n:
                y = tuple(map(_sub, x, k))
                if y not in seen and all(_dot(y, f) > 0 for f in gen.simple_w):
                    seen.add(y)
                    frontier.append(y)
    if len(seen) != required:
        raise ConsistencyError(f"coset section walk reached {len(seen)} points,"
                               f" expected |W|/|W0| = {required}")
    return sorted((_spell(rs, x) for x in seen), key=lambda w: (w.length, w.key))


def l0_of(rs: RootSystem, sub: SubsystemDatum, w: WeylElement) -> int:
    """l0(w) = #{alpha in Delta- : w(alpha) in Delta0+}.

    alpha = w^{-1}(beta) is negative exactly when (beta, w(rho)) < 0, so
    this counts the beta in Delta0+ pairing negatively with w's key.
    """
    return sum(_dot(w.key, b) < 0 for b in sub.system.positive_w)


def cunning_parity(rs: RootSystem, sub: SubsystemDatum, w: WeylElement):
    """The parity extending W0's sign through the minimal coset section.

    Returns (tau, l0). tau is multiplicative on W0 but not, in general,
    on all of W.
    """
    l0 = l0_of(rs, sub, w)
    return (-1) ** l0, l0
