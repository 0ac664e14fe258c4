"""Root systems of the simple Lie algebras, realized with exact arithmetic.

Every system lives in a fixed rational coordinate space ("epsilon
coordinates") carrying an exact symmetric positive-definite bilinear form,
normalized so the highest root of each simple factor has squared length 2.
Subsystems cut out of a bigger system (closed or not) reuse the ambient
space and form, which is what makes characters of a subalgebra and of the
full algebra directly comparable.

Construction is integer: the Cartan matrix comes from the form times the
simple roots, cleared of denominators, and fraction-free (Bareiss)
elimination gives its inverse as an integer matrix over one denominator,
from which the fundamental weights and the lattice rows follow. The
closure, simple-root pairings and subsystems run on integer coordinates
and keys. Each system also carries the integer geometry on keys that the
Weyl, character and Spin layers share, and it is the only place an
integral point is moved: Dynkin labels (``labels`` on keys,
``dynkin_labels`` on weights), coordinates over the simple roots
(``lattice_coords``), descents into the dominant chamber with the letters
used (``to_dominant``), and dominant orbits with a reduced word per point
(``dominant_orbit``), which enumerate W and its reflection subgroups.
``walk`` only applies a given word to a vector. ``inner`` is one integer
product over the integer form, divided once.

A ``Weight`` is an integer key over its least positive scale, and does its
arithmetic, comparisons and hashing on those integers. Fractions are made
only at the edges: a Weight's ``coords`` (built on first read, for the
oracles and the consistency checks; output writes coordinates through
``coord_strings``, from the integers), ``fw_coefficients``, ``inner`` and
``pairing``, and the rational input that ``Weight``, ``weight`` and the
realizations below take. ``_dot`` is the one integer dot product, on the interpreter's C
iterators, and every integer pairing calls it.

Simple-root numbering: the standard realizations below define it. A, B,
C, D, G2 and the E family follow the Bourbaki order; F4 is numbered with
the short roots first (alpha1, alpha2 short, alpha3, alpha4 long), so that
the highest root is the fourth fundamental weight. A system types itself
once, when built, from its Cartan matrix: ``components`` holds each Dynkin
component, in component order, as a type and an ordering of its nodes
under which its Cartan matrix is that of the type's realization. Nodes
already in such an order keep it and that type (the dual of B2 is C2);
others take the first type, in ``simple_types`` order, that matches, and
its first ordering. ``type_label``, |W| and ``bourbaki_numbering`` read
that result. A realized subsystem gives each component its first matching
type and the matching ordering whose keys are least, read from the branch
node outward (along the chain when there is none), so it does not depend
on the order of its input.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import mul

from .errors import InvalidDescriptor

HALF = Fraction(1, 2)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def clear_denominators(values) -> tuple:
    """(ints, scale): the least positive integer scale that clears the
    denominators of int or Fraction values, and the integers scale * values."""
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def coord_strings(key, scale: int) -> list:
    """Each coordinate of key / scale as ``str`` writes its Fraction, read
    off the integers with one gcd each: for output, with no Fraction made.
    The key need not be normalised."""
    return [str(k // g) if g == scale else f"{k // g}/{scale // g}"
            for k, g in ((k, gcd(k, scale)) for k in key)]


class Weight:
    """An exact rational coordinate vector in a system's ambient space.

    A weight is held as its integer ``key`` and least positive ``scale``,
    the vector being key / scale; the two are kept normalised by their
    gcd, so equal vectors have equal (key, scale). Equality, hashing,
    ordering and the vector arithmetic work on these integers. ``coords``,
    the tuple of Fractions, is built on first read and kept: it is for
    output, the tests' oracles and arbitrary rational input.
    """

    __slots__ = ("key", "scale", "_coords")

    def __init__(self, coords):
        coords = tuple(frac(x) for x in coords)
        self.key, self.scale = clear_denominators(coords)
        self._coords = coords

    @classmethod
    def from_key(cls, key, scale=1):
        """The weight key / scale, for a tuple of ints and a positive int,
        normalised by their gcd."""
        g = gcd(scale, *key)
        w = cls.__new__(cls)
        if g > 1:
            key, scale = tuple(x // g for x in key), scale // g
        w.key, w.scale, w._coords = key, scale, None
        return w

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            s = self.scale
            self._coords = tuple(Fraction(k, s) for k in self.key)
        return self._coords

    def coord_strings(self) -> list:
        """Each coordinate as ``str`` writes its Fraction (``coord_strings``)."""
        return coord_strings(self.key, self.scale)

    def key_at(self, scale: int) -> tuple:
        """The integers scale * self; ValueError unless they are integers."""
        m, r = divmod(scale, self.scale)
        if r:
            raise ValueError(f"vector {self} does not lie in (1/{scale})Z^n")
        return self.key if m == 1 else tuple(m * x for x in self.key)

    def _common(self, other):
        """Both keys at the least common scale, and that scale."""
        a, b = self.scale, other.scale
        if a == b:
            return self.key, other.key, a
        s = lcm(a, b)
        return (tuple(x * (s // a) for x in self.key),
                tuple(y * (s // b) for y in other.key), s)

    def __add__(self, other):
        k1, k2, s = self._common(other)
        return Weight.from_key(tuple(x + y for x, y in zip(k1, k2, strict=True)), s)

    def __sub__(self, other):
        k1, k2, s = self._common(other)
        return Weight.from_key(tuple(x - y for x, y in zip(k1, k2, strict=True)), s)

    def __neg__(self):
        return Weight.from_key(tuple(-x for x in self.key), self.scale)

    def __rmul__(self, c):
        c = frac(c)
        return Weight.from_key(tuple(c.numerator * x for x in self.key),
                               c.denominator * self.scale)

    def scaled(self):
        """(key, scale): the least positive integer scale that clears the
        denominators, and the integer coordinates scale * self."""
        return self.key, self.scale

    def __eq__(self, other):
        return (isinstance(other, Weight) and self.scale == other.scale
                and self.key == other.key)

    def __hash__(self):
        return hash((self.key, self.scale))

    def __lt__(self, other):
        # the order of the coordinate tuples: both keys at their common scale
        k1, k2, _ = self._common(other)
        return k1 < k2

    def is_zero(self) -> bool:
        return not any(self.key)

    def __repr__(self):
        return "(" + ", ".join(self.coord_strings()) + ")"


def _wsum(weights, dim):
    return sum(weights, Weight((0,) * dim))


# ---------------------------------------------------------------------------
# standard realizations


def _eps(n, *pairs):
    v = [Fraction(0)] * n
    for i, c in pairs:
        v[i] = frac(c)
    return tuple(v)


def _simple_roots_classical(family: str, rank: int, dim: int):
    chain = [_eps(dim, (i, 1), (i + 1, -1)) for i in range(rank - 1)]
    if family == "A":
        return chain + [_eps(dim, (rank - 1, 1), (rank, -1))]
    if family == "B":
        return chain + [_eps(dim, (rank - 1, 1))]
    if family == "C":
        return chain + [_eps(dim, (rank - 1, 2))]
    if family == "D":
        return chain + [_eps(dim, (rank - 2, 1), (rank - 1, 1))]
    raise InvalidDescriptor(f"unknown family {family}")


def _simple_roots_exceptional(family: str, rank: int):
    if family == "G":
        # rank 2 in the sum-zero plane of Q^3; alpha1 short
        a1 = _eps(3, (0, 1), (1, -1))
        a2 = _eps(3, (0, -2), (1, 1), (2, 1))
        return [a1, a2], 3, Fraction(1, 3)
    if family == "F":
        # short roots first: alpha1, alpha2 short; alpha3, alpha4 long
        a1 = _eps(4, (0, HALF), (1, -HALF), (2, -HALF), (3, -HALF))
        a2 = _eps(4, (3, 1))
        a3 = _eps(4, (2, 1), (3, -1))
        a4 = _eps(4, (1, 1), (2, -1))
        return [a1, a2, a3, a4], 4, Fraction(1)
    if family == "E":
        # Bourbaki realization inside Q^8
        a1 = _eps(8, (0, HALF), (7, HALF), (1, -HALF), (2, -HALF), (3, -HALF),
                  (4, -HALF), (5, -HALF), (6, -HALF))
        a2 = _eps(8, (0, 1), (1, 1))
        rest = [_eps(8, (i, -1), (i + 1, 1)) for i in range(rank - 2)]
        return ([a1, a2] + rest)[:rank], 8, Fraction(1)
    raise InvalidDescriptor(f"unknown family {family}")


def _realization(family: str, rank: int):
    """The standard simple roots of a simple type, the dimension of their
    space and the scale of its form, a multiple of I. These realizations
    define the numbering of every simple type."""
    if family in "ABCD":
        dim = rank + 1 if family == "A" else rank
        scale = HALF if family == "C" else Fraction(1)
        return _simple_roots_classical(family, rank, dim), dim, scale
    return _simple_roots_exceptional(family, rank)


_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,  # D2 is not simple; spell it A1xA1
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _types_of_rank(rank: int):
    return [(fam, rank) for fam, valid in _VALID_RANKS.items() if valid(rank)]


def simple_types(max_rank: int):
    """Every simple type of rank <= max_rank as (family, rank), by rank and
    then family (D from rank 3 up)."""
    return [t for rank in range(1, max_rank + 1) for t in _types_of_rank(rank)]


# exponents m_1 <= ... <= m_rank of each simple family; |W| = prod (m_i + 1)
# and the number of positive roots is sum m_i
EXPONENTS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(1, 2 * n, 2)),
    "C": lambda n: list(range(1, 2 * n, 2)),
    "D": lambda n: sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]),
    "E": lambda n: {6: [1, 4, 5, 7, 8, 11],
                    7: [1, 5, 7, 9, 11, 13, 17],
                    8: [1, 7, 11, 13, 17, 19, 23, 29]}[n],
    "F": lambda n: [1, 5, 7, 11],
    "G": lambda n: [1, 5],
}

# translation from this library's numbering to Bourbaki's
_TO_BOURBAKI = {
    "F": {1: 4, 2: 3, 3: 2, 4: 1},
}


def _dot(a, b):
    return sum(map(mul, a, b))


def _primitive(row):
    """The primitive integer row on the ray of an integer row (0 stays 0)."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g else tuple(row)


def _kernel_rows(rows, dim):
    """Primitive integer rows spanning the vectors x with r . x = 0 for
    every row r of an integer matrix R of full row rank: the nonzero rows
    of d I - R^T M R, d times the orthogonal projection onto that kernel,
    for (R R^T)^-1 = M / d. They may be dependent (E6's simple keys give
    three for a two-dimensional kernel); empty when R has rank dim."""
    m, d = _inverse([[_dot(a, b) for b in rows] for a in rows])
    cols = [tuple(r[t] for r in rows) for t in range(dim)]
    mr = [tuple(_dot(row, c) for row in m) for c in cols]  # columns of M R
    out = (_primitive([d * (s == t) - _dot(cs, ct) for t, ct in enumerate(mr)])
           for s, cs in enumerate(cols))
    return tuple(dict.fromkeys(r for r in out if any(r)))


def _gram_rows(form_int, keys):
    """The rows form_int k, with the norms k . form_int k, of integer keys."""
    rows = tuple(tuple(_dot(r, k) for r in form_int) for k in keys)
    return rows, tuple(_dot(k, w) for k, w in zip(keys, rows))


def _denominator(rows):
    """The least common denominator of a rational matrix."""
    return lcm(*(x.denominator for row in rows for x in row))


def _inverse(cartan):
    """The inverse of a nonsingular integer matrix, a Cartan matrix or the
    Gram matrix R R^T of ``_kernel_rows``, as (M, d): C^-1 = M / d, with d
    the least positive integer that clears it.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [C | I]: each step
    divides exactly by the previous pivot, and the last one leaves every
    diagonal entry at D = +-det C and the right block at D C^-1, the
    adjugate up to the sign of the row swaps.
    """
    n = len(cartan)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise InvalidDescriptor("simple roots are linearly dependent")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[col])]
        prev = p
    adj = [row[n:] for row in a]
    g = gcd(prev, *(x for row in adj for x in row)) * (1 if prev > 0 else -1)
    return [[x // g for x in row] for row in adj], prev // g


def _cartan(keys, rows, norms):
    """A_ij = <alpha_i, alpha_j~> = 2 k_i . w_j / n_j, which must be an integer."""
    pairs = [[divmod(2 * _dot(k, w), n) for w, n in zip(rows, norms)] for k in keys]
    if any(r for row in pairs for _, r in row):
        raise InvalidDescriptor("simple roots with a non-integral Cartan pairing")
    return tuple(tuple(a for a, _ in row) for row in pairs)


def _close_positive_roots(cartan):
    """Positive roots as integer coordinates over the simple roots, by closure.

    beta + alpha_i is a root iff the alpha_i-string through beta does not
    stop, i.e. p - <beta, alpha_i~> > 0 where p is the largest k with
    beta - k alpha_i already enumerated and <beta, alpha_i~> = sum_j c_j A_ji.
    """
    n = len(cartan)
    columns = tuple(zip(*cartan))
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(layer)
    while layer:
        new_layer = []
        for beta in layer:
            for i in range(n):
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in known:
                    p += 1
                if p > _dot(beta, columns[i]):
                    gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if gamma not in known:
                        known.add(gamma)
                        new_layer.append(gamma)
        layer = new_layer
    return known


class RootSystem:
    """A (possibly reducible) root system realized in rational coordinates.

    Fields follow the realization: ``simple_roots`` and ``positive_roots``
    are Weight vectors in the ambient space, ``form`` is the exact bilinear
    form matrix, ``cartan_matrix[i][j]`` is the pairing of alpha_i with the
    coroot of alpha_j, and ``fundamental_weights`` live in the span of the
    roots. ``simple_keys``, ``positive_keys`` and ``rho_key`` are vectors
    scaled by ``denom`` to integers ("keys"), and the integer methods below
    work on them: (x, alpha_i) is x . simple_w[i] and (x, beta_j) is
    x . positive_w[j], both up to one positive factor,
    simple_n[i] = simple_keys[i] . simple_w[i], and positive_labels[j] holds
    the Dynkin labels of beta_j; ``components`` and ``type_label`` are the
    typing (see the module docstring). All values are immutable after
    construction.
    """

    def __init__(self, simple_roots, form, denom=None):
        self.form = tuple(tuple(frac(x) for x in row) for row in form)
        self.space_dim = len(form)
        self.simple_roots = tuple(
            a if isinstance(a, Weight) else Weight(a) for a in simple_roots)
        self.rank = len(self.simple_roots)
        # (x, y) = x . form_int y / form_denom
        self.form_denom = _denominator(self.form)
        self.form_int = tuple(tuple(int(x * self.form_denom) for x in row) for row in self.form)

        d = lcm(*(a.scale for a in self.simple_roots))
        keys = [a.key_at(d) for a in self.simple_roots]
        rows, norms = _gram_rows(self.form_int, keys)
        if any(n <= 0 for n in norms):
            raise InvalidDescriptor("form is not positive on the roots")
        self.cartan_matrix = _cartan(keys, rows, norms)
        # fundamental weights from C^-1 = inv / lattice_denom: row i over the
        # simple-root keys at scale d; labels p are those of sum_i c_i alpha_i
        # for c = C^-T p, and lattice_rows is lattice_denom C^-T
        inv, self.lattice_denom = _inverse(self.cartan_matrix)
        self.lattice_rows = tuple(zip(*inv))
        self.fundamental_weights = tuple(
            Weight.from_key(tuple(_dot(row, col) for col in zip(*keys)),
                            d * self.lattice_denom)
            for row in inv)
        # integer fundamental-weight keys at their own common scale, by
        # coordinate: a subsystem shares its ambient's denom, which need
        # not clear them
        self._fw_scale = lcm(*(w.scale for w in self.fundamental_weights))
        fw_keys = [w.key_at(self._fw_scale) for w in self.fundamental_weights]
        self._fw_cols = tuple(tuple(k[t] for k in fw_keys) for t in range(self.space_dim))
        # the simple roots have denominators dividing d, so the positive roots do too
        self.denom = denom if denom is not None else 2 * lcm(d, self._fw_scale)
        self.simple_keys = tuple(a.key_at(self.denom) for a in self.simple_roots)
        self.simple_w, self.simple_n = _gram_rows(self.form_int, self.simple_keys)

        coords = sorted((sum(c), tuple(_dot(c, col) for col in zip(*self.simple_keys)), c)
                        for c in _close_positive_roots(self.cartan_matrix))
        self.positive_keys = tuple(k for _, k, _ in coords)
        self.positive_w = tuple(self._matvec(k) for k in self.positive_keys)
        self.positive_labels = tuple(tuple(self.labels(k)) for k in self.positive_keys)
        self.positive_roots = tuple(Weight.from_key(k, self.denom) for k in self.positive_keys)
        self.rho = Weight.from_key(tuple(sum(k[t] for k in self.positive_keys)
                                         for t in range(self.space_dim)), 2 * self.denom)
        self.rho_key = self.rho.key_at(self.denom)
        # the product of the heights (rho, beta) over beta > 0, in key units
        self.rho_heights = prod(_dot(self.rho_key, w) for w in self.positive_w)

        self.components = tuple(_type_component(self.cartan_matrix, comp)
                                for comp in _components(self.cartan_matrix))
        self.type_label = tuple(t for t, _ in self.components)
        self._check_invariants()
        self._weyl_cache, self._orbit_cache = None, (None,)  # W; the last orbit walked

    # -- exact geometry ----------------------------------------------------

    def inner(self, a: Weight, b: Weight) -> Fraction:
        """(a, b): one integer product over form_int, divided once."""
        return Fraction(_dot(a.key, self._matvec(b.key)),
                        a.scale * b.scale * self.form_denom)

    def pairing(self, x: Weight, alpha: Weight) -> Fraction:
        """<x, alpha~> = 2 (x, alpha) / (alpha, alpha)."""
        return 2 * self.inner(x, alpha) / self.inner(alpha, alpha)

    def is_dominant(self, x: Weight) -> bool:
        return all(_dot(x.key, w) >= 0 for w in self.simple_w)

    def is_integral(self, x: Weight) -> bool:
        return self.dynkin_labels(x) is not None

    def dominant_representative(self, x: Weight) -> Weight:
        """The dominant element of W.x, reached by simple reflections on
        integer coordinates (exact for any rational x). The library moves
        Dynkin labels with ``to_dominant``; this stays as the tests' oracle."""
        key, scale = x.scaled()
        while True:
            i = next((i for i in range(self.rank) if self.pairing_num(key, i) < 0), None)
            if i is None:
                return Weight.from_key(key, scale)
            key, scale = self.walk((i,), key, scale)

    def weight(self, *fw_coeffs) -> Weight:
        """Weight from coefficients in the fundamental-weight basis: the
        coefficients, cleared of denominators, sum the integer
        fundamental-weight keys, and the sum is divided once."""
        if len(fw_coeffs) == 1 and isinstance(fw_coeffs[0], (list, tuple)):
            fw_coeffs = fw_coeffs[0]
        if len(fw_coeffs) != self.rank:
            raise InvalidDescriptor(
                f"expected {self.rank} coefficients, got {len(fw_coeffs)}")
        if all(type(c) is int for c in fw_coeffs):
            coeffs, scale = fw_coeffs, 1
        else:
            coeffs, scale = clear_denominators([frac(c) for c in fw_coeffs])
        return Weight.from_key(tuple(_dot(coeffs, col) for col in self._fw_cols),
                               scale * self._fw_scale)

    def fw_coefficients(self, x: Weight) -> tuple:
        """<x, alpha_i~> for each simple root, from the integer rows."""
        return tuple(Fraction(2 * self.denom * _dot(x.key, w), x.scale * n)
                     for w, n in zip(self.simple_w, self.simple_n))

    def dynkin_labels(self, x: Weight):
        """The labels <x, alpha_i~> as a tuple of ints, or None if one is
        not an integer: ``fw_coefficients`` without the Fractions."""
        out = []
        for w, n in zip(self.simple_w, self.simple_n):
            p, r = divmod(2 * self.denom * _dot(x.key, w), x.scale * n)
            if r:
                return None
            out.append(p)
        return tuple(out)

    def format_weight(self, x: Weight) -> str:
        """Render the fundamental-weight coefficients compactly."""
        return "(" + ",".join(map(str, self.fw_coefficients(x))) + ")"

    def in_root_lattice(self, x: Weight) -> bool:
        """Whether x is an integer combination of the simple roots, which
        lie in (1/denom) Z^n."""
        if self.denom % x.scale:
            return False
        c = self.lattice_coords(x.key_at(self.denom))
        return c is not None and not any(ci % self.lattice_denom for ci in c)

    def lattice_coords(self, key):
        """The coordinates of key over the simple roots, times lattice_denom:
        the integers lattice_rows p from its Dynkin labels p. None when a
        label is not an integer, or when key has a part off the span of the
        roots (``off_span``)."""
        labels = self.labels(key)
        if labels is None or self.off_span(key):
            return None
        return [_dot(row, labels) for row in self.lattice_rows]

    # -- integer geometry on keys ---------------------------------------------
    # Inner products come back scaled by the positive integer
    # form_denom * denom^2, harmless for the comparisons and exact divisions
    # they feed.

    def _matvec(self, key):
        return tuple(_dot(row, key) for row in self.form_int)

    def inner_keys(self, k1, k2) -> int:
        return _dot(k1, self._matvec(k2))

    def pairing_num(self, key, i) -> int:
        """Numerator of <key, alpha_i~> over simple_n[i]/2."""
        return 2 * _dot(key, self.simple_w[i])

    def walk(self, letters, key, scale=1):
        """Apply s_i for i in letters, first letter first, to key / scale.

        s_i(k) = k - <k, alpha_i~> alpha_i at any scale of k; where the
        coefficient is not an integer the vector is rescaled, so any
        rational vector works. Returns (key, scale).
        """
        for i in letters:
            num = self.pairing_num(key, i)
            n = self.simple_n[i]
            g = n // gcd(num, n)
            if g > 1:
                key = tuple(g * x for x in key)
                scale *= g
                num *= g
            c = num // n
            if c:
                key = tuple(x - c * y for x, y in zip(key, self.simple_keys[i]))
        return key, scale

    # Dynkin labels <key, alpha_i~> turn a simple reflection into integer
    # row operations: s_i moves the key by -p_i alpha_i and the labels by
    # -p_i times row i of the Cartan matrix.

    def labels(self, key):
        """The Dynkin labels of key, or None if one is not an integer."""
        out = []
        for i, n in enumerate(self.simple_n):
            num = self.pairing_num(key, i)
            if num % n:
                return None
            out.append(num // n)
        return out

    def to_dominant(self, labels, key=None):
        """Move integral labels, and the key they belong to if one is
        given, into the dominant chamber by simple reflections, each at
        the first negative label; returns (labels, key, letters), the
        letters in the order applied. Each step goes up one length, so the
        letters spell a reduced w with w(key) dominant, of sign
        (-1)^len(letters)."""
        cartan = self.cartan_matrix
        letters = []
        while True:
            i = next((i for i, p in enumerate(labels) if p < 0), None)
            if i is None:
                return tuple(labels), key, letters
            p = labels[i]
            labels = [q - p * c for q, c in zip(labels, cartan[i])]
            if key is not None:
                key = tuple(x - p * y for x, y in zip(key, self.simple_keys[i]))
            letters.append(i)

    def dominant_orbit(self, key, labels):
        """The Weyl orbit of a dominant integral key, as {point: word}.

        Every orbit point is reached from the dominant one, breadth first,
        by reflections s_i applied where the label p_i is positive, each
        step going down and one length up. A new point's word is
        (i,) + its parent's, a reduced word of a w taking key there; for a
        regular key the w is unique and the word is of length l(w).
        """
        cartan = self.cartan_matrix
        orbit = {key: ()}
        frontier = [(key, labels, ())]
        while frontier:
            nxt = []
            for k, p, word in frontier:
                for i, pi in enumerate(p):
                    if pi > 0:
                        v = tuple(x - pi * y for x, y in zip(k, self.simple_keys[i]))
                        if v not in orbit:
                            orbit[v] = w = (i,) + word
                            nxt.append((v, [q - pi * c for q, c in zip(p, cartan[i])], w))
            frontier = nxt
        return orbit

    @cached_property
    def minus_w0(self) -> tuple:
        """The permutation sigma of the simple roots by which -w0 acts on
        Dynkin labels: the dominant point of -lam has label p_i at sigma(i),
        read off one descent of the regular labels -(1, ..., rank)."""
        top = self.to_dominant([-i - 1 for i in range(self.rank)])[0]
        return tuple(top.index(i + 1) for i in range(self.rank))

    @cached_property
    def root_lines(self) -> frozenset:
        """The primitive keys of the positive roots: a nonzero key lies on
        the ray of a positive root iff its primitive key is one of them."""
        return frozenset(_primitive(k) for k in self.positive_keys)

    @cached_property
    def off_span_rows(self) -> tuple:
        """Primitive integer rows spanning the vectors r with r . k = 0 for
        every root key k, the kernel of the simple keys: a key lies in the
        span of the roots iff every row dots it to 0. Empty when the roots
        span the space."""
        return _kernel_rows(self.simple_keys, self.space_dim)

    @cached_property
    def cone_lineality(self) -> tuple:
        """Primitive integer vectors spanning the lineality space of the
        closed dominant cone, the x with (x, alpha_i) = 0 for every simple
        root: the kernel of the simple_w rows. Empty when the roots span
        the space."""
        return _kernel_rows(self.simple_w, self.space_dim)

    def off_span(self, key) -> bool:
        """Whether a key, at any scale, has a part off the span of the roots."""
        return any(_dot(r, key) for r in self.off_span_rows)

    # -- derived structure ---------------------------------------------------

    def _check_invariants(self):
        if self.dynkin_labels(self.rho) != (1,) * self.rank:
            raise InvalidDescriptor("rho is not the sum of the fundamental weights")

    # -- distinguished elements ----------------------------------------------

    def is_simple(self) -> bool:
        return len(self.type_label) == 1

    def highest_root(self) -> Weight:
        """The unique dominant root of maximal norm, read off the integer rows."""
        dominant = [(r, k) for r, k in zip(self.positive_roots, self.positive_keys)
                    if all(_dot(k, w) >= 0 for w in self.simple_w)]
        norms = _gram_rows(self.form_int, [k for _, k in dominant])[1]
        longs = [r for (r, _), n in zip(dominant, norms) if n == max(norms)]
        if len(longs) != 1:
            raise InvalidDescriptor("no unique highest root; system not simple")
        return longs[0]

    def short_roots(self):
        if not self.is_simple():
            raise InvalidDescriptor("short/long split needs a simple system")
        norms = [_dot(k, w) for k, w in zip(self.positive_keys, self.positive_w)]
        if len(set(norms)) == 1:
            return ()
        short = min(norms)
        return tuple(r for r, n in zip(self.positive_roots, norms) if n == short)

    def weyl_order(self) -> int:
        return prod(m + 1 for m in self.exponents())

    def exponents(self):
        out = []
        for fam, r in self.type_label:
            out.extend(EXPONENTS[fam](r))
        return sorted(out)

    # -- serialization ---------------------------------------------------------

    def descriptor(self) -> str:
        return "x".join(f"{fam}{r}" for fam, r in self.type_label)

    def to_json(self) -> dict:
        return {
            "type": self.descriptor(),
            "space_dim": self.space_dim,
            "simple_roots": [a.coord_strings() for a in self.simple_roots],
            "positive_roots": [a.coord_strings() for a in self.positive_roots],
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "bilinear_form": [[str(c) for c in row] for row in self.form],
            "fundamental_weights": [w.coord_strings() for w in self.fundamental_weights],
            "bourbaki_numbering": bourbaki_numbering(self),
        }

    def __repr__(self):
        return f"RootSystem({self.descriptor()})"


def bourbaki_numbering(rs: RootSystem) -> list:
    """For each simple root, its index in Bourbaki's numbering (per factor),
    from its place in the ordering its component was typed by."""
    out = [0] * rs.rank
    offset = 0
    for (fam, r), order in rs.components:
        table = _TO_BOURBAKI.get(fam, {})
        for pos, node in enumerate(order, start=1):
            out[node] = offset + table.get(pos, pos)
        offset += r
    return out


# ---------------------------------------------------------------------------
# constructors


MAX_BUILD_RANK = 24


def _build_simple(family: str, rank: int) -> RootSystem:
    if family not in _VALID_RANKS or not _VALID_RANKS[family](rank):
        raise InvalidDescriptor(f"{family}{rank} is not a valid simple type")
    if rank > MAX_BUILD_RANK:
        raise InvalidDescriptor(
            f"{family}{rank}: rank exceeds the construction limit"
            f" {MAX_BUILD_RANK}")
    simples, dim, scale = _realization(family, rank)
    form = tuple(
        tuple(scale if i == j else Fraction(0) for j in range(dim)) for i in range(dim)
    )
    rs = RootSystem(simples, form)
    expected = sum(EXPONENTS[family](rank))
    if len(rs.positive_roots) != expected:
        raise InvalidDescriptor(
            f"closure enumeration for {family}{rank} gave {len(rs.positive_roots)}"
            f" positive roots, expected {expected}")
    theta = rs.highest_root()
    if rs.inner(theta, theta) != 2:
        raise InvalidDescriptor(f"{family}{rank}: highest root not normalized")
    return rs


_ALIASES = [
    (re.compile(r"^sl(\d+)$"), lambda n: ("A", n - 1)),
    (re.compile(r"^su(\d+)$"), lambda n: ("A", n - 1)),
    (re.compile(r"^so(\d+)$"), lambda n: ("B", (n - 1) // 2) if n % 2 else ("D", n // 2)),
    (re.compile(r"^sp(\d+)$"), lambda n: ("C", n // 2)),
    (re.compile(r"^([a-g])(\d+)$"), None),
]


def _parse_factor(token: str):
    token = token.strip().lower()
    for pattern, translate in _ALIASES:
        m = pattern.match(token)
        if not m:
            continue
        if translate is not None:
            fam, rank = translate(int(m.group(1)))
        else:
            fam, rank = m.group(1).upper(), int(m.group(2))
        if fam not in _VALID_RANKS or not _VALID_RANKS[fam](rank):
            raise InvalidDescriptor(f"{token!r} is not a valid simple type")
        return fam, rank
    raise InvalidDescriptor(f"cannot parse root-system descriptor {token!r}")


_PARSED = {}


def _factors(text: str) -> tuple:
    """The (family, rank) factors of a descriptor, memoised per text."""
    factors = _PARSED.get(text)
    if factors is None:
        parts = re.split(r"[x+*]", text)
        if not parts or not all(p.strip() for p in parts):
            raise InvalidDescriptor(f"cannot parse root-system descriptor {text!r}")
        factors = _PARSED[text] = tuple(_parse_factor(p) for p in parts)
    return factors


def parse_descriptor(text: str):
    """Parse "B2", "A1xA1", "so5", "F4" ... into a list of (family, rank)."""
    return list(_factors(text))


_BUILD_CACHE = {}


def build_root_system(descriptor, rank=None) -> RootSystem:
    """Build a root system from a descriptor string or (family, rank).

    Products are concatenations of simple factors with block-diagonal form,
    e.g. ``build_root_system("A1xA1")``. Instances are cached per type so
    enumerated Weyl groups are shared.
    """
    if rank is not None:
        factors = ((str(descriptor).upper(), int(rank)),)
    else:
        factors = _factors(descriptor)
    rs = _BUILD_CACHE.get(factors)
    if rs is None:
        rs = _BUILD_CACHE[factors] = (
            _build_simple(*factors[0]) if len(factors) == 1 else _build_product(factors))
    return rs


def _build_product(factors) -> RootSystem:
    systems = [build_root_system(fam, r) for fam, r in factors]
    # pad each factor's form rows and simple roots into its own block
    form, simples, offset = [], [], 0
    total = sum(s.space_dim for s in systems)
    for s in systems:
        before, after = (0,) * offset, (0,) * (total - offset - s.space_dim)
        form += [before + row + after for row in s.form]
        simples += [before + a.coords + after for a in s.simple_roots]
        offset += s.space_dim
    return RootSystem(simples, form)


# ---------------------------------------------------------------------------
# special elements of a simple system


class SpecialElements:
    """Highest root, short dominant root, rho-type sums, Coxeter number."""

    def __init__(self, rs: RootSystem):
        if not rs.is_simple():
            raise InvalidDescriptor("special elements need a simple system")
        self.rs = rs
        self.theta = rs.highest_root()
        shorts = rs.short_roots()
        self.two_lengths = bool(shorts)
        self.rho = rs.rho
        dim = rs.space_dim
        if shorts:
            dominant_short = [r for r in shorts if rs.is_dominant(r)]
            if len(dominant_short) != 1:
                raise InvalidDescriptor(
                    f"{len(dominant_short)} dominant short roots, expected one")
            self.theta_s = dominant_short[0]
            self.rho_s = HALF * _wsum(shorts, dim)
            self.simple_short = tuple(
                i for i, a in enumerate(rs.simple_roots) if a in set(shorts))
        else:
            # single length: every root counted long
            self.theta_s = self.theta
            self.rho_s = Weight((0,) * dim)
            self.simple_short = ()
        # rho_s must equal the sum of the short fundamental weights
        expected = _wsum([rs.fundamental_weights[i] for i in self.simple_short], dim)
        if self.rho_s != expected:
            raise InvalidDescriptor("rho_s != sum of short fundamental weights")
        self.coxeter_number = int(rs.pairing(rs.rho, self.theta_s)) + 1


def special_elements(rs: RootSystem) -> SpecialElements:
    return SpecialElements(rs)


def dual_root_system(rs: RootSystem):
    """The dual system, realized as long roots plus r-times the short ones.

    Returns the dual RootSystem and the map root -> coroot image. The form
    is rescaled by 1/r so the new highest root again has squared length 2;
    the underlying vectors stay in the original coordinate space.
    """
    if not rs.is_simple():
        raise InvalidDescriptor("dual system needs a simple system")
    se = special_elements(rs)
    if not se.two_lengths:
        return rs, {r: r for r in rs.positive_roots}
    r = rs.inner(se.theta, se.theta) / rs.inner(se.theta_s, se.theta_s)
    if r not in (2, 3):
        raise InvalidDescriptor(f"long/short length ratio {r} is not 2 or 3")
    shorts = set(rs.short_roots())
    dual_simple = [r * a if a in shorts else a for a in rs.simple_roots]
    scaled_form = tuple(tuple(x / r for x in row) for row in rs.form)
    dual = RootSystem(dual_simple, scaled_form, denom=rs.denom)
    mapping = {
        root: (r * root if root in shorts else root) for root in rs.positive_roots
    }
    expected = rs.rho + (r - 1) * se.rho_s
    if dual.rho != expected:
        raise InvalidDescriptor("dual rho != rho + (r-1) rho_s")
    return dual, mapping


# ---------------------------------------------------------------------------
# realized subsystems


def _components(cartan):
    """Connected components of the Dynkin diagram, as sorted index lists."""
    n = len(cartan)
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp, stack = [], [i]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            comp.append(k)
            stack.extend(j for j in range(n) if j != k and cartan[k][j])
        comps.append(sorted(comp))
    return comps


@cache
def _standard_cartan(family: str, rank: int) -> tuple:
    """The Cartan matrix of a simple type, read off its own realization:
    the form is a multiple of I, so the simple keys serve as their own
    form rows."""
    simples, dim, _ = _realization(family, rank)
    flat = clear_denominators([x for a in simples for x in a])[0]
    keys = [flat[i:i + dim] for i in range(0, len(flat), dim)]
    return _cartan(keys, keys, [_dot(k, k) for k in keys])


def _relabellings(std, cartan, nodes):
    """Every ordering of the nodes, as a tuple, under which their Cartan
    matrix is std, found by backtracking position by position."""
    order = []

    def extend():
        if len(order) == len(std):
            yield tuple(order)
            return
        p = len(order)
        for v in nodes:
            if v not in order and all(cartan[v][u] == std[p][q] and cartan[u][v] == std[q][p]
                                      for q, u in enumerate(order)):
                order.append(v)
                yield from extend()
                order.pop()
    return extend()


def _identify(cartan, nodes):
    """(type, ordering): the first simple type, in ``simple_types`` order,
    that numbers the component ``nodes``, and the first ordering of them
    under which it does."""
    for t in _types_of_rank(len(nodes)):
        order = next(_relabellings(_standard_cartan(*t), cartan, nodes), None)
        if order:
            return t, order
    raise InvalidDescriptor("a Dynkin component of no simple type")


def _type_component(cartan, nodes):
    """(type, ordering) of a Dynkin component: the first type under which
    the nodes in their given order are already standard, where there is
    one (so the dual of B2 stays C2), in that order; else ``_identify``'s."""
    given = tuple(tuple(cartan[i][j] for j in nodes) for i in nodes)
    for t in _types_of_rank(len(nodes)):
        if _standard_cartan(*t) == given:
            return t, tuple(nodes)
    return _identify(cartan, nodes)


def _reading_order(std):
    """The positions of a standard diagram in the order subsystem compares
    its orderings: breadth first from the branch node, or along a chain."""
    k = len(std)
    adj = [[q for q in range(k) if q != p and std[p][q]] for p in range(k)]
    read = [p for p in range(k) if len(adj[p]) > 2]
    if not read:
        return range(k)
    for p in read:
        read += [q for q in adj[p] if q not in read]
    return read


def subsystem(rs: RootSystem, positive_subset) -> RootSystem:
    """Realize a subset of positive roots (a root system in its own right,
    not necessarily closed in the ambient system) as a RootSystem sharing
    the ambient space, form and key scaling. The checks run on the
    ambient integer keys."""
    pos = [w if isinstance(w, Weight) else Weight(w) for w in positive_subset]
    keys = [w.key_at(rs.denom) for w in pos]
    key_set = set(keys)
    if len(key_set) != len(keys):
        raise InvalidDescriptor("duplicate roots in subsystem data")
    full = key_set | {tuple(-x for x in k) for k in key_set}
    rows, norms = _gram_rows(rs.form_int, keys)
    # s_a(-b) = -s_a(b), so reflecting the positive half suffices
    for a, w, n, root in zip(keys, rows, norms, pos):
        for b, other in zip(keys, pos):
            c, r = divmod(2 * _dot(b, w), n)
            if r or tuple(x - c * y for x, y in zip(b, a)) not in full:
                raise InvalidDescriptor(
                    f"subset not stable under its own reflections: s_{root}({other})")
    # S is a positive system of +-S when it is closed and misses -S (Bourbaki,
    # Lie VI.1.7); its simple roots are then the elements that are not sums of two
    sums = {tuple(x + y for x, y in zip(a, b)) for i, a in enumerate(keys) for b in keys[i:]}
    if len(full) != 2 * len(keys) or (sums & full) - key_set:
        raise InvalidDescriptor(
            "subset is not the positive system generated by its simple roots")
    simples = [i for i, a in enumerate(keys) if a not in sums]
    if not simples:
        return RootSystem([], rs.form, denom=rs.denom)
    # each component takes its first matching type, whatever the input
    # order, and is numbered by the ordering whose keys are least in that
    # type's reading order; the system built on that order types itself so
    skeys = [keys[i] for i in simples]
    cartan = _cartan(skeys, [rows[i] for i in simples], [norms[i] for i in simples])
    keyed = []
    for comp in _components(cartan):
        label = _identify(cartan, comp)[0]
        std = _standard_cartan(*label)
        read = _reading_order(std)
        order = min(_relabellings(std, cartan, comp), key=lambda o: [skeys[o[p]] for p in read])
        keyed.append((label, [skeys[i] for i in order], order))
    keyed.sort(key=lambda t: t[:2])
    final = RootSystem([pos[simples[i]] for _, _, order in keyed for i in order],
                       rs.form, denom=rs.denom)
    if set(final.positive_roots) != set(pos):
        raise InvalidDescriptor(
            "subset is not the positive system generated by its simple roots")
    return final


def root_system_from_json(data) -> RootSystem:
    if isinstance(data, str):
        data = json.loads(data)
    simples = [tuple(Fraction(c) for c in row) for row in data["simple_roots"]]
    form = tuple(tuple(Fraction(c) for c in row) for row in data["bilinear_form"])
    return RootSystem(simples, form)
