"""Oracles that only the tests read: rational vectors as plain tuples of
Fractions, the Fraction bilinear form and Dynkin labels, the Fraction
reflection s_alpha and its matrix, the Weyl element acting by a given
matrix, the stretch e^mu -> e^{n mu} of a character, an element on an
integer key, products, inverses, membership and the identity in an
enumerated Weyl group, the factorization of an element over a coset
section, the exterior powers by Newton's recursion and expanded degree
by degree, the invariant Poincare polynomial read at the points of rho's
orbit, the expanded skew product over a set of roots, any product of
binomials multiplied out one at a time, decomposition by Racah-Speiser
folding, and Fourier-Motzkin elimination, which decides whether an open
cone of integer rows has a point."""

from fractions import Fraction
from math import comb
from weakref import WeakKeyDictionary

from spinchar.charring import (
    DEFAULT_TERM_BUDGET,
    Character,
    Decomposition,
    GradedPoincare,
    _binomial_product,
    _check_invariant,
    key_weight,
    weight_key,
)
from spinchar.errors import BudgetExceeded, ConsistencyError, NonModuleCharacter
from spinchar.rootsys import Weight, _dot, _primitive
from spinchar.weyl import DEFAULT_WEYL_BUDGET, _check_weyl_budget, _spell, enumerate_weyl


# ---------------------------------------------------------------------------
# rational vectors as tuples of Fractions, the oracle of Weight


def vector_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vector_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vector_scale(c, a):
    return tuple(Fraction(c) * x for x in a)


def least_scale(a):
    """The least positive integer s with s * a integral, by trial."""
    s = 1
    while any((s * x).denominator != 1 for x in a):
        s += 1
    return s


def fraction_inner(rs, a, b):
    """(a, b) through the Fraction form matrix, coordinate by coordinate."""
    return sum(x * sum(f * y for f, y in zip(row, b.coords))
               for x, row in zip(a.coords, rs.form))


def fraction_labels(rs, x):
    """<x, alpha_i~> = 2 (x, alpha_i) / (alpha_i, alpha_i) in Fractions."""
    return tuple(2 * fraction_inner(rs, x, a) / fraction_inner(rs, a, a)
                 for a in rs.simple_roots)


def reflect(rs, alpha, x):
    """s_alpha(x) = x - <x, alpha~> alpha, in Fraction arithmetic."""
    c = 2 * fraction_inner(rs, x, alpha) / fraction_inner(rs, alpha, alpha)
    return Weight(vector_sub(x.coords, vector_scale(c, alpha.coords)))


def reflection_matrix(rs, alpha):
    """The rational matrix of s_alpha, column by column."""
    n = rs.space_dim
    return tuple(zip(*(reflect(rs, alpha, Weight([int(i == j) for i in range(n)])).coords
                       for j in range(n))))


def lookup(rs, matrix):
    """The element of W(rs) acting by a given rational matrix: the one
    whose key is the image of rho."""
    rho = rs.rho.coords
    key = Weight([_dot(row, rho) for row in matrix]).key_at(rs.denom)
    return next(w for w in enumerate_weyl(rs) if w.key == key)


def stretch(ch: Character, n: int) -> Character:
    """e^mu -> e^{n mu}."""
    return Character(ch.rs, {tuple(n * x for x in k): v for k, v in ch.terms.items()})


# ---------------------------------------------------------------------------
# an enumerated Weyl group, indexed by the keys w(rho) of its elements


# by the system generating the group, kept while that system lives; the
# positions hold no element, so the index keeps neither group nor system
# alive, and every enumeration of one group has the same sorted order
_POSITIONS = WeakKeyDictionary()


def _by_image(group):
    """The positions of the group's elements in the tuple, by key."""
    system = group[0]._system
    if system not in _POSITIONS:
        _POSITIONS[system] = {w.key: i for i, w in enumerate(group)}
    return _POSITIONS[system]


def identity_element(group):
    return group[0]


def contains(group, w):
    return w.key in _by_image(group)


def act_key(w, key):
    """w on an integer key, its word applied last letter first; raises
    ValueError if the image leaves the integer lattice."""
    out, scale = w._system.walk(reversed(w.word), key)
    if any(x % scale for x in out):
        raise ValueError("Weyl action leaves the key lattice")
    return tuple(x // scale for x in out)


def multiply(group, a, b):
    """ab, the element whose key is a applied to b's key."""
    return group[_by_image(group)[act_key(a, b.key)]]


def invert(group, a):
    """a^{-1}: for a = s_{i1} ... s_{ik}, a^{-1}(rho) applies s_{i1} first."""
    return group[_by_image(group)[a._system.walk(a.word, identity_element(group).key)[0]]]


def factorize(rs, sub, w):
    """Unique factorization w = w0 (rep)^{-1} with w0 in W0, rep minimal.

    Descent: starting from the key of w(rho), reflect by subsystem simple
    roots pairing negatively with it. Each step right-multiplies w^{-1} by
    that reflection and repairs one root; the key reached is rep^{-1}(rho),
    which spells rep. It walks all of W and W0.
    """
    gen = sub.system
    rep = _spell(rs, gen.to_dominant(gen.labels(w.key), w.key)[1])
    w0 = multiply(enumerate_weyl(rs), w, rep)
    if not contains(sub.group, w0):
        raise ConsistencyError("descent left the reflection subgroup")
    return w0, rep


# ---------------------------------------------------------------------------
# characters


def newton_exterior_powers(ws, term_budget=DEFAULT_TERM_BUDGET):
    """Every exterior power by Newton's recursion
    i e_i = sum_{k<=i} (-1)^{k-1} p_k e_{i-k}, dividing exactly by i."""
    rs = ws.rs
    n = ws.dimension()
    powers = []
    for k in range(1, n + 1):
        terms = {}
        for key, m in ws.nonzero.items():
            kk = tuple(k * x for x in key)
            terms[kk] = terms.get(kk, 0) + m
        zk = (0,) * rs.space_dim
        terms[zk] = terms.get(zk, 0) + ws.zero_mult
        powers.append(Character(rs, terms))
    out = [Character.one(rs)]
    for i in range(1, n + 1):
        acc = Character(rs, {})
        for k in range(1, i + 1):
            term = powers[k - 1].__mul__(out[i - k], term_budget)
            acc = acc + term if k % 2 else acc - term
        terms = {}
        for key, v in acc.terms.items():
            if v % i:
                raise ConsistencyError("exterior power recursion not divisible")
            terms[key] = v // i
        out.append(Character(rs, terms))
    return out


def _binomial_factor_update(graded, key, m, max_degree, term_budget):
    """Multiply a degree-graded dict list by (1 + t e^mu)^m in place.

    Degrees are updated from the top down so each update only reads
    lower-degree slices that still hold the previous partial product.
    """
    shifts = [(comb(m, j), tuple(j * x for x in key)) for j in range(1, m + 1)]
    for deg in range(max_degree, 0, -1):
        dst = graded[deg]
        for j, (c, shift) in enumerate(shifts, start=1):
            if j > deg:
                break
            for k, v in graded[deg - j].items():
                kk = tuple(a + b for a, b in zip(k, shift))
                nv = dst.get(kk, 0) + c * v
                if nv:
                    dst[kk] = nv
                else:
                    dst.pop(kk, None)
    size = sum(len(d) for d in graded)
    if size > term_budget:
        raise BudgetExceeded(
            f"graded exterior support {size} exceeds the term budget {term_budget}",
            required=size, budget=term_budget)


def exterior_powers(ws, max_degree=None, term_budget=DEFAULT_TERM_BUDGET):
    """Characters of the exterior powers of a module, degree-indexed,
    from prod (1 + t e^mu)^{m(mu)} expanded degree by degree."""
    n = ws.dimension()
    max_degree = n if max_degree is None else min(max_degree, n)
    rs = ws.rs
    graded = [dict() for _ in range(max_degree + 1)]
    graded[0][(0,) * rs.space_dim] = 1
    if ws.zero_mult:
        _binomial_factor_update(graded, (0,) * rs.space_dim, ws.zero_mult,
                                max_degree, term_budget)
    for key, m in sorted(ws.nonzero.items()):
        _binomial_factor_update(graded, key, m, max_degree, term_budget)
    out = [Character(rs, g) for g in graded]
    if max_degree == n:
        total = sum(ch.dimension() for ch in out)
        if total != 2**n:
            raise ConsistencyError(f"exterior powers sum to {total}, expected 2^{n}")
        # Lambda^{n-i} V = Lambda^i V* (x) Lambda^n V, and Lambda^n V is trivial
        # when the weights sum to zero
        if ws.weight_sum().is_zero() and any(
                out[n - i] != out[i].conjugate() for i in range(n // 2 + 1)):
            raise ConsistencyError("exterior powers are not mirror-conjugate")
    return out


def rho_shifts(rs):
    """(rho - w rho, sgn w) for each w in W, walked from the regular rho.
    For dominant lam, m_lam = sum_w sgn(w) c(lam + rho - w rho) in a
    W-invariant ch: the coefficient of e^{lam+rho} in ch * sum_w sgn(w)
    e^{w rho}, which is sum m_mu A_{mu+rho} by the Weyl character formula."""
    rho = rs.rho_key
    return [(tuple(r - x for r, x in zip(rho, k)), -1 if len(word) % 2 else 1)
            for k, word in rs.dominant_orbit(rho, [1] * rs.rank).items()]


def orbit_poincare(ws, budget=DEFAULT_WEYL_BUDGET, term_budget=DEFAULT_TERM_BUDGET):
    """Graded dimensions of the invariants in the exterior algebra, each
    exterior power's trivial multiplicity read at the |W| points of rho's
    orbit (see ``rho_shifts``). When the weights sum to zero the grading
    is mirror-symmetric, so only half the degrees are expanded."""
    rs = ws.rs
    _check_weyl_budget(rs, budget)
    _check_invariant(ws.character(), rs)
    n = ws.dimension()
    symmetric = ws.weight_sum().is_zero()
    top = n // 2 if symmetric else n
    powers = exterior_powers(ws, max_degree=top, term_budget=term_budget)
    shifts = rho_shifts(rs)
    coeffs = [sum(s * p.terms.get(d, 0) for d, s in shifts) for p in powers]
    if symmetric:  # degree n - i mirrors degree i
        coeffs += coeffs[:n - top][::-1]
    if any(c < 0 for c in coeffs):
        raise NonModuleCharacter("negative invariant dimension")
    return GradedPoincare(coeffs)


def skew_product(rs, roots, term_budget=DEFAULT_TERM_BUDGET):
    """Expand prod (e^{a/2} - e^{-a/2}) over the given roots."""
    factors = [(weight_key(rs, a), 1, -1) for a in roots]
    return Character(rs, _binomial_product(rs, factors, term_budget))


def expanded_binomials(rs, factors, seed=None):
    """seed (by default 1) times prod (e^{v/2} + s e^{-v/2})^m over (key v,
    m, s) factors, multiplied out one binomial at a time: what
    ``_binomial_product`` computes, with nothing merged and nothing pruned."""
    out = Character(rs, seed) if seed else Character.one(rs)
    for v, m, s in factors:
        half = key_weight(rs, tuple(x // 2 for x in v))
        binomial = Character.from_weights(rs, [(half, 1), (-half, s)])
        for _ in range(m):
            out = out * binomial
    return out


def racah_speiser(ch, rs=None):
    """Irreducible multiplicities of a W-invariant character, as
    {highest weight: nonzero multiplicity}, by Racah-Speiser folding.

    Each support weight mu moves mu + rho into the dominant chamber by
    simple reflections. It drops out if the image nu lies on a wall and
    otherwise adds (-1)^k c(mu) to V_{nu - rho}, k the reflections used.
    This is the Weyl character formula read backwards, so it needs
    integral weights and W-invariance, which the library checks.
    """
    rs = rs or ch.rs
    _check_invariant(ch, rs)
    out = {}
    for k, c in ch.terms.items():
        nu_labels, nu, word = rs.to_dominant(
            [p + 1 for p in rs.labels(k)], tuple(a + b for a, b in zip(k, rs.rho_key)))
        if 0 in nu_labels:
            continue
        lam = key_weight(ch.rs, tuple(a - b for a, b in zip(nu, rs.rho_key)))
        out[lam] = out.get(lam, 0) + (-c if len(word) % 2 else c)
    return {lam: m for lam, m in out.items() if m}


def fold_decompose(ch, rs=None):
    """The decomposition of a module character by ``racah_speiser``; a
    negative multiplicity raises NonModuleCharacter."""
    rs = rs or ch.rs
    folded = racah_speiser(ch, rs)
    if any(m < 0 for m in folded.values()):
        raise NonModuleCharacter(f"negative multiplicity in {folded}")
    return Decomposition(rs, folded.items())


# ---------------------------------------------------------------------------
# open cones of integer rows, the oracle of the dominant chambers


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
