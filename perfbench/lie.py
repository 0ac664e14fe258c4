"""Cartan-matrix arithmetic for the benchmark's own reference answers.

Nothing here imports spinchar: the benchmark decides which inputs are
orthogonal, and what a correct answer must satisfy, from this independent
code. Types use spinchar's numbering (Bourbaki for A-D and G2; F4 with the
short simple roots first) and the normalization (theta, theta) = 2 for every
simple factor. Weights are tuples of fundamental-weight coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


def _simple_gram(family: str, rank: int):
    """Gram matrix (alpha_i, alpha_j) of the simple roots of one simple type."""
    g = [[Fraction(0)] * rank for _ in range(rank)]

    def bond(i, j, value):
        g[i][j] = g[j][i] = Fraction(value)

    if family in "AD":
        for i in range(rank):
            g[i][i] = Fraction(2)
        chain = rank - 1 if family == "A" else rank - 2
        for i in range(chain):
            bond(i, i + 1, -1)
        if family == "D":
            bond(rank - 3, rank - 1, -1)
    elif family == "B":
        for i in range(rank):
            g[i][i] = Fraction(2 if i < rank - 1 else 1)
        for i in range(rank - 1):
            bond(i, i + 1, -1)
    elif family == "C":
        for i in range(rank):
            g[i][i] = Fraction(1 if i < rank - 1 else 2)
        for i in range(rank - 2):
            bond(i, i + 1, Fraction(-1, 2))
        bond(rank - 2, rank - 1, -1)
    elif family == "G":
        g = [[Fraction(2, 3), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    elif family == "F":
        for i, n in enumerate((1, 1, 2, 2)):
            g[i][i] = Fraction(n)
        bond(0, 1, Fraction(-1, 2))
        bond(1, 2, -1)
        bond(2, 3, -1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return g


def parse_type(text: str):
    """'B4' -> [('B', 4)]; 'A1xB2' -> [('A', 1), ('B', 2)]."""
    out = []
    for part in text.split("x"):
        m = re.fullmatch(r"([A-G])(\d+)", part)
        if not m:
            raise ValueError(f"cannot parse type {text!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


@lru_cache(maxsize=None)
def gram(type_text: str):
    """Block-diagonal Gram matrix of a (possibly reducible) type."""
    blocks = [_simple_gram(f, r) for f, r in parse_type(type_text)]
    n = sum(len(b) for b in blocks)
    g = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in g)


def _cartan(g):
    """A_ij = <alpha_i, alpha_j^vee>, so alpha_i = sum_j A_ij w_j."""
    n = len(g)
    return tuple(tuple(2 * g[i][j] / g[j][j] for j in range(n)) for i in range(n))


def _positive_roots(g):
    """Positive roots in simple-root coordinates, by root strings."""
    n = len(g)
    a = _cartan(g)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                pairing = sum(beta[j] * a[j][i] for j in range(n))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


class Lie:
    """Reference data for one type, computed from its Gram matrix alone."""

    def __init__(self, type_text: str):
        self.g = gram(type_text)
        self.rank = len(self.g)
        self.cartan = _cartan(self.g)
        self.positive = _positive_roots(self.g)
        self.inv = _inverse(self.cartan)
        # (lam, beta) = sum_j beta_j lam_j (alpha_j, alpha_j) / 2; scaled by 6
        # (the half squared lengths are 1/3, 1/2 or 1) these are integers
        self._dim_rows = [[int(6 * c * self.g[j][j] / 2) for j, c in enumerate(beta)]
                          for beta in self.positive]
        self._dim_den = 1
        for row in self._dim_rows:
            self._dim_den *= sum(row)
        # <lam, 2 rho^vee> = sum_j lam_j k_j, k = coefficients of 2 rho^vee
        self._two_rho_vee = [
            sum(Fraction(beta[j]) * self.g[j][j] / self._norm(beta) for beta in self.positive)
            for j in range(self.rank)]

    # -- fundamental-weight coordinates -----------------------------------

    def root_fw(self, beta):
        return tuple(sum(beta[i] * self.cartan[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    def dominant(self, mu):
        mu = tuple(mu)
        moved = True
        while moved:
            moved = False
            for i in range(self.rank):
                if mu[i] < 0:
                    mu = _reflect(self.cartan, mu, i)
                    moved = True
        return mu

    def weyl_order(self) -> int:
        return _weyl_order(self.cartan)

    def ip(self, lam, mu) -> Fraction:
        """(lam, mu) for two weights in fundamental-weight coordinates."""
        inv = self.inv
        # (w_i, w_j) = (A^{-1})_{ji} (alpha_i, alpha_i) / 2
        return sum(lam[i] * mu[j] * inv[j][i] * self.g[i][i] / 2
                   for i in range(self.rank) for j in range(self.rank))

    # -- module invariants ----------------------------------------------------

    def _norm(self, beta) -> Fraction:
        return sum(beta[i] * beta[j] * self.g[i][j]
                   for i in range(self.rank) for j in range(self.rank))

    def dimension(self, lam) -> int:
        """Weyl's dimension formula."""
        num = 1
        for row in self._dim_rows:
            num *= sum(u * (x + 1) for u, x in zip(row, lam))
        if num % self._dim_den:
            raise ValueError(f"non-integral dimension for {lam}")
        return num // self._dim_den

    def is_self_dual(self, lam) -> bool:
        return self.dominant(tuple(-x for x in lam)) == tuple(lam)

    def is_orthogonal(self, lam) -> bool:
        """Self-dual with Frobenius-Schur indicator (-1)^<lam, 2 rho^vee> = +1."""
        if not self.is_self_dual(lam):
            return False
        total = sum(x * k for x, k in zip(lam, self._two_rho_vee))
        return total.denominator == 1 and total.numerator % 2 == 0

    def in_root_lattice(self, lam) -> bool:
        return all(sum(lam[i] * self.inv[i][j] for i in range(self.rank)).denominator == 1
                   for j in range(self.rank))

    def dominant_multiplicities(self, lam):
        """{dominant mu: m(mu)} for V_lam by Freudenthal's formula."""
        lam = tuple(lam)
        roots = [self.root_fw(b) for b in self.positive]
        rho = (1,) * self.rank
        # the dominant weights under lam, linked by positive roots (Stembridge)
        seen = {lam}
        order = [lam]
        for mu in order:
            for r in roots:
                nu = tuple(x - y for x, y in zip(mu, r))
                if min(nu) >= 0 and nu not in seen:
                    seen.add(nu)
                    order.append(nu)
        # the recursion reads only higher weights: sort by depth under lam
        order.sort(key=lambda mu: self.ip(tuple(a - b for a, b in zip(lam, mu)), rho))
        top = self.ip(tuple(x + 1 for x in lam), tuple(x + 1 for x in lam))
        mult = {lam: 1}
        for mu in order[1:]:
            total = Fraction(0)
            for r in roots:
                nu = tuple(x + y for x, y in zip(mu, r))
                while True:
                    m = mult.get(self.dominant(nu), 0)
                    if not m:
                        break
                    total += m * self.ip(nu, r)
                    nu = tuple(x + y for x, y in zip(nu, r))
            shifted = tuple(x + 1 for x in mu)
            value = 2 * total / (top - self.ip(shifted, shifted))
            if value.denominator != 1:
                raise ValueError(f"non-integral multiplicity at {mu}")
            if value:
                mult[mu] = int(value)
        return mult

    def zero_weight_multiplicity(self, lam) -> int:
        return self.dominant_multiplicities(lam).get((0,) * self.rank, 0)

    # -- inner gradings of a simple type -------------------------------------

    def marks(self):
        """Coefficients of the highest root over the simple roots."""
        return self.positive[-1]

    def dual_coxeter_number(self) -> int:
        theta = self.marks()
        return 1 + int(sum(c * self.g[i][i] / 2 for i, c in enumerate(theta)))

    def odd_positive_roots(self, pivot: int) -> int:
        return sum(1 for b in self.positive if b[pivot - 1] % 2)

    def fixed_weyl_order(self, pivot: int) -> int:
        """|W0| for the inner grading at a pivot of mark 1 or 2: the diagram
        minus the pivot, extended by -theta when the mark is 2."""
        theta = self.marks()
        keep = [i for i in range(self.rank) if i != pivot - 1]
        rows = [[self.g[i][j] for j in keep] for i in keep]
        if theta[pivot - 1] == 2:
            col = [-sum(theta[k] * self.g[k][j] for k in range(self.rank)) for j in keep]
            rows = [r + [c] for r, c in zip(rows, col)] + [col + [Fraction(2)]]
        return _weyl_order(_cartan(rows))


def _reflect(cartan, mu, i):
    return tuple(x - mu[i] * y for x, y in zip(mu, cartan[i]))


def _weyl_order(cartan) -> int:
    """|W| as the size of the orbit of the regular weight rho."""
    rho = (1,) * len(cartan)
    seen = {rho}
    frontier = [rho]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(len(cartan)):
                y = _reflect(cartan, x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(tuple(row[n:]) for row in a)


@lru_cache(maxsize=None)
def lie(type_text: str) -> Lie:
    return Lie(type_text)
