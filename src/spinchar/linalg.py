"""Small exact linear algebra helpers over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything is exact; no floating point is used anywhere in the library.
"""

from fractions import Fraction
from math import lcm

Vec = tuple
Mat = tuple


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def matvec(m: Mat, a: Vec) -> Vec:
    return tuple(sum(r[j] * a[j] for j in range(len(a))) for r in m)


def mat_t(m: Mat) -> Mat:
    return tuple(zip(*m))


def block_diag(blocks) -> Mat:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        k = len(b)
        for r in b:
            rows.append(
                (Fraction(0),) * offset + tuple(frac(x) for x in r) + (Fraction(0),) * (n - offset - k)
            )
        offset += k
    return tuple(rows)


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs for square invertible m."""
    n = len(m)
    a = [list(row) + [frac(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def inverse(m: Mat) -> Mat:
    n = len(m)
    cols = [solve(m, tuple(Fraction(1 if i == j else 0) for i in range(n))) for j in range(n)]
    return mat_t(cols)


def lcm_denoms(vectors) -> int:
    d = 1
    for v in vectors:
        for x in v:
            d = lcm(d, frac(x).denominator)
    return d


def scale_to_int(v: Vec, scale: int) -> tuple:
    """Multiply an exact rational vector by scale; assert integrality."""
    out = []
    for x in v:
        y = frac(x) * scale
        if y.denominator != 1:
            raise ValueError(f"vector {v} does not lie in (1/{scale})Z^n")
        out.append(int(y))
    return tuple(out)
