"""Oracles that only the tests read: the Fraction reflection s_alpha and
its matrix, the Weyl element acting by a given matrix, and the stretch
e^mu -> e^{n mu} of a character."""

from spinchar.charring import Character
from spinchar.rootsys import Weight, _dot, scale_to_int


def reflect(rs, alpha, x):
    """s_alpha(x) = x - <x, alpha~> alpha, in Fraction arithmetic."""
    return x - rs.pairing(x, alpha) * alpha


def reflection_matrix(rs, alpha):
    """The rational matrix of s_alpha, column by column."""
    n = rs.space_dim
    return tuple(zip(*(reflect(rs, alpha, Weight([int(i == j) for i in range(n)])).coords
                       for j in range(n))))


def lookup(group, matrix):
    """The element of ``group`` acting by a given rational matrix: the one
    whose key is the image of rho."""
    rho = group.rs.rho.coords
    key = scale_to_int([_dot(row, rho) for row in matrix], group.rs.denom)
    return next(w for w in group if w.key == key)


def stretch(ch: Character, n: int) -> Character:
    """e^mu -> e^{n mu}."""
    return Character(ch.rs, {tuple(n * x for x in k): v for k, v in ch.terms.items()})
