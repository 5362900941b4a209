"""The monodromy representation of G on the rank-2 lattice Z^2.

The action depends only on the parity of the ambient dimension n.  In
the basis (a, b) of the lattice, with coordinates written as column
vectors (u, v):

  even n:  a -> -a, b -> 2a + b under alpha; the mirror under beta;
           a <-> b under kappa.
  odd n:   alpha and beta act trivially; kappa still swaps a and b.

Matrices are exact integer 2x2 matrices (Python ints, so no overflow).
The matrix of a word g1 g2 ... gm is M(g1) M(g2) ... M(gm); composite
loops act on column vectors with the leftmost letter's matrix applied
last.  `matrix_of` evaluates that product in closed form.  Every
matrix fixes (1, 1), the class a + b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Tuple

from .errors import DimensionTooSmall
from .group import ALPHA, BETA, KAPPA, GroupWord

LatticePoint = Tuple[int, int]


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"

    @classmethod
    def from_dimension(cls, n: int) -> "Parity":
        if n < 2:
            raise DimensionTooSmall(f"ambient dimension must be >= 2, got {n}")
        return cls.EVEN if n % 2 == 0 else cls.ODD


@dataclass(frozen=True)
class MonodromyMatrix:
    """2x2 integer matrix acting on column vectors (u, v); det is +-1."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __matmul__(self, other: "MonodromyMatrix") -> "MonodromyMatrix":
        return MonodromyMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, point: LatticePoint) -> LatticePoint:
        u, v = point
        return (self.m11 * u + self.m12 * v, self.m21 * u + self.m22 * v)

    def rows(self) -> list[list[int]]:
        return [[self.m11, self.m12], [self.m21, self.m22]]


IDENTITY_MATRIX = MonodromyMatrix(1, 0, 0, 1)
SWAP_MATRIX = MonodromyMatrix(0, 1, 1, 0)

_EVEN = {
    ALPHA: MonodromyMatrix(-1, 2, 0, 1),
    BETA: MonodromyMatrix(1, 0, 2, -1),
    KAPPA: SWAP_MATRIX,
}
_ODD = {
    ALPHA: IDENTITY_MATRIX,
    BETA: IDENTITY_MATRIX,
    KAPPA: SWAP_MATRIX,
}


def generator_matrix(label: str, parity: Parity) -> MonodromyMatrix:
    """Matrix of a single generator a, b or k at the given parity."""
    table = _EVEN if parity is Parity.EVEN else _ODD
    return table[label]


def matrix_of(g: GroupWord, parity: Parity) -> MonodromyMatrix:
    """Matrix of a normal-form word w k^e, in closed form.

    At even parity M_a and M_b are involutions and T = M_a M_b = I + 2N,
    N = [[1, -1], [1, -1]], N^2 = 0: they generate an infinite dihedral
    group.  Read in pairs, ab is T, ba is T^-1, aa and bb are I, so
    M(w) = T^j M_a^(len(w) mod 2), T^j = [[1 + 2j, -2j], [2j, 1 - 2j]],
    where j counts the b's at odd 0-based positions of w minus those at
    even ones; exponents do not matter.  At odd parity M(w) = I.  Either
    way, e = 1 multiplies by the swap on the right: it swaps the columns.
    """
    p, q, r, s = 1, 0, 0, 1
    if parity is Parity.EVEN and g.free_part:
        generators = list(map(itemgetter(0), g.free_part))  # the generator of each letter
        j = generators[1::2].count(BETA) - generators[::2].count(BETA)
        p, q, r, s = 1 + 2 * j, -2 * j, 2 * j, 1 - 2 * j
        if len(generators) % 2:  # times M_a = [[-1, 2], [0, 1]]
            p, q, r, s = -p, 2 * p + q, -r, 2 * r + s
    if g.kappa_bit:
        p, q, r, s = q, p, s, r
    return MonodromyMatrix(p, q, r, s)


def quotient_character(g: GroupWord, parity: Parity) -> int:
    """Scalar action on the quotient lattice Z^2 / <a + b>.

    The class of (u, v) in the quotient is u - v; every word acts on it
    by +-1.
    """
    m = matrix_of(g, parity)
    chi = m.m11 - m.m21
    assert m.m12 - m.m22 == -chi, "matrix does not preserve the quotient line"
    return chi
