"""Rank bookkeeping for H_*(C^n, A u L) with A the standard quadric.

A is homotopy equivalent to S^{n-1}, L is contractible, and A n L is
homotopy equivalent to S^{n-2}.  Every group in sight is free, so the
Mayer-Vietoris and long exact sequences reduce to rank arithmetic: the
reduced homology of the union is Z^2 in degree n-1 and zero elsewhere,
and since C^n is contractible the relative homology is Z^2 in degree n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .errors import DimensionTooSmall, NegativeDimension

RankTable = Dict[int, int]


@dataclass(frozen=True)
class HomologyTable:
    n: int
    relative: RankTable   # degree -> rank of H_i(C^n, A u L)
    absolute: RankTable   # degree -> rank of reduced H_i(A u L)
    pieces: Dict[str, RankTable]


def sphere_homology(k: int) -> RankTable:
    """Unreduced integral homology ranks of S^k."""
    if k < 0:
        raise NegativeDimension(f"sphere dimension must be >= 0, got {k}")
    if k == 0:
        return {0: 2}
    return {0: 1, k: 1}


def homology_table(n: int) -> HomologyTable:
    if n < 2:
        raise DimensionTooSmall(f"need n >= 2, got {n}")
    # Mayer-Vietoris: A n L ~ S^{n-2} has reduced homology only where A and L have none, so it
    # feeds the degree above, beside A ~ S^{n-1}: Z^2 in degree n-1.  The long exact sequence
    # of the pair, with C^n contractible, moves that up one degree.
    pieces = {
        "A": sphere_homology(n - 1),
        "L": {0: 1},
        "A_int_L": sphere_homology(n - 2),
    }
    return HomologyTable(n=n, relative={n: 2}, absolute={n - 1: 2}, pieces=pieces)
