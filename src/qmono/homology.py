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

from .errors import BadParameters, DimensionTooSmall, NegativeDimension

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


def _reduced_sphere(k: int) -> RankTable:
    return {k: 1}


def solve_split_extension(left_rank: int, right_rank: int) -> int:
    """Rank of the middle of 0 -> Z^l -> H -> Z^r -> 0 (splits, H free)."""
    if left_rank < 0 or right_rank < 0:
        raise BadParameters(f"ranks must be >= 0, got {left_rank} and {right_rank}")
    return left_rank + right_rank


def homology_table(n: int) -> HomologyTable:
    if n < 2:
        raise DimensionTooSmall(f"need n >= 2, got {n}")
    reduced_a = _reduced_sphere(n - 1)
    reduced_l: RankTable = {}          # contractible
    reduced_al = _reduced_sphere(n - 2)

    # Mayer-Vietoris, degree by degree.  The intersection's only reduced
    # homology sits in degree n-2 where A and L have none, so the map
    # into the direct sum is zero there: its full rank feeds the
    # connecting kernel of the row one degree up, and every cokernel is
    # the plain direct sum.
    absolute: RankTable = {}
    for i in range(n + 2):
        cokernel = reduced_a.get(i, 0) + reduced_l.get(i, 0)
        kernel = reduced_al.get(i - 1, 0)
        rank = solve_split_extension(cokernel, kernel)
        if rank:
            absolute[i] = rank

    # Long exact sequence of the pair with contractible total space.
    relative = {i + 1: rank for i, rank in absolute.items()}

    pieces = {
        "A": sphere_homology(n - 1),
        "L": {0: 1},
        "A_int_L": sphere_homology(n - 2),
    }
    return HomologyTable(n=n, relative=relative, absolute=absolute, pieces=pieces)
