"""Orbit enumeration of the monodromy group on the integer lattice.

For even parity the orbit of a basis point (1, 0) is claimed to be the
whole set {(u, v) : u - v = +-1}.  The quantity |u - v| is preserved
exactly by every generator matrix, so the claim is certified in two
halves: no reached point ever leaves the line pair (exact invariant),
and a bounded breadth-first search covers every claimed point inside a
finite box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from .errors import OddParityClaim
from .representation import LETTER_ENTRIES, LatticePoint, Parity


@dataclass(frozen=True)
class OrbitReport:
    start: LatticePoint
    parity: Parity
    max_word_len: int
    box_radius: int
    reached: FrozenSet[LatticePoint] = field(repr=False)
    claimed: FrozenSet[LatticePoint] = field(repr=False)
    missing: FrozenSet[LatticePoint]
    extraneous: FrozenSet[LatticePoint]

    def ok(self) -> bool:
        return not self.missing and not self.extraneous


def orbit_bfs(start: LatticePoint, parity: Parity,
              max_word_len: int) -> FrozenSet[LatticePoint]:
    """Closure of {start} under all generator matrices and inverses,
    applying at most max_word_len steps.  BFS over points, deduplicated.
    """
    if max_word_len < 0:
        raise ValueError("max_word_len must be >= 0")
    steps = set(LETTER_ENTRIES[parity].values())
    seen = {start}
    frontier = [start]
    for _ in range(max_word_len):
        nxt = []
        for u, v in frontier:
            for m11, m12, m21, m22 in steps:
                image = (m11 * u + m12 * v, m21 * u + m22 * v)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def verify_orbit_claim(box_radius: int, max_word_len: int, parity: Parity,
                       start: LatticePoint = (1, 0)) -> OrbitReport:
    """Compare the BFS orbit of `start` against the set of lattice points
    in the box [-R, R]^2 with the same value of |u - v|.
    """
    if parity is Parity.ODD:
        raise OddParityClaim("the lattice orbit claim concerns even dimension")
    if box_radius < 1:
        raise ValueError("box_radius must be >= 1")
    reached = orbit_bfs(start, parity, max_word_len)
    level = abs(start[0] - start[1])
    # The lines v = u - s for s = +-level, with u clipped so v stays in the box.
    claimed = frozenset(
        (u, u - s)
        for s in {level, -level}
        for u in range(max(-box_radius, s - box_radius), min(box_radius, s + box_radius) + 1)
    )
    missing = claimed - reached
    extraneous = frozenset(p for p in reached if abs(p[0] - p[1]) != level)
    return OrbitReport(start=start, parity=parity, max_word_len=max_word_len,
                       box_radius=box_radius, reached=reached, claimed=claimed,
                       missing=missing, extraneous=extraneous)
