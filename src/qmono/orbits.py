"""Lattice orbits of the monodromy group, in closed form.

Step law: at even parity each generator matrix is an involution sending
the level l = u - v to -l and the midpoint m = (u + v) / 2 to m + e*l,
with e = -1, +1, 0 for a, b, k.  So words of length n reach level
(-1)^n l0 and midpoint m0 + j*l0 for every |j| <= n, and the ball of
words of length <= L about (u0, v0) is the points (u0, v0) + j*l0*(1, 1)
for |j| up to L rounded down to even, and (v0, u0) + j*l0*(1, 1) for |j|
up to L rounded down to odd (none when L = 0).  At odd parity a and b
act trivially and k swaps, so the ball is {(u0, v0), (v0, u0)}, or
{(u0, v0)} when L = 0.

`verify_orbit_claim` checks the claim that the even orbit of (1, 0) is
{(u, v) : u - v = +-1} inside a finite box.

Both refuse, before building it, a ball or a box of more than
MAX_ORBIT_POINTS points.  The ball holds 4L points for L >= 1 when the
parity is even and u0 != v0, and at most 2 otherwise, which stay unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from .errors import BadParameters, OddParityClaim
from .representation import LatticePoint, Parity

# The most points a ball or a box may hold; as a set of tuples each takes about 200 bytes,
# and the CLI lists and prints them all.
MAX_ORBIT_POINTS = 2 ** 20


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


def _diagonal(u: int, v: int, step: int, reach: int) -> Iterable[LatticePoint]:
    """The points (u, v) + j*step*(1, 1) for |j| <= reach; none if reach < 0."""
    if reach < 0:
        return ()
    span, stride = reach * step, step or 1
    return zip(range(u - span, u + span + 1, stride), range(v - span, v + span + 1, stride))


def orbit_bfs(start: LatticePoint, parity: Parity,
              max_word_len: int) -> FrozenSet[LatticePoint]:
    """The ball of words of at most max_word_len letters about start."""
    if max_word_len < 0:
        raise BadParameters(f"max_word_len must be >= 0, got {max_word_len}")
    u0, v0 = start
    step = abs(u0 - v0) if parity is Parity.EVEN else 0
    if step and 4 * max_word_len > MAX_ORBIT_POINTS:
        raise BadParameters(f"max_word_len {max_word_len} gives a ball of {4 * max_word_len} "
                            f"points, above MAX_ORBIT_POINTS = {MAX_ORBIT_POINTS}")
    parity_bit = max_word_len % 2
    return frozenset((*_diagonal(u0, v0, step, max_word_len - parity_bit),
                      *_diagonal(v0, u0, step, max_word_len - 1 + parity_bit)))


def verify_orbit_claim(box_radius: int, max_word_len: int, parity: Parity,
                       start: LatticePoint = (1, 0)) -> OrbitReport:
    """Compare the orbit ball of `start` against the set of lattice points
    in the box [-R, R]^2 with the same value of |u - v|.
    """
    if parity is Parity.ODD:
        raise OddParityClaim("the lattice orbit claim concerns even dimension")
    if box_radius < 1:
        raise BadParameters(f"box_radius must be >= 1, got {box_radius}")
    level = abs(start[0] - start[1])
    # Each line v = u - s of the box holds 2R + 1 - |s| points.
    box = len({level, -level}) * max(0, 2 * box_radius + 1 - level)
    if box > MAX_ORBIT_POINTS:
        raise BadParameters(f"box_radius {box_radius} holds {box} claimed points, "
                            f"above MAX_ORBIT_POINTS = {MAX_ORBIT_POINTS}")
    reached = orbit_bfs(start, parity, max_word_len)
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
