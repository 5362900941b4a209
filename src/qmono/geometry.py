"""Hyperplane/quadric incidence predicates.

The quadric is fixed to the standard affine form z1^2 + ... + zn^2 = 1.
A hyperplane {<c, z> = d} (complex bilinear pairing, no conjugation) is
tangent to it iff d^2 = q and asymptotic iff q = 0, where q = sum c_i^2.
Both criteria are evaluated on the scale-normalized representative with
|c| = 1, so all predicates are invariant under (c, d) -> (lambda c,
lambda d).  `incidence` alone refuses, without a numpy warning, a row
with a NaN or infinite part or one that is not finite once scaled to
|c| = 1, as NonFiniteSample at the first such row; `classify`, and the
scalar predicates and `Hyperplane.normalized` at index 0, go through it.
`quad_form`, which works at the scale of c, refuses a q that is not finite
likewise, as NonFiniteSample(0).

A coefficient vector is zero, and refused as ZeroCoefficientVector (at
index 0 for a lone vector), when every real and imaginary part is +0.0 or
-0.0; a NaN or a subnormal part makes it nonzero.  For a lone vector the
test is one np.count_nonzero call; a loop tests its rows with one
c.any(axis=1).  The reductions are ndarray methods, not numpy's
module-level wrappers.

A tolerance comes from the caller alone: `default_tol` gives DEFAULT_TOL
for None and checks any other value; no function reads the environment.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

import numpy as np

from .errors import BadTolerance, NonFiniteSample, ZeroCoefficientVector

DEFAULT_TOL = 1e-9


def default_tol(tol: float | None = None) -> float:
    """DEFAULT_TOL when tol is None, else tol; anything but a number with 0 < tol < 1
    raises BadTolerance (a NaN would switch every check off)."""
    try:
        value = DEFAULT_TOL if tol is None else float(tol)
    except (TypeError, ValueError):
        value = float("nan")
    if not 0.0 < value < 1.0:
        raise BadTolerance(f"tol must be a number with 0 < tol < 1, got {tol!r}")
    return value


def _unit_scaled(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = sum u_i^2 / s and 1 / |c| = (1 / top) / sqrt(s) for the rows of c: (m, n), where
    u = c / top, top = max(|Re c_i|, |Im c_i|) and s = |u|^2.  A part of u is +-1, so s lies
    in [1, 2n] and cannot over- or underflow.  u is taken as c * (1 / top): the rounding of
    1 / top scales every part of a row alike, so it cancels from u u / s and from 1 / |c|.

    The n columns of a column-major c are swept one at a time, so no temporary holds more
    than 2m values (c is copied to column-major order first if it is not).  The sums start
    at zero and add the columns in order, as numpy's axis-1 sum of a column-major array does,
    so they give the same bits as that sum."""
    c = np.asfortranarray(c)
    m, n = c.shape
    # Row j of parts is column j as its 2m real and imaginary parts, a view of c; top is the
    # larger of max and -min over a row's 2n parts.
    parts = c.T.view(float)
    high, low = np.maximum.reduce(parts, axis=0), np.minimum.reduce(parts, axis=0)
    np.maximum(high, np.negative(low, out=low), out=high)
    top = np.maximum(high[0::2], high[1::2])
    del high, low  # freed before the sweep allocates its columns
    # 1 / top as a complex column, as numpy casts it to multiply a complex one.
    scale = np.zeros(m, dtype=complex)
    inv_top = np.divide(1.0, top, out=scale.real)
    size2, q = np.zeros(m), np.zeros(m, dtype=complex)
    u, uu = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    # The squared parts of u_j, in uu's memory before u_j^2 is written there.
    u_parts, squares = u.view(float), uu.view(float)
    re2, im2 = squares[0::2], squares[1::2]
    for j in range(n):
        np.multiply(c[:, j], scale, out=u)
        np.multiply(u_parts, u_parts, out=squares)
        np.add(size2, np.add(re2, im2, out=top), out=size2)
        np.add(q, np.multiply(u, u, out=uu), out=q)
    np.divide(q, size2, out=q)
    return q, np.divide(inv_top, np.sqrt(size2, out=size2), out=top)


class Hyperplane:
    """Affine complex hyperplane {z : sum c_i z_i = d}, up to scale."""

    __slots__ = ("c", "d")

    def __init__(self, c, d):
        c = np.asarray(c, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ZeroCoefficientVector(0, "coefficient vector must be a nonempty 1-d array")
        if not np.count_nonzero(c):
            raise ZeroCoefficientVector(0, "coefficient vector is zero")
        self.c = c
        self.d = complex(d)

    @property
    def n(self) -> int:
        return self.c.size

    def scaled(self, factor: complex) -> "Hyperplane":
        if factor == 0:
            raise ZeroCoefficientVector(0, "scale factor must be nonzero")
        return Hyperplane(self.c * factor, self.d * factor)

    def normalized(self) -> "Hyperplane":
        """Representative with |c| = 1 (Hermitian norm; positive real scale), refused
        as NonFiniteSample(0) by `incidence` when it is not finite."""
        inc = _incidence_of(self, DEFAULT_TOL)
        return Hyperplane(self.c * inc.inv[0], inc.d[0])

    def __repr__(self) -> str:
        return f"Hyperplane(c={self.c!r}, d={self.d!r})"


def quad_form(c) -> complex:
    """q = sum c_i^2, the dual-quadric evaluation of the direction vector; a q that is not
    finite, as when a part of c is near 1e155 or more, is refused as NonFiniteSample(0)."""
    c = np.asarray(c, dtype=complex)
    if not np.count_nonzero(c):
        raise ZeroCoefficientVector(0, "coefficient vector is zero")
    with np.errstate(over="ignore", invalid="ignore"):
        q = complex((c * c).sum())
    if not cmath.isfinite(q):
        raise NonFiniteSample(0, "q = sum c_i^2 of sample 0 is not finite")
    return q


Incidence = namedtuple("Incidence", "q size d inv tangent asymptotic margin")


def incidence(c: np.ndarray, d: np.ndarray, tol: float | None = None) -> Incidence:
    """For hyperplanes with rows c: (m, n) and offsets d: (m,), at |c| = 1:
    q = sum c_i^2, its size |q|, the offset d, the inverse norms inv = 1 / |c|,
    the masks tangent (d^2 = q) and asymptotic (q = 0) within tol, and the
    discriminant distance proxy margin = min(|d^2 - q|, |q|).  Each row is
    scaled once, by the reciprocal of its largest real or imaginary part.  A row
    that is not finite, before or after that scaling, raises NonFiniteSample."""
    tol = default_tol(tol)
    # A NaN or infinite part, a zero or subnormal c, or a d too large for |c| = 1 makes q or
    # dn non-finite here, and is refused just below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, inv = _unit_scaled(c)
        dn = d * inv
        # A sum with a non-finite term is not finite; one of finite terms may still overflow.
        suspect = not np.isfinite(q.sum() + dn.sum())
    if suspect:
        # A row with a non-finite part makes q or dn non-finite, and is named first.
        NonFiniteSample.refuse(~(np.isfinite(c).all(axis=1) & np.isfinite(d)),
                               "sample {i} has a non-finite coefficient or offset")
        NonFiniteSample.refuse(~(np.isfinite(q) & np.isfinite(dn)),
                               "sample {i} is not finite at |c| = 1")
    # Past |d| = 2^64, |d^2 - q| exceeds both tol |d|^2 and |q| for every tol < 1, as |q| <= 1,
    # so d enters both tests at modulus 2^64, where d^2 cannot overflow.  A d whose parts are
    # below 2^64 is left as it is: it gives both tests, and the margin, as clipped.
    clipped = dn
    if abs(dn.view(float)).max() > 2.0 ** 64:
        clipped = np.where(np.abs(dn) > 2.0 ** 64, 2.0 ** 64, dn)
    d2 = clipped * clipped
    gap = np.abs(d2 - q)
    size = np.abs(q)
    tangent = gap <= tol * np.maximum(np.maximum(np.abs(d2), size), 1.0)
    return Incidence(q, size, dn, inv, tangent, size <= tol, np.minimum(gap, size))


def _incidence_of(h: Hyperplane, tol: float | None) -> Incidence:
    """`incidence` of the one hyperplane h, refused as sample 0."""
    return incidence(h.c[None], np.array([h.d]), tol)


def is_tangent(h: Hyperplane, tol: float | None = None) -> bool:
    """True iff the hyperplane is tangent to the quadric: d^2 = q."""
    return bool(_incidence_of(h, tol).tangent[0])


def is_asymptotic(h: Hyperplane, tol: float | None = None) -> bool:
    """True iff the hyperplane's direction is isotropic: q = 0."""
    return bool(_incidence_of(h, tol).asymptotic[0])


def in_general_position(h: Hyperplane, tol: float | None = None) -> bool:
    inc = _incidence_of(h, tol)
    return not (inc.tangent[0] or inc.asymptotic[0])


def discriminant_margin(h: Hyperplane) -> float:
    """Distance proxy to the discriminant: min(|d^2 - q|, |q|) at |c| = 1."""
    return float(_incidence_of(h, None).margin[0])
