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

A coefficient vector is zero, and refused as ZeroCoefficientVector, when
every real and imaginary part is +0.0 or -0.0; a NaN or a subnormal part
makes it nonzero.  The test is one np.count_nonzero call, and the
reductions are ndarray methods, not numpy's module-level wrappers, whose
Python dispatch cost several microseconds per call on an n-vector:
building a Hyperplane costs about 1 us, a `scaled` copy 2-4 us and
`quad_form` 3-5 us (2-core Xeon, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import os
from collections import namedtuple

import numpy as np

from .errors import BadTolerance, NonFiniteSample, ZeroCoefficientVector

DEFAULT_TOL = 1e-9


def default_tol(tol: float | None = None) -> float:
    """tol, else the QMONO_TOL env var, else DEFAULT_TOL; anything but a number
    with 0 < tol < 1 raises BadTolerance (a NaN would switch every check off)."""
    given = (os.environ.get("QMONO_TOL") or DEFAULT_TOL) if tol is None else tol
    try:
        value = float(given)
    except (TypeError, ValueError):
        value = float("nan")
    if not 0.0 < value < 1.0:
        name = "QMONO_TOL" if tol is None else "tol"
        raise BadTolerance(f"{name} must be a number with 0 < tol < 1, got {given!r}")
    return value


def _unit_scaled(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = c / top along the last axis, with top = max(|Re c_i|, |Im c_i|), together with
    s = |u|^2 and 1 / |c| = (1 / top) / sqrt(s).  A part of u is +-1, so s lies in [1, 2n] and
    cannot over- or underflow.  u is taken as c * (1 / top): the rounding of 1 / top scales
    every part of a row alike, so it cancels from u u / s and from 1 / |c|."""
    inv_top = 1.0 / np.maximum(abs(c.real), abs(c.imag)).max(axis=-1, keepdims=True)
    u = c * inv_top
    size2 = (u.real * u.real + u.imag * u.imag).sum(axis=-1)
    return u, size2, inv_top[..., 0] / np.sqrt(size2)


class Hyperplane:
    """Affine complex hyperplane {z : sum c_i z_i = d}, up to scale."""

    __slots__ = ("c", "d")

    def __init__(self, c, d):
        c = np.asarray(c, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ZeroCoefficientVector("coefficient vector must be a nonempty 1-d array")
        if not np.count_nonzero(c):
            raise ZeroCoefficientVector("coefficient vector is zero")
        self.c = c
        self.d = complex(d)

    @property
    def n(self) -> int:
        return self.c.size

    def scaled(self, factor: complex) -> "Hyperplane":
        if factor == 0:
            raise ZeroCoefficientVector("scale factor must be nonzero")
        return Hyperplane(self.c * factor, self.d * factor)

    def normalized(self) -> "Hyperplane":
        """Representative with |c| = 1 (Hermitian norm; positive real scale), refused
        as NonFiniteSample(0) by `incidence` when it is not finite."""
        inc = _incidence_of(self, DEFAULT_TOL)
        return Hyperplane(self.c * inc.inv[0], inc.d[0])

    def __repr__(self) -> str:
        return f"Hyperplane(c={self.c!r}, d={self.d!r})"


def quad_form(c) -> complex:
    """q = sum c_i^2, the dual-quadric evaluation of the direction vector."""
    c = np.asarray(c, dtype=complex)
    if not np.count_nonzero(c):
        raise ZeroCoefficientVector("coefficient vector is zero")
    return complex((c * c).sum())


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
        u, size2, inv = _unit_scaled(c)
        q = (u * u).sum(axis=1) / size2
        dn = d * inv
        # A sum with a non-finite term is not finite; one of finite terms may still overflow.
        suspect = not np.isfinite(q.sum() + dn.sum())
    if suspect:
        bad = ~(np.isfinite(q) & np.isfinite(dn))
        if bad.any():
            # Every row with a non-finite part is among the bad rows, and is named first.
            NonFiniteSample.refuse(~(np.isfinite(c).all(axis=1) & np.isfinite(d)),
                                   "sample {i} has a non-finite coefficient or offset")
            NonFiniteSample.refuse(bad, "sample {i} is not finite at |c| = 1")
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
