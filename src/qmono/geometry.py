"""Hyperplane/quadric incidence predicates.

The quadric is fixed to the standard affine form z1^2 + ... + zn^2 = 1.
A hyperplane {<c, z> = d} (complex bilinear pairing, no conjugation) is
tangent to it iff d^2 = q and asymptotic iff q = 0, where q = sum c_i^2.
Both criteria are evaluated on the scale-normalized representative with
|c| = 1, so all predicates are invariant under (c, d) -> (lambda c,
lambda d).  The scalar predicates are the m = 1 case of `incidence`.
"""

from __future__ import annotations

import os
from collections import namedtuple

import numpy as np

from .errors import BadTolerance, ZeroCoefficientVector

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


def inverse_norm(c: np.ndarray) -> np.ndarray:
    """1 / |c| along the last axis, as 1 / (top |c / top|) with top = max |c_i|,
    which neither overflows nor underflows."""
    top = np.abs(c).max(axis=-1, keepdims=True)
    return 1.0 / (top[..., 0] * np.linalg.norm(c / top, axis=-1))


class Hyperplane:
    """Affine complex hyperplane {z : sum c_i z_i = d}, up to scale."""

    __slots__ = ("c", "d")

    def __init__(self, c, d):
        c = np.asarray(c, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ZeroCoefficientVector("coefficient vector must be a nonempty 1-d array")
        if not np.any(c):
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
        """Representative with |c| = 1 (Hermitian norm; positive real scale)."""
        return self.scaled(float(inverse_norm(self.c)))

    def __repr__(self) -> str:
        return f"Hyperplane(c={self.c!r}, d={self.d!r})"


def quad_form(c) -> complex:
    """q = sum c_i^2, the dual-quadric evaluation of the direction vector."""
    c = np.asarray(c, dtype=complex)
    if not np.any(c):
        raise ZeroCoefficientVector("coefficient vector is zero")
    return complex(np.sum(c * c))


Incidence = namedtuple("Incidence", "q d tangent asymptotic margin")


def incidence(c: np.ndarray, d: np.ndarray, tol: float | None = None) -> Incidence:
    """For hyperplanes with rows c: (m, n) and offsets d: (m,), at |c| = 1:
    q = sum c_i^2, the offset d, the masks tangent (d^2 = q) and asymptotic
    (q = 0) within tol, and the discriminant distance proxy
    margin = min(|d^2 - q|, |q|)."""
    tol = default_tol(tol)
    inv = inverse_norm(c)
    cn = c * inv[:, None]
    q = np.sum(cn * cn, axis=1)
    dn = d * inv
    d2 = dn * dn
    gap = np.abs(d2 - q)
    size = np.abs(q)
    tangent = gap <= tol * np.maximum(np.maximum(np.abs(d2), size), 1.0)
    return Incidence(q, dn, tangent, size <= tol, np.minimum(gap, size))


def is_tangent(h: Hyperplane, tol: float | None = None) -> bool:
    """True iff the hyperplane is tangent to the quadric: d^2 = q."""
    return bool(incidence(h.c[None], np.array([h.d]), tol).tangent[0])


def is_asymptotic(h: Hyperplane, tol: float | None = None) -> bool:
    """True iff the hyperplane's direction is isotropic: q = 0."""
    return bool(incidence(h.c[None], np.array([h.d]), tol).asymptotic[0])


def in_general_position(h: Hyperplane, tol: float | None = None) -> bool:
    inc = incidence(h.c[None], np.array([h.d]), tol)
    return not (inc.tangent[0] or inc.asymptotic[0])


def discriminant_margin(h: Hyperplane) -> float:
    """Distance proxy to the discriminant: min(|d^2 - q|, |q|) at |c| = 1."""
    return float(incidence(h.c[None], np.array([h.d])).margin[0])
