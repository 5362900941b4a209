"""Classification of sampled loops of hyperplanes into the group G.

A loop of general-position hyperplanes (c_t, d_t) is reduced to a path
in a model fiber: q_t = sum c_i(t)^2 is tracked through a continuous
square-root branch s_t, and w_t = d_t / s_t maps the two tangency
values of every parallel pencil to the punctures +1 and -1.  The class
of the loop is a kappa bit, set when s returns to -lambda s_0 instead
of +lambda s_0 (the punctures swapped after transport), and the free
crossing word of w_t in C \\ {+1, -1}, cut along (1, +inf) and (-inf, -1).

A loop is held once as one read-only, column-major complex array
`loop.samples.rows`: (m, n+1), coefficients in columns 0..n-1 and the offset
in column n, with `loop.samples.c` and `loop.samples.d` views of it.  Column
order makes each per-sample reduction over the n coordinates (norm, q, the
non-finite and zero-row tests) n sweeps over m-long columns.  `LoopSamples(c,
d)` copies its inputs; `classify` reads the array in one pass.  With roots
r_i = sqrt(q_i), s_i = eps_i r_i where eps_0 = 1 and eps_{i+1} = eps_i
sign(Re(r_{i+1} conj(r_i))); the q-step check |q_{i+1} - q_i| < |q_i| keeps
r_{i+1} / r_i within pi/4 of +-1, so the sign never ties.  A refusal names
the first offending sample; the checks run in the order non-finite, general
position, closure, q-step, branch endpoint, puncture collision, fiber step.
The non-finite check is `geometry.incidence`'s, the one the scalar predicates
and `Hyperplane.normalized` make at index 0.
`kappa_bit` and `fiber_word` are the two parts of `classify`'s word, not passes
of their own, so they refuse what it refuses, with the same error.

Each sample is scaled to |c| = 1 once, by `geometry.incidence`; the closure
factor, the branch and the fiber path reuse its q, |q| and inverse norms.  The
puncture-collision test bounds the distance of both punctures to a fiber segment
[a, b] from below by (n(a) + n(b) - |b - a|) / 2, where n is the distance to the
nearer puncture that the fiber-step check reads anyway, and finds the exact
distance only on the few segments where that bound, less a few ulps for
rounding, does not clear tol, in units of a power of two above the segment's
length so that no square overflows.  Both tests measure the path at an exact
scale of 1/8, so that no length or sum of two distances overflows.

A loop fits its closure factor once: `HyperplaneLoop._closure_fit`, the
_scale_fit of its last sample on its first (with closure_lambda validated when
given), is computed on first use and kept, as the samples are read-only;
`closure_scale` compares its residual with tol.  `concat` and `reverse` build
their result without the checks of the public constructor, whose shape and
nonzero rows follow from the inputs: `concat` checks the junction and both
closures, scales the second loop's rows quietly (a non-finite row is left for
`classify` to refuse) and checks for zero only the rows it scaled, and only when
the junction factor is below 1 in modulus, as only then can it underflow a row
to zero; `reverse` checks the closure only.

Crossing conventions are fixed so that the model generator loops
(counterclockwise around +1, counterclockwise around -1, and the
rotating pencil (cos t) z1 + (sin t) z2 = 0) classify to a, b and k
respectively; the fixture tests pin them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import group, representation
from .errors import (AsymptoticSample, BadParameters, BranchAmbiguity, DimensionTooSmall,
                     MalformedLoopFile, NotClosed, NotGeneralPosition, PunctureCollision,
                     UndersampledLoop, ZeroCoefficientVector)
from .geometry import Hyperplane, default_tol, incidence
from .group import FreeWord, GroupWord
from .representation import MonodromyMatrix, Parity

# Relative tolerance for matching the continued branch against the two
# closure candidates +-lambda s_0, which are 2|s_0| apart.
_BRANCH_MATCH_RTOL = 1e-6

# The collision and fiber-step tests measure the fiber path at this scale, which is exact: every
# length, distance to a puncture and sum of two of them then stays below the largest float.
_FIBER_SCALE = 0.125
# The punctures +1 and -1 of the model fiber at that scale, as a column to broadcast against a path.
_SCALED_PUNCTURES = np.array([[1.0], [-1.0]]) * _FIBER_SCALE

_SMALLEST_NORMAL = float(np.finfo(float).tiny)
# The rounding allowance of the collision bound: 16 ulps of its terms.
_BOUND_ROUNDING = 16.0 * float(np.finfo(float).eps)


class LoopSamples(Sequence):
    """A loop's samples as one read-only column-major array rows: (m, n+1), with
    views c = rows[:, :n] and d = rows[:, n].  LoopSamples(c, d) copies its
    inputs; an item is a Hyperplane built on access, a slice a LoopSamples."""

    def __init__(self, c, d):
        c, d = np.asarray(c, dtype=complex), np.asarray(d, dtype=complex)
        if c.ndim != 2 or d.shape != c.shape[:1]:
            raise BadParameters(f"need c: (m, n) and d: (m,), got {c.shape} and {d.shape}")
        rows = np.empty((len(d), c.shape[1] + 1), dtype=complex, order="F")
        rows[:, :-1], rows[:, -1] = c, d
        self._hold(rows)

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "LoopSamples":
        """Samples on an (m, n+1) array, copied only if it is not column-major."""
        return cls.__new__(cls)._hold(np.asfortranarray(rows))

    def _hold(self, rows: np.ndarray) -> "LoopSamples":
        rows.flags.writeable = False  # before taking the views, which inherit it
        self.rows, self.c, self.d = rows, rows[:, :-1], rows[:, -1]
        return self

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LoopSamples._from_rows(self.rows[i])
        return Hyperplane(self.c[i], self.d[i])


def _check_shape(n: int, m: int, sizes: Sequence[int]) -> None:
    """Refuse n < 3, m < 2 samples, or a sample whose size is not n."""
    if n < 3:
        raise DimensionTooSmall(f"loop classification needs n >= 3, got {n}")
    if m < 2:
        raise BadParameters("a loop needs at least two samples")
    for i, k in enumerate(sizes):
        if k != n:
            error = ZeroCoefficientVector if k == 0 else BadParameters
            raise error(f"sample {i} has dimension {k}, expected {n}")


@dataclass(frozen=True, eq=False)
class HyperplaneLoop:
    """Closed sampled path of hyperplanes: the last sample must equal
    closure_lambda times the first (up to tolerance), or None infers it by
    least squares.  Samples given as Hyperplanes are stacked into LoopSamples."""

    n: int
    samples: Sequence[Hyperplane]
    closure_lambda: Optional[complex] = None

    def __post_init__(self) -> None:
        s = self.samples
        if not isinstance(s, LoopSamples):
            _check_shape(self.n, len(s), [h.n for h in s])
            object.__setattr__(self, "samples", LoopSamples([h.c for h in s], [h.d for h in s]))
        _check_shape(self.n, len(self.samples), self.samples.c.shape[1:])
        _refuse_zero_rows(self.samples.c)

    @classmethod
    def _from_checked(cls, n: int, samples: "LoopSamples",
                      closure_lambda: Optional[complex]) -> "HyperplaneLoop":
        """A HyperplaneLoop without the checks of __post_init__, for samples whose
        shape and nonzero rows the caller has already checked."""
        loop = object.__new__(cls)
        object.__setattr__(loop, "n", n)
        object.__setattr__(loop, "samples", samples)
        object.__setattr__(loop, "closure_lambda", closure_lambda)
        return loop

    @cached_property
    def _closure_fit(self) -> Tuple[complex, float, float]:
        """_scale_fit of the last sample on the first, with closure_lambda when given, which
        is refused as NotClosed unless finite and nonzero.  Computed on first use and kept:
        the samples are read-only."""
        rows, lam, last = self.samples.rows, self.closure_lambda, len(self.samples) - 1
        if lam is not None and not (cmath.isfinite(lam) and lam != 0):
            raise NotClosed(last, f"closure_lambda must be finite and nonzero, got {lam} "
                                  f"(sample {last})")
        return _scale_fit(rows[0], rows[-1], None if lam is None else complex(lam))


def _refuse_zero_rows(c: np.ndarray, first: int = 0) -> None:
    """Refuse the first row of c that is zero, as sample first + its row index."""
    nonzero = c.any(axis=1)
    if not nonzero.all():
        i = first + int(np.argmin(nonzero))
        raise ZeroCoefficientVector(f"coefficient vector of sample {i} is zero")


@dataclass(frozen=True)
class LoopDiagnostics:
    min_discriminant_margin: float
    max_relative_step: float
    crossing_count: int
    branch_flip: int


@dataclass(frozen=True)
class ClassificationResult:
    word: GroupWord
    matrix_even: MonodromyMatrix
    matrix_odd: MonodromyMatrix
    diagnostics: LoopDiagnostics


def _sqrt_branch(q: np.ndarray, size: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous square-root branch of q, given size = |q| > 0, and the relative steps
    |dq| / |q|."""
    dq = np.abs(q[1:] - q[:-1])
    step = dq / size[:-1]
    UndersampledLoop.refuse(dq >= size[:-1], "relative step {v:.3g} >= 1 at sample {i}", step)
    r = np.sqrt(q)
    # The branch is -r after an odd number of samples where Re(r_{i+1} conj(r_i)) < 0.
    odd = np.zeros(len(q), dtype=bool)
    np.less((r[1:] * r[:-1].conj()).real, 0.0, out=odd[1:])
    np.logical_xor.accumulate(odd, out=odd)
    return np.negative(r, out=r, where=odd), step


def continue_sqrt_branch(q_samples: Sequence[complex],
                         tol: float | None = None) -> List[complex]:
    """Continuous square-root branch along a path of nonzero values.

    s_0 is the principal root of q_0; each next s is the root of the
    next q nearer to the previous s.  Requires relative steps < 1 so
    the nearer root is unambiguous.
    """
    q = np.asarray(q_samples, dtype=complex)
    size, tol = np.abs(q), default_tol(tol)
    AsymptoticSample.refuse(size <= tol, "|q| = {v:.3g} at sample {i}", size)
    return _sqrt_branch(q, size)[0].tolist()


def _scale_fit(u: np.ndarray, v: np.ndarray,
               mu: complex | None = None) -> Tuple[complex, float, float]:
    """mu with v = mu u (least squares unless given), max |v - mu u| and |u|.  The inner
    products are taken with u / max |u_i|, whose squared norm lies in [1, len(u)], so rows at
    1e200 or 1e-300 neither overflow nor underflow them.  A u that is subnormal or not finite,
    where that division overflows or is invalid, gets a NaN residual, which every caller refuses."""
    top = float(np.abs(u).max())
    if not _SMALLEST_NORMAL <= top < math.inf:
        return complex("nan"), math.nan, top
    unit = u / top
    size2 = float(np.vdot(unit, unit).real)
    mu = complex(np.vdot(unit, v)) / size2 / top if mu is None else mu
    return mu, float(np.abs(v - mu * u).max()), top * math.sqrt(size2)


def closure_scale(loop: HyperplaneLoop, tol: float | None = None) -> complex:
    """The scale factor lambda with last sample = lambda * first sample.

    Uses the explicit closure_lambda when present (validated), else the
    least-squares fit; raises NotClosed when the residual exceeds tol.
    """
    tol = default_tol(tol)
    lam, residual, size = loop._closure_fit
    # Written so that a NaN residual fails the test.
    if not residual <= tol * size:
        last = len(loop.samples) - 1
        raise NotClosed(last, f"closure residual {residual:.3g} at sample {last} exceeds tolerance")
    return lam


def _branch_bit(lam: complex, branch: np.ndarray) -> int:
    """0 if the branch ends at +lam s_0, 1 if at -lam s_0."""
    end, target = complex(branch[-1]), lam * complex(branch[0])
    same, flipped = abs(end - target), abs(end + target)
    limit = _BRANCH_MATCH_RTOL * max(abs(target), 1e-300)
    if same <= limit and same <= flipped:
        return 0
    if flipped <= limit:
        return 1
    raise BranchAmbiguity(
        branch.size - 1, f"branch endpoint at sample {branch.size - 1} matches neither "
        f"+-lambda s_0 (residuals {same:.3g}, {flipped:.3g})")


def _fiber_letters(w: np.ndarray, tol: float) -> List[group.Letter]:
    """Crossing letters of the fiber path w, closed through the origin."""
    # Basepoint transport: close up through the origin of the model fiber.
    path = np.zeros(len(w) + 2, dtype=complex)
    path[1:-1] = w
    # Lengths and distances at _FIBER_SCALE; tol scales with them.
    small = path * _FIBER_SCALE
    seg = small[1:] - small[:-1]
    length = np.abs(seg)
    # Distance of each point to the nearer puncture: folded onto Re >= 0, to +1.
    fold = np.empty_like(small)
    np.subtract(abs(small.real), _FIBER_SCALE, out=fold.real)
    fold.imag = small.imag
    nearest = np.abs(fold)
    # On a segment [a, b], |x - p| >= (|a - p| + |b - p| - |b - a|) / 2, and so for both
    # punctures p, |x - p| >= (n(a) + n(b) - |b - a|) / 2 with n the distance to the nearer one.
    # The exact distance is found only where that bound, less 16 ulps of its terms (the rounding
    # of the bound and of the exact distance), does not clear tol; a NaN or inf bound does not.
    ends = nearest[:-1] + nearest[1:]
    cleared = ends - length > 2.0 * _FIBER_SCALE * tol + _BOUND_ROUNDING * (ends + length)
    unclear = np.flatnonzero(~cleared)
    if unclear.size:
        # Measured in units of a power of two above max(|b - a|, 1/2) at full scale, so that no
        # square overflows; the scaling is exact, and is 1 on segments shorter than 1.
        unit = np.ldexp(1.0, -np.frexp(np.maximum(length[unclear], 0.5 * _FIBER_SCALE))[1])
        rel, span = (_SCALED_PUNCTURES - small[unclear]) * unit, seg[unclear] * unit
        denom = (length[unclear] * unit) ** 2
        dot = rel.real * span.real + rel.imag * span.imag
        t = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0.0)
        near = np.abs(rel - np.clip(t, 0.0, 1.0) * span) <= _FIBER_SCALE * tol * unit
        hit = near.any(axis=0)
        if hit.any():
            j = int(np.argmax(hit))
            i = int(unclear[j])
            raise PunctureCollision(i, f"fiber path segment {i} passes through "
                                    f"{1 if near[0, j] else -1:+d}")
    step = length[1:-1]
    far = step >= nearest[1:-2]
    if far.any():
        # The message gives the step at full scale, where one past the largest float reads inf.
        with np.errstate(over="ignore"):
            UndersampledLoop.refuse(far, "fiber step {v:.3g} at sample {i} reaches the nearest "
                                    "puncture", step / _FIBER_SCALE)
    # Points exactly on the real axis count as upper half-plane; the
    # paths we care about touch the axis only between the punctures.
    up = path.imag >= 0.0
    k = np.flatnonzero(up[:-1] != up[1:])
    z1, z2 = path[k], path[k + 1]
    xs = z1.real + (z2.real - z1.real) * (-z1.imag) / (z2.imag - z1.imag)
    # Upward past +1 is a, downward past -1 is b; the reverse crossings invert.
    exps = np.where(up[k + 1] == (xs > 0.0), 1, -1)
    return [(group.ALPHA if x > 0.0 else group.BETA, e)
            for x, e in zip(xs.tolist(), exps.tolist()) if abs(x) > 1.0]


def classify(loop: HyperplaneLoop, tol: float | None = None) -> ClassificationResult:
    """Group element of a sampled loop, with matrices and diagnostics.  The checks run
    in the order of the module docstring; the first that fails refuses the loop."""
    tol = default_tol(tol)
    inc = incidence(loop.samples.c, loop.samples.d, tol)
    NotGeneralPosition.refuse(inc.tangent | inc.asymptotic, "sample {i} is not in general position")
    # Per-sample normalization rescales the endpoints by positive reals,
    # so the closure factor picks up the ratio of coefficient norms.
    lam = closure_scale(loop, tol) * float(inc.inv[-1] / inc.inv[0])
    branch, step = _sqrt_branch(inc.q, inc.size)
    bit = _branch_bit(lam, branch)
    letters = _fiber_letters(inc.d / branch, tol)
    word = group.normalize(letters + ([(group.KAPPA, 1)] if bit else []))
    diags = LoopDiagnostics(min_discriminant_margin=float(inc.margin.min()),
                            max_relative_step=float(step.max()),
                            crossing_count=len(letters), branch_flip=bit)
    return ClassificationResult(
        word=word,
        matrix_even=representation.matrix_of(word, Parity.EVEN),
        matrix_odd=representation.matrix_of(word, Parity.ODD),
        diagnostics=diags,
    )


def kappa_bit(loop: HyperplaneLoop, tol: float | None = None) -> int:
    """The kappa bit of classify's word: 1 if the sqrt branch flips sign, else 0."""
    return classify(loop, tol).word.kappa_bit


def fiber_word(loop: HyperplaneLoop, tol: float | None = None) -> FreeWord:
    """The free part of classify's word: the crossing word of w_t = d_t / s_t, freely reduced."""
    return classify(loop, tol).word.free_part


# ---------------------------------------------------------------------------
# Fixture loops: the model generator representatives, sampled.

# The most complex entries, (m + 1) rows of n + 1, that a fixture maker allocates (64 MiB).
MAX_FIXTURE_ENTRIES = 2 ** 22


def _check_fixture(n: int, m: int, least: int = 64) -> None:
    """Refuse, before anything is allocated, a fixture of m samples (m + 1 rows) in
    dimension n with m < least, n < 3, or more than MAX_FIXTURE_ENTRIES entries."""
    if m < least:
        raise BadParameters(f"need at least {least} samples, got {m}")
    _check_shape(n, m + 1, ())
    if (m + 1) * (n + 1) > MAX_FIXTURE_ENTRIES:
        raise BadParameters(f"{m} samples in dimension {n} need {(m + 1) * (n + 1)} entries, "
                            f"above MAX_FIXTURE_ENTRIES = {MAX_FIXTURE_ENTRIES}")


def _pencil_loop(n: int, c1, c2, d, closure_lambda: float) -> HyperplaneLoop:
    """The loop of hyperplanes c1_t z1 + c2_t z2 = d_t."""
    rows = np.zeros((len(d), n + 1), dtype=complex, order="F")
    rows[:, 0], rows[:, 1], rows[:, n] = c1, c2, d
    return HyperplaneLoop(n, LoopSamples._from_rows(rows), closure_lambda)


def _puncture_loop(n: int, center: float, eps: float, m: int) -> HyperplaneLoop:
    """{z1 = d} with d going 0 -> center -+ eps, once ccw around center = +-1, -> 0."""
    if not 0.0 < eps < 1.0:
        raise BadParameters(f"eps must be in (0, 1), got {eps}")
    _check_fixture(n, m)
    approach = m // 4
    on_circle = m - 2 * approach
    ramp = center * (1.0 - eps) * np.arange(approach) / approach
    angle = (math.pi if center > 0 else 0.0) + 2.0 * math.pi * np.arange(on_circle + 1) / on_circle
    d = np.concatenate((ramp, center + eps * np.exp(1j * angle), ramp[::-1]))
    return _pencil_loop(n, 1.0, 0.0, d, 1.0)


def make_alpha_loop(n: int, eps: float = 0.25, m: int = 256) -> HyperplaneLoop:
    """Counterclockwise loop of {z1 = d} around the tangency value +1."""
    return _puncture_loop(n, 1.0, eps, m)


def make_beta_loop(n: int, eps: float = 0.25, m: int = 256) -> HyperplaneLoop:
    """Counterclockwise loop of {z1 = d} around the tangency value -1."""
    return _puncture_loop(n, -1.0, eps, m)


def make_kappa_loop(n: int, m: int = 256) -> HyperplaneLoop:
    """Rotating pencil (cos t) z1 + (sin t) z2 = 0, t from 0 to pi."""
    _check_fixture(n, m)
    t = math.pi * np.arange(m + 1) / m
    return _pencil_loop(n, np.cos(t), np.sin(t), np.zeros(m + 1), -1.0)


def make_constant_loop(n: int, m: int = 64) -> HyperplaneLoop:
    """Constant loop at the base hyperplane {z1 = 0}."""
    _check_fixture(n, m, least=0)
    return _pencil_loop(n, 1.0, 0.0, np.zeros(m + 1), 1.0)


def concat(l1: HyperplaneLoop, l2: HyperplaneLoop,
           tol: float | None = None) -> HyperplaneLoop:
    """Concatenate loops sharing the base hyperplane up to scale."""
    tol = default_tol(tol)
    if l1.n != l2.n:
        raise BadParameters("loops have different ambient dimensions")
    r1, r2 = l1.samples.rows, l2.samples.rows
    mu, residual, size = _scale_fit(r2[0], r1[-1])
    # |r1[-1]| = |mu| |r2[0]| up to the residual.
    if mu == 0 or not residual <= tol * abs(mu) * size:
        raise BadParameters("loops do not share their junction hyperplane")
    # Before the rows are scaled, so that a loop with a non-finite last row
    # is refused as not closed rather than multiplied through.
    lam = closure_scale(l1, tol) * closure_scale(l2, tol)
    rows = np.empty((len(r1) + len(r2) - 1, l1.n + 1), dtype=complex, order="F")
    rows[:len(r1)], tail = r1, rows[len(r1):]
    # A non-finite row of l2 is scaled quietly and left for classify to refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(mu, r2[1:], out=tail)
    # The rows were checked when l1 and l2 were built.  Scaled by |mu| >= 1, a nonzero entry
    # stays nonzero even in the subnormal range; a smaller mu may underflow a row to zero.
    if abs(mu) < 1.0:
        _refuse_zero_rows(tail[:, :-1], len(r1))
    return HyperplaneLoop._from_checked(l1.n, LoopSamples._from_rows(rows), lam)


def reverse(loop: HyperplaneLoop, tol: float | None = None) -> HyperplaneLoop:
    """Orientation reversal; inverts the class and the closure factor."""
    return HyperplaneLoop._from_checked(loop.n, loop.samples[::-1], 1.0 / closure_scale(loop, tol))


# ---------------------------------------------------------------------------
# JSON wire format, shared with the CLI: complex numbers as [re, im] pairs.

def loop_to_dict(loop: HyperplaneLoop) -> dict:
    c, d = (np.stack((z.real, z.imag), axis=-1).tolist() for z in (loop.samples.c, loop.samples.d))
    data = {"n": loop.n, "samples": [{"c": ci, "d": di} for ci, di in zip(c, d)]}
    if loop.closure_lambda is not None:
        lam = complex(loop.closure_lambda)
        data["closure_lambda"] = [lam.real, lam.imag]
    return data


def loop_from_dict(data: dict) -> HyperplaneLoop:
    """Inverse of loop_to_dict.  A document outside the format raises
    MalformedLoopFile, whose message names the error found, such as
    "KeyError: 'samples'"; a loop of the wrong shape raises what
    HyperplaneLoop raises, and non-finite numbers are left for classify
    to refuse."""
    try:
        samples = data["samples"]
        sizes = [len(s["c"]) for s in samples]
        # Each sample's coefficient pairs, then its offset pair.
        pairs = np.array([p for s in samples for p in (*s["c"], s["d"])] or np.zeros((0, 2)))
        if pairs.dtype.kind not in "biuf" or pairs.shape[1:] != (2,):
            raise ValueError("expected [re, im] pairs of numbers")
        lam = data.get("closure_lambda")
        lam = None if lam is None else complex(lam[0], lam[1])
        n = int(data["n"])
        _check_shape(n, len(sizes), sizes)
        rows = np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(-1, n + 1)
        return HyperplaneLoop(n, LoopSamples._from_rows(rows), closure_lambda=lam)
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedLoopFile(f"{type(exc).__name__}: {exc}") from None
