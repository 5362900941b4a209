"""Classification of sampled loops of hyperplanes into the group G.

A loop of general-position hyperplanes (c_t, d_t) is reduced to a path
in a model fiber: q_t = sum c_i(t)^2 is tracked through a continuous
square-root branch s_t, and w_t = d_t / s_t maps the two tangency
values of every parallel pencil to the punctures +1 and -1.  The class
of the loop is a kappa bit, set when s returns to -lambda s_0 instead
of +lambda s_0 (the punctures swapped after transport), and the free
crossing word of w_t in C \\ {+1, -1}, cut along (1, +inf) and (-inf, -1).

`classify` stacks the samples once into c: (m, n) and d: (m,) for one
array pass.  With principal roots r_i = sqrt(q_i), s_i = eps_i r_i where
eps_0 = 1 and eps_{i+1} = eps_i sign(Re(r_{i+1} conj(r_i))); the q-step
check |q_{i+1} - q_i| < |q_i| keeps r_{i+1} / r_i within pi/4 of +-1,
so the sign never ties.  A refusal names the first offending sample;
the checks run in the order non-finite, general position, closure,
q-step, branch endpoint, puncture collision, fiber step.

Crossing conventions are fixed so that the model generator loops
(counterclockwise around +1, counterclockwise around -1, and the
rotating pencil (cos t) z1 + (sin t) z2 = 0) classify to a, b and k
respectively; the fixture tests pin them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import group, representation
from .errors import (AsymptoticSample, BadParameters, BranchAmbiguity, DimensionTooSmall,
                     NonFiniteSample, NotClosed, NotGeneralPosition, PunctureCollision,
                     UndersampledLoop)
from .geometry import Hyperplane, Incidence, default_tol, incidence
from .group import FreeWord, GroupWord
from .representation import MonodromyMatrix, Parity

# Relative tolerance for matching the continued branch against the two
# closure candidates +-lambda s_0, which are 2|s_0| apart.
_BRANCH_MATCH_RTOL = 1e-6


@dataclass(frozen=True)
class HyperplaneLoop:
    """Closed sampled path of hyperplanes with explicit closure scale.

    The last sample must equal closure_lambda times the first (up to
    tolerance); closure_lambda = None means "infer by least squares".
    """

    n: int
    samples: Tuple[Hyperplane, ...]
    closure_lambda: Optional[complex] = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise DimensionTooSmall(f"loop classification needs n >= 3, got {self.n}")
        if len(self.samples) < 2:
            raise BadParameters("a loop needs at least two samples")
        for i, h in enumerate(self.samples):
            if h.n != self.n:
                raise BadParameters(f"sample {i} has dimension {h.n}, expected {self.n}")


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


def _refuse(bad: np.ndarray, error: type, message: str, values=None) -> None:
    """Raise error at the first i where bad holds; message may use i and v = values[i]."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(i, message.format(i=i, v=None if values is None else values[i]))


def _sqrt_branch(q: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Continuous square-root branch of q and the relative steps |dq| / |q|."""
    size = np.abs(q)
    _refuse(size <= tol, AsymptoticSample, "|q| = {v:.3g} at sample {i}", size)
    dq = np.abs(np.diff(q))
    step = dq / size[:-1]
    _refuse(dq >= size[:-1], UndersampledLoop, "relative step {v:.3g} >= 1 at sample {i}", step)
    r = np.sqrt(q)
    flips = np.where((r[1:] * r[:-1].conj()).real < 0.0, -1.0, 1.0)
    return r * np.concatenate(([1.0], np.cumprod(flips))), step


def continue_sqrt_branch(q_samples: Sequence[complex],
                         tol: float | None = None) -> List[complex]:
    """Continuous square-root branch along a path of nonzero values.

    s_0 is the principal root of q_0; each next s is the root of the
    next q nearer to the previous s.  Requires relative steps < 1 so
    the nearer root is unambiguous.
    """
    tol = default_tol() if tol is None else tol
    return _sqrt_branch(np.asarray(q_samples, dtype=complex), tol)[0].tolist()


def closure_scale(loop: HyperplaneLoop, tol: float | None = None) -> complex:
    """The scale factor lambda with last sample = lambda * first sample.

    Uses the explicit closure_lambda when present (validated), else the
    least-squares fit; raises NotClosed when the residual exceeds tol.
    """
    tol = default_tol() if tol is None else tol
    last = len(loop.samples) - 1
    v0 = loop.samples[0].coefficient_vector()
    vm = loop.samples[-1].coefficient_vector()
    scale = float(np.linalg.norm(v0))
    if loop.closure_lambda is not None:
        lam = complex(loop.closure_lambda)
        if lam == 0:
            raise NotClosed(last, f"closure_lambda must be nonzero (sample {last})")
    else:
        lam = complex(np.vdot(v0, vm) / np.vdot(v0, v0))
    residual = float(np.max(np.abs(vm - lam * v0)))
    if residual > tol * scale:
        raise NotClosed(last, f"closure residual {residual:.3g} at sample {last} exceeds tolerance")
    return lam


def _stacked_incidence(loop: HyperplaneLoop, tol: float) -> Incidence:
    """Stack the samples into c: (m, n) and d: (m,) and evaluate them."""
    c = np.array([h.c for h in loop.samples])
    d = np.array([h.d for h in loop.samples])
    _refuse(~(np.isfinite(c).all(axis=1) & np.isfinite(d)), NonFiniteSample,
            "sample {i} has a non-finite coefficient or offset")
    inc = incidence(c, d, tol)
    # Subnormal coefficients, or an offset too large for |c| = 1.
    _refuse(~(np.isfinite(inc.q) & np.isfinite(inc.d)), NonFiniteSample,
            "sample {i} is not finite at |c| = 1")
    return inc


def _normalized_closure(loop: HyperplaneLoop, tol: float) -> complex:
    # Per-sample normalization rescales the endpoints by positive reals,
    # so the closure factor picks up the ratio of coefficient norms.
    ratio = np.linalg.norm(loop.samples[0].c) / np.linalg.norm(loop.samples[-1].c)
    return closure_scale(loop, tol) * float(ratio)


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


def kappa_bit(loop: HyperplaneLoop, tol: float | None = None) -> int:
    """0 if the sqrt branch closes up to lambda, 1 if it flips sign."""
    tol = default_tol() if tol is None else tol
    inc = _stacked_incidence(loop, tol)
    lam = _normalized_closure(loop, tol)
    return _branch_bit(lam, _sqrt_branch(inc.q, tol)[0])


def _fiber_letters(w: np.ndarray, tol: float) -> List[group.Letter]:
    """Crossing letters of the fiber path w, closed through the origin."""
    # Basepoint transport: close up through the origin of the model fiber.
    path = np.concatenate(([0j], w, [0j]))
    # Distances of +1 (row 0) and -1 (row 1) to every segment of the path.
    rel = np.array([[1.0], [-1.0]]) - path[:-1]
    seg = np.diff(path)
    denom = np.abs(seg) ** 2
    dot = rel.real * seg.real + rel.imag * seg.imag
    t = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0.0)
    near = np.abs(rel - np.clip(t, 0.0, 1.0) * seg) <= tol
    _refuse(near.any(axis=0), PunctureCollision,
            "fiber path segment {i} passes through {v:+.0f}", np.where(near[0], 1.0, -1.0))
    step = np.abs(np.diff(w))
    reach = np.minimum(np.abs(w[:-1] - 1.0), np.abs(w[:-1] + 1.0))
    _refuse(step >= reach, UndersampledLoop,
            "fiber step {v:.3g} at sample {i} reaches the nearest puncture", step)
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


def fiber_word(loop: HyperplaneLoop, tol: float | None = None) -> FreeWord:
    """Crossing word of the fiber path w_t = d_t / s_t, freely reduced."""
    tol = default_tol() if tol is None else tol
    inc = _stacked_incidence(loop, tol)
    return group.free_reduce(_fiber_letters(inc.d / _sqrt_branch(inc.q, tol)[0], tol))


def classify(loop: HyperplaneLoop, tol: float | None = None) -> ClassificationResult:
    """Group element of a sampled loop, with matrices and diagnostics."""
    tol = default_tol() if tol is None else tol
    inc = _stacked_incidence(loop, tol)
    _refuse(inc.tangent | inc.asymptotic, NotGeneralPosition, "sample {i} is not in general position")
    lam = _normalized_closure(loop, tol)
    branch, step = _sqrt_branch(inc.q, tol)
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


# ---------------------------------------------------------------------------
# Fixture loops: the model generator representatives, sampled.

def _base_direction(n: int) -> np.ndarray:
    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    return c


def _check_fixture_params(eps: float, m: int) -> None:
    if not 0.0 < eps < 1.0:
        raise BadParameters(f"eps must be in (0, 1), got {eps}")
    if m < 64:
        raise BadParameters(f"need at least 64 samples, got {m}")


def _puncture_loop_offsets(center: float, eps: float, m: int) -> List[complex]:
    """d-path 0 -> center -+ eps -> ccw circle around center -> 0."""
    approach = m // 4
    on_circle = m - 2 * approach
    sign = 1.0 if center > 0 else -1.0
    start_angle = math.pi if center > 0 else 0.0
    inner = sign * (abs(center) - eps)
    pts: List[complex] = []
    for j in range(approach):
        pts.append(complex(inner * j / approach))
    for j in range(on_circle + 1):
        angle = start_angle + 2.0 * math.pi * j / on_circle
        pts.append(center + eps * cmath.exp(1j * angle))
    for j in range(1, approach + 1):
        pts.append(complex(inner * (approach - j) / approach))
    return pts


def make_alpha_loop(n: int, eps: float = 0.25, m: int = 256) -> HyperplaneLoop:
    """Counterclockwise loop of {z1 = d} around the tangency value +1."""
    _check_fixture_params(eps, m)
    c = _base_direction(n)
    samples = tuple(Hyperplane(c, d) for d in _puncture_loop_offsets(1.0, eps, m))
    return HyperplaneLoop(n, samples, closure_lambda=1.0)


def make_beta_loop(n: int, eps: float = 0.25, m: int = 256) -> HyperplaneLoop:
    """Counterclockwise loop of {z1 = d} around the tangency value -1."""
    _check_fixture_params(eps, m)
    c = _base_direction(n)
    samples = tuple(Hyperplane(c, d) for d in _puncture_loop_offsets(-1.0, eps, m))
    return HyperplaneLoop(n, samples, closure_lambda=1.0)


def make_kappa_loop(n: int, m: int = 256) -> HyperplaneLoop:
    """Rotating pencil (cos t) z1 + (sin t) z2 = 0, t from 0 to pi."""
    if m < 64:
        raise BadParameters(f"need at least 64 samples, got {m}")
    samples = []
    for j in range(m + 1):
        t = math.pi * j / m
        c = np.zeros(n, dtype=complex)
        c[0] = math.cos(t)
        c[1] = math.sin(t)
        samples.append(Hyperplane(c, 0.0))
    return HyperplaneLoop(n, tuple(samples), closure_lambda=-1.0)


def make_constant_loop(n: int, m: int = 64) -> HyperplaneLoop:
    """Constant loop at the base hyperplane {z1 = 0}."""
    h = Hyperplane(_base_direction(n), 0.0)
    return HyperplaneLoop(n, tuple(h for _ in range(m + 1)), closure_lambda=1.0)


def concat(l1: HyperplaneLoop, l2: HyperplaneLoop,
           tol: float | None = None) -> HyperplaneLoop:
    """Concatenate loops sharing the base hyperplane up to scale."""
    if tol is None:
        tol = default_tol()
    if l1.n != l2.n:
        raise BadParameters("loops have different ambient dimensions")
    v1 = l1.samples[-1].coefficient_vector()
    v2 = l2.samples[0].coefficient_vector()
    mu = complex(np.vdot(v2, v1) / np.vdot(v2, v2))
    if mu == 0 or float(np.max(np.abs(v1 - mu * v2))) > tol * float(np.linalg.norm(v1)):
        raise BadParameters("loops do not share their junction hyperplane")
    lam1 = closure_scale(l1, tol)
    lam2 = closure_scale(l2, tol)
    samples = l1.samples + tuple(h.scaled(mu) for h in l2.samples[1:])
    return HyperplaneLoop(l1.n, samples, closure_lambda=lam1 * lam2)


def reverse(loop: HyperplaneLoop, tol: float | None = None) -> HyperplaneLoop:
    """Orientation reversal; inverts the class and the closure factor."""
    lam = closure_scale(loop, tol)
    return HyperplaneLoop(loop.n, tuple(reversed(loop.samples)),
                          closure_lambda=1.0 / lam)


# ---------------------------------------------------------------------------
# JSON wire format, shared with the CLI.

def loop_to_dict(loop: HyperplaneLoop) -> dict:
    data = {
        "n": loop.n,
        "samples": [h.to_dict() for h in loop.samples],
    }
    if loop.closure_lambda is not None:
        lam = complex(loop.closure_lambda)
        data["closure_lambda"] = [lam.real, lam.imag]
    return data


def loop_from_dict(data: dict) -> HyperplaneLoop:
    samples = tuple(Hyperplane.from_dict(s) for s in data["samples"])
    lam = data.get("closure_lambda")
    if lam is not None:
        lam = complex(lam[0], lam[1])
    return HyperplaneLoop(int(data["n"]), samples, closure_lambda=lam)
