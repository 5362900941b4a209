"""Loops and outcomes shared by the tests: generator composites, their mutations, loops of
n = 3 hyperplanes c = e1 with a given offset path, the helpers that build a loop from rows
and catch a refusal, and the matrix inverse of the oracles.  pytest collects no test from this module."""

import cmath
import functools
import math

import numpy as np
from hypothesis import strategies as st

from qmono import group, loops
from qmono.errors import QmonoError
from qmono.loops import HyperplaneLoop
from qmono.representation import MonodromyMatrix


def loop_of(rows, closure_lambda=None):
    """The loop whose samples are the rows (c | d) of the (m, n + 1) array rows."""
    n = rows.shape[1] - 1
    return HyperplaneLoop(n, loops.LoopSamples(rows[:, :n], rows[:, n]), closure_lambda)


def line_loop(ds, cs=None):
    """The loop of n = 3 hyperplanes with offsets ds and coefficient vectors cs, e1 unless
    given, closing with factor 1."""
    rows = np.zeros((len(ds), 4), dtype=complex)
    rows[:, :3] = [1.0, 0, 0] if cs is None else cs
    rows[:, 3] = ds
    return loop_of(rows, 1.0)


def far_circle_loop(r):
    """c = e1 and d on a circle about 1.2 r: the fiber path circles a point far out on the
    positive axis and encloses neither puncture."""
    circle = [1.2 * r + 0.3 * r * cmath.exp(1j * (math.pi / 2 + 2 * math.pi * j / 16))
              for j in range(17)]
    return line_loop([1j * r, (0.6 + 0.9j) * r, *circle, (0.6 + 0.9j) * r, 1j * r])


def inverse(m):
    """The inverse of an integer matrix of det +-1: its adjugate times its det."""
    d = m.det()
    return MonodromyMatrix(m.m22 * d, -m.m12 * d, -m.m21 * d, m.m11 * d)


def outcome(call):
    """What call() returns, or the class, index and message of the QmonoError it raises."""
    try:
        return call()
    except QmonoError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


# The pieces of a composite by name: the generators, their reverses and "1", the constant loop.
PIECES = ["a", "b", "k", "a^-1", "b^-1", "k^-1", "1"]


@functools.lru_cache(maxsize=None)
def generator_pieces(n, m):
    pieces = {"1": loops.make_constant_loop(n, m=m)}
    for name, maker in (("a", loops.make_alpha_loop), ("b", loops.make_beta_loop),
                        ("k", loops.make_kappa_loop)):
        forward = maker(n, m=m)
        backward = loops.reverse(forward)
        # reverse starts at the loop's own first row, so every piece starts at c = e1, d = 0
        assert np.abs(backward.samples.rows[0] - np.eye(n + 1)[0]).max() <= 1e-15, name
        pieces[name], pieces[name + "^-1"] = forward, backward
    return pieces


def product(names):
    """The element that the composite of the named pieces represents."""
    return group.parse_word(" ".join(name for name in names if name != "1"))


def composite_rows(n, letters, noise, seed):
    """The rows and closure factor of a composite of 64-sample generator pieces, with noise."""
    pieces = generator_pieces(n, 64)
    loop = pieces[letters[0]]
    for letter in letters[1:]:
        loop = loops.concat(loop, pieces[letter])
    rows = np.array(loop.samples.rows)
    # noise off the end rows keeps the closure factor
    shake = np.random.default_rng(seed).normal(size=rows.shape + (2,)) @ [1.0, 1.0j]
    rows[1:-1] += noise * shake[1:-1]
    return rows, loop.closure_lambda


composites = dict(
    n=st.integers(3, 5), letters=st.lists(st.sampled_from(PIECES), min_size=1, max_size=4),
    scale=st.sampled_from([1.0, -1j, 2.0 + 1.0j, 1e-300, 1e200]),
    noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]), seed=st.integers(0, 2**32 - 1))


def mutated_piece(piece, kind, where):
    """piece with one row made non-finite, tangent or subnormal, or scaled so far down that
    the junction factor of a concat onto it (about 1e-300) underflows it to zero."""
    rows = np.array(piece.samples.rows)
    n, i = piece.n, where % len(rows)
    if kind == "nan":
        rows[i, where % (n + 1)] = complex(math.nan, 0.0)
    elif kind == "tangent":
        rows[i, n] = np.sqrt(np.sum(rows[i, :n] ** 2))  # d^2 = q
    elif kind == "subnormal":
        rows[i] *= 1e-320
    elif kind == "zero-scaled":
        rows *= 1e300
        rows[i] = piece.samples.rows[i] * 1e-30
    return loop_of(rows, piece.closure_lambda)
