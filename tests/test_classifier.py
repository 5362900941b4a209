import cmath
import collections
import functools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qmono import geometry, group, loops
from qmono.errors import (
    AsymptoticSample,
    BadParameters,
    BadTolerance,
    DimensionTooSmall,
    MalformedLoopFile,
    NonFiniteSample,
    NotClosed,
    NotGeneralPosition,
    PunctureCollision,
    QmonoError,
    UndersampledLoop,
    ZeroCoefficientVector,
)
from qmono.geometry import Hyperplane
from qmono.group import ALPHA, BETA
from qmono.loops import HyperplaneLoop
from qmono.representation import MonodromyMatrix


def word(text):
    return group.parse_word(text)


# --- square root branch continuation -----------------------------------

def test_branch_constant():
    assert loops.continue_sqrt_branch([1.0] * 10) == [1.0] * 10


def test_branch_one_turn_flips_sign():
    qs = [cmath.exp(2j * math.pi * t / 200) for t in range(201)]
    s = loops.continue_sqrt_branch(qs)
    assert abs(s[-1] + s[0]) < 1e-12
    assert abs(s[0] - 1.0) < 1e-15


def test_branch_two_turns_no_flip():
    qs = [cmath.exp(4j * math.pi * t / 400) for t in range(401)]
    s = loops.continue_sqrt_branch(qs)
    assert abs(s[-1] - s[0]) < 1e-12


def test_branch_against_angle_accumulation():
    # oracle: half of the accumulated argument of q gives the branch
    rng = random.Random(30)
    for _ in range(20):
        a = rng.uniform(1.5, 3.0)
        b = rng.uniform(-1.0, 1.0)
        ph = rng.uniform(0, 2 * math.pi)
        qs = [a + math.cos(2 * math.pi * t / 300 + ph) + 1j * b * math.sin(
            2 * math.pi * t / 300) for t in range(301)]
        total = cmath.phase(qs[0])
        for q1, q2 in zip(qs, qs[1:]):
            total += cmath.phase(q2 / q1)
        expected = math.sqrt(abs(qs[-1])) * cmath.exp(0.5j * total)
        s = loops.continue_sqrt_branch(qs)
        assert abs(s[-1] - expected) < 1e-9
        for q, si in zip(qs, s):
            assert abs(si * si - q) < 1e-12


def test_branch_rejects_big_steps():
    with pytest.raises(UndersampledLoop):
        loops.continue_sqrt_branch([1.0, -1.0, 1.0])


def test_branch_rejects_vanishing_values():
    with pytest.raises(AsymptoticSample):
        loops.continue_sqrt_branch([1.0, 1e-12, 1.0])


# --- kappa bit ---------------------------------------------------------

def test_kappa_bit_examples():
    assert loops.kappa_bit(loops.make_kappa_loop(4)) == 1
    assert loops.kappa_bit(loops.make_constant_loop(4)) == 0
    twice = loops.concat(loops.make_kappa_loop(4), loops.make_kappa_loop(4))
    assert loops.kappa_bit(twice) == 0


def test_kappa_bit_additive_under_concat():
    k = loops.make_kappa_loop(3)
    a = loops.make_alpha_loop(3)
    assert loops.kappa_bit(loops.concat(k, a)) == 1
    assert loops.kappa_bit(loops.concat(a, a)) == 0


# --- fiber word --------------------------------------------------------

def test_fiber_word_fixtures():
    assert loops.fiber_word(loops.make_alpha_loop(4)) == ((ALPHA, 1),)
    assert loops.fiber_word(loops.make_beta_loop(4)) == ((BETA, 1),)
    assert loops.fiber_word(loops.make_constant_loop(4)) == ()


def test_fiber_word_puncture_collision():
    # d-path runs straight through the puncture at w = +1, between samples: one on it is tangent
    c = [1.0, 0, 0]
    ds = [2.0 * t / 63 for t in range(64)] + [2.0 * (63 - t) / 63 for t in range(1, 64)]
    loop = HyperplaneLoop(3, tuple(Hyperplane(c, d) for d in ds), closure_lambda=1.0)
    with pytest.raises(PunctureCollision):
        loops.fiber_word(loop)


# --- the collision test against the all-segments formula ----------------

def fiber_letters_oracle(w, tol):
    """The crossing letters as the all-segments collision test gives them:
    the exact distance of +1 and -1 to every segment of the closed path."""
    path = np.concatenate(([0j], w, [0j]))
    seg = np.diff(path)
    length = np.abs(seg)
    # In units of a power of two above max(|seg|, 1/2): exact, and no square overflows.
    unit = np.ldexp(1.0, -np.frexp(np.maximum(length, 0.5))[1])
    rel = (np.array([[1.0], [-1.0]]) - path[:-1]) * unit
    seg = seg * unit
    denom = (length * unit) ** 2
    dot = rel.real * seg.real + rel.imag * seg.imag
    t = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0.0)
    near = np.abs(rel - np.clip(t, 0.0, 1.0) * seg) <= tol * unit
    if near.any():
        i = int(np.argmax(near.any(axis=0)))
        raise PunctureCollision(i, f"fiber path segment {i} passes through "
                                   f"{1.0 if near[0, i] else -1.0:+.0f}")
    step = np.abs(np.diff(w))
    reach = np.minimum(np.abs(w[:-1] - 1.0), np.abs(w[:-1] + 1.0))
    if (step >= reach).any():
        i = int(np.argmax(step >= reach))
        raise UndersampledLoop(i, f"fiber step {step[i]:.3g} at sample {i} reaches the nearest puncture")
    up = path.imag >= 0.0
    k = np.flatnonzero(up[:-1] != up[1:])
    z1, z2 = path[k], path[k + 1]
    xs = z1.real + (z2.real - z1.real) * (-z1.imag) / (z2.imag - z1.imag)
    exps = np.where(up[k + 1] == (xs > 0.0), 1, -1)
    return [(ALPHA if x > 0.0 else BETA, e) for x, e in zip(xs.tolist(), exps.tolist()) if abs(x) > 1.0]


def letters_outcome(fn, w, tol):
    try:
        return fn(w, tol)
    except QmonoError as exc:
        return type(exc), exc.index, str(exc)


TOLS = [1e-12, 1e-9, 1e-6, 0.01]
angles = st.floats(0.0, 2 * math.pi)
# Distances in units of tol, with the boundary itself and its neighbours.
gaps = st.one_of(st.floats(0.0, 3.0), st.sampled_from([1.0 - 2e-16, 1.0, 1.0 + 2e-16]))
# A segment steered to pass at gap * tol from a puncture: its two ends.
grazes = st.tuples(st.just("graze"), st.sampled_from([1.0, -1.0]), gaps, angles,
                   st.floats(1e-12, 0.6), st.floats(1e-12, 0.6))
# One point at gap * tol from a puncture.
touches = st.tuples(st.just("touch"), st.sampled_from([1.0, -1.0]), gaps, angles)
fars = st.tuples(st.just("far"), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
huges = st.tuples(st.just("huge"), st.floats(100.0, 308.0), angles)
repeats = st.tuples(st.just("repeat"))


def path_points(pieces, tol):
    points = []
    for piece in pieces:
        kind = piece[0]
        if kind == "graze":
            _, p, gap, angle, before, after = piece
            along = cmath.exp(1j * angle)
            foot = p + 1j * along * gap * tol
            points += [foot - before * along, foot + after * along]
        elif kind == "touch":
            _, p, gap, angle = piece
            points.append(p + gap * tol * cmath.exp(1j * angle))
        elif kind == "far":
            points.append(complex(piece[1], piece[2]))
        elif kind == "huge":
            points.append(10.0 ** piece[1] * cmath.exp(1j * piece[2]))
        elif points:  # repeat: a zero-length segment
            points.append(points[-1])
    return np.array(points, dtype=complex)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(pieces=[("huge", 155.0, 0.0)], tol=1e-9)  # |seg|^2 overflows
@given(pieces=st.lists(st.one_of(grazes, touches, fars, huges, repeats), min_size=1, max_size=12),
       tol=st.sampled_from(TOLS))
def test_fiber_letters_match_all_segments_formula(pieces, tol):
    w = path_points(pieces, tol)
    if len(w) < 2:
        w = np.concatenate((w, [0.5j, -0.5j]))
    expected = letters_outcome(fiber_letters_oracle, w, tol)
    assert letters_outcome(loops._fiber_letters, w, tol) == expected
    event(expected[0].__name__ if isinstance(expected, tuple) else "letters")


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("exponent", [155, 200, 250, 300])
def test_huge_segments_measured_without_overflow(exponent, tol):
    # |b - a|^2 overflows past 1.3e154, and such a segment through a puncture once passed
    far = 10.0 ** exponent
    for p in (1.0, -1.0):
        with pytest.raises(PunctureCollision, match=re.escape(f"segment 0 passes through {p:+.0f}")):
            loops._fiber_letters(np.array([p * far, 0.5j]), tol)
        # parallel to the real axis at 2 tol from both punctures: the collision check
        # passes it, and the fiber-step check after it refuses the long step
        h = 2.0 * tol * p * 1j
        with pytest.raises(UndersampledLoop):
            loops._fiber_letters(np.array([h, h - far, h + far, h]), tol)


# --- classify ----------------------------------------------------------

def test_classify_fixtures():
    res = loops.classify(loops.make_alpha_loop(4))
    assert res.word == word("a")
    assert res.matrix_even == MonodromyMatrix(-1, 2, 0, 1)
    assert loops.classify(loops.make_beta_loop(4)).word == word("b")
    kappa = loops.classify(loops.make_kappa_loop(4))
    assert kappa.word == word("k")
    assert kappa.matrix_even == MonodromyMatrix(0, 1, 1, 0)
    assert loops.classify(loops.make_constant_loop(4)).word == word("")


def test_classify_refinement_stable():
    for maker in (loops.make_alpha_loop, loops.make_beta_loop):
        coarse = loops.classify(maker(4, m=128)).word
        fine = loops.classify(maker(4, m=256)).word
        assert coarse == fine
    assert loops.classify(loops.make_kappa_loop(4, m=128)).word == \
        loops.classify(loops.make_kappa_loop(4, m=256)).word


def test_classify_reverse_inverts():
    for maker in (loops.make_alpha_loop, loops.make_beta_loop):
        forward = loops.classify(maker(4)).word
        backward = loops.classify(loops.reverse(maker(4))).word
        assert backward == group.invert(forward)
    k = loops.make_kappa_loop(4)
    assert loops.classify(loops.reverse(k)).word == word("k")


def test_classify_concat_is_group_law():
    a = loops.make_alpha_loop(4, m=128)
    b = loops.make_beta_loop(4, m=128)
    k = loops.make_kappa_loop(4, m=128)
    for l1, l2 in [(a, b), (b, a), (k, a), (a, k), (k, b), (k, k)]:
        combined = loops.classify(loops.concat(l1, l2)).word
        expected = group.multiply(loops.classify(l1).word, loops.classify(l2).word)
        assert combined == expected


def test_classify_random_compositions():
    rng = random.Random(31)
    a = loops.make_alpha_loop(4, m=128)
    b = loops.make_beta_loop(4, m=128)
    k = loops.make_kappa_loop(4, m=128)
    parts = [a, b, k, loops.reverse(a), loops.reverse(b)]
    for _ in range(20):
        chosen = [rng.choice(parts) for _ in range(rng.randrange(1, 5))]
        whole = chosen[0]
        for part in chosen[1:]:
            whole = loops.concat(whole, part)
        expected = group.IDENTITY
        for part in chosen:
            expected = group.multiply(expected, loops.classify(part).word)
        assert loops.classify(whole).word == expected


def test_classify_matrix_fixes_invariant_vector():
    for maker in (loops.make_alpha_loop, loops.make_beta_loop):
        res = loops.classify(maker(4))
        assert res.matrix_even.apply((1, 1)) == (1, 1)
        assert res.matrix_odd.apply((1, 1)) == (1, 1)


def test_classify_rejects_small_dimension():
    with pytest.raises(DimensionTooSmall):
        loops.make_alpha_loop(2)


def test_classify_rejects_open_loop():
    good = loops.make_alpha_loop(3)
    broken = HyperplaneLoop(3, good.samples[:-40], closure_lambda=None)
    with pytest.raises(NotClosed):
        loops.classify(broken)


def test_classify_rejects_tangent_sample():
    c = [1.0, 0, 0]
    ds = [1.0 * t / 64 for t in range(65)] + [1.0 * (64 - t) / 64 for t in range(1, 65)]
    loop = HyperplaneLoop(3, tuple(Hyperplane(c, d) for d in ds), closure_lambda=1.0)
    with pytest.raises(NotGeneralPosition) as info:
        loops.classify(loop)
    assert info.value.index == 64


def test_maker_parameter_validation():
    with pytest.raises(BadParameters):
        loops.make_alpha_loop(4, eps=1.5)
    with pytest.raises(BadParameters):
        loops.make_beta_loop(4, m=10)
    with pytest.raises(BadParameters):
        loops.make_kappa_loop(4, m=10)


def test_concat_rejects_mismatched_junction():
    a = loops.make_alpha_loop(4)
    k3 = loops.make_kappa_loop(3)
    with pytest.raises(BadParameters):
        loops.concat(a, k3)


def test_loop_json_roundtrip(tmp_path):
    loop = loops.make_kappa_loop(5, m=128)
    data = loops.loop_to_dict(loop)
    back = loops.loop_from_dict(data)
    assert back.n == loop.n
    assert back.closure_lambda == loop.closure_lambda
    assert all(np.allclose(h1.c, h2.c) and h1.d == h2.d
               for h1, h2 in zip(loop.samples, back.samples))
    assert loops.classify(back).word == word("k")


def test_classify_scale_invariant():
    # rescaling every sample by a fixed nonzero factor changes nothing
    base = loops.make_beta_loop(4, m=128)
    factor = 0.3 - 1.7j
    scaled = HyperplaneLoop(4, tuple(h.scaled(factor) for h in base.samples),
                            closure_lambda=1.0)
    assert loops.classify(scaled).word == word("b")


# --- the array pass reproduces the per-sample classifier ----------------
#
# Word, crossing_count, branch_flip, min_discriminant_margin and
# max_relative_step as the earlier per-sample implementation (one
# Hyperplane.normalized() object per sample and stage) gave them.

def wobbly_loop(r, m=300):
    """A loop of n = 3 hyperplanes whose direction wobbles off e1."""
    u = (0.0, 0.3 + 0.2j, -0.1j)
    v = (0.2j, 0.5, 0.25 - 0.1j)
    samples = []
    for j in range(m + 1):
        t = 2 * math.pi * j / m
        c = [1.0 + 0.4 * math.sin(t) * x + 0.3 * (1 - math.cos(t)) * y for x, y in zip(u, v)]
        samples.append(Hyperplane(c, r * (1 - math.cos(t)) / 2 + 0.8j * math.sin(t)))
    return HyperplaneLoop(3, tuple(samples), closure_lambda=1.0)


PER_SAMPLE_FIXTURES = {
    "alpha": (loops.make_alpha_loop, ("a", 1, 0, 0.4375, 0.0)),
    "beta": (loops.make_beta_loop, ("b", 1, 0, 0.4375, 0.0)),
    "kappa": (loops.make_kappa_loop, ("k", 0, 1, 0.9999999999999998, 4.440892098500626e-16)),
    "constant": (loops.make_constant_loop, ("", 0, 0, 1.0, 0.0)),
    "wobbly+": (lambda n: wobbly_loop(2.5),
                ("a^-1", 1, 0, 0.5071379696566809, 0.0007599084896935002)),
    "wobbly-": (lambda n: wobbly_loop(-2.5),
                ("b", 1, 0, 0.5506711394388082, 0.0007599084896935002)),
}

# Composites of four 128-sample generator pieces in n = 4, each piece
# starting at the base hyperplane c = e1, d = 0.
PER_SAMPLE_COMPOSITES = [
    ("b a^-1 b^-1 k^-1", "b a^-1 b^-1 k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("a a k a", "a a b k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("b k a k", "b b", 2, 0, 0.4375, 4.440892098500626e-16),
    ("a^-1 a a b^-1", "a b^-1", 4, 0, 0.4375, 0.0),
    ("b^-1 a a^-1 a", "b^-1 a", 4, 0, 0.4375, 0.0),
    ("k b^-1 a k", "a^-1 b", 2, 0, 0.4375, 4.440892098500626e-16),
    ("a a^-1 k^-1 k^-1", "", 2, 0, 0.4375, 4.440892098500626e-16),
    ("k a k k", "b k", 1, 1, 0.4375, 4.440892098500626e-16),
    ("k a^-1 b b^-1", "b^-1 k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("a^-1 k a k", "a^-1 b", 2, 0, 0.4375, 4.440892098500626e-16),
    ("b k k^-1 a^-1", "b a^-1", 2, 0, 0.4375, 4.440892098500626e-16),
    ("a k k k^-1", "a k", 1, 1, 0.4375, 4.440892098500626e-16),
    ("a^-1 b a k", "a^-1 b a k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("k^-1 a k a", "b a", 2, 0, 0.4375, 4.440892098500626e-16),
    ("k a^-1 b^-1 k^-1", "b^-1 a^-1", 2, 0, 0.4375, 4.440892098500626e-16),
    ("k b^-1 b b^-1", "a^-1 k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("k b^-1 b b", "a k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("a^-1 a^-1 k^-1 a^-1", "a^-1 a^-1 b^-1 k", 3, 1, 0.4375, 4.440892098500626e-16),
    ("a k b k", "a a", 2, 0, 0.4375, 4.440892098500626e-16),
    ("b b^-1 k a", "b k", 3, 1, 0.4375, 4.440892098500626e-16),
]


def generator_pieces(n, m):
    pieces = {}
    for name, maker in (("a", loops.make_alpha_loop), ("b", loops.make_beta_loop),
                        ("k", loops.make_kappa_loop)):
        forward = maker(n, m=m)
        backward = loops.reverse(forward)
        if backward.samples[0].c[0].real < 0:
            # the reversed kappa loop starts at -e1; the same hyperplanes
            # scaled by -1 start at e1
            backward = HyperplaneLoop(n, tuple(h.scaled(-1) for h in backward.samples),
                                      backward.closure_lambda)
        pieces[name], pieces[name + "^-1"] = forward, backward
    return pieces


def assert_diagnostics(loop, expected):
    text, crossings, flip, margin, step = expected
    res = loops.classify(loop)
    d = res.diagnostics
    assert res.word == word(text)
    assert (d.crossing_count, d.branch_flip) == (crossings, flip)
    assert d.min_discriminant_margin == pytest.approx(margin, abs=1e-12)
    assert d.max_relative_step == pytest.approx(step, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PER_SAMPLE_FIXTURES))
def test_classify_matches_per_sample_fixture(name):
    maker, expected = PER_SAMPLE_FIXTURES[name]
    assert_diagnostics(maker(4), expected)


def test_classify_matches_per_sample_composites():
    pieces = generator_pieces(4, 128)
    for draw, *expected in PER_SAMPLE_COMPOSITES:
        names = draw.split()
        whole = pieces[names[0]]
        for name in names[1:]:
            whole = loops.concat(whole, pieces[name])
        assert_diagnostics(whole, expected)


def test_classify_builds_no_per_sample_objects(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a loop operation built or normalized a sample object")

    monkeypatch.setattr(Hyperplane, "normalized", refuse)
    monkeypatch.setattr(Hyperplane, "__init__", refuse)
    # Count the passes that scale samples to |c| = 1.
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(loops, "incidence")
    counted(geometry, "_unit_scaled")
    assert loops.classify(loops.make_kappa_loop(4)).word == word("k")
    assert loops.kappa_bit(loops.make_kappa_loop(4)) == 1
    assert loops.fiber_word(loops.make_alpha_loop(4)) == ((ALPHA, 1),)
    a, b = loops.make_alpha_loop(4, m=128), loops.make_beta_loop(4, m=128)
    k, e = loops.make_kappa_loop(4, m=128), loops.make_constant_loop(4)
    whole = loops.concat(loops.concat(loops.concat(a, loops.reverse(b)), k), e)
    back = loops.loop_from_dict(loops.loop_to_dict(whole))
    calls.clear()
    assert loops.classify(back).word == word("a b^-1 k")
    # one incidence pass; the closure, branch and fiber stages reuse its
    # q, |q| and inverse norms
    assert calls == {"incidence": 1, "_unit_scaled": 1}
    assert loops.kappa_bit(back) == 1
    assert loops.fiber_word(back) == ((ALPHA, 1), (BETA, -1))


# --- a loop is held as arrays --------------------------------------------

def test_loop_holds_read_only_arrays():
    rows = [Hyperplane([1.0, 0.1 * t, 0], 0.5j * t) for t in range(5)]
    loop = HyperplaneLoop(3, rows)
    assert loop.samples.c.shape == (5, 3) and loop.samples.d.shape == (5,)
    assert loop.samples.c.dtype == complex and loop.samples.d.dtype == complex
    assert len(loop.samples) == 5
    assert np.array_equal(loop.samples.c[2], rows[2].c) and loop.samples.d[2] == rows[2].d
    item = loop.samples[-1]
    assert isinstance(item, Hyperplane) and item.d == rows[-1].d
    part = loop.samples[1:4]
    assert isinstance(part, loops.LoopSamples) and np.array_equal(part.d, loop.samples.d[1:4])
    assert [h.d for h in loop.samples] == [h.d for h in rows]
    for array in (loop.samples.c, loop.samples.d, loop.samples[::-1].c):
        with pytest.raises(ValueError):
            array[0] = 7.0
    # equality is identity: two loops of the same samples are distinct objects
    assert loop != HyperplaneLoop(3, rows) and loop == loop


def test_loop_shape_refused():
    c = np.tile([1.0 + 0j, 0, 0], (4, 1))
    with pytest.raises(DimensionTooSmall):
        HyperplaneLoop(2, loops.LoopSamples(c[:, :2], np.zeros(4)))
    with pytest.raises(BadParameters):
        HyperplaneLoop(3, loops.LoopSamples(c[:1], np.zeros(1)))
    with pytest.raises(BadParameters, match="sample 0 has dimension 3, expected 4"):
        HyperplaneLoop(4, loops.LoopSamples(c, np.zeros(4)))
    with pytest.raises(BadParameters, match="sample 2 has dimension 2, expected 3"):
        HyperplaneLoop(3, [Hyperplane(h, 0) for h in ([1, 0, 0], [1, 0, 0], [1, 0], [1, 0, 0])])
    with pytest.raises(BadParameters):
        loops.LoopSamples(c, np.zeros(3))
    with pytest.raises(BadParameters):
        loops.LoopSamples(c[0], np.zeros(1))
    c[2] = 0
    with pytest.raises(ZeroCoefficientVector, match="sample 2"):
        HyperplaneLoop(3, loops.LoopSamples(c, np.zeros(4)))


def assert_one_column_major_array(samples, n):
    """c and d are read-only views of one F-contiguous (m, n+1) array."""
    rows = samples.rows
    assert rows.shape == (len(samples), n + 1) and rows.dtype == complex
    assert rows.flags.f_contiguous and not rows.flags.writeable
    assert samples.c.__array_interface__ == rows[:, :n].__array_interface__
    assert samples.d.__array_interface__ == rows[:, n].__array_interface__
    assert not samples.c.flags.writeable and not samples.d.flags.writeable


def test_loop_is_one_column_major_array():
    alpha, kappa = loops.make_alpha_loop(4, m=64), loops.make_kappa_loop(4, m=64)
    c0, d0 = np.array(alpha.samples.c), np.array(alpha.samples.d)
    wide = np.zeros((2 * len(d0), 8), dtype=complex)
    wide[::2, ::2] = c0
    given_c = {"C-ordered": np.array(c0, order="C"), "F-ordered": np.array(c0, order="F"),
               "strided": wide[::2, ::2]}
    for name, c in given_c.items():
        d = d0.copy()
        loop = HyperplaneLoop(4, loops.LoopSamples(c, d), alpha.closure_lambda)
        assert_one_column_major_array(loop.samples, 4)
        c[...], d[...] = 7.0, 7.0  # the loop holds a copy, not the caller's arrays
        assert np.array_equal(loop.samples.c, c0) and np.array_equal(loop.samples.d, d0), name
    built = [HyperplaneLoop(4, list(alpha.samples)), loops.concat(alpha, kappa),
             loops.reverse(kappa), loops.loop_from_dict(loops.loop_to_dict(alpha))]
    built += [make(4) for make in (loops.make_alpha_loop, loops.make_beta_loop,
                                   loops.make_kappa_loop, loops.make_constant_loop)]
    for loop in built:
        assert_one_column_major_array(loop.samples, 4)
    for part in (alpha.samples[1:-1], alpha.samples[::-2], alpha.samples[:]):
        assert_one_column_major_array(part, 4)


cached_pieces = functools.lru_cache(maxsize=None)(generator_pieces)


def classify_outcome(loop):
    """The word and diagnostics, bit for bit, or the refusal's class, index and message."""
    try:
        result = loops.classify(loop)
    except QmonoError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)
    return str(result.word), repr(result.diagnostics)


def composite_rows(n, letters, noise, seed):
    """The rows and closure factor of a composite of 64-sample generator pieces, with noise."""
    pieces = cached_pieces(n, 64)
    loop = pieces[letters[0]]
    for letter in letters[1:]:
        loop = loops.concat(loop, pieces[letter])
    rows = np.array(loop.samples.rows)
    # noise off the end rows keeps the closure factor
    shake = np.random.default_rng(seed).normal(size=rows.shape + (2,)) @ [1.0, 1.0j]
    rows[1:-1] += noise * shake[1:-1]
    return rows, loop.closure_lambda


composites = dict(
    n=st.integers(3, 5),
    letters=st.lists(st.sampled_from(["a", "b", "k", "a^-1", "b^-1", "k^-1"]), min_size=1,
                     max_size=4),
    scale=st.sampled_from([1.0, -1j, 2.0 + 1.0j, 1e-300, 1e200]),
    noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**composites)
def test_classify_is_layout_independent(n, letters, scale, noise, seed):
    rows, closure_lambda = composite_rows(n, letters, noise, seed)
    rows *= scale
    wide = np.zeros((3 * len(rows), 2 * n + 2), dtype=complex)
    wide[::3, ::2] = rows
    outcomes = {classify_outcome(HyperplaneLoop(n, loops.LoopSamples(layout[:, :n], layout[:, n]),
                                                closure_lambda))
                for layout in (np.ascontiguousarray(rows), np.asfortranarray(rows), wide[::3, ::2])}
    assert len(outcomes) == 1
    outcome = outcomes.pop()
    event(outcome[0].__name__ if isinstance(outcome[0], type) else "classified")


def test_makers_refuse_small_dimension():
    for n in (-1, 0, 1, 2):
        for make in (loops.make_alpha_loop, loops.make_beta_loop, loops.make_kappa_loop,
                     loops.make_constant_loop):
            with pytest.raises(DimensionTooSmall):
                make(n)


# Sizes above the cap, refused before anything is allocated; at n = 3, m = 2^20 is the
# first one above it.  No size the cap admits near it is built here.
@pytest.mark.parametrize("n, m", [(4, 10 ** 11), (10 ** 9, 256), (3, 2 ** 20)])
def test_makers_refuse_oversized_fixtures(n, m):
    assert (m + 1) * (n + 1) > loops.MAX_FIXTURE_ENTRIES
    for make in (loops.make_alpha_loop, loops.make_beta_loop, loops.make_kappa_loop,
                 loops.make_constant_loop):
        with pytest.raises(BadParameters, match=f"above MAX_FIXTURE_ENTRIES = {2 ** 22}$"):
            make(n, m=m)


def test_makers_small_sample_counts():
    for make in (loops.make_alpha_loop, loops.make_kappa_loop):
        with pytest.raises(BadParameters, match="need at least 64 samples, got 63"):
            make(4, m=63)
    # The constant loop has no lower bound beyond two rows.
    assert loops.classify(loops.make_constant_loop(4, m=1)).word == word("")
    with pytest.raises(BadParameters, match="a loop needs at least two samples"):
        loops.make_constant_loop(4, m=0)


# --- every refusal names its first offending sample ---------------------

def line_loop(ds, cs=None):
    cs = cs or [[1.0, 0, 0]] * len(ds)
    return HyperplaneLoop(3, tuple(Hyperplane(c, d) for c, d in zip(cs, ds)),
                          closure_lambda=1.0)


def with_sample(loop, i, h):
    samples = list(loop.samples)
    samples[i] = h
    return HyperplaneLoop(loop.n, tuple(samples), loop.closure_lambda)


def scaled_loop(loop, factor, closure_lambda):
    """Every sample of loop times factor."""
    return HyperplaneLoop(loop.n, loops.LoopSamples(factor * loop.samples.c, factor * loop.samples.d),
                          closure_lambda)


def alpha_with(i, c=None, d=None):
    base = loops.make_alpha_loop(4)
    h = base.samples[i]
    return with_sample(base, i, Hyperplane(h.c if c is None else c, h.d if d is None else d))


e1 = [1.0, 0, 0]
REJECTIONS = {
    "tangent": (lambda: line_loop([t / 64 for t in range(65)] + [(64 - t) / 64 for t in range(1, 65)]),
                NotGeneralPosition, 64),
    "nan-c": (lambda: alpha_with(100, c=[math.nan, 0, 0, 0]), NonFiniteSample, 100),
    "inf-d": (lambda: alpha_with(100, d=complex(math.inf, 0)), NonFiniteSample, 100),
    "nan-d-and-tangent": (lambda: with_sample(alpha_with(100, d=complex(0, math.nan)), 50,
                                              Hyperplane([1, 0, 0, 0], 1.0)),
                          NonFiniteSample, 100),
    "subnormal-c": (lambda: with_sample(loops.make_alpha_loop(4), 100,
                                        loops.make_alpha_loop(4).samples[100].scaled(1e-320)),
                    NonFiniteSample, 100),
    "open": (lambda: HyperplaneLoop(3, loops.make_alpha_loop(3).samples[:-40]),
             NotClosed, 216),
    # |v0|^2 overflows at 1e200; the closure fit once passed this loop
    "open-1e200": (lambda: scaled_loop(loops.make_alpha_loop(4), 1e200, 2.0), NotClosed, 256),
    "puncture": (lambda: line_loop([0, 0.4, 0.8, 1.2, 1.6, 1.2, 0.8, 0.4, 0]),
                 PunctureCollision, 3),
    "q-step": (lambda: line_loop([0] * 6, [e1, e1, e1, [1, 2j, 0], e1, e1]),
               UndersampledLoop, 2),
    "fiber-step": (lambda: line_loop([0, 0.3, 0.6, 0.6 + 0.5j, 0.3, 0]),
                   UndersampledLoop, 2),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_classify_rejection_index(name):
    make, error, index = REJECTIONS[name]
    with pytest.raises(error) as info:
        loops.classify(make())
    assert info.value.index == index
    assert f"{index}" in str(info.value)


def test_raw_non_finite_row_named_before_earlier_scaled_one():
    # Row 5 is finite but not at |c| = 1 (a subnormal c); row 9 has a NaN part.  incidence
    # scans for non-finite parts only after the scaled values have turned out not finite,
    # and that scan still comes first, so row 9 is named with its own message.
    loop = alpha_with(9, c=[1.0, complex(0.0, math.nan), 0, 0])
    loop = with_sample(loop, 5, loop.samples[5].scaled(1e-320))
    for refuse in (loops.classify, lambda loop: geometry.incidence(loop.samples.c, loop.samples.d)):
        with pytest.raises(NonFiniteSample) as info:
            refuse(loop)
        assert info.value.index == 9
        assert str(info.value) == "sample 9 has a non-finite coefficient or offset"
    # without row 9, row 5 is named as not finite at |c| = 1
    with pytest.raises(NonFiniteSample, match="^sample 5 is not finite at \\|c\\| = 1$"):
        loops.classify(with_sample(loops.make_alpha_loop(4), 5, loop.samples[5]))


@pytest.mark.parametrize("data, cause", [
    ({"n": 3}, "KeyError"),
    ([1, 2], "TypeError"),
    ({"n": "three", "samples": []}, "ValueError"),
    ({"n": 3, "samples": [], "closure_lambda": []}, "IndexError"),
    ({"n": 1e400, "samples": []}, "OverflowError"),
])
def test_loop_from_dict_refuses_malformed_document(data, cause):
    with pytest.raises(MalformedLoopFile, match=f"^{cause}: "):
        loops.loop_from_dict(data)


@pytest.mark.parametrize("lam", [[1e400, 0], [math.nan, 0], [0, -1e400]])
def test_non_finite_closure_factor_refused(lam):
    # a NaN residual once passed the closure check, and the loop was
    # refused later as BranchAmbiguity
    data = loops.loop_to_dict(loops.make_alpha_loop(4, m=64))
    data["closure_lambda"] = lam
    loop = loops.loop_from_dict(data)
    for call in (loops.classify, loops.closure_scale, loops.reverse,
                 lambda loop: loops.concat(loop, loop)):
        with pytest.raises(NotClosed, match="finite and nonzero") as info:
            call(loop)
        assert info.value.index == 64


def test_concat_refuses_non_finite_junction_factor():
    a = loops.make_alpha_loop(4)
    # a NaN last sample makes the fitted junction factor NaN; a second
    # loop scaled into the subnormal range, or starting at an infinite
    # sample, makes it infinite or NaN
    nan_end = with_sample(a, len(a.samples) - 1, Hyperplane([math.nan, 0, 0, 0], 0))
    tiny = HyperplaneLoop(4, loops.LoopSamples(a.samples.c * 1e-320, a.samples.d * 1e-320),
                          a.closure_lambda)
    inf_start = with_sample(a, 0, Hyperplane([math.inf, 0, 0, 0], 0))
    for l1, l2 in ((nan_end, a), (a, tiny), (a, inf_start)):
        with pytest.raises(BadParameters, match="junction"):
            loops.concat(l1, l2)


def test_concat_refuses_infinite_last_row_as_not_closed():
    # the closure factors are fitted before the rows of the second loop are
    # scaled, so an infinite last row is refused, under the suite's
    # RuntimeWarning-as-error filter, without "invalid value encountered"
    a = loops.make_alpha_loop(4)
    last = len(a.samples) - 1
    c = a.samples.c[last].copy()
    c[0] = math.inf
    bad = with_sample(a, last, Hyperplane(c, a.samples.d[last]))
    with pytest.raises(NotClosed, match=f"at sample {last} exceeds"):
        loops.concat(a, bad)


def test_concat_scales_non_finite_middle_row_quietly():
    # under the suite's RuntimeWarning-as-error filter: the row of the second loop is
    # scaled without "invalid value encountered in multiply", and classify names it
    a = loops.make_alpha_loop(4)
    c = a.samples.c[10].copy()
    c[0] = math.inf
    bad = with_sample(a, 10, Hyperplane(c, a.samples.d[10]))
    joined = loops.concat(a, bad)
    index = len(a.samples) + 9
    with pytest.raises(NonFiniteSample, match=f"^sample {index} has a non-finite") as info:
        loops.classify(joined)
    assert info.value.index == index


def test_concat_refuses_row_scaled_to_zero():
    # the junction factor (about 1e-300) underflows a small row of the second loop to zero;
    # concat checks the rows it scaled and names that row at its place in the joined loop
    a = loops.make_alpha_loop(4, m=64)
    rows = np.array(a.samples.rows) * 1e300
    rows[20] = a.samples.rows[20] * 1e-30
    big = HyperplaneLoop(4, loops.LoopSamples(rows[:, :4], rows[:, 4]), a.closure_lambda)
    index = len(a.samples) + 19
    with pytest.raises(ZeroCoefficientVector, match=f"^coefficient vector of sample {index} is zero$"):
        loops.concat(a, big)


def test_closure_fits_once_per_loop(monkeypatch):
    calls = collections.Counter()
    fit = loops._scale_fit

    def counted(*args):
        calls["fit"] += 1
        return fit(*args)
    monkeypatch.setattr(loops, "_scale_fit", counted)
    pieces = generator_pieces(4, 64)
    draw = ["a", "b^-1", "k", "a^-1"]
    for name in draw:
        loops.closure_scale(pieces[name])
    calls.clear()
    whole = pieces[draw[0]]
    for name in draw[1:]:
        whole = loops.concat(whole, pieces[name])
    assert loops.classify(whole).word == word("a b^-1 k a^-1")
    # one junction fit per concat, one closure fit per new loop, none for the warm pieces
    assert calls["fit"] == 6
    calls.clear()
    loops.closure_scale(whole)
    loops.closure_scale(whole, 1e-6)
    assert calls["fit"] == 0


def checked_concat(l1, l2):
    """concat through the public constructor, which checks every row again, with the
    closure factors fitted on fresh loops: junction, closures, then shape and zero rows."""
    tol = geometry.default_tol()
    r1, r2 = l1.samples.rows, l2.samples.rows
    mu, residual, size = loops._scale_fit(r2[0], r1[-1])
    if mu == 0 or not residual <= tol * abs(mu) * size:
        raise BadParameters("loops do not share their junction hyperplane")
    lam = 1.0
    for loop in (l1, l2):
        lam *= loops.closure_scale(HyperplaneLoop(loop.n, loop.samples, loop.closure_lambda))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate((r1, mu * r2[1:]))
    return HyperplaneLoop(l1.n, loops.LoopSamples(rows[:, :-1], rows[:, -1]), lam)


def exact_outcome(call):
    """classify's word, matrices and diagnostics as float.hex, or the refusal's class, index
    and message, of the loop that call builds (or the refusal of building it)."""
    try:
        result = loops.classify(call())
    except QmonoError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)
    d = result.diagnostics
    return (str(result.word), result.matrix_even.rows(), result.matrix_odd.rows(),
            float(d.min_discriminant_margin).hex(), float(d.max_relative_step).hex(),
            d.crossing_count, d.branch_flip)


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
    return HyperplaneLoop(n, loops.LoopSamples(rows[:, :n], rows[:, n]), piece.closure_lambda)


@settings(max_examples=240, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 5),
       names=st.lists(st.sampled_from(["a", "b", "k", "a^-1", "b^-1", "k^-1"]), min_size=1,
                      max_size=6),
       kind=st.sampled_from(["none", "nan", "tangent", "subnormal", "zero-scaled"]),
       which=st.integers(0, 5), where=st.integers(0, 2**16))
def test_concat_chain_matches_checked_loops(n, names, kind, which, where):
    pieces = [cached_pieces(n, 64)[name] for name in names]
    if kind != "none":
        i = which % len(pieces)
        pieces[i] = mutated_piece(pieces[i], kind, where)

    def chain(join):
        whole = pieces[0]
        for piece in pieces[1:]:
            whole = join(whole, piece)
        return whole

    outcome = exact_outcome(lambda: chain(loops.concat))
    event(f"{kind}: " + (outcome[0].__name__ if isinstance(outcome[0], type) else "classified"))
    assert exact_outcome(lambda: chain(checked_concat)) == outcome
    try:
        whole = chain(loops.concat)
    except QmonoError:
        return  # refused while joining, by both
    assert exact_outcome(lambda: loops.loop_from_dict(loops.loop_to_dict(whole))) == outcome


# --- kappa_bit and fiber_word are views of classify -----------------------

def assert_views_of_classify(loop):
    """kappa_bit and fiber_word give the parts of classify's word, or its refusal with the
    same class, index and message; returns classify's result or refusal."""
    def outcome(call):
        try:
            return call(loop)
        except QmonoError as exc:
            return type(exc), getattr(exc, "index", None), str(exc)
    whole = outcome(loops.classify)
    if isinstance(whole, loops.ClassificationResult):
        parts = whole.word.kappa_bit, whole.word.free_part
    else:
        parts = whole, whole
    assert (outcome(loops.kappa_bit), outcome(loops.fiber_word)) == parts
    return whole


# Loops that kappa_bit or fiber_word once answered while classify refused them: kappa_bit
# gave 0 on all but open-end, fiber_word gave a on open-end and () on constant-1e+160 and
# constant-1e+250.  The constant loops' fiber path runs from 0 out through +1.
VIEW_PROBES = {
    "tangent-64": (lambda: alpha_with(64, d=1.0), NotGeneralPosition, 64),
    "open-end": (lambda: HyperplaneLoop(4, alpha_with(256, d=0.5).samples), NotClosed, 256),
    **{f"constant-{d:.0e}": (functools.partial(line_loop, [d] * 65), PunctureCollision, 0)
       for d in (1e100, 1e160, 1e250)},
}
REFUSALS = {**REJECTIONS, **VIEW_PROBES}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_views_refuse_what_classify_refuses(name):
    make, error, index = REFUSALS[name]
    assert assert_views_of_classify(make())[:2] == (error, index)


@settings(max_examples=240, deadline=None, derandomize=True, database=None)
@given(**composites, mutation=st.sampled_from(["none", "tangent", "open", "puncture"]),
       where=st.integers(0, 2**16), inferred=st.booleans())
def test_kappa_bit_and_fiber_word_are_views_of_classify(n, letters, scale, noise, seed,
                                                        mutation, where, inferred):
    rows, closure_lambda = composite_rows(n, letters, noise, seed)
    i = where % len(rows)
    if mutation == "tangent":
        rows[i, n] = np.sqrt(np.sum(rows[i, :n] ** 2))  # d^2 = q
    elif mutation == "open":
        rows[-1, n] += 0.5
    elif mutation == "puncture":
        # The end rows start at c = e1, so w_0 = d_0: the segment from 0 runs through +-1.
        rows[0, n] = 2.0 if i % 2 else -3.0
        rows[-1, n] = closure_lambda * rows[0, n]
    rows *= scale
    loop = HyperplaneLoop(n, loops.LoopSamples(rows[:, :n], rows[:, n]),
                          None if inferred else closure_lambda)
    whole = assert_views_of_classify(loop)
    event(f"{mutation}: " + (whole[0].__name__ if isinstance(whole, tuple) else "classified"))


def test_classify_extreme_scale_sample():
    # |c|^2 underflows at 1e-300 and overflows at 1e200; the hyperplane
    # is the same and so is the class
    alpha, beta = loops.make_alpha_loop(4), loops.make_beta_loop(4)
    for factor in (1e-300, 1e200):
        loop = with_sample(alpha, 100, alpha.samples[100].scaled(factor))
        assert loops.classify(loop).word == word("a")
        # the closure and junction fits at that scale: the fitted factor
        # was once NaN, and the junction refused
        assert loops.classify(scaled_loop(alpha, factor, None)).word == word("a")
        joined = loops.concat(alpha, scaled_loop(beta, factor, 1.0))
        assert loops.classify(joined).word == word("a b")


def test_branch_rejection_index():
    with pytest.raises(UndersampledLoop) as info:
        loops.continue_sqrt_branch([1.0, 1.0, -1.0])
    assert info.value.index == 1
    with pytest.raises(AsymptoticSample) as info:
        loops.continue_sqrt_branch([1.0, 1.0, 1e-12])
    assert info.value.index == 2


@pytest.mark.parametrize("value", ["nan", "-1", "0", "1", "inf", "abc"])
def test_bad_tolerance_env_refused(monkeypatch, value):
    monkeypatch.setenv("QMONO_TOL", value)
    with pytest.raises(BadTolerance):
        loops.classify(loops.make_alpha_loop(4))


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1.0, math.inf])
def test_bad_tolerance_argument_refused(tol):
    tangent = REJECTIONS["tangent"][0]()
    for call in (loops.classify, loops.kappa_bit, loops.fiber_word, loops.closure_scale,
                 lambda loop, tol: loops.concat(loop, loop, tol),
                 lambda loop, tol: loops.continue_sqrt_branch([1.0, 1.0], tol)):
        with pytest.raises(BadTolerance, match="tol must be"):
            call(tangent, tol=tol)


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("QMONO_TOL", "1e-6")
    assert loops.classify(loops.make_alpha_loop(4)).word == word("a")
