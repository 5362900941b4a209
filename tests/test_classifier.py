import cmath
import collections
import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qmono import geometry, group, loops
from qmono.cli import main
from qmono.errors import (
    AsymptoticSample,
    BadParameters,
    BadTolerance,
    BaseOnBranchCut,
    BranchAmbiguity,
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
from strategies import (PIECES, composite_rows, composites, far_circle_loop, generator_pieces,
                        line_loop, loop_of, mutated_piece, outcome, product)


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


def closing_tie_loop(closure_lambda):
    """64 samples running straight from c = (-2 - i, -1 - i, -i) to (-2 - i, -1, 1 - i), both
    with |c|^2 = 8 and a largest part of 2, so that q at |c| = 1 is exact at both ends, and
    d = 16i, which keeps the fiber path off the punctures at tol = 0.5."""
    t = np.arange(64)[:, None] / 63
    c0, c1 = np.array([-2 - 1j, -1 - 1j, -1j]), np.array([-2 - 1j, -1, 1 - 1j])
    return HyperplaneLoop(3, loops.LoopSamples(c0 + t * (c1 - c0), np.full(64, 16j)),
                          closure_lambda)


def test_branch_rejection_index():
    with pytest.raises(UndersampledLoop) as info:
        loops.continue_sqrt_branch([1.0, 1.0, -1.0])
    assert info.value.index == 1
    with pytest.raises(AsymptoticSample) as info:
        loops.continue_sqrt_branch([1.0, 1.0, 1e-12])
    assert info.value.index == 2
    # Each rule at its tie, a relative step of exactly 1 and |q| = tol, is refused; the
    # nearest float to the tie on the other side, toward q = 1, gets an answer.
    for last, tol, error, index, message in (
            (2.0, None, UndersampledLoop, 0, "relative step 1 >= 1 at sample 0"),
            (0.5, 0.5, AsymptoticSample, 1, "|q| = 0.5 at sample 1")):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            loops.continue_sqrt_branch([1.0, last], tol)
        assert info.value.index == index
        assert len(loops.continue_sqrt_branch([1.0, math.nextafter(last, 1.0)], tol)) == 2
    # The closing step at its tie: at |c| = 1, q runs from 0.25 + 0.75i to 0.5 + 0.25i, and
    # with closure_lambda = 1 the step back to q_0 is |-0.25 + 0.5i| = |q_63|, both exact at
    # tol = 0.5; one float below lambda = 1 the step is shorter and the loop gets an answer.
    with pytest.raises(BranchAmbiguity, match="^closing step 1 >= 1 at sample 63$") as info:
        loops.classify(closing_tie_loop(1.0), 0.5)
    assert info.value.index == 63
    assert loops.classify(closing_tie_loop(math.nextafter(1.0, 0.0)), 0.5).word == word("")


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
    letters = []
    for a, b in zip(path[:-1].tolist(), path[1:].tolist()):
        up = b.imag >= 0.0
        if (a.imag >= 0.0) == up:
            continue
        # Where [a, b] meets the real axis, in exact rational arithmetic, so that no
        # product or difference overflows however far out the segment lies.
        ia, ib = Fraction(a.imag), Fraction(b.imag)
        x = Fraction(a.real) + (Fraction(b.real) - Fraction(a.real)) * ia / (ia - ib)
        if abs(x) > 1:
            letters.append((ALPHA if x > 0 else BETA, 1 if up == (x > 0) else -1))
    return letters


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
# A short arc at modulus 10^k across one half-axis, from before it to after it or back, so
# that a crossing of the real axis lies far out.
arcs = st.tuples(st.just("arc"), st.floats(150.0, 307.0),
                 st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
                 st.floats(1e-3, 0.3), st.floats(1e-3, 0.3), st.booleans())
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
        elif kind == "arc":
            _, k, axis, before, after, back = piece
            ends = [10.0 ** k * cmath.exp(1j * (axis + offset)) for offset in (-before, after)]
            points += ends[::-1] if back else ends
        elif points:  # repeat: a zero-length segment
            points.append(points[-1])
    return np.array(points, dtype=complex)


@settings(max_examples=360)
@example(pieces=[("huge", 155.0, 0.0)], tol=1e-9)  # |seg|^2 overflows
@example(pieces=[("arc", 200.0, 0.0, 0.1, 0.25, False)], tol=1e-9)  # and so did the crossing
@given(pieces=st.lists(st.one_of(grazes, touches, fars, huges, arcs, repeats), min_size=1,
                       max_size=12),
       tol=st.sampled_from(TOLS))
def test_fiber_letters_match_all_segments_formula(pieces, tol):
    w = path_points(pieces, tol)
    if len(w) < 2:
        w = np.concatenate((w, [0.5j, -0.5j]))
    expected = outcome(lambda: fiber_letters_oracle(w, tol))
    assert outcome(lambda: loops._fiber_letters(w, tol)) == expected
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

@pytest.mark.parametrize("lam", [1e-3, 1e3])
@pytest.mark.parametrize("eps", [0.0, 3e-10])
def test_reverse_closes_when_loop_closes(lam, eps):
    # The alpha loop with row i scaled by lam^(i/256), so that it closes with factor lam, and
    # eps added to c[-1, 1], which is Hermitian-orthogonal to the first row.  A closure was once
    # measured against the first row and a junction against the fitted one; at lam = 1e-3 and
    # eps = 3e-10 the loop classified as a and its reverse was refused as NotClosed.
    rows = np.array(loops.make_alpha_loop(4, m=256).samples.rows)
    rows *= (lam ** (np.arange(257) / 256))[:, None]
    rows[-1, 1] += eps
    loop = loop_of(rows)
    forward = outcome(lambda: loops.classify(loop).word)
    backward = outcome(lambda: loops.classify(loops.reverse(loop)).word)
    # the closure residual, 3e-10 at |last row| = 1e-3, is past tol = 1e-9 of it
    if lam < 1.0 and eps > 0.0:
        assert forward[0] is backward[0] is NotClosed
    else:
        assert backward == group.invert(forward)


def test_reverse_of_product_is_inverse_product():
    # (a k)^-1 = k a^-1 = b^-1 k; reverse once started at the last row, -e1, and gave a^-1 k
    alpha, kappa = loops.make_alpha_loop(4), loops.make_kappa_loop(4)
    joined = loops.concat(alpha, kappa)
    assert loops.classify(joined).word == word("a k")
    assert loops.classify(loops.reverse(joined)).word == word("b^-1 k")


def test_reversed_kappa_then_alphas():
    # k a a a = b b b k: after k the punctures are swapped, and each alpha loop goes round the
    # other one; the product once classified as a a a k
    alpha, loop = loops.make_alpha_loop(4), loops.reverse(loops.make_kappa_loop(4))
    for _ in range(3):
        loop = loops.concat(loop, alpha)
    assert loops.classify(loop).word == word("b b b k")


def wide_range_loop(big, lam):
    """The 64-sample alpha loop with row 20 times big and the last row times lam, so that it
    closes with factor lam and its reverse divides row 20 (index 44 there) by lam."""
    rows = np.array(loops.make_alpha_loop(4, m=64).samples.rows)
    rows[20] *= big
    rows[-1] *= lam
    return loop_of(rows)


def test_reverse_leaves_overflowing_row_to_classify():
    # 1e300 / 1e-10 is past the largest float; reverse scales that row quietly and classify
    # refuses it, both under the suite's RuntimeWarning-as-error filter
    loop = wide_range_loop(1e300, 1e-10)
    assert loops.classify(loop).word == word("a")
    with pytest.raises(NonFiniteSample, match="^sample 44 ") as info:
        loops.classify(loops.reverse(loop))
    assert info.value.index == 44


def test_reverse_refuses_row_scaled_to_zero():
    # 1e-300 / 1e30 underflows to zero, which reverse refuses as concat does
    loop = wide_range_loop(1e-300, 1e30)
    assert loops.classify(loop).word == word("a")
    message = "^coefficient vector of sample 44 is zero$"
    with pytest.raises(ZeroCoefficientVector, match=message) as info:
        loops.reverse(loop)
    assert info.value.index == 44


def test_maker_parameter_validation():
    with pytest.raises(BadParameters):
        loops.make_alpha_loop(4, eps=1.5)
    # both ends of 0 < eps < 1 are refused, and the nearest floats inside build a loop
    for eps in (0.0, 1.0):
        with pytest.raises(BadParameters, match=f"^eps must be in \\(0, 1\\), got {eps}$"):
            loops.make_alpha_loop(4, eps=eps)
    for eps in (5e-324, math.nextafter(1.0, 0.0)):
        assert len(loops.make_alpha_loop(4, eps=eps).samples) == 257
    with pytest.raises(BadParameters):
        loops.make_beta_loop(4, m=10)
    with pytest.raises(BadParameters):
        loops.make_kappa_loop(4, m=10)


def test_concat_rejects_mismatched_junction():
    a = loops.make_alpha_loop(4)
    k3 = loops.make_kappa_loop(3)
    with pytest.raises(BadParameters):
        loops.concat(a, k3)
    # a last row Hermitian-orthogonal to the next loop's first row fits the junction factor 0
    e2 = HyperplaneLoop(4, loops.LoopSamples([[0, 1, 0, 0]] * 3, [0] * 3))
    with pytest.raises(BadParameters, match="junction"):
        loops.concat(e2, a)
    # The junction and the closure at their tie, residual = tol |mu| |u| with every term exact:
    # a last row e1 + 2^-20 e2 against a first row e1 at tol = 2^-20.  One float below it, both
    # are refused.
    e1, bent = np.eye(4)[0], np.eye(4)[0] + 2.0 ** -20 * np.eye(4)[1]
    ends_bent, starts_e1 = loop_of(np.array([bent, bent])), loop_of(np.array([e1, e1]))
    closes_bent = loop_of(np.array([e1, e1, bent]))
    tie = 2.0 ** -20
    assert len(loops.concat(ends_bent, starts_e1, tie).samples) == 3
    assert loops.closure_scale(closes_bent, tie) == 1.0
    with pytest.raises(BadParameters, match="junction"):
        loops.concat(ends_bent, starts_e1, math.nextafter(tie, 0.0))
    with pytest.raises(NotClosed, match="^closure residual 9.54e-07 at sample 2 exceeds"):
        loops.closure_scale(closes_bent, math.nextafter(tie, 0.0))


def test_loop_json_roundtrip(tmp_path):
    loop = loops.make_kappa_loop(5, m=128)
    data = loops.loop_to_dict(loop)
    back = loops.loop_from_dict(data)
    assert back.n == loop.n
    assert back.closure_lambda == loop.closure_lambda
    assert np.array_equal(back.samples.rows, loop.samples.rows)
    assert loops.classify(back).word == word("k")
    # through a file: the rows bit for bit, and a file that is not JSON refused with its path
    # in front of the cause
    path = tmp_path / "kappa.json"
    loops.save(loop, path)
    assert np.array_equal(loops.load(path).samples.rows, loop.samples.rows)
    path.write_text("{not json")
    with pytest.raises(MalformedLoopFile, match=f"^{re.escape(str(path))}: JSONDecodeError: "):
        loops.load(path)


# --- the array pass reproduces the per-sample classifier ----------------
#
# Word, crossing_count, branch_flip, min_discriminant_margin and
# max_relative_step as the earlier per-sample implementation (one
# Hyperplane.normalized() object per sample and stage) gave them.

def wobbly_loop(r, m=300):
    """A loop of n = 3 hyperplanes whose direction wobbles off e1."""
    u = (0.0, 0.3 + 0.2j, -0.1j)
    v = (0.2j, 0.5, 0.25 - 0.1j)
    rows = []
    for j in range(m + 1):
        t = 2 * math.pi * j / m
        c = [1.0 + 0.4 * math.sin(t) * x + 0.3 * (1 - math.cos(t)) * y for x, y in zip(u, v)]
        rows.append([*c, r * (1 - math.cos(t)) / 2 + 0.8j * math.sin(t)])
    return loop_of(np.array(rows), 1.0)


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
    with pytest.raises(ZeroCoefficientVector, match="sample 2") as info:
        HyperplaneLoop(3, loops.LoopSamples(c, np.zeros(4)))
    assert info.value.index == 2


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


# a junction of each ordered pair a b, b a, a k, k a, k b and k k
@example(n=4, letters="k b a b a k k a".split(), scale=1.0, noise=0.0, seed=0)
@given(**composites)
def test_classify_is_layout_independent(n, letters, scale, noise, seed):
    # Three layouts of the rows give the same result or the same refusal, and an unperturbed
    # composite gives the product of its pieces.  At scale -1j, q_0 = -1 lies on the cut of the
    # principal root that marks the punctures, and the loop is refused there, unless noise has
    # made a row tangent or asymptotic, which is refused first.
    rows, closure_lambda = composite_rows(n, letters, noise, seed)
    rows *= scale
    wide = np.zeros((3 * len(rows), 2 * n + 2), dtype=complex)
    wide[::3, ::2] = rows
    outcomes = {outcome(lambda: loops.classify(loop_of(layout, closure_lambda)))
                for layout in (np.ascontiguousarray(rows), np.asfortranarray(rows), wide[::3, ::2])}
    assert len(outcomes) == 1
    result = outcomes.pop()
    if scale == -1j:
        assert isinstance(result, tuple)
        assert result[:2] == (BaseOnBranchCut, 0) or result[0] is NotGeneralPosition
    elif noise == 0.0:
        assert result.word == product(letters)
    event(result[0].__name__ if isinstance(result, tuple) else "classified")


@given(n=st.integers(3, 5), letters=st.lists(st.sampled_from(PIECES), min_size=1, max_size=5),
       scaled=st.booleans(), sign=st.sampled_from([1, -1]), phase=st.floats(-1.52, 1.52),
       power=st.integers(-60, 60))
def test_reverse_is_equivariant(n, letters, scaled, sign, phase, power):
    # A composite of the pieces and their reverses, times a nonzero scalar when scaled, gives
    # the product of its pieces, or k product k when the scalar's real part is negative: that
    # swaps the punctures that the principal root labels, and k g k is sigma on g's free
    # part.  reverse gives the inverse class, and reversing twice gives the class back.  The
    # pieces start at e1, so q_0 is the scalar's square, here at least 0.1 rad from the
    # negative real axis, the branch cut of the principal root of q_0 that marks the punctures.
    rows, closure_lambda = composite_rows(n, letters, 0.0, 0)
    if scaled:
        rows *= sign * cmath.rect(2.0 ** power, phase)
    loop = loop_of(rows, closure_lambda)
    try:
        forward = loops.classify(loop).word
    except QmonoError as exc:
        event(type(exc).__name__)
        return
    flipped = scaled and sign == -1  # |phase| <= 1.52, so sign decides the real part's sign
    event("flipped" if flipped else "unflipped")
    assert forward == product(["k", *letters, "k"] if flipped else letters)
    assert loops.classify(loops.reverse(loop)).word == group.invert(forward)
    assert loops.classify(loops.reverse(loops.reverse(loop))).word == forward


def test_makers_refuse_small_dimension():
    for n in (-1, 0, 1, 2):
        for make in (loops.make_alpha_loop, loops.make_beta_loop, loops.make_kappa_loop,
                     loops.make_constant_loop):
            with pytest.raises(DimensionTooSmall):
                make(n)


# Sizes above the cap, refused before anything is allocated; at n = 3, m = 2^20 is the
# first one above it.  The tie there would take 64 MiB, so it is built with the cap lowered
# to 260: at n = 3, m = 64 gives 65 rows of 4 entries, exactly the cap, and m = 65 is refused.
@pytest.mark.parametrize("n, m", [(4, 10 ** 11), (10 ** 9, 256), (3, 2 ** 20), (3, 65)])
def test_makers_refuse_oversized_fixtures(monkeypatch, n, m):
    cap = 2 ** 22
    if m == 65:
        cap = 260
        monkeypatch.setattr(loops, "MAX_FIXTURE_ENTRIES", cap)
    assert (m + 1) * (n + 1) > loops.MAX_FIXTURE_ENTRIES == cap
    for make in (loops.make_alpha_loop, loops.make_beta_loop, loops.make_kappa_loop,
                 loops.make_constant_loop):
        with pytest.raises(BadParameters, match=f"^{m} samples in dimension {n} need "
                                                f"{(m + 1) * (n + 1)} entries, above "
                                                f"MAX_FIXTURE_ENTRIES = {cap}$"):
            make(n, m=m)
        if m == 65:
            assert len(make(n, m=64).samples) == 65


def test_makers_small_sample_counts():
    for make in (loops.make_alpha_loop, loops.make_kappa_loop):
        with pytest.raises(BadParameters, match="need at least 64 samples, got 63"):
            make(4, m=63)
    # The constant loop has no lower bound beyond two rows.
    assert loops.classify(loops.make_constant_loop(4, m=1)).word == word("")
    with pytest.raises(BadParameters, match="a loop needs at least two samples"):
        loops.make_constant_loop(4, m=0)


# --- every refusal names its first offending sample ---------------------

def with_sample(loop, i, c=None, d=None, factor=None):
    """loop with sample i given the coefficients c or the offset d, or times factor, in a
    copy of its rows."""
    rows = np.array(loop.samples.rows)
    if c is not None:
        rows[i, :-1] = c
    if d is not None:
        rows[i, -1] = d
    if factor is not None:
        rows[i] *= factor
    return loop_of(rows, loop.closure_lambda)


def scaled_loop(loop, factor, closure_lambda):
    """Every sample of loop times factor."""
    return loop_of(factor * loop.samples.rows, closure_lambda)


def scaled_alpha(factor):
    return scaled_loop(loops.make_alpha_loop(4), factor, 1.0)


def alpha_with(i, **sample):
    return with_sample(loops.make_alpha_loop(4), i, **sample)


e1 = [1.0, 0, 0]
# Each loop that classify refuses, with the error class and the sample index it names.
REFUSALS = {
    "tangent": (lambda: line_loop([t / 64 for t in range(65)] + [(64 - t) / 64 for t in range(1, 65)]),
                NotGeneralPosition, 64),
    "tangent-64": (lambda: alpha_with(64, d=1.0), NotGeneralPosition, 64),
    "nan-c": (lambda: alpha_with(100, c=[math.nan, 0, 0, 0]), NonFiniteSample, 100),
    "inf-d": (lambda: alpha_with(100, d=complex(math.inf, 0)), NonFiniteSample, 100),
    "nan-d-and-tangent": (lambda: with_sample(alpha_with(100, d=complex(0, math.nan)), 50,
                                              c=[1, 0, 0, 0], d=1.0),
                          NonFiniteSample, 100),
    "subnormal-c": (lambda: alpha_with(100, factor=1e-320), NonFiniteSample, 100),
    "open": (lambda: loop_of(loops.make_alpha_loop(3).samples.rows[:-40]), NotClosed, 216),
    "open-end": (lambda: loop_of(alpha_with(256, d=0.5).samples.rows), NotClosed, 256),
    # |v0|^2 overflows at 1e200; the closure fit once passed this loop
    "open-1e200": (lambda: scaled_loop(loops.make_alpha_loop(4), 1e200, 2.0), NotClosed, 256),
    "puncture": (lambda: line_loop([0, 0.4, 0.8, 1.2, 1.6, 1.2, 0.8, 0.4, 0]),
                 PunctureCollision, 3),
    # the fiber path runs from 0 out through +1
    **{f"constant-{d:.0e}": (functools.partial(line_loop, [d] * 65), PunctureCollision, 0)
       for d in (1e100, 1e160, 1e250)},
    "q-step": (lambda: line_loop([0] * 6, [e1, e1, e1, [1, 2j, 0], e1, e1]),
               UndersampledLoop, 2),
    "fiber-step": (lambda: line_loop([0, 0.3, 0.6, 0.6 + 0.5j, 0.3, 0]),
                   UndersampledLoop, 2),
    # |q| = 1e-5 at |c| = 1, so w = d / s is past the largest float at d = 1e308 (classify once
    # warned of the overflow and answered the identity) and about 2e305 at d = 1e303, where the
    # path from 0 runs out through +1
    **{f"near-isotropic-{d:.0e}": (functools.partial(line_loop, [d] * 65, [[1, 0.99999j, 0]] * 65),
                                   error, 0)
       for d, error in ((1e308, NonFiniteSample), (1e303, PunctureCollision))},
    # q_0 on the negative real axis, or 2e-12 |q_0| from it, the cut of the principal root that
    # marks the punctures: these once gave a at 1j and pi/2 - 1e-12, and b at -1j and
    # pi/2 + 1e-12
    **{f"branch-cut-{name}": (functools.partial(scaled_alpha, factor), BaseOnBranchCut, 0)
       for name, factor in (("1j", 1j), ("-1j", -1j),
                            ("pi/2-1e-12", cmath.exp(1j * (math.pi / 2 - 1e-12))),
                            ("pi/2+1e-12", cmath.exp(1j * (math.pi / 2 + 1e-12))))},
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_classify_rejection_index(name):
    # classify refuses with the class and index of the table, and names the sample in its
    # message
    make, error, index = REFUSALS[name]
    refusal = outcome(lambda: loops.classify(make()))
    assert refusal[:2] == (error, index)
    assert re.search(rf"\b(sample|segment) {index}\b", refusal[2])


# kappa_bit and fiber_word once answered loops that classify refused: kappa_bit gave 0 on
# tangent-64 and the three constant loops, fiber_word a on open-end and () on constant-1e+160
# and constant-1e+250.
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_views_refuse_what_classify_refuses(capsys, tmp_path, monkeypatch, name):
    # classify's two views, kappa_bit and fiber_word, and qmono classify, in text and JSON
    # mode, at the same default tolerance, refuse with classify's class, index and message.
    monkeypatch.delenv("QMONO_TOL", raising=False)
    make, error, _ = REFUSALS[name]
    loop = make()
    refusal = outcome(lambda: loops.classify(loop))
    for view in (loops.kappa_bit, loops.fiber_word):
        assert outcome(lambda: view(loop)) == refusal
    path = tmp_path / "loop.json"
    loops.save(loop, path)
    for mode in ((), ("--json",)):
        assert main(["classify", str(path), *mode]) == 1
        assert capsys.readouterr() == ("", f"error: {error.__name__}: {refusal[2]}\n")


def test_branch_cut_refused_at_its_tie():
    # Times exp(i(pi/2 - 1e-7)), q_0 lies 2e-7 |q_0| above the negative real axis, with
    # |q_0| = 1 exactly, so tol = |Im q_0| is the tie: refused there, and one float below it the
    # loop gets a, the word of the side Im q_0 > 0.  Off the cut the word stays: a at 1 and 2,
    # and b at -1, where q_0 = 1 and -(c, d) swaps the punctures that the principal root marks.
    loop = scaled_alpha(cmath.exp(1j * (math.pi / 2 - 1e-7)))
    inc = geometry.incidence(loop.samples.c[:1], loop.samples.d[:1])
    tol = abs(float(inc.q[0].imag))
    assert inc.size[0] == 1.0 and inc.q[0].real < 0.0
    with pytest.raises(BaseOnBranchCut, match=f"^q_0 of sample 0 is {tol:.3g} ") as info:
        loops.classify(loop, tol)
    assert info.value.index == 0
    assert loops.classify(loop, math.nextafter(tol, 0.0)).word == word("a")
    for factor, expected in ((1.0, "a"), (2.0, "a"), (-1.0, "b")):
        assert loops.classify(scaled_alpha(factor)).word == word(expected), factor


def test_raw_non_finite_row_named_before_earlier_scaled_one():
    # Row 5 is finite but not at |c| = 1 (a subnormal c); row 9 has a NaN part.  incidence
    # scans for non-finite parts only after the scaled values have turned out not finite,
    # and that scan still comes first, so row 9 is named with its own message.
    loop = alpha_with(9, c=[1.0, complex(0.0, math.nan), 0, 0])
    loop = with_sample(loop, 5, factor=1e-320)
    for refuse in (loops.classify, lambda loop: geometry.incidence(loop.samples.c, loop.samples.d)):
        with pytest.raises(NonFiniteSample) as info:
            refuse(loop)
        assert info.value.index == 9
        assert str(info.value) == "sample 9 has a non-finite coefficient or offset"
    # without row 9, row 5 is named as not finite at |c| = 1
    with pytest.raises(NonFiniteSample, match="^sample 5 is not finite at \\|c\\| = 1$"):
        loops.classify(alpha_with(5, factor=1e-320))


# A well-formed document of 4 coordinates, for the malformed variants below.
CONSTANT_DOCUMENT = loops.loop_to_dict(loops.make_constant_loop(4, m=2))


def sample_with(i, **entries):
    """CONSTANT_DOCUMENT with the entries of sample i replaced."""
    samples = [dict(s) for s in CONSTANT_DOCUMENT["samples"]]
    samples[i].update(entries)
    return {**CONSTANT_DOCUMENT, "samples": samples}


@pytest.mark.parametrize("data, cause", [
    ({"n": 3}, "KeyError"),
    ([1, 2], "TypeError"),
    ({"n": "three", "samples": []}, "ValueError"),
    ({"n": 3, "samples": [], "closure_lambda": []}, "IndexError"),
    ({"n": 1e400, "samples": []}, "OverflowError"),
    # n is read by int(), which once truncated 4.9 and parsed "4"
    ({**CONSTANT_DOCUMENT, "n": 4.9}, "ValueError"),
    ({**CONSTANT_DOCUMENT, "n": "4"}, "ValueError"),
    # closure_lambda was once read from its first two entries, a bool as a number
    ({**CONSTANT_DOCUMENT, "closure_lambda": [1, 0, 5]}, "ValueError"),
    ({**CONSTANT_DOCUMENT, "closure_lambda": [True, False]}, "ValueError"),
    ({"n": 3, "samples": [{"c": [[True, False], [False, False], [False, True]],
                           "d": [False, False]}] * 2}, "ValueError"),
    # a bool among numbers was once read as 0 or 1, and n = true as 1
    (sample_with(1, c=[[True, 0], [0, 0], [0, 0], [0, 0]]), "ValueError"),
    (sample_with(0, d=[False, False]), "ValueError"),
    ({**CONSTANT_DOCUMENT, "closure_lambda": [1, True]}, "ValueError"),
    ({**CONSTANT_DOCUMENT, "n": True}, "ValueError"),
])
def test_loop_from_dict_refuses_malformed_document(data, cause):
    with pytest.raises(MalformedLoopFile, match=f"^{cause}: "):
        loops.loop_from_dict(data)


def test_empty_coefficient_vector_refused_at_its_sample():
    data = loops.loop_to_dict(loops.make_alpha_loop(4, m=64))
    data["samples"][5]["c"] = []
    with pytest.raises(ZeroCoefficientVector, match="^sample 5 has dimension 0, expected 4$") as info:
        loops.loop_from_dict(data)
    assert info.value.index == 5


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
    nan_end = with_sample(a, len(a.samples) - 1, c=[math.nan, 0, 0, 0], d=0)
    tiny = scaled_loop(a, 1e-320, a.closure_lambda)
    inf_start = with_sample(a, 0, c=[math.inf, 0, 0, 0], d=0)
    # the smallest normal float is the least first row a fit takes; one float below it, the
    # largest subnormal, is refused
    smallest_normal = float(np.finfo(float).tiny)
    below = scaled_loop(a, math.nextafter(smallest_normal, 0.0), a.closure_lambda)
    for l1, l2 in ((nan_end, a), (a, tiny), (a, inf_start), (a, below)):
        with pytest.raises(BadParameters, match="junction"):
            loops.concat(l1, l2)
    joined = loops.concat(a, scaled_loop(a, smallest_normal, a.closure_lambda))
    assert loops.classify(joined).word == word("a a")


def test_concat_refuses_infinite_last_row_as_not_closed():
    # the closure factors are fitted before the rows of the second loop are
    # scaled, so an infinite last row is refused, under the suite's
    # RuntimeWarning-as-error filter, without "invalid value encountered"
    a = loops.make_alpha_loop(4)
    last = len(a.samples) - 1
    bad = with_sample(a, last, c=[math.inf, *a.samples.c[last, 1:]])
    with pytest.raises(NotClosed, match=f"at sample {last} exceeds"):
        loops.concat(a, bad)


def test_infinite_closure_residual_refused_at_overflowing_size():
    # closure_lambda = 1e308 on the first row (1, 1, 1, 1 | 0) makes the size |lambda| |u| = 2e308
    # overflow, and an infinite last entry makes the residual infinite too, without a warning;
    # inf <= tol * inf holds, and the loop closes only if the residual is also finite
    c = np.ones((3, 4), dtype=complex)
    c[-1, 0] = math.inf
    loop = HyperplaneLoop(4, loops.LoopSamples(c, np.zeros(3)), 1e308)
    for call in (loops.closure_scale, loops.reverse):
        with pytest.raises(NotClosed, match="^closure residual inf at sample 2 exceeds tolerance$"):
            call(loop)
    # lambda u itself past the largest float, 1e300 times rows at 1e200: refused the same way,
    # under the suite's RuntimeWarning-as-error filter, with no overflow warning
    far = scaled_loop(loops.make_alpha_loop(4, m=64), 1e200, 1e300)
    for call in (loops.closure_scale, loops.reverse, loops.classify):
        with pytest.raises(NotClosed, match="^closure residual inf at sample 64 exceeds tolerance$"):
            call(far)


def test_concat_scales_non_finite_middle_row_quietly():
    # under the suite's RuntimeWarning-as-error filter: the row of the second loop is
    # scaled without "invalid value encountered in multiply", and classify names it
    a = loops.make_alpha_loop(4)
    bad = with_sample(a, 10, c=[math.inf, *a.samples.c[10, 1:]])
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
    big = loop_of(rows, a.closure_lambda)
    index = len(a.samples) + 19
    message = f"^coefficient vector of sample {index} is zero$"
    with pytest.raises(ZeroCoefficientVector, match=message) as info:
        loops.concat(a, big)
    assert info.value.index == index


def test_closure_fits_once_per_loop(monkeypatch):
    calls = collections.Counter()

    def count(name):
        fn = getattr(loops, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(loops, name, counted)
    count("_frame")
    count("_scale_fit")
    pieces = generator_pieces(4, 64)
    draw = ["a", "b^-1", "k", "a^-1"]
    # copies with nothing cached yet
    cold = {name: HyperplaneLoop(4, pieces[name].samples, pieces[name].closure_lambda)
            for name in draw}
    calls.clear()
    for name in draw:
        loops.closure_scale(cold[name])
    assert calls == {"_frame": 4, "_scale_fit": 4}
    calls.clear()
    whole = cold[draw[0]]
    for name in draw[1:]:
        whole = loops.concat(whole, cold[name])
    assert loops.classify(whole).word == word("a b^-1 k a^-1")
    # one junction fit per concat, one closure fit per new loop, none for the warm pieces;
    # no frame: the junctions read the pieces' and each joined loop takes its first loop's
    assert calls == {"_scale_fit": 6}
    assert whole._head_frame is cold[draw[0]]._head_frame
    calls.clear()
    loops.closure_scale(whole)
    loops.closure_scale(whole, 1e-6)
    assert not calls


def checked_concat(l1, l2):
    """concat through the public constructor, which checks every row again, with the
    closure factors fitted on fresh loops and the junction on a fresh frame: junction,
    closures, then shape and zero rows."""
    tol = geometry.default_tol()
    r1, r2 = l1.samples.rows, l2.samples.rows
    mu, residual, size = loops._scale_fit(loops._frame(r2[0]), r1[-1])
    if mu == 0 or not residual <= tol * size:
        raise BadParameters("loops do not share their junction hyperplane")
    lam = 1.0
    for loop in (l1, l2):
        lam *= loops.closure_scale(HyperplaneLoop(loop.n, loop.samples, loop.closure_lambda))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate((r1, mu * r2[1:]))
    return loop_of(rows, lam)


# a junction refused as BadParameters, and a NaN end row refused as NotClosed at index 64
@example(n=4, names=["a", "b"], kind="subnormal", which=1, where=0)
@example(n=4, names=["a", "b"], kind="nan", which=1, where=64)
@settings(max_examples=240)
@given(n=st.integers(3, 5), names=st.lists(st.sampled_from(PIECES), min_size=1, max_size=6),
       kind=st.sampled_from(["none", "nan", "tangent", "subnormal", "zero-scaled"]),
       which=st.integers(0, 5), where=st.integers(0, 2**16))
def test_concat_chain_matches_checked_loops(n, names, kind, which, where):
    pieces = [generator_pieces(n, 64)[name] for name in names]
    if kind != "none":
        i = which % len(pieces)
        pieces[i] = mutated_piece(pieces[i], kind, where)

    def chain(join):
        whole = pieces[0]
        for piece in pieces[1:]:
            whole = join(whole, piece)
        return whole

    expected = outcome(lambda: loops.classify(chain(loops.concat)))
    event(f"{kind}: " + (expected[0].__name__ if isinstance(expected, tuple) else "classified"))
    assert outcome(lambda: loops.classify(chain(checked_concat))) == expected
    whole = outcome(lambda: chain(loops.concat))
    if isinstance(whole, HyperplaneLoop):  # else refused while joining, by both
        back = loops.loop_from_dict(loops.loop_to_dict(whole))
        assert outcome(lambda: loops.classify(back)) == expected


def test_classify_extreme_scale_sample():
    # |c|^2 underflows at 1e-300 and overflows at 1e200; the hyperplane
    # is the same and so is the class
    alpha, beta = loops.make_alpha_loop(4), loops.make_beta_loop(4)
    for factor in (1e-300, 1e200):
        loop = with_sample(alpha, 100, factor=factor)
        assert loops.classify(loop).word == word("a")
        # the closure and junction fits at that scale: the fitted factor
        # was once NaN, and the junction refused
        assert loops.classify(scaled_loop(alpha, factor, None)).word == word("a")
        joined = loops.concat(alpha, scaled_loop(beta, factor, 1.0))
        assert loops.classify(joined).word == word("a b")


def orthogonal_end_loop():
    """64 samples of c = (1, 0.5i, 0, 0) and d = 0.1, the last c moved by 1e-4 (0.5i, 1, 0, 0),
    which is Hermitian-orthogonal to c, so that the closure fit cannot absorb it."""
    c = np.tile([1.0, 0.5j, 0.0, 0.0], (64, 1))
    c[-1] += 1e-4 * np.array([0.5j, 1.0, 0.0, 0.0])
    return HyperplaneLoop(4, loops.LoopSamples(c, np.full(64, 0.1)))


@pytest.mark.parametrize("tol, outcome", [
    (1e-3, ("", "0.000267")),
    (1e-9, (NotClosed, 63, "closure residual 0.0001 at sample 63 exceeds tolerance")),
])
def test_branch_closes_within_tolerance(tol, outcome):
    # At tol = 1e-3 the loop closes, and its branch ends 1.3e-4 in relative terms from
    # +lambda s_0, a closing q-step of about 2.7e-4; it was once refused as BranchAmbiguity,
    # by a match of the endpoint to +-lambda s_0 within 1e-6.  At 1e-9 it does not close.
    try:
        result = loops.classify(orthogonal_end_loop(), tol)
    except QmonoError as exc:
        assert (type(exc), exc.index, str(exc)) == outcome
    else:
        assert (str(result.word), f"{result.diagnostics.max_relative_step:.3g}") == outcome


def half_turn_loop():
    """64 samples of c = (1, 0.999i, 0, 0) + delta (0.999i, 1, 0, 0) and d = 10, where q = c.c
    makes almost a half-turn about 0 from q_0 = 1 - 0.999^2, inside a closure tolerance of 5e-4:
    delta moves along (0.999i, 1, 0, 0), which is Hermitian-orthogonal to c_0."""
    t = np.arange(64) / 63
    q0 = 1 - 0.999 ** 2
    delta = q0 * (np.exp(1j * math.pi * 0.999 * t) - 1) / (4j * 0.999)
    c = np.zeros((64, 4), dtype=complex)
    c[:, 0], c[:, 1] = 1 + 0.999j * delta, 0.999j + delta
    return HyperplaneLoop(4, loops.LoopSamples(c, np.full(64, 10.0)))


@pytest.mark.parametrize("tol, error, message", [
    (5e-4, BranchAmbiguity, "closing step 2 >= 1 at sample 63"),
    (1e-9, NotClosed, "closure residual 0.001 at sample 63 exceeds tolerance"),
])
def test_branch_ambiguity_refused(tol, error, message):
    # At tol = 5e-4 the loop closes, but the closing step from q_63 to lambda^2 q_0 is a
    # half-turn, past the q-step rule's limit of 1; at 1e-9 it does not close.
    with pytest.raises(error) as info:
        loops.classify(half_turn_loop(), tol)
    assert (type(info.value), info.value.index, str(info.value)) == (error, 63, message)


@pytest.mark.parametrize("value", ["nan", "-1", "0", "1", "inf", "abc"])
def test_bad_tolerance_env_refused(monkeypatch, value):
    # qmono classify hands the QMONO_TOL string to classify as tol, which refuses it there;
    # the variable itself, read by no library call, leaves the default tolerance in place
    monkeypatch.setenv("QMONO_TOL", value)
    alpha = loops.make_alpha_loop(4)
    with pytest.raises(BadTolerance, match=re.escape(f"got {value!r}")):
        loops.classify(alpha, value)
    assert loops.classify(alpha).word == word("a")


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1.0, math.inf])
def test_bad_tolerance_argument_refused(tol):
    tangent = REFUSALS["tangent"][0]()
    for call in (loops.classify, loops.kappa_bit, loops.fiber_word, loops.closure_scale,
                 lambda loop, tol: loops.concat(loop, loop, tol),
                 lambda loop, tol: loops.continue_sqrt_branch([1.0, 1.0], tol)):
        with pytest.raises(BadTolerance, match="tol must be"):
            call(tangent, tol=tol)


def test_library_ignores_tolerance_env(monkeypatch):
    # QMONO_TOL is a setting of the command line only; at 1e-3 the orthogonal-end loop
    # would close and classify as the identity, not be refused as NotClosed
    h = Hyperplane([1.0, 0.5j, 0.0], 0.25)
    alpha, kappa = loops.make_alpha_loop(4), loops.make_kappa_loop(4)
    calls = [lambda: outcome(lambda: loops.classify(alpha)),
             lambda: outcome(lambda: loops.classify(orthogonal_end_loop())),
             lambda: geometry.default_tol(), lambda: geometry.discriminant_margin(h),
             lambda: (geometry.is_tangent(h), geometry.is_asymptotic(h),
                      geometry.in_general_position(h)),
             lambda: loops.closure_scale(kappa), lambda: loops.kappa_bit(kappa),
             lambda: loops.fiber_word(alpha),
             lambda: loops.continue_sqrt_branch([1.0, 0.9 + 0.3j, 0.7 + 0.6j]),
             lambda: loops.loop_to_dict(loops.concat(kappa, loops.reverse(kappa)))]
    monkeypatch.delenv("QMONO_TOL", raising=False)
    unset = [call() for call in calls]
    for value in ("abc", "nan", "1e-3"):
        monkeypatch.setenv("QMONO_TOL", value)
        assert [call() for call in calls] == unset


@pytest.mark.parametrize("r", [10.0, 1e100, 1e154, 1e155, 1e160, 1e200, 1e250, 1e300])
def test_far_fiber_crossings_give_identity(r):
    # Past r = 1e154 the crossing points were once computed at full scale, where a product
    # overflowed, with a warning, and r = 1e200 and on gave a^-1 b^-1.
    result = loops.classify(far_circle_loop(r))
    assert (str(result.word), result.diagnostics.crossing_count) == ("", 2)
