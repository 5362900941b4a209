import cmath
import math
import random

import numpy as np
import pytest

from qmono import group, loops
from qmono.errors import (
    AsymptoticSample,
    BadParameters,
    BadTolerance,
    DimensionTooSmall,
    NonFiniteSample,
    NotClosed,
    NotGeneralPosition,
    PunctureCollision,
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
    # d-path runs straight through the puncture at w = +1
    c = [1.0, 0, 0]
    ds = [2.0 * t / 64 for t in range(65)] + [2.0 * (64 - t) / 64 for t in range(1, 65)]
    loop = HyperplaneLoop(3, tuple(Hyperplane(c, d) for d in ds), closure_lambda=1.0)
    with pytest.raises(PunctureCollision):
        loops.fiber_word(loop)


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
    assert loops.classify(loops.make_kappa_loop(4)).word == word("k")
    assert loops.kappa_bit(loops.make_kappa_loop(4)) == 1
    assert loops.fiber_word(loops.make_alpha_loop(4)) == ((ALPHA, 1),)
    a, b = loops.make_alpha_loop(4, m=128), loops.make_beta_loop(4, m=128)
    k, e = loops.make_kappa_loop(4, m=128), loops.make_constant_loop(4)
    whole = loops.concat(loops.concat(loops.concat(a, loops.reverse(b)), k), e)
    back = loops.loop_from_dict(loops.loop_to_dict(whole))
    assert loops.classify(back).word == word("a b^-1 k")
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


def test_makers_refuse_small_dimension():
    for n in (-1, 0, 1, 2):
        for make in (loops.make_alpha_loop, loops.make_beta_loop, loops.make_kappa_loop,
                     loops.make_constant_loop):
            with pytest.raises(DimensionTooSmall):
                make(n)


# --- every refusal names its first offending sample ---------------------

def line_loop(ds, cs=None):
    cs = cs or [[1.0, 0, 0]] * len(ds)
    return HyperplaneLoop(3, tuple(Hyperplane(c, d) for c, d in zip(cs, ds)),
                          closure_lambda=1.0)


def with_sample(loop, i, h):
    samples = list(loop.samples)
    samples[i] = h
    return HyperplaneLoop(loop.n, tuple(samples), loop.closure_lambda)


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
    "puncture": (lambda: line_loop([0, 0.4, 0.8, 1.2, 1.6, 1.2, 0.8, 0.4, 0]),
                 PunctureCollision, 3),
    "q-step": (lambda: line_loop([0] * 6, [e1, e1, e1, [1, 2j, 0], e1, e1]),
               UndersampledLoop, 2),
    "fiber-step": (lambda: line_loop([0, 0.3, 0.6, 0.6 + 0.5j, 0.3, 0]),
                   UndersampledLoop, 2),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))
    if name == "subnormal-c" else name for name in sorted(REJECTIONS)])
def test_classify_rejection_index(name):
    make, error, index = REJECTIONS[name]
    with pytest.raises(error) as info:
        loops.classify(make())
    assert info.value.index == index
    assert f"{index}" in str(info.value)


def test_classify_extreme_scale_sample():
    # |c|^2 underflows at 1e-300 and overflows at 1e200; the hyperplane
    # is the same and so is the class
    for factor in (1e-300, 1e200):
        loop = loops.make_alpha_loop(4)
        loop = with_sample(loop, 100, loop.samples[100].scaled(factor))
        assert loops.classify(loop).word == word("a")


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
