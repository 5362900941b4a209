import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import group
from qmono.errors import MalformedWord
from qmono.group import ALPHA, BETA, KAPPA, GroupWord, IDENTITY
from qmono.selftest import random_word

A, Ai = (ALPHA, 1), (ALPHA, -1)
B, Bi = (BETA, 1), (BETA, -1)
K = (KAPPA, 1)


def test_free_reduce_cancellation():
    assert group.free_reduce([A, Ai]) == ()
    assert group.free_reduce([A, B, Bi, A]) == (A, A)
    assert group.free_reduce([Bi]) == (Bi,)


def test_free_reduce_idempotent():
    rng = random.Random(1)
    for _ in range(200):
        letters = [(rng.choice((ALPHA, BETA)), rng.choice((1, -1)))
                   for _ in range(rng.randrange(15))]
        once = group.free_reduce(letters)
        assert group.free_reduce(once) == once


def test_sigma_swaps_letterwise():
    assert group.sigma([A]) == (B,)
    assert group.sigma([]) == ()
    assert group.sigma([A, Bi]) == (B, Ai)


def test_sigma_involution():
    rng = random.Random(2)
    for _ in range(100):
        w = group.free_reduce([(rng.choice((ALPHA, BETA)), rng.choice((1, -1)))
                               for _ in range(10)])
        assert group.sigma(group.sigma(w)) == w


def test_normalize_relations():
    # k a = b k and k^2 = 1, as word identities
    assert group.normalize([K, A]) == GroupWord((B,), 1)
    assert group.normalize([K, A]) == group.normalize([B, K])
    assert group.normalize([K, K]) == IDENTITY
    assert group.normalize([A, K, B, K]) == GroupWord((A, A), 0)


def test_normalize_idempotent_on_normal_forms():
    rng = random.Random(3)
    for _ in range(300):
        g = random_word(rng)
        assert group.normalize(g.letters()) == g


def test_multiply():
    g = random_word(random.Random(4))
    assert group.multiply(IDENTITY, g) == g
    assert group.multiply(g, IDENTITY) == g
    assert group.multiply(GroupWord((A,), 1), GroupWord((A,), 0)) == GroupWord((A, B), 1)


def test_multiply_inverse_gives_identity():
    rng = random.Random(5)
    for _ in range(300):
        g = random_word(rng)
        assert group.multiply(g, group.invert(g)) == IDENTITY
        assert group.multiply(group.invert(g), g) == IDENTITY


def test_associativity():
    rng = random.Random(6)
    for _ in range(300):
        g, h, k = (random_word(rng) for _ in range(3))
        assert group.multiply(group.multiply(g, h), k) == \
            group.multiply(g, group.multiply(h, k))


def test_invert_examples():
    assert group.invert(GroupWord((A,), 0)) == GroupWord((Ai,), 0)
    assert group.invert(GroupWord((), 1)) == GroupWord((), 1)
    assert group.invert(GroupWord((A,), 1)) == GroupWord((Bi,), 1)


def test_parse_and_format():
    assert group.parse_word("k a") == GroupWord((B,), 1)
    assert group.parse_word("") == IDENTITY
    assert group.format_word(GroupWord((Ai,), 1)) == "a^-1 k"
    assert group.parse_word("k^-1") == GroupWord((), 1)


def test_parse_format_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        g = random_word(rng)
        assert group.parse_word(group.format_word(g)) == g


@pytest.mark.parametrize("text", ["x", "a^2", "k^2", "a^", "ab"])
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedWord):
        group.parse_word(text)


def test_kappa_bit_detects_free_subgroup():
    # An element lies in the image of F2 iff its kappa bit is 0.
    rng = random.Random(8)
    for _ in range(200):
        raw = [(rng.choice((ALPHA, BETA, KAPPA)), 1) for _ in range(rng.randrange(12))]
        k_count = sum(1 for gen, _ in raw if gen == KAPPA)
        assert group.normalize(raw).kappa_bit == k_count % 2


# --- refusals, with the messages of the letter-by-letter checks -----------

@pytest.mark.parametrize("raw, message", [
    ([("c", 1)], "not a free generator: 'c'"),
    ([("a", 2)], "exponent must be +1 or -1, got 2"),
    ([("k", 0)], "k exponent must be +1 or -1, got 0"),
    ([A, ["a", 2], B], "exponent must be +1 or -1, got 2"),
    ([A, ["x", 1], B], "not a free generator: 'x'"),
    ([K, "ab"], "exponent must be +1 or -1, got 'b'"),
], ids=["bad-generator", "bad-exponent", "bad-k-exponent", "list-letter",
        "list-generator", "string-letter"])
def test_normalize_refusal_messages(raw, message):
    with pytest.raises(MalformedWord) as info:
        group.normalize(raw)
    assert str(info.value) == message


def test_normalize_odd_letters():
    # a list letter equal to a valid one is read as that letter; a letter
    # with three entries is not unpacked
    assert group.normalize([A, ["a", 1], A]) == GroupWord((A, A, A))
    assert group.normalize([K, ["a", -1]]) == GroupWord((Bi,), 1)
    with pytest.raises(ValueError, match="too many values to unpack"):
        group.normalize([A, ("a", 1, 0)])


@pytest.mark.parametrize("letters, message", [
    ([K], "not a free generator: 'k'"),
    ([A, ("a", 0)], "exponent must be +1 or -1, got 0"),
])
def test_free_reduce_refusal_messages(letters, message):
    with pytest.raises(MalformedWord) as info:
        group.free_reduce(letters)
    assert str(info.value) == message


@pytest.mark.parametrize("text, outcome", [
    ("a^+1", GroupWord((A,))),
    ("a^01", GroupWord((A,))),
    ("k^-01", GroupWord((), 1)),
    ("b^-1 k^+1 b", GroupWord((Bi, A), 1)),
    ("a^", "missing exponent in token: 'a^'"),
    ("ab", "unknown token: 'ab'"),
    ("a^2", "exponent must be +1 or -1 in 'a^2'"),
    ("k^2", "exponent must be +1 or -1 in 'k^2'"),
    ("x", "unknown token: 'x'"),
    ("^1", "unknown token: '^1'"),
    ("a^1.0", "bad exponent in token: 'a^1.0'"),
    ("a^-1^1", "bad exponent in token: 'a^-1^1'"),
])
def test_parse_word_table(text, outcome):
    if isinstance(outcome, GroupWord):
        assert group.parse_word(text) == outcome
        return
    with pytest.raises(MalformedWord) as info:
        group.parse_word(text)
    assert str(info.value) == outcome


@pytest.mark.parametrize("free, bit, message", [
    ((A, Ai), 0, "free_part is not freely reduced"),
    ((("a", 2),), 0, "exponent must be +1 or -1, got 2"),
    ((K,), 0, "not a free generator: 'k'"),
    ((), 2, "kappa_bit must be 0 or 1, got 2"),
])
def test_public_constructor_checks(free, bit, message):
    with pytest.raises(MalformedWord) as info:
        GroupWord(free, bit)
    assert str(info.value) == message


def test_results_equal_publicly_built_words():
    rng = random.Random(9)
    for _ in range(200):
        g, h = random_word(rng, 40), random_word(rng, 40)
        for result in (g, group.multiply(g, h), group.invert(g),
                       group.normalize(g.letters() + h.letters())):
            public = GroupWord(result.free_part, result.kappa_bit)
            assert result == public and hash(result) == hash(public)
            assert type(result.free_part) is tuple


def test_results_are_not_reduced_again(monkeypatch):
    rng = random.Random(10)
    g, h = random_word(rng, 200), random_word(rng, 200)
    text = group.format_word(g)

    def refuse(*args):
        raise AssertionError("reduced again")

    monkeypatch.setattr(GroupWord, "__post_init__", refuse)
    monkeypatch.setattr(group, "free_reduce", refuse)
    assert group.parse_word(text).letters() == group.normalize(g.letters()).letters()
    monkeypatch.setattr(group, "_reduce", refuse)
    assert group.multiply(g, group.invert(g)).is_identity()
    assert group.multiply(group.invert(h), h).is_identity()


# --- differential properties against per-letter oracles -------------------

SWAP = {ALPHA: BETA, BETA: ALPHA}
FREE_LETTERS = (A, Ai, B, Bi)
KAPPA_LETTERS = (K, (KAPPA, -1))


def oracle_free_reduce(letters):
    stack = []
    for gen, exp in letters:
        if stack and stack[-1] == (gen, -exp):
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def oracle_normalize(raw):
    bit, out = 0, []
    for gen, exp in raw:
        if gen == KAPPA:
            bit ^= 1
        else:
            out.append((SWAP[gen], exp) if bit else (gen, exp))
    return oracle_free_reduce(out), bit


def oracle_invert(g):
    inv = tuple((gen, -exp) for gen, exp in reversed(g.free_part))
    if g.kappa_bit:
        inv = tuple((SWAP[gen], exp) for gen, exp in inv)
    return inv, g.kappa_bit


@st.composite
def raw_words(draw, kappa=True, max_size=2000):
    """Up to max_size letters from a seeded generator, so long words cost
    hypothesis no more than short ones; with kappa, a drawn share of them
    (from none to all) are k letters."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.integers(0, max_size))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])) if kappa else 0.0
    return [rng.choice(KAPPA_LETTERS) if rng.random() < share else rng.choice(FREE_LETTERS)
            for _ in range(size)]


def as_pair(g):
    return g.free_part, g.kappa_bit


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(letters=raw_words(kappa=False))
def test_free_reduce_matches_oracle(letters):
    assert group.free_reduce(letters) == oracle_free_reduce(letters)


@PROPERTY
@given(raw=raw_words())
def test_normalize_matches_oracle(raw):
    assert as_pair(group.normalize(raw)) == oracle_normalize(raw)


@PROPERTY
@given(x=raw_words(), y=raw_words(), cut=st.floats(0, 1))
def test_multiply_matches_normalize(x, y, cut):
    g, h = group.normalize(x), group.normalize(y)
    assert group.multiply(g, h) == group.normalize(g.letters() + h.letters())
    # g (g^-1 h) cancels all of g at the junction; g (v^-1 h), with v the
    # last part of g, cancels v
    tail = group.normalize(g.free_part[int(cut * len(g.free_part)):])
    for left in (g, tail):
        x2 = group.multiply(group.invert(left), h)
        product = group.multiply(g, x2)
        assert product == group.normalize(g.letters() + x2.letters())
    assert group.multiply(g, group.multiply(group.invert(g), h)) == h


@PROPERTY
@given(raw=raw_words())
def test_invert_matches_oracle(raw):
    g = group.normalize(raw)
    assert as_pair(group.invert(g)) == oracle_invert(g)


@PROPERTY
@given(raw=raw_words())
def test_format_parse_matches_oracle(raw):
    g = group.normalize(raw)
    text = group.format_word(g)
    tokens = [gen if exp == 1 else f"{gen}^-1" for gen, exp in g.free_part]
    assert text == " ".join(tokens + ([KAPPA] if g.kappa_bit else []))
    assert group.parse_word(text) == g
    raw_text = " ".join(gen if exp == 1 else f"{gen}^-1" for gen, exp in raw)
    assert as_pair(group.parse_word(raw_text)) == oracle_normalize(raw)
