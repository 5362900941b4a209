"""Tests of the benchmark's reference arithmetic.

Run with: python3 -m pytest bench/test_reference.py
"""

import random

import reference as ref


def word(text):
    letters = []
    for token in text.split():
        gen, _, exp = token.partition("^")
        letters.append((gen, int(exp) if exp else 1))
    return tuple(letters)


def test_documented_examples():
    assert ref.format_word(ref.normal_form(word("k a"))) == "b k"
    product = ref.multiply(ref.normal_form(word("a k")), ref.normal_form(word("a")))
    assert ref.format_word(product) == "a b k"
    assert ref.format_word(ref.inverse(ref.normal_form(word("a k")))) == "b^-1 k"
    assert ref.normal_form(word("a b b^-1 a^-1 k k^-1")) == ref.IDENTITY


def test_k_swaps_every_letter_it_passes():
    assert ref.normal_form(word("k a b^-1 k b")) == ((("b", 1), ("a", -1), ("b", 1)), 0)
    assert ref.normal_form(word("k a k b k")) == ((("b", 1), ("b", 1)), 1)


def test_generator_matrices():
    a = ref.matrix(word("a"), even=True)
    assert ref.rows(a) == [[-1, 2], [0, 1]] and ref.det(a) == -1
    assert ref.rows(ref.matrix(word("b"), even=True)) == [[1, 0], [2, -1]]
    assert ref.rows(ref.matrix(word("a b^-1"), even=False)) == [[1, 0], [0, 1]]
    assert ref.rows(ref.matrix(word("k"), even=False)) == [[0, 1], [1, 0]]


def test_line_pair_and_homology():
    assert ref.line_pair(1) == {(1, 0), (0, 1), (0, -1), (-1, 0)}
    assert ref.homology_ranks(3) == {3: 2}


def test_stated_properties_hold():
    assert ref.property_failures(random.Random(7)) == []
