import random

import pytest

from hypothesis import given
from hypothesis import strategies as st

from qmono import group, representation
from qmono.errors import DimensionTooSmall
from qmono.group import ALPHA, BETA, KAPPA, GroupWord, IDENTITY
from qmono.representation import (
    IDENTITY_MATRIX,
    MonodromyMatrix,
    Parity,
    SWAP_MATRIX,
    generator_matrix,
    matrix_of,
)
from qmono.selftest import random_word
from strategies import inverse

EVEN, ODD = Parity.EVEN, Parity.ODD


def test_parity_from_dimension():
    assert Parity.from_dimension(2) is EVEN
    assert Parity.from_dimension(3) is ODD
    assert Parity.from_dimension(6) is EVEN


@pytest.mark.parametrize("n", [1, 0, -2])
def test_parity_from_dimension_refuses_small(n):
    with pytest.raises(DimensionTooSmall, match=f"ambient dimension must be >= 2, got {n}$"):
        Parity.from_dimension(n)


def test_generator_matrices_even():
    assert generator_matrix(ALPHA, EVEN) == MonodromyMatrix(-1, 2, 0, 1)
    assert generator_matrix(BETA, EVEN) == MonodromyMatrix(1, 0, 2, -1)
    assert generator_matrix(KAPPA, EVEN) == SWAP_MATRIX
    # kappa(a) = b and alpha(b) = 2a + b in coordinates
    assert generator_matrix(KAPPA, EVEN).apply((1, 0)) == (0, 1)
    assert generator_matrix(ALPHA, EVEN).apply((0, 1)) == (2, 1)


def test_generator_matrices_odd():
    assert generator_matrix(ALPHA, ODD) == IDENTITY_MATRIX
    assert generator_matrix(BETA, ODD) == IDENTITY_MATRIX
    assert generator_matrix(KAPPA, ODD) == SWAP_MATRIX


def test_matrix_of_examples():
    assert matrix_of(IDENTITY, EVEN) == IDENTITY_MATRIX
    ka = group.normalize([(KAPPA, 1), (ALPHA, 1)])
    assert matrix_of(ka, EVEN) == MonodromyMatrix(0, 1, -1, 2)
    assert matrix_of(ka, EVEN) == generator_matrix(KAPPA, EVEN) @ generator_matrix(ALPHA, EVEN)
    assert matrix_of(group.normalize([(KAPPA, 1), (KAPPA, 1)]), EVEN) == IDENTITY_MATRIX


def test_apply_examples():
    beta = GroupWord(((BETA, 1),), 0)
    assert matrix_of(beta, EVEN).apply((1, 0)) == (1, 2)
    g = random_word(random.Random(0))
    assert matrix_of(g, EVEN).apply((0, 0)) == (0, 0)
    # alpha kappa acts as M_a (M_k (1,0)) = M_a (0,1) = (2,1)
    ak = GroupWord(((ALPHA, 1),), 1)
    assert matrix_of(ak, EVEN).apply((1, 0)) == (2, 1)


def test_invariant_line_fixed():
    # Every word then fixes (1, 1) too: acceptance criterion 4.
    for parity in Parity:
        for label in (ALPHA, BETA, KAPPA):
            assert generator_matrix(label, parity).apply((1, 1)) == (1, 1)


def test_determinant_character_closed_form():
    rng = random.Random(12)
    for _ in range(200):
        g = random_word(rng)
        total = len(g.free_part) + g.kappa_bit
        assert matrix_of(g, EVEN).det() == (-1) ** total
        assert matrix_of(g, ODD).det() == (-1) ** g.kappa_bit


def test_quotient_character():
    alpha = GroupWord(((ALPHA, 1),), 0)
    ab = GroupWord(((ALPHA, 1), (BETA, 1)), 0)
    assert representation.quotient_character(alpha, EVEN) == -1
    assert representation.quotient_character(ab, EVEN) == 1
    assert representation.quotient_character(alpha, ODD) == 1
    assert representation.quotient_character(GroupWord((), 1), ODD) == -1


def test_quotient_character_matches_matrix_action():
    rng = random.Random(13)
    for _ in range(200):
        g = random_word(rng)
        for parity in Parity:
            chi = representation.quotient_character(g, parity)
            u, v = matrix_of(g, parity).apply((3, -5))
            assert u - v == chi * (3 - (-5))


def test_even_parity_entries_unbounded():
    # M_a M_b is parabolic (trace 2, det 1): its powers have entries
    # growing without bound, so the even monodromy group is infinite
    m = generator_matrix(ALPHA, EVEN) @ generator_matrix(BETA, EVEN)
    power = IDENTITY_MATRIX
    sizes = []
    for _ in range(50):
        power = power @ m
        sizes.append(max(abs(e) for e in (power.m11, power.m12, power.m21, power.m22)))
    assert sizes[-1] > 50
    assert sizes == sorted(sizes)


# --- differential properties against the per-letter fold ------------------

def oracle_matrix_of(g, parity):
    result = IDENTITY_MATRIX
    for gen, exp in g.letters():
        m = generator_matrix(gen, parity)
        result = result @ (m if exp == 1 else inverse(m))
    return result


@given(seed=st.integers(0, 2 ** 32), max_len=st.sampled_from((20, 2000, 10 ** 4)))
def test_matrix_of_matches_fold(seed, max_len):
    g = random_word(random.Random(seed), max_len=max_len)
    for parity in Parity:
        assert matrix_of(g, parity) == oracle_matrix_of(g, parity)


def test_matrix_of_builds_one_matrix(monkeypatch):
    built = []
    init = MonodromyMatrix.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MonodromyMatrix, "__init__", counting_init)
    g = random_word(random.Random(15), max_len=500)
    for parity in Parity:
        built.clear()
        matrix_of(g, parity)
        assert len(built) == 1
