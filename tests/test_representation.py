import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import group, representation
from qmono.errors import BadParameters
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

EVEN, ODD = Parity.EVEN, Parity.ODD


def test_parity_from_dimension():
    assert Parity.from_dimension(2) is EVEN
    assert Parity.from_dimension(3) is ODD
    assert Parity.from_dimension(6) is EVEN


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


def test_relation_matrices():
    for parity in Parity:
        ma = generator_matrix(ALPHA, parity)
        mb = generator_matrix(BETA, parity)
        mk = generator_matrix(KAPPA, parity)
        assert mk @ ma == mb @ mk
        assert mk @ mk == IDENTITY_MATRIX


def test_matrix_of_examples():
    assert matrix_of(IDENTITY, EVEN) == IDENTITY_MATRIX
    ka = group.normalize([(KAPPA, 1), (ALPHA, 1)])
    assert matrix_of(ka, EVEN) == MonodromyMatrix(0, 1, -1, 2)
    assert matrix_of(ka, EVEN) == generator_matrix(KAPPA, EVEN) @ generator_matrix(ALPHA, EVEN)
    assert matrix_of(group.normalize([(KAPPA, 1), (KAPPA, 1)]), EVEN) == IDENTITY_MATRIX


def test_inverse():
    m = MonodromyMatrix(3, 2, 4, 3)  # det 1
    assert m @ m.inverse() == IDENTITY_MATRIX == m.inverse() @ m
    assert SWAP_MATRIX.inverse() == SWAP_MATRIX  # det -1
    for singular in (MonodromyMatrix(2, 0, 0, 1), MonodromyMatrix(1, 1, 1, 1)):
        with pytest.raises(BadParameters, match=f"det = {singular.det()}"):
            singular.inverse()


def test_apply_examples():
    beta = GroupWord(((BETA, 1),), 0)
    assert representation.apply(beta, (1, 0), EVEN) == (1, 2)
    g = random_word(random.Random(0))
    assert representation.apply(g, (0, 0), EVEN) == (0, 0)
    # alpha kappa acts as M_a (M_k (1,0)) = M_a (0,1) = (2,1)
    ak = GroupWord(((ALPHA, 1),), 1)
    assert representation.apply(ak, (1, 0), EVEN) == (2, 1)


def test_homomorphism_random_pairs():
    rng = random.Random(10)
    for _ in range(300):
        g, h = random_word(rng), random_word(rng)
        for parity in Parity:
            assert matrix_of(group.multiply(g, h), parity) == \
                matrix_of(g, parity) @ matrix_of(h, parity)


def test_invariant_line_fixed():
    rng = random.Random(11)
    for parity in Parity:
        fixed = representation.invariant_line(parity)
        assert fixed == (1, 1)
        for label in (ALPHA, BETA, KAPPA):
            assert generator_matrix(label, parity).apply(fixed) == fixed
        for _ in range(200):
            assert representation.apply(random_word(rng), fixed, parity) == fixed


def test_determinant_character_closed_form():
    rng = random.Random(12)
    for _ in range(200):
        g = random_word(rng)
        total = len(g.free_part) + g.kappa_bit
        assert representation.determinant_character(g, EVEN) == (-1) ** total
        assert representation.determinant_character(g, ODD) == (-1) ** g.kappa_bit
        for parity in Parity:
            assert representation.determinant_character(g, parity) == \
                matrix_of(g, parity).det()


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
            u, v = representation.apply(g, (3, -5), parity)
            assert u - v == chi * (3 - (-5))


def test_abs_u_minus_v_invariant_under_generators():
    rng = random.Random(14)
    for _ in range(500):
        point = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        for parity in Parity:
            for label in (ALPHA, BETA, KAPPA):
                u, v = generator_matrix(label, parity).apply(point)
                assert abs(u - v) == abs(point[0] - point[1])


def test_odd_parity_image_is_order_two():
    # all raw words of length <= 6 over the five generator letters
    letters = [(ALPHA, 1), (ALPHA, -1), (BETA, 1), (BETA, -1), (KAPPA, 1)]
    images = set()
    for length in range(7):
        for raw in itertools.product(letters, repeat=length):
            images.add(matrix_of(group.normalize(raw), ODD))
    assert images == {IDENTITY_MATRIX, SWAP_MATRIX}


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
        result = result @ (m if exp == 1 else m.inverse())
    return result


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
