import pytest

from qmono import homology
from qmono.errors import BadParameters, DimensionTooSmall, NegativeDimension, QmonoError


def test_sphere_homology():
    assert homology.sphere_homology(1) == {0: 1, 1: 1}
    assert homology.sphere_homology(0) == {0: 2}
    assert homology.sphere_homology(3) == {0: 1, 3: 1}


def test_sphere_homology_rejects_negative():
    with pytest.raises(NegativeDimension):
        homology.sphere_homology(-1)


def test_solve_split_extension():
    assert homology.solve_split_extension(1, 1) == 2
    assert homology.solve_split_extension(0, 0) == 0
    assert homology.solve_split_extension(2, 3) == 5
    for ranks in ((-1, 0), (0, -1)):
        with pytest.raises(BadParameters, match="ranks must be >= 0"):
            homology.solve_split_extension(*ranks)
    assert issubclass(BadParameters, QmonoError)


def test_table_examples():
    assert homology.homology_table(3).relative == {3: 2}
    assert homology.homology_table(2).relative == {2: 2}
    assert homology.homology_table(6).absolute == {5: 2}


def test_table_rejects_small_dimension():
    with pytest.raises(DimensionTooSmall):
        homology.homology_table(1)


def test_table_range():
    for n in range(2, 13):
        table = homology.homology_table(n)
        assert table.relative == {n: 2}
        assert table.absolute == {n - 1: 2}


def test_rank_matches_representation_space():
    # the monodromy representation acts on a rank-2 lattice
    for n in range(2, 13):
        assert homology.homology_table(n).relative[n] == 2


def test_pieces_recorded():
    table = homology.homology_table(4)
    assert table.pieces["A"] == {0: 1, 3: 1}
    assert table.pieces["L"] == {0: 1}
    assert table.pieces["A_int_L"] == {0: 1, 2: 1}
