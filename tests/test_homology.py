import pytest

from qmono import homology
from qmono.errors import DimensionTooSmall, NegativeDimension


def test_sphere_homology():
    assert homology.sphere_homology(1) == {0: 1, 1: 1}
    assert homology.sphere_homology(0) == {0: 2}
    assert homology.sphere_homology(3) == {0: 1, 3: 1}


def test_sphere_homology_rejects_negative():
    with pytest.raises(NegativeDimension):
        homology.sphere_homology(-1)


def test_table_rejects_small_dimension():
    with pytest.raises(DimensionTooSmall):
        homology.homology_table(1)


def test_pieces_recorded():
    table = homology.homology_table(4)
    assert table.pieces["A"] == {0: 1, 3: 1}
    assert table.pieces["L"] == {0: 1}
    assert table.pieces["A_int_L"] == {0: 1, 2: 1}
