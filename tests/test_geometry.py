import cmath
import random

import numpy as np
import pytest
from scipy.linalg import null_space

from qmono import geometry
from qmono.errors import ZeroCoefficientVector
from qmono.geometry import Hyperplane


def random_vector(rng, n):
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])


def random_quadric_point(rng, n):
    """Random p with sum p_i^2 = 1 (rescale a gaussian complex vector)."""
    while True:
        z = random_vector(rng, n)
        q = geometry.quad_form(z)
        if abs(q) > 0.1:
            return z / cmath.sqrt(q)


def restricted_quadric_is_singular(h, tol=1e-8):
    """Independent tangency oracle: restrict z.z - 1 to the hyperplane and
    test whether the resulting affine quadric is singular (bordered
    determinant zero).  No use of the d^2 = q criterion.
    """
    hn = h.normalized()
    c, d = hn.c, hn.d
    z0 = d * c.conj() / np.vdot(c, c)
    basis = null_space(c.reshape(1, -1))
    m = basis.T @ basis
    b = basis.T @ z0
    bordered = np.block([[m, b.reshape(-1, 1)],
                         [b.reshape(1, -1), np.array([[z0 @ z0 - 1.0]])]])
    return abs(np.linalg.det(bordered)) <= tol


def test_quad_form_examples():
    assert geometry.quad_form([1, 0, 0]) == 1
    assert geometry.quad_form([1, 1j, 0]) == 0
    assert geometry.quad_form([3, 4]) == 25


def test_quad_form_rejects_zero():
    with pytest.raises(ZeroCoefficientVector):
        geometry.quad_form([0, 0])
    with pytest.raises(ZeroCoefficientVector):
        Hyperplane([0, 0, 0], 1.0)


def test_tangency_examples():
    assert geometry.is_tangent(Hyperplane([1, 0], 1.0))
    assert not geometry.is_tangent(Hyperplane([1, 0], 0.0))
    assert geometry.is_tangent(Hyperplane([0, 1, 0], -1.0))


def test_asymptotic_examples():
    assert geometry.is_asymptotic(Hyperplane([1, 1j], 5.0))
    assert not geometry.is_asymptotic(Hyperplane([1, 0, 0], 0.0))
    # q = 2i*eps + eps^2, magnitude about 2*eps (about eps after |c| = 1
    # normalization), so tolerance eps/2 must reject
    eps = 1e-4
    h = Hyperplane([1, 1j + eps], 0.0)
    assert not geometry.is_asymptotic(h, tol=eps / 2)


def test_general_position_examples():
    assert geometry.in_general_position(Hyperplane([1, 0, 0], 0.0))
    assert not geometry.in_general_position(Hyperplane([1, 0], 1.0))
    assert not geometry.in_general_position(Hyperplane([1, 1j, 0], 5.0))


def test_discriminant_margin_examples():
    assert geometry.discriminant_margin(Hyperplane([1, 0], 0.0)) == pytest.approx(1.0)
    assert geometry.discriminant_margin(Hyperplane([1, 0], 1.0)) == pytest.approx(0.0)
    assert geometry.discriminant_margin(Hyperplane([1, 1j], 1.0)) == pytest.approx(0.0)


def test_scale_invariance():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(2, 6)
        h = Hyperplane(random_vector(rng, n), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if abs(lam) < 1e-3:
            lam += 1.0
        hs = h.scaled(lam)
        assert geometry.is_tangent(h) == geometry.is_tangent(hs)
        assert geometry.is_asymptotic(h) == geometry.is_asymptotic(hs)
        assert geometry.in_general_position(h) == geometry.in_general_position(hs)
        assert geometry.discriminant_margin(h) == pytest.approx(
            geometry.discriminant_margin(hs))


def test_tangency_oracle_quadric_points():
    # the tangent plane to sum z^2 = 1 at a quadric point p is <p, z> = 1
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randrange(2, 6)
        p = random_quadric_point(rng, n)
        h = Hyperplane(p, 1.0)
        assert geometry.is_tangent(h)
        assert restricted_quadric_is_singular(h)


def test_tangency_criterion_matches_singularity_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        n = rng.randrange(3, 6)
        h = Hyperplane(random_vector(rng, n),
                       complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        if geometry.discriminant_margin(h) < 1e-2:
            continue  # keep well away from the discriminant
        assert geometry.in_general_position(h)
        assert not restricted_quadric_is_singular(h, tol=1e-6)
        checked += 1


def test_exactly_two_parallel_tangents():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randrange(2, 6)
        c = random_vector(rng, n)
        q = geometry.quad_form(c)
        if abs(q) < 1e-3:
            continue
        root = cmath.sqrt(q)
        assert abs(root - (-root)) > 0  # two distinct tangency offsets
        assert geometry.is_tangent(Hyperplane(c, root))
        assert geometry.is_tangent(Hyperplane(c, -root))
        assert not geometry.is_tangent(Hyperplane(c, 0.6 * root))


def test_pencil_tangency_values_collide_as_q_vanishes():
    # approaching the asymptotic stratum, the two tangency offsets +-sqrt(q)
    # merge at rate sqrt(|q|)
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        q = geometry.quad_form([1, 1j + eps])
        gaps.append(abs(2 * cmath.sqrt(q)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_normalized_representative():
    h = Hyperplane([3, 4j], 10.0)
    hn = h.normalized()
    assert np.linalg.norm(hn.c) == pytest.approx(1.0)
    assert hn.d == pytest.approx(2.0)


@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_normalized_at_extreme_scale(scale):
    # |c|^2 overflows at 1e200 and underflows at 1e-300; |c| itself does not
    hn = Hyperplane([scale, 0, 0], 0.5 * scale).normalized()
    assert np.all(np.isfinite(hn.c)) and np.isfinite(hn.d)
    assert np.allclose(hn.c, [1, 0, 0], rtol=0, atol=1e-15)
    assert hn.d == pytest.approx(0.5, rel=1e-15)
