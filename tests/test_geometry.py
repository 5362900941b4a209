import cmath
import decimal
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from qmono import geometry
from qmono.errors import NonFiniteSample, ZeroCoefficientVector
from qmono.geometry import Hyperplane
from strategies import outcome


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
    # a lone vector is refused as sample 0, as the scalar predicates refuse it
    for build in (lambda: geometry.quad_form([0, 0]), lambda: Hyperplane([0, 0, 0], 1.0)):
        with pytest.raises(ZeroCoefficientVector, match="^coefficient vector is zero$") as info:
            build()
        assert info.value.index == 0


# Parts that sit on either side of the zero test: signed zeros, the smallest
# subnormal, a tiny normal, NaN and the infinities.
zero_test_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0,
                                   math.nan, math.inf, -math.inf])
zero_test_vectors = st.lists(st.builds(complex, zero_test_parts, zero_test_parts),
                             min_size=1, max_size=5)


@settings(max_examples=300)
@given(zero_test_vectors)
def test_zero_vector_rule(parts):
    # The rule is np.any's: a part counts as nonzero iff it is not +-0.0, so a NaN
    # or a subnormal is nonzero.
    c = np.array(parts)
    zero = not np.any(c)
    for build in (lambda: Hyperplane(c, 0), lambda: geometry.quad_form(c)):
        if zero:
            with pytest.raises(ZeroCoefficientVector):
                build()
        else:
            try:
                build()
            except NonFiniteSample:
                # quad_form refuses the q that a NaN or infinite part makes
                assert not np.isfinite(c).all()


@pytest.mark.parametrize("c", [[1e200, 0, 0], [0, math.inf, 0], [1, 0, math.nan],
                               [complex(0, 1e155), 1, 0]])
def test_quad_form_refuses_non_finite_q(c):
    # With no numpy warning: tier-1 turns a RuntimeWarning into an error.
    message = r"^q = sum c_i\^2 of sample 0 is not finite$"
    with pytest.raises(NonFiniteSample, match=message) as info:
        geometry.quad_form(c)
    assert info.value.index == 0


@pytest.mark.parametrize("c", [[[1, 0], [0, 1]], [], [[1, 0, 0]]])
def test_hyperplane_needs_nonempty_vector(c):
    message = "^coefficient vector must be a nonempty 1-d array$"
    with pytest.raises(ZeroCoefficientVector, match=message) as info:
        Hyperplane(c, 0)
    assert info.value.index == 0


def test_scaled_by_zero_refused():
    for factor in (0, 0.0, 0j):
        with pytest.raises(ZeroCoefficientVector, match="^scale factor must be nonzero$") as info:
            Hyperplane([1, 0, 0], 1.0).scaled(factor)
        assert info.value.index == 0


def test_scaled_underflow_to_zero_refused():
    with pytest.raises(ZeroCoefficientVector, match="coefficient vector is zero") as info:
        Hyperplane([1e-200, 0, 0], 0).scaled(1e-200)
    assert info.value.index == 0


def test_tangency_examples():
    assert geometry.is_tangent(Hyperplane([1, 0], 1.0))
    assert not geometry.is_tangent(Hyperplane([1, 0], 0.0))
    assert geometry.is_tangent(Hyperplane([0, 1, 0], -1.0))
    # the tie gap = tol max(|d^2|, |q|, 1): at |c| = 1, q = 1 and d^2 = 0.25, so the gap is
    # 0.75 and the max is 1, all exact; one float below that tol the plane is not tangent
    h = Hyperplane([1, 0], 0.5)
    assert geometry.is_tangent(h, tol=0.75)
    assert not geometry.is_tangent(h, tol=math.nextafter(0.75, 0.0))


def test_asymptotic_examples():
    assert geometry.is_asymptotic(Hyperplane([1, 1j], 5.0))
    assert not geometry.is_asymptotic(Hyperplane([1, 0, 0], 0.0))
    # q = 2i*eps + eps^2, magnitude about 2*eps (about eps after |c| = 1
    # normalization), so tolerance eps/2 must reject
    eps = 1e-4
    h = Hyperplane([1, 1j + eps], 0.0)
    assert not geometry.is_asymptotic(h, tol=eps / 2)
    # the tie |q| = tol, with tol the |q| = 0.6 that incidence computes for c = (1, 0.5i), and
    # one float below it
    h = Hyperplane([1, 0.5j], 0.0)
    size = float(geometry.incidence(h.c[None], np.array([h.d])).size[0])
    assert geometry.is_asymptotic(h, tol=size)
    assert not geometry.is_asymptotic(h, tol=math.nextafter(size, 0.0))


def test_general_position_examples():
    assert geometry.in_general_position(Hyperplane([1, 0, 0], 0.0))
    assert not geometry.in_general_position(Hyperplane([1, 0], 1.0))
    assert not geometry.in_general_position(Hyperplane([1, 1j, 0], 5.0))


@pytest.mark.parametrize("d", [2.0 ** 64, 2.0 ** 64 * (1 + 2 ** -52), 1e155, 1e200, -1e300j])
def test_far_offset_in_general_position(d):
    # d^2 at |c| = 1 overflows past |d| = 1.3e154, and such a sample once counted as tangent
    for c, q in (([1, 0, 0], 1.0), ([3, 4j, 0], 0.28)):
        h = Hyperplane(c, d)
        assert geometry.in_general_position(h)
        assert not geometry.is_tangent(h, tol=1 - 2 ** -53)
        assert geometry.discriminant_margin(h) == pytest.approx(q, rel=1e-15)
    # a near offset can still be tangent at a tolerance near 1: |25 - 1| <= 0.99 * 25
    assert geometry.is_tangent(Hyperplane([1, 0], 5.0), tol=0.99)


@pytest.mark.parametrize("c, d", [
    ([1, 0, 0], math.nan), ([1, 0, 0], math.inf), ([1, 0, 0], complex(0, -math.inf)),
    ([math.nan, 0, 0], 0.0), ([1, math.inf, 0], 0.0),
    pytest.param([1e-320, 0, 0], 1e-320, id="subnormal-c"),
    pytest.param([1e-10, 0, 0], 1e300, id="offset-past-max-at-unit-c"),
])
def test_scalar_predicates_refuse_non_finite(c, d):
    # they once answered True for in_general_position and NaN or 1.0 for the margin,
    # is_tangent answered False for the subnormal {z1 = 1}, and normalized returned an
    # all-NaN hyperplane for it and d = inf for the far offset
    h = Hyperplane(c, d)
    for predicate in (geometry.is_tangent, geometry.is_asymptotic,
                      geometry.in_general_position, geometry.discriminant_margin,
                      Hyperplane.normalized):
        with pytest.raises(NonFiniteSample) as info:
            predicate(h)
        assert info.value.index == 0


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


def exact_norm(row):
    """|c| from the exact sum of squares of the float parts, rooted at 60 digits."""
    total = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in row)
    with decimal.localcontext(decimal.Context(prec=60, Emin=-9999, Emax=9999)):
        return (decimal.Decimal(total.numerator) / decimal.Decimal(total.denominator)).sqrt()


def exact_at_unit_norm(row, d):
    """q = sum c_i^2 / |c|^2 and d / |c|, each part rounded once from exact values."""
    size2 = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in row)
    q = (sum(Fraction(z.real) ** 2 - Fraction(z.imag) ** 2 for z in row) / size2,
         sum(2 * Fraction(z.real) * Fraction(z.imag) for z in row) / size2)
    norm = exact_norm(row)
    with decimal.localcontext(decimal.Context(prec=60, Emin=-9999, Emax=9999)):
        dn = [float(decimal.Decimal(part) / norm) for part in (d.real, d.imag)]
    return complex(*map(float, q)), complex(*dn)


def test_inverse_norm_matches_exact_norm():
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for n in range(1, 7):
        # magnitudes spread over 1e-300..1e300 within a row, and bunched within a decade
        spread = 10.0 ** rng.uniform(-300, 300, (200, n))
        bunched = 10.0 ** (rng.uniform(-300, 299, (200, 1)) + rng.uniform(0, 1, (200, n)))
        ends = np.array([[1e-300] * n, [1e300] * n, [1e300] + [1e-300] * (n - 1)])
        for mags in (spread, bunched, ends):
            c = mags * np.exp(2j * np.pi * rng.random(mags.shape))
            inv = geometry.incidence(c, np.zeros(len(c))).inv
            assert inv.shape == (len(c),)
            for row, value in zip(c, inv):
                assert geometry.incidence(row[None], np.zeros(1)).inv[0] == value  # one row, same rounding
                assert abs(decimal.Decimal(float(value)) * exact_norm(row) - 1) <= decimal.Decimal("1e-15")
            # incidence scales each row once: q and d at |c| = 1 within a few
            # ulps of the exact values (|q| <= 1 sets q's scale), its |q| and
            # inverse norms within an ulp of abs(q) and of those at d = 0
            d = mags.max(axis=1) * (rng.normal(size=len(c)) + 1j * rng.normal(size=len(c)))
            inc = geometry.incidence(c, d)
            assert np.all(abs(inc.size - abs(inc.q)) <= np.spacing(inc.size))
            assert np.all(abs(inc.inv - inv) <= np.spacing(inv))
            for row, di, q, dn in zip(c, d, inc.q, inc.d):
                exact_q, exact_d = exact_at_unit_norm(row, di)
                assert abs(q - exact_q) <= 4 * eps
                assert abs(dn - exact_d) <= 4 * eps * abs(exact_d)


# --- incidence sweeps the columns ----------------------------------------

def whole_array_unit_scaled(c):
    """q and 1 / |c| as incidence once took them, on the whole (m, n) array at once: the
    oracle for the column sweep, which holds m-long temporaries only."""
    inv_top = 1.0 / np.maximum(abs(c.real), abs(c.imag)).max(axis=-1, keepdims=True)
    u = c * inv_top
    size2 = (u.real * u.real + u.imag * u.imag).sum(axis=-1)
    return (u * u).sum(axis=1) / size2, inv_top[..., 0] / np.sqrt(size2)


def oracle_outcome(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_unit_scaled", whole_array_unit_scaled)
        return outcome(call)


def assert_same_outcome(got, want, row=slice(None)):
    """got equals want, or row of want, field by field, with NaN equal to NaN and the sign
    of every zero (which np.array_equal does not see) the same."""
    assert isinstance(got, geometry.Incidence) == isinstance(want, geometry.Incidence)
    if not isinstance(want, geometry.Incidence):
        assert got == want
        return
    for name, a, b in zip(want._fields, got, want):
        b = b[row]
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        if a.dtype.kind in "fc":
            assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float))), name


def loop_array(rng, m, n):
    """A column-major (m, n+1) loop array with parts over six decades, some -0.0 parts, rows of
    negative reals (each u_i^2 then has imaginary part -0.0, and so has their sum unless it
    starts at +0.0), and tangent (d^2 = q) and asymptotic (c = e1 + i e2) rows."""
    shape = (m, n + 1)
    rows = np.asfortranarray(10.0 ** rng.uniform(-3, 3, shape)
                             * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    rows.real[rng.random(shape) < 0.1] = -0.0
    rows.imag[rng.random(shape) < 0.1] = -0.0
    rows[1::5] = -abs(rows.real[1::5])
    rows[::7, n] = np.sqrt((rows[::7, :n] ** 2).sum(axis=1))
    rows[3::11, :n] = 0.0
    rows[3::11, :2] = 1.0, 1j
    return rows


SCALES = (1.0, 1e200, 1e-300, 1e-310)


@pytest.mark.parametrize("n", range(3, 9))
def test_incidence_matches_whole_array_oracle(monkeypatch, n):
    # Every field, or the refusal, the same as the whole-array formula's, for loops scaled as a
    # whole and loops with all but the first column scaled (at 1e-310, subnormal parts in rows
    # whose largest part is normal), at m = 2 to 1537, with NaN and infinite rows added.
    rng = np.random.default_rng(n)
    for m in (2, 5, 64, 1537):
        base = loop_array(rng, m, n)
        for scale in SCALES:
            whole, tail = base * scale, base.copy(order="F")
            tail[:, 1:n] *= scale
            bad = []
            for part, value in ((rng.integers(n), math.nan), (rng.integers(n), math.inf),
                                (n, complex(0, math.nan)), (n, math.inf)):
                rows = tail.copy(order="F")
                rows[rng.integers(m), part] = value
                bad.append(rows)
            for rows in (whole, tail, *bad):
                c, d = rows[:, :n], rows[:, n]
                assert_same_outcome(outcome(lambda: geometry.incidence(c, d)),
                                    oracle_outcome(monkeypatch, lambda: geometry.incidence(c, d)))


@pytest.mark.parametrize("n", range(3, 9))
def test_one_row_incidence_matches_its_row_in_a_loop(monkeypatch, n):
    # The scalar predicates' one-row path gives a hyperplane the bits that the whole-array
    # formula gives its row in a column-major loop.  That formula summed a lone row's n parts
    # pairwise instead, which for n >= 4 could differ in the last bit; the column sweep adds the
    # parts in order whatever m.  Refusals of NaN and infinite rows match the formula's own.
    rng = np.random.default_rng(100 + n)
    base = loop_array(rng, 64, n)
    for scale in SCALES[:3]:
        rows = base * scale
        want = oracle_outcome(monkeypatch, lambda: geometry.incidence(rows[:, :n], rows[:, n]))
        for i in range(len(rows)):
            h = Hyperplane(rows[i, :n], rows[i, n])
            assert_same_outcome(outcome(lambda: geometry._incidence_of(h, None)),
                                want, slice(i, i + 1))
    for c, d in (([math.nan, 1, 0], 0), ([1, math.inf, 0], 0), ([1, 0, 0], complex(0, math.inf)),
                 ([1e-320, 0, 0], 0), ([1e-300, 0, 0], 1e10)):
        h = Hyperplane(c + [0] * (n - 3), d)
        assert_same_outcome(outcome(lambda: geometry._incidence_of(h, None)),
                            oracle_outcome(monkeypatch, lambda: geometry._incidence_of(h, None)))


def test_incidence_working_set_does_not_grow_with_n():
    # Beyond its outputs, incidence holds m-long temporaries only: at m = 4096 its peak is the
    # same for n = 4 and n = 16, where the whole-array formula's grew from 0.45 to 2 MB.
    def transient(n, m=4096):
        rng = np.random.default_rng(n)
        rows = np.asfortranarray(rng.standard_normal((m, n + 1))
                                 + 1j * rng.standard_normal((m, n + 1)))
        tracemalloc.start()
        try:
            inc = geometry.incidence(rows[:, :n], rows[:, n])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current >= sum(a.nbytes for a in inc)
        return peak - current
    assert transient(16) <= transient(4)
