import pytest

from qmono.errors import OddParityClaim
from qmono.orbits import orbit_bfs, verify_orbit_claim
from qmono.group import ALPHA, BETA, KAPPA
from qmono.representation import Parity, generator_matrix

EVEN, ODD = Parity.EVEN, Parity.ODD


def test_orbit_one_step_from_basis_point():
    assert orbit_bfs((1, 0), EVEN, 1) == {(1, 0), (-1, 0), (1, 2), (0, 1)}


def test_orbit_odd_parity_is_swap_pair():
    assert orbit_bfs((1, 0), ODD, 10) == {(1, 0), (0, 1)}


def test_orbit_fixes_origin():
    assert orbit_bfs((0, 0), EVEN, 10) == {(0, 0)}


def test_orbit_monotone_in_depth():
    prev = orbit_bfs((1, 0), EVEN, 0)
    for depth in range(1, 8):
        cur = orbit_bfs((1, 0), EVEN, depth)
        assert prev <= cur
        prev = cur


def test_orbit_respects_u_minus_v():
    for start in [(1, 0), (2, 5), (-3, -3)]:
        level = abs(start[0] - start[1])
        for p in orbit_bfs(start, EVEN, 6):
            assert abs(p[0] - p[1]) == level


def test_basis_points_share_an_orbit():
    # the swap map sends one basis orbit into the other, so each depth-d
    # set sits inside the other's depth-(d+1) set, and they agree on any
    # window once the depth is sufficient
    from_a = orbit_bfs((1, 0), EVEN, 8)
    from_b = orbit_bfs((0, 1), EVEN, 8)
    assert from_a <= orbit_bfs((0, 1), EVEN, 9)
    assert from_b <= orbit_bfs((1, 0), EVEN, 9)
    window = {p for p in from_a if max(abs(p[0]), abs(p[1])) <= 4}
    assert window == {p for p in from_b if max(abs(p[0]), abs(p[1])) <= 4}


def test_claim_small_window():
    report = verify_orbit_claim(2, 6, EVEN)
    assert report.missing == frozenset()
    assert report.extraneous == frozenset()
    assert {(-1, 0), (0, 1), (1, 2), (2, 1), (1, 0), (0, -1)} <= report.reached


def test_claim_acceptance_window():
    report = verify_orbit_claim(8, 12, EVEN)
    assert report.missing == frozenset()
    assert report.extraneous == frozenset()


def test_claim_rejects_odd_parity():
    with pytest.raises(OddParityClaim):
        verify_orbit_claim(4, 6, ODD)


def test_claim_validates_parameters():
    with pytest.raises(ValueError):
        verify_orbit_claim(0, 6, EVEN)
    with pytest.raises(ValueError):
        orbit_bfs((1, 0), EVEN, -1)


def test_claimed_set_is_the_line_pair_in_the_box():
    for radius in (1, 3, 8):
        for start in [(1, 0), (0, 0), (2, -3), (0, 2 * radius), (0, 2 * radius + 1)]:
            level = abs(start[0] - start[1])
            scan = {(u, v) for u in range(-radius, radius + 1)
                    for v in range(-radius, radius + 1) if abs(u - v) == level}
            assert verify_orbit_claim(radius, 2, EVEN, start=start).claimed == scan


def oracle_orbit_bfs(start, parity, max_word_len):
    mats = [generator_matrix(label, parity) for label in (ALPHA, BETA, KAPPA)]
    mats += [m.inverse() for m in mats]
    seen, frontier = {start}, {start}
    for _ in range(max_word_len):
        frontier = {m.apply(point) for point in frontier for m in mats} - seen
        seen |= frontier
    return seen

def test_orbit_bfs_matches_matrix_apply():
    for parity in Parity:
        for start in [(1, 0), (2, 5), (-3, -3), (0, 0)]:
            assert orbit_bfs(start, parity, 40) == oracle_orbit_bfs(start, parity, 40)
