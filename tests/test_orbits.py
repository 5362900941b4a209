import pytest

from hypothesis import given
from hypothesis import strategies as st

from qmono.errors import BadParameters, OddParityClaim
from qmono.orbits import MAX_ORBIT_POINTS, OrbitReport, orbit_bfs, verify_orbit_claim
from qmono.group import ALPHA, BETA, KAPPA
from qmono.representation import IDENTITY_MATRIX, Parity, generator_matrix
from strategies import inverse

EVEN, ODD = Parity.EVEN, Parity.ODD


def test_claim_small_window():
    report = verify_orbit_claim(2, 6, EVEN)
    assert report.missing == frozenset()
    assert report.extraneous == frozenset()
    assert {(-1, 0), (0, 1), (1, 2), (2, 1), (1, 0), (0, -1)} <= report.reached


def test_claim_rejects_odd_parity():
    with pytest.raises(OddParityClaim):
        verify_orbit_claim(4, 6, ODD)


def test_claim_validates_parameters():
    with pytest.raises(BadParameters, match="box_radius must be >= 1, got 0"):
        verify_orbit_claim(0, 6, EVEN)
    with pytest.raises(BadParameters, match="max_word_len must be >= 0, got -1"):
        orbit_bfs((1, 0), EVEN, -1)
    with pytest.raises(BadParameters):
        orbit_bfs((1, 0), ODD, -1)


# Sizes just above the cap, counted exactly and refused before anything is built: a
# run that got past it at max_word_len or box radius 10^8 would need about 4e8 tuples.
@pytest.mark.parametrize("call, points", [
    (lambda: orbit_bfs((1, 0), EVEN, 2 ** 18 + 1), 2 ** 20 + 4),
    (lambda: orbit_bfs((5, -2), EVEN, 10 ** 8), 4 * 10 ** 8),
    (lambda: verify_orbit_claim(12, 10 ** 8, EVEN), 4 * 10 ** 8),
    (lambda: verify_orbit_claim(2 ** 18 + 1, 12, EVEN), 2 ** 20 + 4),
    (lambda: verify_orbit_claim(2 ** 19, 12, EVEN, start=(3, 3)), 2 ** 20 + 1),
    (lambda: verify_orbit_claim(10 ** 8, 12, EVEN, start=(0, 7)), 4 * 10 ** 8 - 12),
])
def test_oversized_ball_or_box_refused(call, points):
    assert points > MAX_ORBIT_POINTS == 2 ** 20
    with pytest.raises(BadParameters, match=f" {points} .*, above MAX_ORBIT_POINTS = {2 ** 20}$"):
        call()


def test_small_balls_and_empty_boxes_are_unbounded():
    # at odd parity or on the diagonal the ball holds at most 2 points, and a box of
    # radius R misses the lines |u - v| = level > 2R
    assert orbit_bfs((1, 0), ODD, 10 ** 12) == {(1, 0), (0, 1)}
    assert orbit_bfs((3, 3), EVEN, 10 ** 12) == {(3, 3)}
    assert verify_orbit_claim(10 ** 8, 2, EVEN, start=(0, 3 * 10 ** 8)).claimed == frozenset()


def test_claimed_set_is_the_line_pair_in_the_box():
    for radius in (1, 3, 8):
        for start in [(1, 0), (0, 0), (2, -3), (0, 2 * radius), (0, 2 * radius + 1)]:
            level = abs(start[0] - start[1])
            scan = {(u, v) for u in range(-radius, radius + 1)
                    for v in range(-radius, radius + 1) if abs(u - v) == level}
            assert verify_orbit_claim(radius, 2, EVEN, start=start).claimed == scan


# --- the step law the closed form rests on ---------------------------------

def level_and_twice_midpoint(point):
    u, v = point
    return u - v, u + v


@pytest.mark.parametrize("parity, label, shift", [
    (EVEN, ALPHA, -1), (EVEN, BETA, 1), (EVEN, KAPPA, 0), (ODD, KAPPA, 0),
])
def test_step_law_flips_level_and_shifts_midpoint(parity, label, shift):
    # each generator, and its inverse, sends the level l = u - v to -l and
    # the midpoint m = (u + v) / 2 to m + shift * l
    m = generator_matrix(label, parity)
    assert m @ m == IDENTITY_MATRIX
    for u in range(-6, 7):
        for v in range(-6, 7):
            level, twice_mid = level_and_twice_midpoint((u, v))
            assert level_and_twice_midpoint(m.apply((u, v))) == \
                (-level, twice_mid + 2 * shift * level)


@pytest.mark.parametrize("label", [ALPHA, BETA])
def test_step_law_odd_parity_free_generators_are_identity(label):
    assert generator_matrix(label, ODD) == IDENTITY_MATRIX


# --- differential tests against the breadth-first oracle ------------------

def oracle_balls(start, parity, max_word_len):
    """The BFS balls of radius 0, 1, ..., max_word_len about start."""
    mats = [generator_matrix(label, parity) for label in (ALPHA, BETA, KAPPA)]
    mats += [inverse(m) for m in mats]
    seen, frontier = {start}, {start}
    balls = [frozenset(seen)]
    for _ in range(max_word_len):
        frontier = {m.apply(point) for point in frontier for m in mats} - seen
        seen |= frontier
        # a generator matrix that breaks the step law can make the ball grow
        # exponentially; fail here rather than exhaust memory
        assert len(seen) <= 10 ** 5, "ball grows faster than the step law allows"
        balls.append(frozenset(seen))
    return balls


def oracle_orbit_bfs(start, parity, max_word_len):
    return oracle_balls(start, parity, max_word_len)[-1]


def test_orbit_bfs_matches_matrix_apply():
    for parity in Parity:
        for start in [(1, 0), (2, 5), (-3, -3), (0, 0)]:
            assert orbit_bfs(start, parity, 40) == oracle_orbit_bfs(start, parity, 40)


@pytest.mark.parametrize("parity", list(Parity))
def test_orbit_bfs_matches_oracle_on_grid(parity):
    for u in range(-10, 11):
        for v in range(-10, 11):
            for length, ball in enumerate(oracle_balls((u, v), parity, 20)):
                assert orbit_bfs((u, v), parity, length) == ball, ((u, v), length)


@given(u=st.integers(-1000, 1000), v=st.integers(-1000, 1000),
       max_word_len=st.integers(0, 60), parity=st.sampled_from(Parity))
def test_orbit_bfs_matches_oracle_far_out(u, v, max_word_len, parity):
    assert orbit_bfs((u, v), parity, max_word_len) == \
        oracle_orbit_bfs((u, v), parity, max_word_len)


def oracle_report(box_radius, max_word_len, start):
    reached = frozenset(oracle_orbit_bfs(start, EVEN, max_word_len))
    level = abs(start[0] - start[1])
    box = range(-box_radius, box_radius + 1)
    claimed = frozenset((u, v) for u in box for v in box if abs(u - v) == level)
    extraneous = frozenset(p for p in reached if abs(p[0] - p[1]) != level)
    return OrbitReport(start=start, parity=EVEN, max_word_len=max_word_len,
                       box_radius=box_radius, reached=reached, claimed=claimed,
                       missing=claimed - reached, extraneous=extraneous)


@pytest.mark.parametrize("box_radius, max_word_len, start", [
    (300, 400, (1, 0)),
    (8, 12, (1, 0)),
    (12, 60, (4, 1)),
    (12, 60, (5, 2)),
    (5, 3, (2, -3)),
    (3, 0, (0, 1)),
    (4, 7, (0, 0)),
])
def test_claim_report_matches_oracle(box_radius, max_word_len, start):
    report = verify_orbit_claim(box_radius, max_word_len, EVEN, start=start)
    assert report == oracle_report(box_radius, max_word_len, start)
