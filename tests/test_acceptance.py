"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its criterion holds; tolerances
and runtime budgets are pinned here and nowhere else.
"""

import cmath
import itertools
import random
import time

from qmono import group, homology, loops, orbits
from qmono.cli import main as cli_main
from qmono.geometry import Hyperplane, is_tangent, quad_form
from qmono.group import ALPHA, BETA, KAPPA, IDENTITY
from qmono.representation import (
    IDENTITY_MATRIX,
    Parity,
    SWAP_MATRIX,
    generator_matrix,
    matrix_of,
)
from qmono.selftest import random_word

EVEN, ODD = Parity.EVEN, Parity.ODD
RAW_LETTERS = [(ALPHA, 1), (ALPHA, -1), (BETA, 1), (BETA, -1), (KAPPA, 1)]


def _random_raw(rng, max_len=20):
    return [rng.choice(RAW_LETTERS) for _ in range(rng.randrange(max_len + 1))]


def test_criterion_1_relations():
    def run():
        assert group.normalize([(KAPPA, 1), (ALPHA, 1)]) == \
            group.normalize([(BETA, 1), (KAPPA, 1)])
        assert group.normalize([(KAPPA, 1), (KAPPA, 1)]) == IDENTITY
        for parity in Parity:
            ma = generator_matrix(ALPHA, parity)
            mb = generator_matrix(BETA, parity)
            mk = generator_matrix(KAPPA, parity)
            assert mk @ ma == mb @ mk
            assert mk @ mk == IDENTITY_MATRIX

    run()  # warm up
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3, f"relation suite took {elapsed:.2e} s"
    print("PASS criterion 1: relations hold as words and matrices "
          f"({elapsed * 1e6:.0f} us)")


def test_criterion_2_normal_form_roundtrips():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        raw = _random_raw(rng)
        g = group.normalize(raw)
        assert group.normalize(g.letters()) == g
        assert group.multiply(g, group.invert(g)) == IDENTITY
    for _ in range(1000):
        g, h, k = (group.normalize(_random_raw(rng)) for _ in range(3))
        assert group.multiply(group.multiply(g, h), k) == \
            group.multiply(g, group.multiply(h, k))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: 1000 round trips + 1000 triples ({elapsed:.2f} s)")


def test_criterion_3_homomorphism():
    rng = random.Random(102)
    for _ in range(1000):
        g, h = random_word(rng), random_word(rng)
        for parity in Parity:
            assert matrix_of(group.multiply(g, h), parity) == \
                matrix_of(g, parity) @ matrix_of(h, parity)
    print("PASS criterion 3: matrix_of is a homomorphism on 1000 pairs, "
          "both parities")


def test_criterion_4_invariant_subspace():
    rng = random.Random(103)
    for _ in range(1000):
        g = random_word(rng)
        for parity in Parity:
            assert matrix_of(g, parity).apply((1, 1)) == (1, 1)
    print("PASS criterion 4: (1,1) fixed by 1000 random words, both parities")


def test_criterion_5_orbit_claim():
    start = time.perf_counter()
    report = orbits.verify_orbit_claim(8, 12, EVEN)
    assert report.missing == frozenset()
    assert report.extraneous == frozenset()
    rng = random.Random(104)
    gens = [generator_matrix(label, parity)
            for label in (ALPHA, BETA, KAPPA) for parity in Parity]
    for _ in range(10**4):
        point = (rng.randrange(-100, 101), rng.randrange(-100, 101))
        m = rng.choice(gens)
        u, v = m.apply(point)
        assert abs(u - v) == abs(point[0] - point[1])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 5: orbit covers |u-v|=1 in box 8 at word length 12; "
          f"|u-v| exact on 10^4 samples ({elapsed:.2f} s)")


def test_criterion_6_odd_parity_collapse():
    images = set()
    for length in range(7):
        for raw in itertools.product(RAW_LETTERS, repeat=length):
            images.add(matrix_of(group.normalize(raw), ODD))
    assert images == {IDENTITY_MATRIX, SWAP_MATRIX}
    print("PASS criterion 6: odd-parity image over words of length <= 6 is "
          "{I, swap}")


def test_criterion_7_geometry_oracles():
    tol = 1e-9
    rng = random.Random(105)

    def random_vector(n):
        return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]

    tangent_checked = 0
    while tangent_checked < 100:
        z = random_vector(rng.randrange(2, 6))
        q = quad_form(z)
        if abs(q) < 0.1:
            continue
        p = [zi / cmath.sqrt(q) for zi in z]
        assert is_tangent(Hyperplane(p, 1.0), tol)
        tangent_checked += 1

    pencil_checked = 0
    while pencil_checked < 100:
        c = random_vector(rng.randrange(2, 6))
        q = quad_form(c)
        if abs(q) < 1e-3:
            continue
        root = cmath.sqrt(q)
        assert is_tangent(Hyperplane(c, root), tol)
        assert is_tangent(Hyperplane(c, -root), tol)
        assert not is_tangent(Hyperplane(c, 0.5 * root), tol)
        assert not is_tangent(Hyperplane(c, 2.0 * root), tol)
        pencil_checked += 1
    print("PASS criterion 7: 100 tangency constructions and 100 parallel-"
          "tangent pencils at tol 1e-9")


def test_criterion_8_classifier_fixtures():
    expected = {
        "alpha": group.parse_word("a"),
        "beta": group.parse_word("b"),
        "kappa": group.parse_word("k"),
        "constant": IDENTITY,
        "kappa^2": IDENTITY,
        "alpha^-1": group.parse_word("a^-1"),
    }
    start = time.perf_counter()
    for m in (256, 512):
        a = loops.make_alpha_loop(4, m=m)
        k = loops.make_kappa_loop(4, m=m)
        cases = {
            "alpha": a,
            "beta": loops.make_beta_loop(4, m=m),
            "kappa": k,
            "constant": loops.make_constant_loop(4, m=m),
            "kappa^2": loops.concat(k, k),
            "alpha^-1": loops.reverse(a),
        }
        for name, loop in cases.items():
            assert loops.classify(loop).word == expected[name], \
                f"{name} at {m} samples"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 8: fixtures classify correctly at 256 and 512 "
          f"samples ({elapsed:.2f} s)")


def test_criterion_9_classifier_group_law():
    rng = random.Random(106)
    a = loops.make_alpha_loop(4, m=128)
    b = loops.make_beta_loop(4, m=128)
    k = loops.make_kappa_loop(4, m=128)
    parts = [a, b, k, loops.reverse(a), loops.reverse(b)]
    part_words = [loops.classify(p).word for p in parts]
    for _ in range(50):
        picks = [rng.randrange(len(parts)) for _ in range(rng.randrange(1, 5))]
        whole = parts[picks[0]]
        expected = part_words[picks[0]]
        for i in picks[1:]:
            whole = loops.concat(whole, parts[i])
            expected = group.multiply(expected, part_words[i])
        assert loops.classify(whole).word == expected
    print("PASS criterion 9: classify respects the group law on 50 random "
          "compositions")


def test_criterion_10_homology_table():
    for n in range(2, 13):
        table = homology.homology_table(n)
        assert table.relative == {n: 2}
        assert table.absolute == {n - 1: 2}
    print("PASS criterion 10: relative rank 2 in degree n only, for n in [2,12]")


def test_criterion_11_selftest_subcommand(capsys):
    code = cli_main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    print("PASS criterion 11: packaged selftest exits 0")
