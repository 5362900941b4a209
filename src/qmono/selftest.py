"""Packaged self-checks: relations, invariant vector, orbit claim, fixtures.

These mirror the core acceptance checks so an installed build can be
validated without the test suite (`qmono selftest`).  They run at the
default tolerance, which those checks pin, whatever the environment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from . import group, loops, orbits, representation
from .group import ALPHA, BETA, KAPPA, GroupWord
from .representation import Parity

_SEED = 20240824
# The sizes of the checks: random words per parity, the orbit claim's box radius and word
# length, and the dimension n and sample count m of each pass over the fixtures.
_WORD_COUNT, _BOX_RADIUS, _MAX_WORD_LEN = 1000, 8, 12
_FIXTURE_SIZES = ((4, 256), (4, 512))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_word(rng: random.Random, max_len: int = 20) -> GroupWord:
    raw = []
    for _ in range(rng.randrange(max_len + 1)):
        gen = rng.choice((ALPHA, BETA, KAPPA))
        exp = 1 if gen == KAPPA else rng.choice((1, -1))
        raw.append((gen, exp))
    return group.normalize(raw)


def check_relations() -> CheckResult:
    ok = (group.normalize([(KAPPA, 1), (ALPHA, 1)])
          == group.normalize([(BETA, 1), (KAPPA, 1)]))
    ok = ok and group.normalize([(KAPPA, 1), (KAPPA, 1)]).is_identity()
    for parity in Parity:
        ma = representation.generator_matrix(ALPHA, parity)
        mb = representation.generator_matrix(BETA, parity)
        mk = representation.generator_matrix(KAPPA, parity)
        ok = ok and (mk @ ma) == (mb @ mk)
        ok = ok and (mk @ mk) == representation.IDENTITY_MATRIX
    return CheckResult("relations", ok)


def check_invariant_vector() -> CheckResult:
    rng = random.Random(_SEED)
    for parity in Parity:
        for _ in range(_WORD_COUNT):
            g = random_word(rng)
            if representation.matrix_of(g, parity).apply((1, 1)) != (1, 1):  # the class a + b
                return CheckResult("invariant-vector", False,
                                   f"word {group.format_word(g)!r} moves (1, 1)")
    return CheckResult("invariant-vector", True)


def check_orbit_claim() -> CheckResult:
    report = orbits.verify_orbit_claim(_BOX_RADIUS, _MAX_WORD_LEN, Parity.EVEN)
    ok = report.ok()
    detail = "" if ok else (f"missing {sorted(report.missing)}, "
                            f"extraneous {sorted(report.extraneous)}")
    return CheckResult("orbit-claim", ok, detail)


def check_fixtures() -> CheckResult:
    for n, m in _FIXTURE_SIZES:
        alpha, kappa = loops.make_alpha_loop(n, m=m), loops.make_kappa_loop(n, m=m)
        expected = {  # name -> (loop, its word as format_word spells it)
            "alpha": (alpha, "a"),
            "beta": (loops.make_beta_loop(n, m=m), "b"),
            "kappa": (kappa, "k"),
            "constant": (loops.make_constant_loop(n, m=m), ""),
            "kappa-squared": (loops.concat(kappa, kappa), ""),
            "alpha-reversed": (loops.reverse(alpha), "a^-1"),
        }
        for name, (loop, text) in expected.items():
            word = group.format_word(loops.classify(loop).word)
            if word != text:
                return CheckResult("classifier-fixtures", False,
                                   f"{name} at {m} samples gave {word!r}")
    return CheckResult("classifier-fixtures", True)


def run_selftest() -> List[CheckResult]:
    return [
        check_relations(),
        check_invariant_vector(),
        check_orbit_claim(),
        check_fixtures(),
    ]
