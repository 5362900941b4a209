"""Reference arithmetic for G = <a, b, k | k a = b k, k^2 = 1> and its
action on Z^2, written apart from qmono.group and qmono.representation.

The benchmark checks every output of the program against these
functions.  Words are tuples of (generator, exponent) letters with
generator "a", "b" or "k" and exponent +1 or -1, the same plain data
the program's GroupWord.free_part holds, so results compare as tuples.
An element is a pair (free_part, kappa_bit).

Conventions, stated once here:

* normal form: each k is pushed to the right end; a letter passed by an
  odd number of k's has a and b swapped (k g = sigma(g) k); the free
  part is then freely reduced and k^2 = 1 leaves the parity of k's.
* matrices act on column vectors (u, v); the matrix of a word is the
  product of its letters' matrices, left to right.
  even n: a -> [[-1, 2], [0, 1]], b -> [[1, 0], [2, -1]], k -> swap;
  odd n:  a, b -> identity, k -> swap.
"""

from __future__ import annotations

import itertools
import random

_SWAP = {"a": "b", "b": "a"}
_CODE = {"a": 1, "b": 2}
_GEN = {1: "a", 2: "b"}

IDENTITY = ((), 0)

_I = ((1, 0), (0, 1))
_K = ((0, 1), (1, 0))
GENERATOR_MATRICES = {
    True: {"a": ((-1, 2), (0, 1)), "b": ((1, 0), (2, -1)), "k": _K},
    False: {"a": _I, "b": _I, "k": _K},
}


def normal_form(letters):
    """(free_part, kappa_bit) of a product of letters read left to right."""
    kappas = [gen == "k" for gen, _ in letters]
    # Parity of the k's strictly to the left of each letter.
    passed = itertools.accumulate(kappas, lambda acc, k: acc ^ k, initial=False)
    stack = []
    for (gen, exp), odd in zip(letters, passed):
        if gen == "k":
            continue
        code = _CODE[_SWAP[gen] if odd else gen] * exp
        if stack and stack[-1] == -code:
            stack.pop()
        else:
            stack.append(code)
    free = tuple((_GEN[abs(code)], 1 if code > 0 else -1) for code in stack)
    return free, sum(kappas) % 2


def letters_of(element):
    free, bit = element
    return free + ((("k", 1),) if bit else ())


def multiply(x, y):
    return normal_form(letters_of(x) + letters_of(y))


def inverse(x):
    return normal_form(tuple((gen, -exp) for gen, exp in reversed(letters_of(x))))


def format_word(x):
    return " ".join(gen if exp == 1 else f"{gen}^-1" for gen, exp in letters_of(x))


def _matmul(m, n):
    return tuple(tuple(sum(m[i][j] * n[j][col] for j in range(2)) for col in range(2))
                 for i in range(2))


def det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inverse_matrix(m):
    d = det(m)
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def matrix(letters, even):
    """Matrix of a word (any letters, k included) at the given parity."""
    table = GENERATOR_MATRICES[even]
    result = _I
    for gen, exp in letters:
        m = table[gen]
        result = _matmul(result, m if exp == 1 else _inverse_matrix(m))
    return result


def rows(m):
    return [list(row) for row in m]


def act(m, point):
    u, v = point
    return (m[0][0] * u + m[0][1] * v, m[1][0] * u + m[1][1] * v)


def line_pair(radius, level=1):
    """Points of [-R, R]^2 with |u - v| = level, listed along the lines."""
    points = set()
    for u in range(-radius, radius + 1):
        for v in (u - level, u + level):
            if -radius <= v <= radius:
                points.add((u, v))
    return points


def homology_ranks(n):
    """Ranks of H_i(C^n, A u L): Z^2 in degree n, zero elsewhere."""
    return {n: 2}


def random_letters(rng, length):
    return tuple((rng.choice("abk"), rng.choice((1, -1))) for _ in range(length))


def property_failures(rng, trials=200, max_len=30):
    """Names of the stated properties that the reference breaks."""
    failures = []
    a, b, k = ("a", 1), ("b", 1), ("k", 1)
    if normal_form((k, a)) != normal_form((b, k)):
        failures.append("k a = b k")
    if normal_form((k, k)) != IDENTITY:
        failures.append("k^2 = 1")
    for even in (True, False):
        table = GENERATOR_MATRICES[even]
        if _matmul(table["k"], table["a"]) != _matmul(table["b"], table["k"]):
            failures.append(f"k a = b k as matrices (even={even})")
    for _ in range(trials):
        g = normal_form(random_letters(rng, rng.randrange(max_len)))
        h = normal_form(random_letters(rng, rng.randrange(max_len)))
        if multiply(g, inverse(g)) != IDENTITY:
            failures.append("g g^-1 = 1")
        if normal_form(letters_of(g)) != g:
            failures.append("normal form is idempotent")
        for even in (True, False):
            mg = matrix(letters_of(g), even)
            if matrix(letters_of(multiply(g, h)), even) != \
                    _matmul(mg, matrix(letters_of(h), even)):
                failures.append("matrix of a product")
            if det(mg) not in (1, -1):
                failures.append("det = +-1")
            if act(mg, (1, 1)) != (1, 1):
                failures.append("(1, 1) is fixed")
            u, v = rng.randrange(-50, 51), rng.randrange(-50, 51)
            x, y = act(mg, (u, v))
            if abs(x - y) != abs(u - v):
                failures.append("|u - v| is preserved")
    for radius in (1, 8, 300):
        if len(line_pair(radius)) != 4 * radius:
            failures.append("claimed set holds 4R points at level 1")
    return sorted(set(failures))


if __name__ == "__main__":
    broken = property_failures(random.Random(0))
    print("reference properties:", ", ".join(broken) if broken else "all hold")
    raise SystemExit(1 if broken else 0)
