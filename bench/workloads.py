"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``setup()`` and then runs
rounds of operations with ``round()``, which returns one ``OpResult`` per
operation.  Every output is checked against ``reference`` or a stated
property; a wrong output is recorded in ``mismatches``.  An operation
fails when the program raises a domain error, or exits non-zero, where
an answer was due, or gives an answer where a refusal was due.

Calls into the program go through ``Tracer.call``.  With tracing off it
only calls the function; with tracing on it records one span per call.
``detail()`` calls, on the inputs of the last round, the public
functions that a round reaches only from inside the program, so a
traced run can time them from outside.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from qmono import geometry, group, homology, loops, orbits, representation
from qmono.errors import QmonoError
from qmono.representation import Parity


@dataclass(frozen=True)
class OpResult:
    seconds: float
    failed: bool


class Tracer:
    """Spans (name, start, end, items, parent) kept in memory."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple] = []
        self.parent = None

    def call(self, name, items, fn, *args):
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), items, self.parent))


GENERATOR_LETTERS = [(gen, exp) for gen in "abk" for exp in (1, -1)]


class ClassifyComposed:
    """Each op concatenates four generator loops and classifies the result.

    The pieces are drawn from a, b, k and their inverses, PIECE_SAMPLES
    samples each, in dimension n = 3 and 4 on alternate ops.  Every
    piece starts at the base hyperplane c = e1, d = 0, so the composite's
    class is the product of the pieces' letters.
    """

    name = "classify-composed"
    rss_who = resource.RUSAGE_SELF
    PIECE_SAMPLES = 384

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        self.rng = random.Random(seed)
        self.tr = tracer
        self.mismatches: list[str] = []
        self.ops = 0

    def setup(self) -> None:
        self.pieces = {n: self._generator_pieces(n) for n in (3, 4)}

    def _generator_pieces(self, n):
        forward = {
            "a": loops.make_alpha_loop(n, m=self.PIECE_SAMPLES),
            "b": loops.make_beta_loop(n, m=self.PIECE_SAMPLES),
            "k": loops.make_kappa_loop(n, m=self.PIECE_SAMPLES),
        }
        pieces = {}
        for gen, loop in forward.items():
            pieces[(gen, 1)] = loop
            backward = loops.reverse(loop)
            if backward.samples[0].c[0].real < 0:
                # Starts at -e1: rescaling every sample by -1 leaves each
                # hyperplane unchanged and moves the base to e1.
                backward = loops.HyperplaneLoop(
                    n, tuple(h.scaled(-1) for h in backward.samples),
                    backward.closure_lambda)
            pieces[(gen, -1)] = backward
        return pieces

    def round(self) -> list[OpResult]:
        n = 3 + self.ops % 2
        draw = tuple(self.rng.choice(GENERATOR_LETTERS) for _ in range(4))
        self.ops += 1
        self.tr.parent = f"{self.name}#{self.ops}"
        tr, pieces = self.tr, self.pieces[n]
        start = time.perf_counter()
        try:
            loop = pieces[draw[0]]
            for letter in draw[1:]:
                loop = tr.call("loops.concat", 1, loops.concat, loop, pieces[letter])
            result = tr.call("loops.classify", len(loop.samples), loops.classify, loop)
        except QmonoError as exc:
            print(f"{self.name}: {draw}: {exc!r}", file=sys.stderr)
            return [OpResult(time.perf_counter() - start, True)]
        seconds = time.perf_counter() - start
        self.loop, self.expected = loop, ref.normal_form(draw)
        word = (result.word.free_part, result.word.kappa_bit)
        if word != self.expected:
            self.mismatches.append(f"{draw}: word {word}, expected {self.expected}")
        for even, matrix in ((True, result.matrix_even), (False, result.matrix_odd)):
            want = ref.rows(ref.matrix(draw, even))
            if matrix.rows() != want:
                self.mismatches.append(f"{draw}: matrix {matrix.rows()}, expected {want}")
        return [OpResult(seconds, False)]

    def detail(self) -> None:
        tr, loop = self.tr, self.loop
        m = len(loop.samples)
        tr.call("loops.closure_scale", 1, loops.closure_scale, loop)
        bit = tr.call("loops.kappa_bit", 1, loops.kappa_bit, loop)
        free = tr.call("loops.fiber_word", 1, loops.fiber_word, loop)
        if ref.normal_form(free + ((("k", 1),) if bit else ())) != self.expected:
            self.mismatches.append(f"fiber_word {free} and kappa_bit {bit} "
                                   f"give no {self.expected}")
        normalized = tr.call("geometry.normalized", m,
                             lambda: [h.normalized() for h in loop.samples])
        qs = tr.call("geometry.quad_form", m,
                     lambda: [geometry.quad_form(h.c) for h in normalized])
        generic = tr.call("geometry.in_general_position", m,
                          lambda: all(geometry.in_general_position(h) for h in loop.samples))
        margin = tr.call("geometry.discriminant_margin", m,
                         lambda: min(geometry.discriminant_margin(h) for h in loop.samples))
        if not generic or not margin > 0:
            self.mismatches.append(f"composite not generic (margin {margin})")
        tr.call("loops.continue_sqrt_branch", 1, loops.continue_sqrt_branch, qs)
        data = tr.call("loops.loop_to_dict", 1, loops.loop_to_dict, loop)
        back = tr.call("loops.loop_from_dict", 1, loops.loop_from_dict, data)
        if len(back.samples) != m:
            self.mismatches.append(f"loop_from_dict gave {len(back.samples)} samples, not {m}")
        tr.call("loops.make_loop", 1, loops.make_alpha_loop, 4, 0.25, self.PIECE_SAMPLES)


class ExactAlgebra:
    """Each op is one round of integer work on a word of RAW_LETTERS letters.

    A raw word is a random reduced free word with PAIRS cancelling pairs
    inserted and KAPPAS or KAPPAS - 1 k's spread through it, the letters
    after an odd number of k's written swapped.  Its normal form is known
    by construction and has RAW_LETTERS - 2 PAIRS - KAPPAS letters (one
    more with an odd number of k's), so every op does the same work.
    """

    name = "exact-algebra"
    rss_who = resource.RUSAGE_SELF
    RAW_LETTERS = 10_000
    PAIRS = 1000
    KAPPAS = 2000
    POOL = 8
    ORBIT = (300, 400)
    HOMOLOGY_NS = tuple(range(2, 10))

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        self.seed = seed
        self.tr = tracer
        self.mismatches: list[str] = []
        self.ops = 0
        self.expected: dict[int, dict] = {}
        self.claimed = ref.line_pair(self.ORBIT[0])

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.raw, self.words = [], []
        for i in range(self.POOL):
            raw, free, bit = self._raw_word(rng, self.KAPPAS - i % 2)
            self.raw.append(raw)
            self.words.append(group.GroupWord(free, bit))

    def _raw_word(self, rng, kappas):
        free_len = self.RAW_LETTERS - 2 * self.PAIRS - kappas
        free = []
        while len(free) < free_len:
            letter = (rng.choice("ab"), rng.choice((1, -1)))
            if not free or free[-1] != (letter[0], -letter[1]):
                free.append(letter)
        target = tuple(free)
        for _ in range(self.PAIRS):
            gen, exp = rng.choice("ab"), rng.choice((1, -1))
            at = rng.randrange(len(free) + 1)
            free[at:at] = [(gen, exp), (gen, -exp)]
        kappa_at = set(rng.sample(range(self.RAW_LETTERS), kappas))
        letters, odd = iter(free), False
        raw = []
        for position in range(self.RAW_LETTERS):
            if position in kappa_at:
                raw.append(("k", rng.choice((1, -1))))
                odd = not odd
            else:
                gen, exp = next(letters)
                raw.append(({"a": "b", "b": "a"}[gen] if odd else gen, exp))
        return tuple(raw), target, kappas % 2

    def _expectation(self, i):
        if i not in self.expected:
            g = ref.normal_form(self.raw[i])
            if g != (self.words[i].free_part, self.words[i].kappa_bit):
                raise RuntimeError("benchmark fault: raw word does not reduce "
                                   "to its construction target")
            h = ref.normal_form(self.raw[(i + 1) % self.POOL])
            letters = ref.letters_of(g)
            self.expected[i] = {
                "g": g,
                "gh": ref.multiply(g, h),
                "inverse": ref.inverse(g),
                "text": ref.format_word(g),
                True: ref.rows(ref.matrix(letters, True)),
                False: ref.rows(ref.matrix(letters, False)),
            }
        return self.expected[i]

    def round(self) -> list[OpResult]:
        i = self.ops % self.POOL
        raw, h = self.raw[i], self.words[(i + 1) % self.POOL]
        self.ops += 1
        self.tr.parent = f"{self.name}#{self.ops}"
        tr = self.tr
        length = len(self.words[i].letters())
        start = time.perf_counter()
        try:
            g = tr.call("group.normalize", len(raw), group.normalize, raw)
            gh = tr.call("group.multiply", len(g.free_part) + len(h.free_part),
                         group.multiply, g, h)
            inverse = tr.call("group.invert", len(g.free_part), group.invert, g)
            text = tr.call("group.format_word", length, group.format_word, g)
            back = tr.call("group.parse_word", length, group.parse_word, text)
            even = tr.call("representation.matrix_of_even", length,
                           representation.matrix_of, g, Parity.EVEN)
            odd = tr.call("representation.matrix_of_odd", length,
                          representation.matrix_of, g, Parity.ODD)
            report = tr.call("orbits.verify_orbit_claim", 1, orbits.verify_orbit_claim,
                             *self.ORBIT, Parity.EVEN)
        except QmonoError as exc:
            print(f"{self.name}: op {self.ops}: {exc!r}", file=sys.stderr)
            return [OpResult(time.perf_counter() - start, True)]
        seconds = time.perf_counter() - start

        want = self._expectation(i)
        got = {
            "g": (g.free_part, g.kappa_bit),
            "gh": (gh.free_part, gh.kappa_bit),
            "inverse": (inverse.free_part, inverse.kappa_bit),
            "text": text,
            True: even.rows(),
            False: odd.rows(),
        }
        for key, value in got.items():
            if value != want[key]:
                self.mismatches.append(f"op {self.ops}: {key} differs from the reference")
        if back != g:
            self.mismatches.append(f"op {self.ops}: parse_word(format_word(g)) != g")
        if not (report.ok() and report.claimed == self.claimed
                and all(abs(u - v) == 1 for u, v in report.reached)):
            self.mismatches.append(f"op {self.ops}: orbit claim at {self.ORBIT} not verified")
        return [OpResult(seconds, False)]

    def detail(self) -> None:
        tr = self.tr
        reached = tr.call("orbits.orbit_bfs", 1, orbits.orbit_bfs,
                          (1, 0), Parity.EVEN, self.ORBIT[1])
        if not all(abs(u - v) == 1 for u, v in reached):
            self.mismatches.append("orbit_bfs left the line pair |u - v| = 1")
        tables = tr.call("homology.homology_table", len(self.HOMOLOGY_NS),
                         lambda: [homology.homology_table(n) for n in self.HOMOLOGY_NS])
        for n, table in zip(self.HOMOLOGY_NS, tables):
            if table.relative != ref.homology_ranks(n):
                self.mismatches.append(f"homology n={n}: {table.relative}")


# Runs the installed console script's entry point: `qmono ARGS...`.
QMONO = ["-c", "from qmono.cli import entry; entry()"]
FIXTURE_WORDS = {"alpha": "a", "beta": "b", "kappa": "k"}


class CliSession:
    """Each op is one `qmono ... --json` child process, run one at a time.

    A round is the ten calls of CALLS in order, with words and dimensions
    drawn from the seed.  Set-up writes the two fault files, which do not
    depend on the seed, and starts one child that imports qmono.cli.  The
    fault files hold a 256-sample alpha loop with sample TANGENT_AT made
    tangent, which must be refused with NotGeneralPosition at that index
    and exit status 1, and one with c[0] = NaN at sample NAN_AT, which
    must be refused by a named error.
    """

    name = "cli-session"
    rss_who = resource.RUSAGE_CHILDREN
    CALLS = ("normalize", "multiply", "invert", "rep", "orbit", "homology",
             "make-loop", "classify", "classify-tangent", "classify-nan")
    WORD_LETTERS = 16
    TANGENT_AT = 64
    NAN_AT = 100

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        self.rng = random.Random(seed)
        self.tr = tracer
        self.workdir = workdir
        self.mismatches: list[str] = []
        self.ops = 0

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        base = loops.loop_to_dict(loops.make_alpha_loop(4, m=256))
        tangent = json.loads(json.dumps(base))
        tangent["samples"][self.TANGENT_AT]["d"] = [1.0, 0.0]
        nan = json.loads(json.dumps(base))
        nan["samples"][self.NAN_AT]["c"][0] = [float("nan"), 0.0]
        for name, data in (("tangent.json", tangent), ("nan.json", nan)):
            with open(self.workdir / name, "w") as fh:
                json.dump(data, fh)
        # Warm the file cache for the interpreter, numpy and qmono, as the
        # first command of a session would.
        self.child(["-c", "import qmono.cli"])

    def child(self, argv):
        return subprocess.run([sys.executable, *argv], cwd=self.workdir,
                              capture_output=True, text=True, timeout=60)

    def _word(self):
        return ref.random_letters(self.rng, self.WORD_LETTERS)

    @staticmethod
    def _text(letters):
        return " ".join(gen if exp == 1 else f"{gen}^-1" for gen, exp in letters)

    @staticmethod
    def _word_doc(element):
        free, bit = element
        return {"word": ref.format_word(element), "kappa_bit": bit,
                "free_part": [[gen, exp] for gen, exp in free]}

    def _plan(self, kind):
        """Subcommand arguments and the expected JSON document, or None
        where a refusal is due."""
        if kind == "normalize":
            x = self._word()
            return ["normalize", self._text(x)], self._word_doc(ref.normal_form(x))
        if kind == "multiply":
            x, y = self._word(), self._word()
            return (["multiply", self._text(x), self._text(y)],
                    self._word_doc(ref.normal_form(x + y)))
        if kind == "invert":
            x = self._word()
            return (["invert", self._text(x)],
                    self._word_doc(ref.inverse(ref.normal_form(x))))
        if kind == "rep":
            n, x = self.rng.choice((3, 4, 5, 6)), self._word()
            m = ref.matrix(x, n % 2 == 0)
            return (["rep", "--n", str(n), self._text(x)],
                    {"matrix": ref.rows(m), "det": ref.det(m),
                     "word": ref.format_word(ref.normal_form(x))})
        if kind == "orbit":
            return (["orbit", "--n", "4"],
                    {"ok": True, "missing": [], "extraneous": [],
                     "claimed": sorted(map(list, ref.line_pair(8)))})
        if kind == "homology":
            n = self.rng.choice(range(2, 9))
            return ["homology", "--n", str(n)], {"relative": {str(n): 2}}
        if kind == "make-loop":
            self.fixture = self.rng.choice(sorted(FIXTURE_WORDS))
            n = self.rng.choice((3, 4))
            return (["make-loop", "--kind", self.fixture, "--n", str(n), "-o", "made.json"],
                    {"written": "made.json", "kind": self.fixture, "samples": 257})
        if kind == "classify":
            letters = ((FIXTURE_WORDS[self.fixture], 1),)
            element = ref.normal_form(letters)
            return (["classify", "made.json"],
                    {"word": ref.format_word(element), "kappa_bit": element[1],
                     "matrix_even": ref.rows(ref.matrix(letters, True)),
                     "matrix_odd": ref.rows(ref.matrix(letters, False))})
        if kind == "classify-tangent":
            return ["classify", "tangent.json"], None
        return ["classify", "nan.json"], None

    def round(self) -> list[OpResult]:
        results = []
        for kind in self.CALLS:
            args, want = self._plan(kind)
            argv = [*QMONO, *args, "--json"]
            self.ops += 1
            self.tr.parent = f"{self.name}#{self.ops}"
            start = time.perf_counter()
            proc = self.tr.call(f"cli.{kind}", 1, self.child, argv)
            seconds = time.perf_counter() - start
            results.append(OpResult(seconds, self._failed(kind, proc, want)))
        return results

    def _failed(self, kind, proc, want) -> bool:
        """Check one call's output; True when the call failed."""
        refused = proc.returncode in (1, 2) and proc.stderr.startswith("error:") \
            and "Traceback" not in proc.stderr
        if want is None:
            if not refused:
                return True
            if kind == "classify-tangent" and (proc.returncode != 1 or not proc.stderr.startswith(
                    f"error: NotGeneralPosition: sample {self.TANGENT_AT} ")):
                self.mismatches.append(f"{kind}: refused with {proc.stderr.strip()!r}")
            return False
        if proc.returncode != 0:
            print(f"{kind}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return True
        document = json.loads(proc.stdout)
        wrong = {key: document.get(key) for key, value in want.items()
                 if document.get(key) != value}
        if kind == "make-loop":
            with open(self.workdir / "made.json") as fh:
                written = json.load(fh)
            if len(written["samples"]) != want["samples"]:
                wrong["file"] = len(written["samples"])
        if kind == "orbit" and not all(abs(u - v) == 1 for u, v in document["reached"]):
            wrong["reached"] = "leaves |u - v| = 1"
        if wrong:
            self.mismatches.append(f"{kind}: {wrong}")
        return False

    def detail(self) -> None:
        self.tr.call("cli.interpreter", 1, self.child, ["-c", ""])
        proc = self.tr.call("cli.import", 1, self.child, ["-c", "import qmono.cli"])
        if proc.returncode != 0:
            self.mismatches.append(f"import qmono.cli: {proc.stderr.strip()}")


WORKLOADS = {w.name: w for w in (ClassifyComposed, ExactAlgebra, CliSession)}
