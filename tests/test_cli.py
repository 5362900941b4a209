import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from qmono import loops, orbits
from qmono.cli import main
from strategies import far_circle_loop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [("--kind", "alpha", "--n", "4", "--samples", "100000000000"),
                                  ("--kind", "kappa", "--n", "1000000000", "--samples", "64")])
def test_make_loop_refuses_oversized_fixture(capsys, tmp_path, argv):
    # Sizes the cap refuses before allocating; a run that got past it would need gigabytes.
    path = tmp_path / "m.json"
    code, out, err = run(capsys, "make-loop", *argv, "-o", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: BadParameters: ") and err.endswith(
        f"above MAX_FIXTURE_ENTRIES = {loops.MAX_FIXTURE_ENTRIES}\n")
    assert not path.exists()


def test_selftest_reports_failures(capsys, monkeypatch):
    # An orbit claim that misses a point, and a classifier that answers b for every loop.
    verify = orbits.verify_orbit_claim
    monkeypatch.setattr(orbits, "verify_orbit_claim", lambda *args: dataclasses.replace(
        verify(*args), missing=frozenset({(99, 99)})))
    beta = loops.classify(loops.make_beta_loop(4))
    monkeypatch.setattr(loops, "classify", lambda loop, tol=None: beta)
    details = {"orbit-claim": "missing [(99, 99)], extraneous []",
               "classifier-fixtures": "alpha at 256 samples gave 'b'"}
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.splitlines() == ["PASS relations", "PASS invariant-vector",
                                *(f"FAIL {name}: {detail}" for name, detail in details.items())]
    code, out, _ = run(capsys, "selftest", "--json")
    document = json.loads(out)
    assert (code, document["ok"]) == (1, False)
    assert {c["name"]: c["detail"] for c in document["checks"] if not c["passed"]} == details


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["rep", "a"])  # missing --n
    assert info.value.code == 2


def test_json_mode_builds_no_homology_text(capsys):
    # The document holds four one- or two-entry tables at any n; the text that --json does not
    # print has n + 2 lines, and once took about 90 MB at this n.
    tracemalloc.start()
    try:
        code = main(["homology", "--n", "1000000", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(capsys.readouterr().out)["relative"]) == (0, {"1000000": 2})
    assert peak < 2 ** 20


def write_loop(tmp_path, name, edit):
    path = tmp_path / "alpha.json"
    assert main(["make-loop", "--kind", "alpha", "--n", "4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return target


@pytest.mark.parametrize("text", [
    "{not json",
    '{"samples": []}',
    '{"n": 3}',
    '{"n": 3, "samples": [{"c": [[1, 0]]}]}',
    '{"n": 3, "samples": [{"c": [1, 0, 0], "d": [0, 0]}]}',
    '{"n": "three", "samples": []}',
    '{"n": 3, "samples": [], "closure_lambda": 1.0}',
    "[1, 2]",
    # deeper than the JSON decoder's recursion limit
    pytest.param('{"n": 3, "samples": ' + "[" * 5000 + "]" * 5000 + "}", id="deeply-nested"),
])
def test_classify_malformed_file_refused(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert err.startswith("error: MalformedLoopFile: ")


def test_classify_directory_refused(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "1", "inf", "abc"])
def test_classify_bad_tolerance_refused(capsys, tmp_path, monkeypatch, value):
    path = write_loop(tmp_path, "a.json", lambda data: None)
    monkeypatch.setenv("QMONO_TOL", value)
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert err == (f"error: BadTolerance: QMONO_TOL: tol must be a number with 0 < tol < 1, "
                   f"got {value!r}\n")


def test_tolerance_env_override(capsys, tmp_path, monkeypatch):
    # The last sample is 1e-7 off the first, times closure_lambda = 1, at |c| = 1: refused at
    # the default tolerance, 1e-9, and closed at 1e-6.
    def nudge_last(data):
        data["samples"][-1]["d"] = [1e-7, 0.0]

    path = write_loop(tmp_path, "nudged.json", nudge_last)
    monkeypatch.delenv("QMONO_TOL", raising=False)
    for value in (None, ""):  # an empty value counts as unset
        if value is not None:
            monkeypatch.setenv("QMONO_TOL", value)
        code, _, err = run(capsys, "classify", str(path))
        assert (code, err) == (1, "error: NotClosed: closure residual 1e-07 at sample 256 "
                                  "exceeds tolerance\n")
    monkeypatch.setenv("QMONO_TOL", "1e-6")
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert (code, json.loads(out)["word"]) == (0, "a")


@pytest.mark.parametrize("r", [10.0, 1e100, 1e160, 1e200, 1e250, 1e300])
def test_classify_far_fiber_crossings(capsys, tmp_path, r):
    # A circle about 1.2 r that encloses neither puncture; from r = 1e200 on the crossings
    # were once computed past the largest float and gave a^-1 b^-1.
    path = tmp_path / "far.json"
    path.write_text(json.dumps(loops.loop_to_dict(far_circle_loop(r))))
    code, out, err = run(capsys, "classify", str(path), "--json")
    assert (code, json.loads(out)["word"], err) == (0, "", "")


@pytest.mark.parametrize("argv", [["--max-word-len", "-1"], ["--radius", "0"],
                                  ["--radius", "x"], ["--start", "x"], ["--start", "1,0,3"]])
def test_orbit_range_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--n", "4", *argv])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


GROUP_COMMANDS = [["normalize", "k a"], ["multiply", "a k", "a"], ["invert", "a k"],
                  ["rep", "--n", "4", "a"], ["orbit", "--n", "4", "--radius", "2"],
                  ["homology", "--n", "3"]]


def test_group_commands_do_not_import_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from qmono.cli import main; "
            f"codes = [main(argv) for argv in {GROUP_COMMANDS!r}]; "
            "assert codes == [0] * len(codes), codes; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "from qmono import loops; assert 'numpy' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["b k", "a b k", "b^-1 k"]


def alpha_document():
    return loops.loop_to_dict(loops.make_alpha_loop(3, m=64))


def set_c(i, value):
    def edit(data):
        data["samples"][i]["c"] = value
    return edit


def set_pair(i, j, value):
    def edit(data):
        data["samples"][i]["c"][j] = value
    return edit


def set_samples(data):
    data["samples"] = []


def set_n(data):
    data["n"] = 4


def set_big_d(data):
    data["samples"][5]["d"] = ["BIG", 0.0]


# The error class of each kind of malformed loop file.
LOOP_FILE_REFUSALS = {
    "no-samples": (set_samples, "BadParameters"),
    "three-number-pair": (set_pair(5, 0, [1.0, 0.0, 0.0]), "MalformedLoopFile"),
    "zero-c": (set_c(5, [[0, 0]] * 3), "ZeroCoefficientVector"),
    "empty-c": (set_c(5, []), "ZeroCoefficientVector"),
    "one-sample-of-dimension-2": (set_c(5, [[1.0, 0.0]] * 2), "BadParameters"),
    "all-samples-of-dimension-3-in-n-4": (set_n, "BadParameters"),
    "string-coordinate": (set_pair(5, 0, ["1", 0.0]), "MalformedLoopFile"),
    "big-offset": (set_big_d, "NonFiniteSample"),
}


@pytest.mark.parametrize("name", sorted(LOOP_FILE_REFUSALS))
def test_classify_loop_file_refusal_classes(capsys, tmp_path, name):
    edit, error = LOOP_FILE_REFUSALS[name]
    data = alpha_document()
    edit(data)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(data).replace('"BIG"', "1e400"))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert err.startswith(f"error: {error}: ")


# --- golden output: exact bytes of every subcommand ----------------------

# Each command line with its stdout in text mode and with --json; run in order in one
# directory, so the make-loop lines write the files that the classify lines read.
GOLDEN_OUTPUT = [
    ("normalize 'k a'",
     'b k\n',
     '{"free_part": [["b", 1]], "kappa_bit": 1, "word": "b k"}\n'),
    ("multiply 'a k' a",
     'a b k\n',
     '{"free_part": [["a", 1], ["b", 1]], "kappa_bit": 1, "word": "a b k"}\n'),
    ("invert 'a k'",
     'b^-1 k\n',
     '{"free_part": [["b", -1]], "kappa_bit": 1, "word": "b^-1 k"}\n'),
    ("rep --n 4 'a k b'",
     'matrix [[0, 1], [1, 0]]  det -1  quotient_character -1\n',
     '{"det": -1, "matrix": [[0, 1], [1, 0]], "n": 4, "parity": "even", '
     '"quotient_character": -1, "word": "a a k"}\n'),
    ('rep --n 5 a',
     'matrix [[1, 0], [0, 1]]  det 1  quotient_character 1\n',
     '{"det": 1, "matrix": [[1, 0], [0, 1]], "n": 5, "parity": "odd", '
     '"quotient_character": 1, "word": "a"}\n'),
    ('orbit --n 4 --radius 1 --max-word-len 2',
     'reached 8 points (word length <= 2)\n'
     'claimed in box radius 1: 4\n'
     'missing: []\n'
     'extraneous: []\n'
     'ok: True\n',
     '{"box_radius": 1, "claimed": [[-1, 0], [0, -1], [0, 1], [1, 0]], "extraneous": [], '
     '"max_word_len": 2, "missing": [], "n": 4, "ok": true, "parity": "even", "reached": '
     '[[-1, -2], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 2], [2, 1], [3, 2]], "start": [1, 0]}\n'),
    ('orbit --n 4 --start 2,1 --radius 2 --max-word-len 3',
     'reached 12 points (word length <= 3)\n'
     'claimed in box radius 2: 8\n'
     'missing: [(-1, -2)]\n'
     'extraneous: []\n'
     'ok: False\n',
     '{"box_radius": 2, "claimed": [[-2, -1], [-1, -2], [-1, 0], [0, -1], [0, 1], [1, '
     '0], [1, 2], [2, 1]], "extraneous": [], "max_word_len": 3, "missing": [[-1, '
     '-2]], "n": 4, "ok": false, "parity": "even", "reached": [[-2, -1], [-1, 0], [0, '
     '-1], [0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3], [4, 5]], '
     '"start": [2, 1]}\n'),
    ('homology --n 3',
     'H_i(C^3, A u L) ranks:\n'
     '  degree 0: 0\n'
     '  degree 1: 0\n'
     '  degree 2: 0\n'
     '  degree 3: 2\n'
     '  degree 4: 0\n',
     '{"absolute_reduced": {"2": 2}, "n": 3, "pieces": {"A": {"0": 1, "2": 1}, '
     '"A_int_L": {"0": 1, "1": 1}, "L": {"0": 1}}, "relative": {"3": 2}}\n'),
    ('make-loop --kind alpha --n 4 --samples 64 -o alpha.json',
     'wrote alpha loop (65 samples) to alpha.json\n',
     '{"kind": "alpha", "samples": 65, "written": "alpha.json"}\n'),
    ('make-loop --kind beta --n 3 --eps 0.3 --samples 64 -o beta.json',
     'wrote beta loop (65 samples) to beta.json\n',
     '{"kind": "beta", "samples": 65, "written": "beta.json"}\n'),
    ('make-loop --kind kappa --n 4 --samples 64 -o kappa.json',
     'wrote kappa loop (65 samples) to kappa.json\n',
     '{"kind": "kappa", "samples": 65, "written": "kappa.json"}\n'),
    ('classify alpha.json',
     'word: a\n'
     'matrix (even n): [[-1, 2], [0, 1]]\n'
     'matrix (odd n):  [[1, 0], [0, 1]]\n'
     'diagnostics: margin 0.438, max step 0, crossings 1, branch flip 0\n',
     '{"diagnostics": {"branch_flip": 0, "crossing_count": 1, '
     '"max_relative_step": 0.0, "min_discriminant_margin": 0.4375}, "kappa_bit": 0, '
     '"matrix_even": [[-1, 2], [0, 1]], "matrix_odd": [[1, 0], [0, 1]], "word": "a"}\n'),
    ('classify beta.json',
     'word: b\n'
     'matrix (even n): [[1, 0], [2, -1]]\n'
     'matrix (odd n):  [[1, 0], [0, 1]]\n'
     'diagnostics: margin 0.51, max step 0, crossings 1, branch flip 0\n',
     '{"diagnostics": {"branch_flip": 0, "crossing_count": 1, '
     '"max_relative_step": 0.0, "min_discriminant_margin": 0.51}, "kappa_bit": 0, '
     '"matrix_even": [[1, 0], [2, -1]], "matrix_odd": [[1, 0], [0, 1]], "word": "b"}\n'),
    ('classify --n 4 kappa.json',
     'word: k\n'
     'matrix (even n): [[0, 1], [1, 0]]\n'
     'matrix (odd n):  [[0, 1], [1, 0]]\n'
     'diagnostics: margin 1, max step 1.11e-16, crossings 0, branch flip 1\n',
     '{"diagnostics": {"branch_flip": 1, "crossing_count": 0, '
     '"max_relative_step": 1.1102230246251568e-16, '
     '"min_discriminant_margin": 0.9999999999999999}, "kappa_bit": 1, '
     '"matrix_even": [[0, 1], [1, 0]], "matrix_odd": [[0, 1], [1, 0]], "word": "k"}\n'),
    ('selftest',
     'PASS relations\n'
     'PASS invariant-vector\n'
     'PASS orbit-claim\n'
     'PASS classifier-fixtures\n',
     '{"checks": [{"detail": "", "name": "relations", "passed": true}, {"detail": "", '
     '"name": "invariant-vector", "passed": true}, {"detail": "", '
     '"name": "orbit-claim", "passed": true}, {"detail": "", '
     '"name": "classifier-fixtures", "passed": true}], "ok": true}\n'),
]
# stderr of each domain error, the same with and without --json.
GOLDEN_ERRORS = [
    ('normalize z',
     "error: MalformedWord: unknown token: 'z'\n"),
    ('orbit --n 5',
     'error: OddParityClaim: the lattice orbit claim concerns even dimension\n'),
    ('homology --n 1',
     'error: DimensionTooSmall: need n >= 2, got 1\n'),
    ('make-loop --kind alpha --n 4 --samples 10 -o x.json',
     'error: BadParameters: need at least 64 samples, got 10\n'),
    ('classify --n 5 kappa.json',
     'error: BadParameters: --n 5 does not match loop dimension 4\n'),
    ('classify missing.json',
     "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    ('classify subnormal-c.json',
     'error: NonFiniteSample: sample 40 is not finite at |c| = 1\n'),
    ('classify far-d.json',
     'error: NonFiniteSample: sample 40 is not finite at |c| = 1\n'),
    ('orbit --n 4 --max-word-len 100000000',
     'error: BadParameters: max_word_len 100000000 gives a ball of 400000000 points, '
     'above MAX_ORBIT_POINTS = 1048576\n'),
]
# Sample 40 of alpha.json as set in each file that the classify lines above refuse: a
# subnormal coefficient, and an offset that overflows once scaled to |c| = 1.  Scaling
# either once printed numpy RuntimeWarnings before the error line.
GOLDEN_NOT_FINITE = {
    'subnormal-c.json': {'c': [[1e-320, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    'far-d.json': {'c': [[1e-10, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 'd': [1e308, 0.0]},
}
# sha256 of each file that make-loop wrote.
GOLDEN_FILES = {
    'alpha.json': '186d591e9e0a158bc04506991eaaefd43fafd097d2beef11088d05521db8f4c0',
    'beta.json': '26d70c11b8dd094d508ce4aafcb23d0fa92cc4c272461d608fb957b09b0cc355',
    'kappa.json': 'c0f4512eacd80f82ff8941675fa718ad884e5b0cd2bf5e573ded771d56bd90e5',
}


def test_golden_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for cmdline, text, document in GOLDEN_OUTPUT:
        argv = shlex.split(cmdline)
        assert run(capsys, *argv) == (0, text, ""), cmdline
        assert run(capsys, *argv, "--json") == (0, document, ""), cmdline
    for name, digest in GOLDEN_FILES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    for name, sample in GOLDEN_NOT_FINITE.items():
        data = json.loads((tmp_path / 'alpha.json').read_text())
        data['samples'][40].update(sample)
        (tmp_path / name).write_text(json.dumps(data))
    for cmdline, err in GOLDEN_ERRORS:
        for mode in ((), ("--json",)):
            assert run(capsys, *shlex.split(cmdline), *mode) == (1, "", err), cmdline


def test_readme_command_block(capsys, tmp_path, monkeypatch):
    # The qmono lines of the README's command block, run in order in one directory, so that
    # make-loop writes the file that classify reads: each exits 0, each "# -> X" is a line of
    # its output, and each "# matrix M, det D" is the matrix and det that --json gives.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```sh\n(qmono .*?)^```", readme, flags=re.M | re.S)[1]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QMONO_TOL", raising=False)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        comment = comment.strip()
        if comment.startswith("-> "):
            assert comment[3:] in out.splitlines(), line
        if rep := re.fullmatch(r"matrix (.*), det (\S+)", comment):
            document = json.loads(run(capsys, *argv, "--json")[1])
            assert [document["matrix"], document["det"]] == [json.loads(rep[1]), int(rep[2])], line


# --- fuzz: every loop file gives a word or a named error ----------------

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4) | st.sampled_from([0, 1, 3, 1e400, -1.0, "1"]))
numbers = (st.floats() | st.integers(-3, 3)
           | st.sampled_from([0.0, 1.0, -1.0, 1e-320, 1e-300, 1e200, 1e400]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12)
loop_like = st.fixed_dictionaries({}, optional={"n": json_values, "samples": json_values,
                                                "closure_lambda": json_values})


def document_paths(node, prefix=()):
    """Every key and index path inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from document_paths(child, prefix + (key,))


ALPHA_DOCUMENT = alpha_document()
ALPHA_PATHS = list(document_paths(ALPHA_DOCUMENT))


@st.composite
def mutated_documents(draw):
    data = copy.deepcopy(ALPHA_DOCUMENT)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(ALPHA_PATHS))
        node = data
        try:
            for parent in parents:
                node = node[parent]
            if draw(st.integers(0, 3)):
                node[key] = draw(numbers | json_values)
            else:
                del node[key]
        except (IndexError, KeyError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    return data


def classify_document(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    event(err.getvalue().split(":")[1] if code else "classified")


@given(data=json_values | loop_like)
def test_classify_fuzz_arbitrary_json(tmp_path_factory, data):
    classify_document(tmp_path_factory, data)


@given(data=mutated_documents())
def test_classify_fuzz_mutated_loop_file(tmp_path_factory, data):
    classify_document(tmp_path_factory, data)
