import contextlib
import copy
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qmono import loops
from qmono.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "k a")
    assert code == 0
    assert out.strip() == "b k"


def test_normalize_json_roundtrip(capsys):
    code, out, _ = run(capsys, "normalize", "a k b k a^-1", "--json")
    assert code == 0
    document = json.loads(out)
    code, out, _ = run(capsys, "normalize", document["word"], "--json")
    assert code == 0
    assert json.loads(out) == document


def test_multiply_and_invert(capsys):
    code, out, _ = run(capsys, "multiply", "a k", "a")
    assert code == 0
    assert out.strip() == "a b k"
    code, out, _ = run(capsys, "invert", "a k")
    assert code == 0
    assert out.strip() == "b^-1 k"


def test_rep(capsys):
    code, out, _ = run(capsys, "rep", "--n", "4", "a", "--json")
    assert code == 0
    document = json.loads(out)
    assert document["matrix"] == [[-1, 2], [0, 1]]
    assert document["det"] == -1
    code, out, _ = run(capsys, "rep", "--n", "5", "a")
    assert code == 0
    assert "[[1, 0], [0, 1]]" in out


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "4", "--radius", "3",
                       "--max-word-len", "6", "--json")
    assert code == 0
    document = json.loads(out)
    assert document["ok"] is True
    assert document["missing"] == []
    assert [1, 0] in document["reached"]


def test_orbit_odd_parity_is_domain_error(capsys):
    code, _, err = run(capsys, "orbit", "--n", "5")
    assert code == 1
    assert "OddParityClaim" in err


def test_homology(capsys):
    code, out, _ = run(capsys, "homology", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["relative"] == {"3": 2}


def test_make_loop_then_classify(capsys, tmp_path):
    path = tmp_path / "kappa.json"
    code, _, _ = run(capsys, "make-loop", "--kind", "kappa", "--n", "4",
                     "--samples", "128", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    document = json.loads(out)
    assert document["word"] == "k"
    assert document["matrix_even"] == [[0, 1], [1, 0]]
    code, _, err = run(capsys, "classify", "--n", "5", str(path))
    assert code == 1


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/loop.json")
    assert code == 1


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["rep", "a"])  # missing --n
    assert info.value.code == 2


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "normalize", "z")
    assert code == 1
    assert "MalformedWord" in err


def write_loop(tmp_path, name, edit):
    path = tmp_path / "alpha.json"
    assert main(["make-loop", "--kind", "alpha", "--n", "4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return target


def test_classify_non_finite_sample_refused(capsys, tmp_path):
    def nan_c(data):
        data["samples"][100]["c"][0] = [float("nan"), 0.0]

    def inf_d(data):
        data["samples"][7]["d"] = [float("inf"), 0.0]

    for name, edit, index in (("nan.json", nan_c, 100), ("inf.json", inf_d, 7)):
        code, out, err = run(capsys, "classify", str(write_loop(tmp_path, name, edit)))
        assert code == 1
        assert err.startswith(f"error: NonFiniteSample: sample {index} ")


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


@pytest.mark.parametrize("value", ["nan", "-1", "abc"])
def test_classify_bad_tolerance_refused(capsys, tmp_path, monkeypatch, value):
    path = write_loop(tmp_path, "a.json", lambda data: None)
    monkeypatch.setenv("QMONO_TOL", value)
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert err.startswith("error: BadTolerance: ")


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
            "import qmono; qmono.multiply; "
            "assert codes == [0] * len(codes), codes; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "qmono.classify; assert 'numpy' in sys.modules")
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
]
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
    for cmdline, err in GOLDEN_ERRORS:
        for mode in ((), ("--json",)):
            assert run(capsys, *shlex.split(cmdline), *mode) == (1, "", err), cmdline


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


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@FUZZ
@given(data=json_values | loop_like)
def test_classify_fuzz_arbitrary_json(tmp_path_factory, data):
    classify_document(tmp_path_factory, data)


@FUZZ
@given(data=mutated_documents())
def test_classify_fuzz_mutated_loop_file(tmp_path_factory, data):
    classify_document(tmp_path_factory, data)
