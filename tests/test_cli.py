import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
                                  ["--radius", "x"]])
def test_orbit_range_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--n", "4", *argv])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_group_commands_do_not_import_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from qmono.cli import main; main(['normalize', 'k a']); "
            "import qmono; qmono.multiply; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "qmono.classify; assert 'numpy' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "b k"
