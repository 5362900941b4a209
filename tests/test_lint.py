"""Source checks that need no import of the program."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qmono"

# numpy's module-level reductions dispatch in Python before reaching C, which costs
# several microseconds per call on a short vector; the ndarray methods and
# np.count_nonzero give the same results without it.
WRAPPED_REDUCTIONS = {"any", "all", "sum", "max", "min"}


def test_no_module_level_reductions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in WRAPPED_REDUCTIONS):
                found.append(f"{path.name}:{node.lineno}: np.{node.func.attr}")
    assert SRC.is_dir() and not found, found


# A warning filter that ignores every RuntimeWarning, whatever its message, would hide a
# new overflow in the code under test; a filter on one message stays allowed.
BLANKET_FILTER = re.compile(r"\s*ignore\s*:\s*:\s*(\w+\.)*RuntimeWarning\b")


def test_no_blanket_runtime_warning_filters():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and BLANKET_FILTER.match(node.value)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found
