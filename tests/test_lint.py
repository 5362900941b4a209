"""Source checks that need no import of the program."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qmono"

# numpy's module-level reductions dispatch in Python before reaching C, which costs
# several microseconds per call on a short vector; the ndarray methods and
# np.count_nonzero give the same results without it.  np.diff is a Python function
# too, around the subtraction a[1:] - a[:-1] that gives its result.
WRAPPED_REDUCTIONS = {"any", "all", "sum", "max", "min", "diff"}


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


# A warning filter that lets a RuntimeWarning pass, on any message, would hide a new
# overflow or invalid operation in the code under test, which the suite turns into an
# error.  Filters that turn one into an error stay allowed.
LENIENT_FILTER = re.compile(
    r"\s*(ignore|default|always|module|once)\s*:[^:]*:\s*(\w+\.)*RuntimeWarning\b")
FILTER_CALLS = {"filterwarnings", "simplefilter"}


def names_runtime_warning(node):
    return any(isinstance(sub, (ast.Name, ast.Attribute))
               and (getattr(sub, "id", None) or getattr(sub, "attr", None)) == "RuntimeWarning"
               for sub in ast.walk(node))


def test_no_runtime_warning_filters():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            lenient = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and LENIENT_FILTER.match(node.value))
            # warnings.filterwarnings("ignore", category=RuntimeWarning) and the like
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in FILTER_CALLS and names_runtime_warning(node)):
                action = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "action"), None)
                lenient = not (isinstance(action, ast.Constant) and action.value == "error")
            if lenient:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
