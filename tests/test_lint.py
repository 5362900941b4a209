"""Source checks that need no import of the program."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmono"

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
