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


# A tolerance has one source: geometry.DEFAULT_TOL, which default_tol hands to every caller
# that gives none.  A second module-level tolerance would be a second convention.
ALLOWED_TOLERANCES = {("geometry.py", "DEFAULT_TOL")}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def module_level_names(tree):
    """The names that a module binds outside its functions, classes and comprehensions."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def test_one_module_level_tolerance():
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in module_level_names(ast.parse(path.read_text(), filename=str(path)))
             if "TOL" in name and (path.name, name) not in ALLOWED_TOLERANCES]
    assert SRC.is_dir() and not found, found


def test_package_binds_no_names():
    # Callers import the modules (`from qmono import loops`), so a name bound in __init__.py
    # would only be a second path to one of theirs.
    path = SRC / "__init__.py"
    found = sorted(module_level_names(ast.parse(path.read_text(), filename=str(path))))
    assert not found, found


def builds_without_constructor(function):
    """True if the function calls object.__new__ or writes into an instance __dict__, by
    item assignment or by a method call such as update."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if node.func.attr == "__new__" and isinstance(target, ast.Name) and target.id == "object":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "__dict__":
                return True
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            return True
    return False


def test_one_function_builds_a_loop_without_its_constructor():
    # A loop built past HyperplaneLoop's checks is built in one place, so that what such a
    # loop must carry (its fields, its head frame) is set once.
    path = SRC / "loops.py"
    found = [node.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and builds_without_constructor(node)]
    assert len(found) <= 1, found


# The hypothesis policy has one home, the profile that conftest.py loads; a test states only a
# number of examples other than the profile's 200.
PROFILE_ARGUMENTS = {"deadline", "derandomize", "database"}


def test_settings_state_only_their_example_count():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "settings"):
                found += [f"{path.name}:{node.lineno}: {ast.unparse(k)}" for k in node.keywords
                          if k.arg in PROFILE_ARGUMENTS
                          or (k.arg == "max_examples" and ast.unparse(k.value) == "200")]
    assert not found, found


# The loop file has one owner, loops.load and loops.save: the CLI opens no file and decodes no
# JSON, so a new file format is added in loops.py alone.
FILE_CALLS = {"open", "json.load", "json.loads"}


def test_cli_leaves_the_loop_file_to_loops():
    path = SRC / "cli.py"
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and ast.unparse(node.func) in FILE_CALLS]
    assert not found, found
