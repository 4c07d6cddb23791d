"""numpy is the only runtime dependency: every module of the package
imports from the standard library, numpy or the package itself, and the
package is its Python modules alone, with no data files.  Within
the package the imports form no cycle, and the lattice module, whose
chain rule the decoder shares, sits at the bottom: it imports no other
module of the package.  Only the decoder raises ``DecodeError``, the CLI's
exit 3, and only for the documented cases where no hypothesis can come
out: an input check raises a ``ValueError`` (exit 1) instead."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "convasr").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "convasr"}


def imported_roots(tree) -> set:
    """The top-level package of each absolute import in ``tree``."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: within the package
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_stdlib_and_numpy(path):
    assert imported_roots(ast.parse(path.read_text(encoding="utf-8"))) <= ALLOWED


def test_an_import_outside_them_is_caught():
    tree = ast.parse("import os\nfrom numpy import linalg\nfrom . import lm\nimport scipy.signal")
    assert imported_roots(tree) - ALLOWED == {"scipy"}


def test_the_package_ships_python_modules_only():
    tomllib = pytest.importorskip("tomllib")
    package = SOURCES[0].parent
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert [p.relative_to(package) for p in files if p.suffix != ".py"] == []
    pyproject = tomllib.loads((package.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "package-data" not in pyproject["tool"]["setuptools"]


def package_imports(trees: dict) -> dict:
    """Each module's relative imports, as the set of package modules it names."""
    graph = {}
    for name, tree in trees.items():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # ``from . import x``: module x, or a name of the package's __init__
                    deps.update(a.name if a.name in trees else "__init__" for a in node.names)
        graph[name] = deps
    return graph


def on_or_behind_a_cycle(graph: dict) -> set:
    """What is left after peeling off, round by round, every module whose
    imports are all peeled: the modules on an import cycle or importing one."""
    left = dict(graph)
    while True:
        peeled = {name for name, deps in left.items() if not deps & left.keys()}
        if not peeled:
            return set(left)
        for name in peeled:
            del left[name]


TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
PACKAGE = package_imports(TREES)


def test_package_imports_form_no_cycle():
    assert on_or_behind_a_cycle(PACKAGE) == set()


def test_criterion_imports_no_other_module_of_the_package():
    assert PACKAGE["criterion"] == set()


def test_a_two_module_cycle_is_caught():
    trees = {
        "a": ast.parse("from .b import x"),
        "b": ast.parse("from . import a\nimport numpy"),
        "c": ast.parse("from .a import y"),
        "d": ast.parse("from .e import z"),
        "e": ast.parse("import os"),
    }
    assert package_imports(trees)["b"] == {"a"}
    assert on_or_behind_a_cycle(package_imports(trees)) == {"a", "b", "c"}


# the documented exit-3 cases (README): the messages ``raise DecodeError`` may start with
NO_HYPOTHESIS = ("empty emission table", "empty lexicon", "no complete hypothesis", "no word sequence is feasible")


def decode_error_raises(trees: dict) -> list:
    """(module, message) of each ``raise DecodeError(...)``; the message is
    None unless it is one string literal."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not isinstance(call, ast.Call):
                continue
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "DecodeError":
                arg = call.args[0] if call.args else None
                found.append((name, arg.value if isinstance(arg, ast.Constant) else None))
    return found


def undocumented(raises: list) -> list:
    return [(name, msg) for name, msg in raises if name != "decoder" or not str(msg).startswith(NO_HYPOTHESIS)]


def test_decode_error_only_where_no_hypothesis_can_come_out():
    raises = decode_error_raises(TREES)
    assert undocumented(raises) == []
    # each documented case is raised, once
    assert sorted(next(p for p in NO_HYPOTHESIS if msg.startswith(p)) for _, msg in raises) == sorted(NO_HYPOTHESIS)


def test_an_input_check_raising_decode_error_is_caught():
    trees = {
        "decoder": ast.parse(
            'raise DecodeError("empty lexicon")\n'
            'raise DecodeError(f"emissions cover {n} labels")\n'
            'raise ValueError("alphabet mismatch")'
        ),
        "cli": ast.parse('raise decoder.DecodeError("empty lexicon")'),
    }
    assert undocumented(decode_error_raises(trees)) == [("decoder", None), ("cli", "empty lexicon")]
