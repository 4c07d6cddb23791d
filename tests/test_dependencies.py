"""numpy is the only runtime dependency: every module of the package
imports from the standard library, numpy or the package itself.  Within
the package the imports form no cycle, and the lattice module, whose
chain rule the decoder shares, sits at the bottom: it imports no other
module of the package."""

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


PACKAGE = package_imports({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES})


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
