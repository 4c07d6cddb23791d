"""numpy is the only runtime dependency: every module of the package
imports from the standard library, numpy or the package itself."""

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
