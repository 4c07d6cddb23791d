"""One line reader: no module of the package but ``alphabet`` opens a file
to read text, so every text input goes through ``alphabet._lines`` and
breaks its lines by the same rule.  The ``train-toy`` config, which
``json.load`` reads whole, is the one exception."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "convasr").glob("*.py"))
# (module, top-level definition) that may open a file to read text besides alphabet.py
EXCEPTIONS = {("cli.py", "_cmd_train_toy")}


def reads_text(call) -> bool:
    """Whether ``call``, an ``open(...)`` call, opens a file for reading in
    text mode; a mode that is not a literal counts as one."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r")
    )
    if not isinstance(mode, ast.Constant):
        return True
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def text_reads(tree) -> set:
    """The top-level definitions of ``tree`` (``<module>`` for other
    statements) holding a builtin ``open`` call that reads text."""
    found = set()
    for stmt in tree.body:
        name = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                if reads_text(node):
                    found.add(name)
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "alphabet.py"], ids=lambda p: p.name)
def test_only_alphabet_opens_a_file_to_read_text(path):
    reads = {(path.name, name) for name in text_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert reads <= EXCEPTIONS


def test_a_text_read_is_caught():
    tree = ast.parse(
        "open(p, 'rb')\n"
        "def save(p):\n    with open(p, 'w', encoding='utf-8') as f: pass\n"
        "def load(p):\n    return open(p, encoding='utf-8').read()\n"
        "def update(p):\n    open(p, mode='r+')\n"
        "class Reader:\n    def read(self, p, mode):\n        return open(p, mode)\n"
    )
    assert text_reads(tree) == {"load", "update", "Reader"}
