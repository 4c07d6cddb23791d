"""Fuzzed ARPA and lexicon files: each one loads or raises an LMError
whose message names a line, never a bare exception, and the streaming
loaders agree with the whole-file references in ``oracles`` at any chunk
size: the same model in the same order, or the same message."""

import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from convasr import lm
from convasr.alphabet import default_alphabet
from convasr.lm import LMError, load_arpa, load_lexicon

from conftest import HAND_ARPA
from oracles import reference_load_arpa, reference_load_lexicon

LEXICON = "cat\tc a t\nball\tb a l 2\nit's\ti t ' s\n\ndog\td o g\n"

# bytes that steer edits towards the loaders' branches: section markers,
# numbers, separators, grapheme symbols and invalid UTF-8
_TOKENS = st.sampled_from(
    [b"\\", b"-", b"=", b"\t", b" ", b"\n", b"\r", b"0", b"1", b"9", b".", b"e",
     b"inf", b"nan", b"ngram", b"-grams:", b"\\data\\", b"\\end\\", b"<s>", b"|",
     b"a", b"2", b"\xff", b"\xc3", b"\x00"]
)
_PIECE = st.one_of(_TOKENS, st.binary(min_size=1, max_size=3))
_EDIT = st.one_of(
    st.tuples(st.sampled_from(["insert", "replace"]), st.sampled_from(["byte", "line"]),
              st.integers(0, 10**6), _PIECE),
    st.tuples(st.just("delete"), st.sampled_from(["byte", "line"]),
              st.integers(0, 10**6), st.just(b"")),
)


def _mutate(data: bytes, edits) -> bytes:
    for op, unit, pos, piece in edits:
        if unit == "line":
            parts = data.split(b"\n")
            i = pos % (len(parts) + (op == "insert"))
            if op == "insert":
                parts.insert(i, piece)
            elif op == "replace":
                parts[i] = piece
            else:
                del parts[i]
            data = b"\n".join(parts)
        else:
            i = pos % (len(data) + 1)
            if op == "insert":
                data = data[:i] + piece + data[i:]
            elif op == "replace":
                data = data[:i] + piece + data[i + 1 :]
            else:
                data = data[:i] + data[i + 1 :]
    return data


def _arpa_form(model) -> tuple:
    """Everything a loaded model holds, floats as hex, tables in order."""
    tables = [[(key, p.hex(), b.hex()) for key, (p, b) in t.items()] for t in model.tables]
    return model.order, list(model.vocab.items()), model.words, tables


def _lexicon_form(trie) -> tuple:
    return trie.words, trie.spellings


def _outcome(load, form, path):
    try:
        return form(load(path))
    except LMError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return type(exc).__name__, str(exc)


def _loads_as_reference(tmp_path, data: bytes, chunk: int, load, reference, form) -> None:
    path = tmp_path / "fuzzed"
    path.write_bytes(data)
    with mock.patch.object(lm, "_CHUNK", chunk):
        got = _outcome(load, form, path)
    assert got == _outcome(reference, form, path)


# chunk sizes that cut lines, "\r\n" pairs and multi-byte characters, and the default
_CHUNKS = st.sampled_from([1, 2, 3, 5, lm._CHUNK])

# each example overwrites the same file, so one tmp_path serves them all
_FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestLoaderFuzz:
    @_FUZZ
    @given(edits=st.lists(_EDIT, min_size=1, max_size=4), chunk=_CHUNKS)
    def test_arpa(self, tmp_path, edits, chunk):
        data = _mutate(HAND_ARPA.encode(), edits)
        _loads_as_reference(tmp_path, data, chunk, load_arpa, reference_load_arpa, _arpa_form)

    @_FUZZ
    @given(edits=st.lists(_EDIT, min_size=1, max_size=4), chunk=_CHUNKS)
    def test_lexicon(self, tmp_path, edits, chunk):
        data = _mutate(LEXICON.encode(), edits)
        alphabet = default_alphabet()
        _loads_as_reference(
            tmp_path, data, chunk,
            lambda p: load_lexicon(p, alphabet),
            lambda p: reference_load_lexicon(p, alphabet),
            _lexicon_form,
        )
