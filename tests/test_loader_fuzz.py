"""Fuzzed input files.

ARPA and lexicon files each load or raise an LMError whose message names
a line, never a bare exception, and the streaming loaders agree with the
whole-file references in ``oracles`` at any chunk size: the same model
in the same order, or the same message.  Every other file reader loads a
fuzzed file or raises its own module's error naming the file."""

import re
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from convasr import alphabet as alphabet_module
from convasr.acoustic import ConvLayerSpec, NetworkSpec, init_params
from convasr.alphabet import AlphabetError, default_alphabet, load_alphabet, make_alphabet
from convasr.criterion import TransitionTable
from convasr.features import FeatureError, Waveform, load_pcm, load_wav
from convasr.fileio import (
    FormatError,
    load_checkpoint,
    read_features,
    read_matrix,
    read_transitions,
    save_checkpoint,
    write_transitions,
)
from convasr.lm import LMError, load_arpa, load_lexicon

from conftest import HAND_ARPA
from oracles import reference_load_arpa, reference_load_lexicon
from writers import save_alphabet, save_wav

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
    with mock.patch.object(alphabet_module, "_CHUNK", chunk):
        got = _outcome(load, form, path)
    assert got == _outcome(reference, form, path)


# chunk sizes that cut lines, "\r\n" pairs and multi-byte characters, and the default
_CHUNKS = st.sampled_from([1, 2, 3, 5, alphabet_module._CHUNK])

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


# bytes that steer edits towards the binary readers' branches: magics, chunk
# names, small and huge little-endian counts, float32 exponent bytes, NaN and
# infinities, and alphabet symbols
_BINARY_PIECE = st.one_of(
    st.sampled_from(
        [b"FSQ1", b"CKP1", b"RIFF", b"WAVE", b"fmt ", b"data", b"\x00", b"\x01", b"\x7f", b"\xff",
         b"\x00\x00\x00\x00", b"\x01\x00\x00\x00", b"\xff\xff\xff\xff", b"\x00\x00\xc0\x7f",
         b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff", b"|", b"2", b"3", b"\n", b"\r", b"\xc3"]
    ),
    st.binary(min_size=1, max_size=4),
)
_BINARY_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.just("byte"),
              st.integers(0, 10**6), _BINARY_PIECE),
    max_size=3,
)
_OVERWRITES = st.lists(st.tuples(st.integers(0, 10**6), _BINARY_PIECE), max_size=3)


def _overwrite(data: bytes, overwrites) -> bytes:
    """Each piece written over the bytes at a multiple of 4, where every
    binary format here starts a field, so the other fields keep their places."""
    for pos, piece in overwrites:
        i = 4 * (pos % (len(data) // 4 + 1))
        data = data[:i] + piece + data[i + len(piece) :]
    return data


@pytest.fixture(scope="module")
def seeds(tmp_path_factory) -> dict:
    """One well-formed file per reader: its bytes, the reader and its error."""
    tmp_path = tmp_path_factory.mktemp("seeds")
    spec = NetworkSpec([ConvLayerSpec(3, 4, 2, 1), ConvLayerSpec(4, 5, 1, 1, "none")])
    params = init_params(spec, np.random.default_rng(0))
    transitions = TransitionTable(np.arange(25.0).reshape(5, 5) / 10, np.ones(5))
    save_checkpoint(tmp_path / "seed.ckpt", spec, params, transitions)
    write_transitions(tmp_path / "seed.tr", transitions)
    save_wav(tmp_path / "seed.wav", Waveform(np.linspace(-0.5, 0.5, 40)))
    save_alphabet(make_alphabet("ab"), tmp_path / "seed.abc")
    matrix = (tmp_path / "seed.tr").read_bytes()
    return {
        "read_matrix": (matrix, read_matrix, FormatError),
        "read_features": (matrix, read_features, FormatError),
        "read_transitions": (matrix, read_transitions, FormatError),
        "load_checkpoint": ((tmp_path / "seed.ckpt").read_bytes(), load_checkpoint, FormatError),
        "load_wav": ((tmp_path / "seed.wav").read_bytes(), load_wav, FeatureError),
        "load_pcm": (np.arange(-20, 20, dtype="<i2").tobytes(), lambda p: load_pcm(p, 16000), FeatureError),
        "load_alphabet": ((tmp_path / "seed.abc").read_bytes(), load_alphabet, AlphabetError),
    }


class TestReaderFuzz:
    # no edits at all is the first example: every seed file loads
    @pytest.mark.parametrize("reader", ["read_matrix", "read_features", "read_transitions",
                                        "load_checkpoint", "load_wav", "load_pcm", "load_alphabet"])
    @_FUZZ
    @given(edits=_BINARY_EDITS, overwrites=_OVERWRITES)
    def test_loads_or_names_the_file(self, tmp_path, seeds, reader, edits, overwrites):
        seed, load, error = seeds[reader]
        path = tmp_path / "fuzzed"
        path.write_bytes(_mutate(_overwrite(seed, overwrites), edits))
        try:
            load(path)
        except error as exc:
            assert str(path) in str(exc), str(exc)
