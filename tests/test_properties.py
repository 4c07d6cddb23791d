"""Property-based checks of invariants the criteria, the transcription
coding, the ARPA files, the loaders' line reader, the decoder and the
run configs state for every input."""

import dataclasses
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from convasr import alphabet as alphabet_module, cli
from convasr.alphabet import decode_labels, default_alphabet, encode_transcription, load_alphabet, make_alphabet
from convasr.bench import BenchConfig, run_bench
from convasr.criterion import (
    InfeasibleError,
    TransitionTable,
    asg_loss,
    build_asg_graph,
    build_ctc_graph,
    build_full_graph,
    build_linear_graph,
    ctc_loss,
    forward_backward,
    forward_score,
    log_softmax,
    viterbi,
)
from convasr.decoder import DecodeError, DecoderConfig, decode
from convasr.lm import (
    LN10,
    ArpaParseError,
    LexiconTrie,
    LMError,
    NGramLM,
    _lines,
    build_lexicon,
    load_arpa,
    load_lexicon,
    save_arpa,
    score_word,
    sentence_logprob,
    smear,
)
from convasr.training import ToyTaskConfig, TrainConfig, default_toy_network, make_toy_dataset, train_toy

import oracles
from conftest import make_bigram_arpa, random_transitions

_PROPS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_SCORE = st.floats(-30.0, 30.0)


@st.composite
def _labels(draw, num_labels: int, max_len: int):
    """A label sequence with no adjacent repeats, as both criteria accept."""
    length = draw(st.integers(1, max_len))
    seq = [draw(st.integers(0, num_labels - 1))]
    while len(seq) < length and num_labels > 1:
        nxt = draw(st.integers(0, num_labels - 2))
        seq.append(nxt if nxt < seq[-1] else nxt + 1)
    return seq


@st.composite
def _asg_instance(draw):
    t = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    f = draw(arrays(np.float64, (t, n), elements=_SCORE))
    tr = TransitionTable(
        draw(arrays(np.float64, (n, n), elements=_SCORE)),
        draw(arrays(np.float64, n, elements=_SCORE)),
    )
    return f, tr, draw(_labels(n, t))


@st.composite
def _ctc_instance(draw):
    t = draw(st.integers(1, 12))
    n = draw(st.integers(2, 6))  # the last label is the blank
    f = log_softmax(draw(arrays(np.float64, (t, n), elements=_SCORE)))
    return f, draw(_labels(n - 1, t)), n - 1


class TestCriteria:
    @_PROPS
    @given(_asg_instance())
    def test_asg_loss_non_negative_and_emission_rows_sum_to_zero(self, instance):
        f, tr, labels = instance
        result = asg_loss(f, tr, labels)
        assert result.loss >= 0.0
        np.testing.assert_allclose(result.d_emissions.sum(axis=1), 0.0, rtol=0, atol=1e-9)

    @_PROPS
    @given(_ctc_instance())
    def test_ctc_loss_non_negative_on_normalized_rows(self, instance):
        f, labels, blank = instance
        assert ctc_loss(f, labels, blank).loss >= 0.0


@st.composite
def _tiny_instance(draw):
    """Emissions at unit scale or 1e3 (where the log-domain fallback
    takes over), small enough to enumerate every path."""
    scale = draw(st.sampled_from([1.0, 1e3]))
    t = draw(st.integers(1, 5))
    n = draw(st.integers(2, 4))
    unit = st.floats(-3.0, 3.0)
    f = scale * draw(arrays(np.float64, (t, n), elements=unit))
    tr = TransitionTable(
        draw(arrays(np.float64, (n, n), elements=unit)),
        draw(arrays(np.float64, n, elements=unit)),
    )
    return scale, f, tr, draw(_labels(n, t))


class TestKernelsAgainstOracles:
    @_PROPS
    @given(_tiny_instance())
    def test_forward_backward_score_is_the_forward_score(self, instance):
        scale, f, tr, labels = instance
        graphs = [build_full_graph(f.shape[1], f.shape[0]), build_asg_graph(labels, f.shape[0])]
        for graph in graphs:
            want, _ = forward_score(graph, f, tr, "logadd")
            assert abs(forward_backward(graph, f, tr).log_z - want) <= 1e-10 * scale

    @_PROPS
    @given(_tiny_instance())
    def test_losses_match_path_enumeration(self, instance):
        scale, f, tr, labels = instance
        want = oracles.asg_loss_bruteforce(f, tr.trans, tr.start, labels)
        assert abs(asg_loss(f, tr, labels).loss - want) <= 1e-10 * scale
        # the last label is the blank; letters avoid it and, when they
        # repeat, need a separator frame between them
        blank = f.shape[1] - 1
        letters = [x % blank for x in labels]
        need = len(letters) + sum(a == b for a, b in zip(letters, letters[1:]))
        if need <= f.shape[0]:
            g = log_softmax(f)
            want = oracles.ctc_loss_bruteforce(g, letters, blank)
            assert abs(ctc_loss(g, letters, blank).loss - want) <= 1e-10 * scale


@st.composite
def _chain_instance(draw):
    """Up to 6 units over 3 labels, repeats allowed, each optional or not,
    over up to 6 frames."""
    n = draw(st.integers(0, 6))
    units = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    optional = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    unit = st.floats(-3.0, 3.0)
    f = draw(arrays(np.float64, (draw(st.integers(0, 6)), 3), elements=unit))
    tr = TransitionTable(
        draw(arrays(np.float64, (3, 3), elements=unit)),
        draw(arrays(np.float64, 3, elements=unit)),
    )
    return units, optional, f, tr


class TestChainLattice:
    @_PROPS
    @given(_chain_instance())
    def test_walks_and_scores_match_the_chain_definition(self, instance):
        units, optional, f, tr = instance
        want = oracles.enumerate_chain_paths(units, optional, f.shape[0])
        try:
            graph = build_linear_graph(units, optional, f.shape[0])
        except InfeasibleError:
            assert want == []
            return
        assert sorted(oracles.enumerate_graph_paths(graph)) == sorted(want)
        scores = [oracles.path_score(p, f, tr.trans, tr.start) for p in want]
        la, _ = forward_score(graph, f, tr, "logadd")
        mx, _ = forward_score(graph, f, tr, "max")
        assert abs(la - oracles.logadd_ref(scores)) <= 1e-9
        assert abs(mx - max(scores)) <= 1e-9
        path, score = viterbi(graph, f, tr)
        assert path in want and score == mx
        assert abs(oracles.path_score(path, f, tr.trans, tr.start) - mx) <= 1e-9
        assert abs(forward_backward(graph, f, tr).log_z - la) <= 1e-9


class TestCtcLattice:
    @_PROPS
    @given(st.lists(st.integers(0, 2), max_size=6), st.integers(0, 12))
    def test_walks_and_frame_count_match_the_textbook_recursion(self, labels, num_frames):
        blank = 3
        want = oracles.enumerate_ctc_paths(labels, blank, num_frames)
        try:
            graph = build_ctc_graph(labels, num_frames, blank)
        except InfeasibleError as exc:
            assert want == []
            need = int(re.search(r"needs at least (\d+) frames", str(exc)).group(1))
            # the smallest feasible count: one frame per label and per mandatory blank
            assert need == max(len(labels) + sum(a == b for a, b in zip(labels, labels[1:])), 1)
            assert oracles.enumerate_ctc_paths(labels, blank, need)
            assert not oracles.enumerate_ctc_paths(labels, blank, need - 1)
            return
        assert want and sorted(oracles.enumerate_graph_paths(graph)) == sorted(want)


class TestTranscriptionCoding:
    @_PROPS
    @given(st.text(alphabet="abcxyzABZ' \t\n\r\x0b\x0c", max_size=40))
    def test_encode_decode_round_trip(self, text):
        alphabet = default_alphabet()
        back = decode_labels(encode_transcription(text, alphabet), alphabet)
        assert back == " ".join(text.lower().split())


# ARPA words: no whitespace, line breaks or control characters
_WORD = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4)
_PROB = st.floats(allow_nan=False, max_value=0.0)
_BACKOFF = st.floats(allow_nan=False, max_value=sys.float_info.max)


@st.composite
def _ngram_lm(draw):
    words = draw(st.lists(_WORD, min_size=1, max_size=6, unique=True))
    order = draw(st.integers(1, 3))
    tables = [{}]
    for n in range(1, order + 1):
        if n == 1:
            keys = [(i,) for i in range(len(words))]
        else:
            key = st.tuples(*[st.integers(0, len(words) - 1)] * n)
            keys = draw(st.lists(key, max_size=8, unique=True))
        backoff = _BACKOFF if n < order else st.just(0.0)
        tables.append({k: (draw(_PROB), draw(backoff)) for k in keys})
    return NGramLM(order, {w: i for i, w in enumerate(words)}, words, tables)


def _bits(table):
    return [(k, p.hex(), b.hex()) for k, (p, b) in table.items()]


class TestArpaFiles:
    @_PROPS
    @given(_ngram_lm())
    def test_save_load_bit_exact(self, tmp_path, lm):
        path = tmp_path / "lm.arpa"
        save_arpa(lm, path)
        back = load_arpa(path)
        assert (back.order, back.vocab, back.words) == (lm.order, lm.vocab, lm.words)
        assert [_bits(t) for t in back.tables] == [_bits(t) for t in lm.tables]


# every line break str.splitlines knows, and "\r\n"
_BREAKS = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# 1- to 4-byte characters
_WIDTHS = ["a", "\u00e9", "\u20ac", "\U0001f600"]
_TEXT = st.lists(
    st.one_of(st.sampled_from(_BREAKS + _WIDTHS), st.characters(blacklist_categories=("Cs",))),
    max_size=40,
).map("".join)
# an undecodable byte: a stray continuation, never-valid bytes, sequences
# cut short, a surrogate
_BAD = st.sampled_from(
    [b"\x80", b"\xff", b"\xc0\xaf", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80"]
)


def _message(load, path):
    with pytest.raises(LMError) as info:
        load(path)
    return type(info.value), str(info.value)


class TestLineReader:
    @_PROPS
    @given(text=_TEXT)
    def test_lines_break_where_splitlines_breaks(self, tmp_path, text):
        path = tmp_path / "text"
        path.write_bytes(text.encode())
        for chunk in range(1, 9):
            with mock.patch.object(alphabet_module, "_CHUNK", chunk):
                assert list(_lines(path, LMError)) == list(enumerate(text.splitlines(), 1))

    @_PROPS
    @given(text=_TEXT, bad=_BAD, at=st.integers(0, 10**6))
    def test_an_undecodable_byte_names_its_line_and_wins(self, tmp_path, text, bad, at):
        # the bad bytes may split a character or a "\r\n"; the first
        # line fails to parse in either format
        data = text.encode()
        at %= len(data) + 1
        path = tmp_path / "text"
        path.write_bytes(b"no header or tab\n" + data[:at] + bad + data[at:])
        want = _message(lambda p: oracles._reference_read_text(p, LMError), path)
        assert re.fullmatch(r"line \d+: byte 0x[0-9a-f]{2} is not valid UTF-8", want[1])
        alphabet = default_alphabet()
        for chunk in range(1, 9):
            with mock.patch.object(alphabet_module, "_CHUNK", chunk):
                assert _message(lambda p: list(_lines(p, LMError)), path) == want
                assert _message(load_arpa, path) == (ArpaParseError, want[1])
                assert _message(lambda p: load_lexicon(p, alphabet), path) == want



@st.composite
def _symbol_file(draw):
    """Distinct symbols, the silence and repetition ones among them, each
    ended by one or two line breaks (the last by up to two), so blank lines
    come in too."""
    char = st.one_of(
        st.sampled_from(_WIDTHS),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="".join(_BREAKS)),
    )
    symbols = draw(st.lists(st.text(char, min_size=1, max_size=3), unique=True, max_size=8))
    symbols = draw(st.permutations(list(dict.fromkeys(symbols + ["|", "2", "3"]))))
    ends = [draw(st.lists(st.sampled_from(_BREAKS), min_size=1, max_size=2).map("".join)) for _ in symbols[1:]]
    ends.append(draw(st.lists(st.sampled_from(_BREAKS), max_size=2).map("".join)))
    return "".join(map("".join, zip(symbols, ends)))


class TestOneLineRule:
    @_PROPS
    @given(text=_symbol_file())
    def test_every_text_reader_breaks_where_splitlines_breaks(self, tmp_path, text):
        path = tmp_path / "text"
        path.write_bytes(text.encode())
        lines = text.splitlines()
        for chunk in range(1, 9):
            with mock.patch.object(alphabet_module, "_CHUNK", chunk):
                assert [line for _, line in _lines(path, LMError)] == lines
                assert load_alphabet(path).symbols == tuple(line for line in lines if line)
                assert cli._read_lines(path) == lines

@st.composite
def _smeared_lexicon(draw):
    """Spellings over "abcd" with no silence and no label twice in a row,
    some of them shared by several words, and a unigram LM over the words."""
    alphabet = make_alphabet("abcd")
    graphemes = [g for g in range(len(alphabet)) if g != alphabet.silence_id]
    spelled = st.builds(lambda s: [graphemes[g] for g in s], _labels(len(graphemes), 6))
    spellings = draw(st.lists(spelled, max_size=12))
    if spellings:
        spellings += draw(st.lists(st.sampled_from(spellings), max_size=4))  # homophones
    words = [f"w{i}" for i in range(len(spellings))]
    unigrams = {(i,): (draw(_PROB), 0.0) for i in range(len(words))}
    lm = NGramLM(1, {w: i for i, w in enumerate(words)}, words, [{}, unigrams])
    return smear(LexiconTrie(words, spellings, alphabet), lm), lm


class TestLexiconTrie:
    @_PROPS
    @given(_smeared_lexicon())
    def test_nodes_are_the_spelling_prefixes_breadth_first(self, instance):
        trie, lm = instance
        prefixes = oracles.node_prefixes(trie)
        distinct = {()} | {tuple(s[:k]) for s in trie.spellings for k in range(len(s) + 1)}
        # children in grapheme order make each level lexicographic
        assert prefixes == sorted(distinct, key=lambda p: (len(p), p))
        assert trie.first[0] == 1 and trie.first[-1] == len(prefixes)
        assert (np.diff(trie.first) >= 0).all() and trie.label[0] == -1
        ends = [[w for w, s in enumerate(trie.spellings) if tuple(s) == p] for p in prefixes]
        assert trie.ends == ends and trie.num_ends.tolist() == [len(e) for e in ends]
        scores = [score_word(lm, (), w)[0] for w in trie.words]
        best = [oracles.prefix_best_unigram(trie.spellings, p, scores) for p in prefixes]
        assert trie.smeared.tolist() == best


_LETTERS = "abcd"
_WORD_POOL = ["ab", "ba", "cad", "d", "abc", "bd", "dab"]


@st.composite
def _decode_instance(draw):
    alphabet = make_alphabet(_LETTERS)
    t = draw(st.integers(1, 8))
    f = draw(arrays(np.float64, (t, len(alphabet)), elements=st.floats(-5.0, 5.0)))
    cfg = DecoderConfig(
        alpha=draw(st.floats(0.0, 2.0)),
        beta=draw(st.floats(-2.0, 2.0)),
        beam_size=draw(st.integers(1, 50)),
        mode=draw(st.sampled_from(["max", "logadd"])),
        silence=draw(st.sampled_from(["none", "optional", "mandatory"])),
    )
    words = draw(st.lists(st.sampled_from(_WORD_POOL), min_size=1, max_size=4, unique=True))
    return alphabet, f, cfg, words, draw(st.integers(0, 2**32 - 1))


class TestDecoder:
    @_PROPS
    @given(_decode_instance())
    def test_totals_decompose(self, tmp_path, instance):
        alphabet, f, cfg, words, seed = instance
        lm = load_arpa(make_bigram_arpa(tmp_path / "lm.arpa", words, np.random.default_rng(seed)))
        lexicon = smear(build_lexicon(words, alphabet), lm)
        try:
            results = decode(f, TransitionTable.zeros(len(alphabet)), lm, lexicon, cfg, nbest=5)
        except DecodeError:
            return
        for r in results:
            want = r.acoustic + cfg.alpha * r.lm + cfg.beta * r.num_words
            assert math.isclose(r.score, want, rel_tol=1e-12, abs_tol=1e-9)
            assert math.isclose(r.lm, LN10 * sentence_logprob(lm, r.words), rel_tol=1e-12)


@st.composite
def _reference_instance(draw):
    """A small decode over "abcd": a lexicon of 2-5 words of 1-3 letters
    with a one-letter word and maybe a homophone (a second word on the
    same trie node), Gaussian or whole-number scores, and a beam of 1-3
    with a threshold of inf, 1 or 3."""
    alphabet = make_alphabet(_LETTERS)
    L = len(alphabet)
    letter = draw(st.sampled_from(_LETTERS))
    spelled = st.text(alphabet=_LETTERS, min_size=1, max_size=3)
    words = sorted(set(draw(st.lists(spelled, min_size=1, max_size=4))) | {letter})
    homophone = draw(st.sampled_from([None] + words))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(1, 8))
    if draw(st.booleans()):
        f, tr, alpha = rng.normal(size=(t, L)), random_transitions(rng, L), draw(st.floats(0.0, 2.0))
    else:
        # whole numbers and no LM weight: equal totals at the beam cap
        f = rng.integers(-1, 2, size=(t, L)).astype(float)
        tr = TransitionTable(rng.integers(-1, 2, size=(L, L)), rng.integers(-1, 2, size=L))
        alpha = 0.0
    cfg = DecoderConfig(
        alpha=alpha,
        beta=draw(st.sampled_from([0.0, -0.5, 0.5, -1.0])),
        beam_size=draw(st.integers(1, 3)),
        beam_threshold=draw(st.sampled_from([math.inf, 1.0, 3.0])),
        mode=draw(st.sampled_from(["max", "logadd"])),
        silence=draw(st.sampled_from(["none", "optional", "mandatory"])),
    )
    return alphabet, f, tr, cfg, words, homophone, rng


def _hex_nbest(search, *args):
    try:
        results = search(*args, nbest=5)
    except DecodeError as exc:
        return str(exc)
    return [(r.words, r.score.hex(), r.acoustic.hex(), r.lm.hex()) for r in results]


class TestDecoderAgainstReference:
    @settings(_PROPS, max_examples=400)
    @given(_reference_instance())
    def test_nbest_bit_identical_to_reference_decoder(self, tmp_path, instance):
        alphabet, f, tr, cfg, words, homophone, rng = instance
        lexicon = build_lexicon(words, alphabet)
        if homophone is not None:
            # the homophone shares its spelling: two word ends on one node
            path = tmp_path / "lexicon.txt"
            spelled = {w: " ".join(alphabet.symbols[g] for g in s) for w, s in zip(words, lexicon.spellings)}
            spelled[homophone.upper()] = spelled[homophone]
            path.write_text("".join(f"{w}\t{s}\n" for w, s in spelled.items()))
            lexicon = load_lexicon(path, alphabet)
        lm = load_arpa(make_bigram_arpa(tmp_path / "lm.arpa", lexicon.words, rng))
        lexicon = smear(lexicon, lm)
        want = _hex_nbest(oracles.reference_decode, f, tr, lm, lexicon, cfg)
        assert _hex_nbest(decode, f, tr, lm, lexicon, cfg) == want


@st.composite
def _config_fields(draw, fields):
    """A value per field: drawn from the field's in-range strategy, or, for
    none or one or two fields drawn to break, the out-of-range one.
    Fields are coupled (word lengths, letters), so tests judge each draw
    on its own."""
    broken = draw(st.just(set()) | st.sets(st.sampled_from(sorted(fields)), min_size=1, max_size=2))
    return {k: draw(bad if k in broken else ok) for k, (ok, bad) in fields.items()}


def _checked(build, names, bad):
    """``build()`` when ``bad`` (field -> out of range) marks no field; else
    None, once it raised a ValueError naming a field marked bad (``names``
    maps a field to how the messages name it)."""
    bad = {k for k, out in bad.items() if out}
    try:
        cfg = build()
    except ValueError as exc:
        assert any(names[k] in str(exc) for k in bad), (str(exc), bad)
        return None
    assert not bad, bad
    return cfg


def _not_count(x, low=1):
    """True unless ``x`` is an integer >= ``low``."""
    return not (isinstance(x, int) and x >= low)


def _quoted(fields):
    return {k: f"'{k}'" for k in fields}


_NAN, _INF = math.nan, math.inf
_TOY_LETTERS = "abcxyz"  # the rest of the pool cannot spell itself: "A", "|", "2", " "
_TOY = {
    "letters": (
        st.lists(st.sampled_from(_TOY_LETTERS), min_size=2, max_size=4, unique=True).map("".join),
        st.text(alphabet=_TOY_LETTERS + "A|2 ", max_size=4),
    ),
    "num_samples": (st.integers(1, 3), st.integers(-2, 0) | st.just(2.5)),
    "min_word_len": (st.integers(1, 2), st.integers(3, 5) | st.integers(-1, 0) | st.just(1.5)),
    "max_word_len": (st.integers(2, 4), st.integers(-1, 1) | st.just(2.5)),
    "tone_hz": (
        st.just((300.0, 700.0, 1300.0, 2200.0)),
        st.sampled_from([(), (300.0,), (300.0, 0.0, 1300.0, 2200.0), (300.0, _NAN, 1300.0, _INF)]),
    ),
    "seed": (st.integers(0, 2**32 - 1), st.integers(-5, -1)),
    "min_tone_ms": (st.floats(25.0, 60.0), st.sampled_from([0.0, -5.0, 20.0, _NAN, _INF])),
    "max_tone_ms": (st.floats(60.0, 90.0), st.sampled_from([10.0, _NAN, _INF])),
    "noise_std": (st.floats(0.0, 0.5), st.sampled_from([-0.1, _NAN, _INF])),
}
_TRAIN = {
    "epochs": (st.integers(1, 3), st.integers(-1, 0) | st.just(2.5)),
    "learning_rate": (st.floats(0.0, 0.5), st.sampled_from([-0.5, -1e-300, _NAN, _INF, -_INF])),
    "clip_norm": (st.floats(1e-3, 5.0) | st.just(_INF), st.sampled_from([0.0, -1.0, _NAN, -_INF])),
    "holdout_fraction": (st.floats(0.0, 0.99), st.sampled_from([1.0, 1.5, -0.1, _NAN, _INF])),
    "seed": (st.integers(0, 2**32 - 1), st.integers(-5, -1)),
    "stop_ler": (st.none() | st.floats(1e-3, 1.0) | st.just(_INF), st.sampled_from([0.0, -0.5, _NAN, -_INF])),
}
_DECODER = {
    "alpha": (st.floats(0.0, 2.0), st.sampled_from([-1.0, _NAN, _INF, -_INF])),
    "beta": (st.floats(-2.0, 2.0), st.sampled_from([_NAN, _INF, -_INF])),
    "beam_size": (st.integers(1, 3), st.integers(-1, 0)),
    "beam_threshold": (st.floats(1e-3, 5.0) | st.just(_INF), st.sampled_from([0.0, -1.0, _NAN, -_INF])),
    "mode": (st.sampled_from(["max", "logadd"]), st.sampled_from(["sum", "MAX"])),
    "silence": (st.sampled_from(["none", "optional", "mandatory"]), st.sampled_from(["always", ""])),
}
_BENCH = {
    "frames": (st.integers(6, 8), st.integers(0, 2) | st.just(7.5)),
    "vocab": (st.integers(3, 5), st.integers(0, 1) | st.just(3.5)),
    "transcription": (st.integers(1, 6), st.integers(-1, 0) | st.just(2.5)),
    "batch_sizes": (st.lists(st.integers(1, 2), max_size=2).map(tuple), st.sampled_from([(0,), (1, -1), (1.5,)])),
    "repetitions": (st.integers(3, 4), st.integers(0, 2) | st.just(3.5)),
    "criteria": (st.lists(st.sampled_from(["asg", "ctc"]), max_size=2).map(tuple), st.sampled_from([("hmm",), ("asg", "CTC")])),
}


@pytest.fixture(scope="module")
def four_utterances():
    return make_toy_dataset(ToyTaskConfig(num_samples=4, seed=3))


@pytest.fixture(scope="module")
def tiny_decode(tmp_path_factory):
    alphabet = make_alphabet("abc")
    words = ["ab", "c", "ca"]
    lm = load_arpa(make_bigram_arpa(tmp_path_factory.mktemp("lm") / "lm.arpa", words, np.random.default_rng(0)))
    f = np.random.default_rng(1).normal(size=(5, len(alphabet)))
    return f, TransitionTable.zeros(len(alphabet)), lm, smear(build_lexicon(words, alphabet), lm)


class TestConfigsCheckThemselves:
    """Each run config either builds or raises a ValueError naming a field
    outside its range, and what builds runs."""

    @_PROPS
    @given(_config_fields(_TOY))
    def test_toy_task(self, v):
        letters, lo, hi = v["letters"], v["min_word_len"], v["max_word_len"]
        need = 2 if hi > 1 else 1  # one letter cannot alternate: it used to loop forever
        bad = {
            "letters": not len(set(letters)) == len(letters) >= need or not set(letters) <= set(_TOY_LETTERS),
            "num_samples": _not_count(v["num_samples"]),
            "min_word_len": _not_count(lo) or not lo <= hi,
            "max_word_len": _not_count(hi) or lo > hi,
            "tone_hz": len(v["tone_hz"]) < len(letters) or not all(0.0 < hz < math.inf for hz in v["tone_hz"]),
            "seed": v["seed"] < 0,
            "min_tone_ms": not 25.0 <= v["min_tone_ms"] <= v["max_tone_ms"] < math.inf,  # 25 ms: one window
            "max_tone_ms": not v["min_tone_ms"] <= v["max_tone_ms"] < math.inf,
            "noise_std": not 0.0 <= v["noise_std"] < math.inf,
        }
        cfg = _checked(lambda: ToyTaskConfig(**v), _quoted(v), bad)
        if cfg is None:
            return
        alphabet, samples = make_toy_dataset(cfg)
        assert alphabet.symbols[: len(letters)] == tuple(letters) and len(samples) == v["num_samples"]
        for _, text in samples:
            assert lo <= len(text) <= hi and set(text) <= set(letters)
            assert all(a != b for a, b in zip(text, text[1:]))

    @_PROPS
    @given(_config_fields(_TRAIN))
    def test_train(self, four_utterances, v):
        bad = {
            "epochs": _not_count(v["epochs"]),
            "learning_rate": not 0.0 <= v["learning_rate"] < math.inf,
            "clip_norm": not v["clip_norm"] > 0.0,
            "holdout_fraction": not 0.0 <= v["holdout_fraction"] < 1.0,
            "seed": v["seed"] < 0,
            "stop_ler": v["stop_ler"] is not None and not v["stop_ler"] > 0.0,
        }
        cfg = _checked(lambda: TrainConfig(**v), _quoted(v), bad)
        if cfg is None:
            return
        alphabet, data = four_utterances
        spec = default_toy_network(39, len(alphabet))
        result = train_toy(data, alphabet, spec, dataclasses.replace(cfg, epochs=1))
        assert len(result.curve) == 1 and math.isfinite(result.curve[0].train_loss)

    @_PROPS
    @given(_config_fields(_DECODER))
    def test_decoder(self, tiny_decode, v):
        bad = {
            "alpha": not 0.0 <= v["alpha"] < math.inf,
            "beta": not math.isfinite(v["beta"]),
            "beam_size": v["beam_size"] < 1,
            "beam_threshold": not v["beam_threshold"] > 0.0,
            "mode": v["mode"] not in ("max", "logadd"),
            "silence": v["silence"] not in ("none", "optional", "mandatory"),
        }
        cfg = _checked(lambda: DecoderConfig(**v), {k: k for k in v}, bad)
        if cfg is None:
            return
        try:
            results = decode(*tiny_decode, cfg, nbest=3)
        except DecodeError:  # all pruned: exit 3
            return
        for r in results:
            lm_term = cfg.alpha * r.lm if cfg.alpha else 0.0
            assert math.isclose(r.score, r.acoustic + lm_term + cfg.beta * r.num_words, rel_tol=1e-12, abs_tol=1e-9)

    @_PROPS
    @given(_config_fields(_BENCH))
    def test_bench(self, v):
        frames, vocab, size = v["frames"], v["vocab"], v["transcription"]
        bad = {
            "frames": _not_count(frames) or size > frames,
            "vocab": _not_count(vocab) or vocab - 1 < min(size, 2),
            "transcription": _not_count(size) or size > frames or vocab - 1 < min(size, 2),
            "batch_sizes": any(_not_count(b) for b in v["batch_sizes"]),
            "repetitions": _not_count(v["repetitions"], 3),
            "criteria": any(c not in ("asg", "ctc") for c in v["criteria"]),
        }
        # these messages name the fields in words
        words = {**{k: k for k in v}, "frames": "frame", "batch_sizes": "batch sizes", "criteria": "criterion"}
        cfg = _checked(lambda: BenchConfig(**v), words, bad)
        if cfg is None:
            return
        rows = run_bench(cfg)
        assert [(r.criterion, r.batch) for r in rows] == [(c, b) for c in cfg.criteria for b in cfg.batch_sizes]
