import math
import tracemalloc

import numpy as np
import pytest

from convasr.alphabet import default_alphabet
from convasr.lm import (
    ArpaParseError,
    LMError,
    build_lexicon,
    load_arpa,
    load_lexicon,
    save_arpa,
    score_word,
    sentence_logprob,
    smear,
)

import oracles
from conftest import HAND_ARPA, make_bigram_arpa
from writers import save_lexicon


class TestArpaParser:
    def test_fixture_loads(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        assert lm.order == 2
        assert set(lm.vocab) == {"<s>", "</s>", "a", "b", "c"}
        assert len(lm.tables[1]) == 5
        assert len(lm.tables[2]) == 4

    def test_unigram_only_model(self, tmp_path):
        path = tmp_path / "uni.arpa"
        path.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n-0.5\tb\n\n\\end\\\n")
        lm = load_arpa(path)
        assert lm.order == 1
        # absent backoffs default to 0
        assert lm.tables[1][(lm.vocab["a"],)] == (-0.3, 0.0)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda t: t.replace("\\end\\\n", ""), "end"),
            (lambda t: t.replace("ngram 1=5", "ngram 1=6"), "entries"),
            (lambda t: t.replace("ngram 2=4", "ngram 2=3"), "entries"),
            (lambda t: t.replace("-0.15\t<s> a", "-0.15\t<s> z"), "not in unigram"),
            (lambda t: t.replace("-0.5\tc", "oops\tc"), "float"),
            (lambda t: t.replace("\\data\\", ""), "data"),
            (lambda t: t.replace("\\end\\", "\\1-grams:\n\\end\\"), "duplicate"),
            (lambda t: t.replace("-0.61\tb\t-0.2", "-0.61\tb\t-0.2\nx -0.61\tb2"), "float"),
            (lambda t: t.replace("-0.69897\t</s>", "0.5\t</s>"), "positive"),
            (lambda t: t.replace("-0.52\ta\t-0.1", "-0.52\ta\t-0.1\n-0.52\ta\t-0.1"), "duplicate"),
            (lambda t: t.replace("-0.9\tb </s>", "-0.9\tb </s> extra junk"), "fields"),
        ],
    )
    def test_malformed_variants_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "bad.arpa"
        path.write_text(mutate(HAND_ARPA))
        with pytest.raises(ArpaParseError, match=match):
            load_arpa(path)

    @pytest.mark.parametrize(
        "old, new",
        [("-0.5\tc", "nan\tc"), ("-0.61\tb\t-0.2", "-0.61\tb\tnan"), ("-0.61\tb\t-0.2", "-0.61\tb\tinf")],
        ids=["nan-probability", "nan-backoff", "inf-backoff"],
    )
    def test_non_finite_values_rejected(self, tmp_path, old, new):
        # a NaN probability or a NaN/+inf backoff would poison every score
        path = tmp_path / "bad.arpa"
        path.write_text(HAND_ARPA.replace(old, new))
        line = HAND_ARPA.splitlines().index(old) + 1
        with pytest.raises(ArpaParseError, match=rf"line {line}: .*(NaN|infinite)"):
            load_arpa(path)

    def test_minus_infinity_allowed(self, tmp_path):
        # an impossible word, and a context that never backs off
        path = tmp_path / "zero.arpa"
        path.write_text(HAND_ARPA.replace("-0.5\tc", "-inf\tc").replace("b\t-0.2", "b\t-inf"))
        lm = load_arpa(path)
        assert score_word(lm, (), "c")[0] == -math.inf
        assert lm.tables[1][(lm.vocab["b"],)][1] == -math.inf

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(HAND_ARPA.replace("-0.5\tc", "bad\tc"))
        with pytest.raises(ArpaParseError, match=r"line \d+"):
            load_arpa(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_bytes(HAND_ARPA.encode().replace(b"-0.5\tc", b"-0.5\t\xffc"))
        line = HAND_ARPA.splitlines().index("-0.5\tc") + 1
        with pytest.raises(ArpaParseError, match=rf"^line {line}: .*UTF-8"):
            load_arpa(path)


class TestBackoffQueries:
    """Hand-computed values on the fixture model (all log10)."""

    def test_ten_hand_computed_queries(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        a, b, c = (lm.vocab[w] for w in "abc")
        bos, eos = lm.vocab["<s>"], lm.vocab["</s>"]
        cases = [
            ((a,), "b", -0.30103),  # listed bigram
            ((a,), "c", -0.1 + -0.5),  # backoff(a) + unigram(c)
            ((bos,), "a", -0.15),  # listed bigram
            ((bos,), "b", -0.30103 + -0.61),  # backoff(<s>) + unigram(b)
            ((), "a", -0.52),  # empty context: unigram
            ((b,), "</s>", -0.9),  # listed bigram
            ((a,), "</s>", -0.1 + -0.69897),  # backoff(a) + unigram(</s>)
            ((b,), "c", -0.4),  # listed bigram
            ((b,), "a", -0.2 + -0.52),  # backoff(b) + unigram(a)
            ((c,), "c", 0.0 + -0.5),  # context without backoff entry
        ]
        for state, word, want in cases:
            got, _ = score_word(lm, state, word)
            assert abs(got - want) < 1e-9, (state, word, got, want)

    def test_state_advances(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        _, state = score_word(lm, lm.start_state(), "a")
        assert state == (lm.vocab["a"],)
        _, state = score_word(lm, state, "b")
        assert state == (lm.vocab["b"],)

    def test_state_truncated_to_order(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        long_state = (lm.vocab["a"], lm.vocab["b"], lm.vocab["c"])
        got, _ = score_word(lm, long_state, "c")
        want, _ = score_word(lm, (lm.vocab["c"],), "c")
        assert got == want

    def test_oov_strict(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        with pytest.raises(LMError, match="zebra"):
            score_word(lm, (), "zebra")


class TestSentenceLogprob:
    def test_empty_sentence(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        # only P(</s> | <s>): no bigram, so backoff(<s>) + unigram(</s>)
        assert abs(sentence_logprob(lm, []) - (-0.30103 + -0.69897)) < 1e-9

    def test_one_word(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        want = -0.15 + (-0.1 + -0.69897)  # P(a|<s>) + P(</s>|a)
        assert abs(sentence_logprob(lm, ["a"]) - want) < 1e-9

    def test_three_words_hand_summed(self, hand_arpa):
        lm = load_arpa(hand_arpa)
        # P(a|<s>) + P(b|a) + P(c|b) + P(</s>|c)
        want = -0.15 + -0.30103 + -0.4 + (0.0 + -0.69897)
        assert abs(sentence_logprob(lm, "a b c") - want) < 1e-9

    def test_nonpositive(self, tmp_path):
        rng = np.random.default_rng(0)
        lm = load_arpa(make_bigram_arpa(tmp_path / "r.arpa", ["x", "y", "z"], rng))
        for sent in (["x"], ["x", "y"], ["z", "z", "x"]):
            assert sentence_logprob(lm, sent) <= 0.0


class TestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        lm = load_arpa(make_bigram_arpa(tmp_path / "m.arpa", ["ab", "cd", "ef"], rng))
        save_arpa(lm, tmp_path / "copy.arpa")
        lm2 = load_arpa(tmp_path / "copy.arpa")
        assert lm.order == lm2.order and lm.vocab == lm2.vocab
        state1, state2 = lm.start_state(), lm2.start_state()
        for w in ("ab", "cd", "ef", "</s>"):
            s1, state1 = score_word(lm, state1, w)
            s2, state2 = score_word(lm2, state2, w)
            assert s1 == s2  # bit-identical
        save_arpa(lm2, tmp_path / "copy2.arpa")
        assert (tmp_path / "copy.arpa").read_bytes() == (tmp_path / "copy2.arpa").read_bytes()

    def test_negative_zero_backoff_round_trips(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text(
            "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\t-0.0\n"
            "\n\\2-grams:\n-0.1\ta a\n\n\\end\\\n"
        )
        save_arpa(load_arpa(path), tmp_path / "copy.arpa")
        prob, backoff = load_arpa(tmp_path / "copy.arpa").tables[1][(0,)]
        assert prob == -0.5 and backoff == 0.0 and math.copysign(1.0, backoff) == -1.0


def _long_word_arpa(path, num_words=200, num_bigrams=8000):
    """A 3.3 MB bigram model of few entries: its 200-character words keep
    it quick to load under tracemalloc."""
    words = [f"{i:03d}" + "abcdefghijklmnopqrstuvwxyz"[i % 26] * 197 for i in range(num_words)]
    lines = ["\\data\\", f"ngram 1={num_words}", f"ngram 2={num_bigrams}", "", "\\1-grams:"]
    lines += [f"{-1 - i / num_words!r}\t{w}\t-0.25" for i, w in enumerate(words)]
    lines += ["", "\\2-grams:"]
    for k in range(num_bigrams):
        pair = f"{words[k % num_words]} {words[k * 7 // num_words % num_words]}"
        lines.append(f"{-0.5 - k / num_bigrams!r}\t{pair}")
    path.write_text("\n".join(lines + ["", "\\end\\", ""]))
    return path


class TestStreamedLoading:
    def test_load_holds_a_chunk_not_the_file(self, tmp_path):
        # reading the whole file held its bytes, its text and its lines at
        # once: 5.7 MB over the model for this 3.3 MB file; streaming, 0.34 MB
        path = _long_word_arpa(tmp_path / "long.arpa")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            lm = load_arpa(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lm.tables[2]) == 8000
        assert peak - current < size / 2

    def test_many_chunks_load_as_the_whole_file_did(self, tmp_path):
        path = _long_word_arpa(tmp_path / "long.arpa")
        lm, want = load_arpa(path), oracles.reference_load_arpa(path)
        assert lm.words == want.words and list(lm.vocab.items()) == list(want.vocab.items())
        save_arpa(lm, tmp_path / "got.arpa")
        save_arpa(want, tmp_path / "want.arpa")
        assert (tmp_path / "got.arpa").read_bytes() == (tmp_path / "want.arpa").read_bytes()


class TestLexicon:
    def test_shared_prefix(self):
        ab = default_alphabet()
        trie = build_lexicon(["cat", "cab"], ab)
        ca = oracles.node_prefixes(trie).index((ab.index["c"], ab.index["a"]))
        assert set(trie.label[trie.first[ca] : trie.first[ca + 1]]) == {ab.index["t"], ab.index["b"]}

    def test_repetition_encoded_spelling(self):
        ab = default_alphabet()
        trie = build_lexicon(["ball"], ab)
        assert trie.spellings[0] == [ab.index["b"], ab.index["a"], ab.index["l"], ab.rep2_id]

    def test_empty_lexicon(self):
        trie = build_lexicon([], default_alphabet())
        assert trie.num_words == 0 and trie.first.tolist() == [1, 1]

    def test_shared_spelling_keeps_both_words(self, tmp_path):
        ab = default_alphabet()
        (tmp_path / "lex.txt").write_text("hi\th i\nhy\th i\n")
        trie = load_lexicon(tmp_path / "lex.txt", ab)
        node = oracles.node_prefixes(trie).index((ab.index["h"], ab.index["i"]))
        assert trie.ends[node] == [0, 1]

    def test_file_round_trip(self, tmp_path):
        ab = default_alphabet()
        trie = build_lexicon(["ball", "cat", "it's"], ab)
        save_lexicon(trie, tmp_path / "lex.txt")
        loaded = load_lexicon(tmp_path / "lex.txt", ab)
        assert loaded.words == trie.words
        assert loaded.spellings == trie.spellings
        text = (tmp_path / "lex.txt").read_text()
        assert "ball\tb a l 2" in text

    def test_unknown_grapheme_in_file(self, tmp_path):
        (tmp_path / "bad.txt").write_text("word\tq x 9\n")
        with pytest.raises(LMError, match="'9'"):
            load_lexicon(tmp_path / "bad.txt", default_alphabet())

    def test_silence_in_spelling_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text("two\tt w o | w\n")
        with pytest.raises(LMError, match="silence"):
            load_lexicon(tmp_path / "bad.txt", default_alphabet())

    def test_adjacent_identical_spelling_rejected(self, tmp_path):
        # 'a a' could never be matched: the lattice collapses repeats
        (tmp_path / "bad.txt").write_text("aa\ta a\n")
        with pytest.raises(LMError, match="repetition"):
            load_lexicon(tmp_path / "bad.txt", default_alphabet())

    @pytest.mark.parametrize(
        "line, match",
        [
            ("bad\t", "empty spelling"),
            ("two\tt w o | w", "silence"),
            ("aa\ta a", "repetition"),
            ("\tc a t", "is empty"),
            ("two words\tt w o w", "whitespace"),
        ],
        ids=["empty", "silence", "adjacent-repeat", "empty-word", "spaced-word"],
    )
    def test_spelling_error_names_its_line(self, tmp_path, line, match):
        (tmp_path / "bad.txt").write_text(f"cat\tc a t\n\n{line}\ndog\td o g\n")
        with pytest.raises(LMError, match=rf"^line 3: .*{match}"):
            load_lexicon(tmp_path / "bad.txt", default_alphabet())

    @pytest.mark.parametrize(
        "word, match", [("", "is empty"), ("two words", "whitespace")], ids=["empty", "spaced"]
    )
    def test_build_lexicon_rejects_the_words_load_lexicon_rejects(self, word, match):
        # one word check serves both: the "empty-word" and "spaced-word" lines above
        with pytest.raises(LMError, match=match):
            build_lexicon(["cat", word], default_alphabet())

    def test_undecodable_byte_names_its_line(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"cat\tc a t\ndo\xc3g\td o g\n")
        with pytest.raises(LMError, match=r"^line 2: .*UTF-8"):
            load_lexicon(tmp_path / "bad.txt", default_alphabet())


class TestSmearing:
    def make(self, tmp_path, words, seed=0):
        rng = np.random.default_rng(seed)
        lm = load_arpa(make_bigram_arpa(tmp_path / "s.arpa", words, rng))
        trie = smear(build_lexicon(words, default_alphabet()), lm)
        return lm, trie

    def test_single_word_path_carries_its_score(self, tmp_path):
        lm, trie = self.make(tmp_path, ["cat"])
        want = score_word(lm, (), "cat")[0]
        prefixes = oracles.node_prefixes(trie)
        for k in range(1, len(trie.spellings[0]) + 1):
            assert trie.smeared[prefixes.index(tuple(trie.spellings[0][:k]))] == want

    def test_deep_spelling_carries_its_score_to_every_node(self, tmp_path):
        # 1200 graphemes: deeper than the interpreter's recursion limit
        lm, trie = self.make(tmp_path, ["ab" * 600])
        assert trie.label.size == 1201
        assert trie.smeared.tolist() == [score_word(lm, (), "ab" * 600)[0]] * 1201

    def test_empty_lexicon_smears_to_an_empty_root(self, tmp_path):
        lm = load_arpa(make_bigram_arpa(tmp_path / "s.arpa", [], np.random.default_rng(0)))
        assert smear(build_lexicon([], default_alphabet()), lm).smeared.tolist() == [-math.inf]

    def test_root_is_vocabulary_max(self, tmp_path):
        words = ["cat", "dog", "bird", "fish"]
        lm, trie = self.make(tmp_path, words)
        assert trie.smeared[0] == max(score_word(lm, (), w)[0] for w in words)

    def test_matches_bruteforce_subtree_max(self, tmp_path):
        words = ["cat", "cab", "ca", "dog", "do"]
        lm, trie = self.make(tmp_path, words, seed=3)
        scores = [score_word(lm, (), w)[0] for w in words]
        for node, prefix in enumerate(oracles.node_prefixes(trie)):
            assert trie.smeared[node] == oracles.prefix_best_unigram(trie.spellings, prefix, scores)

    def test_monotone_nonincreasing_down_the_trie(self, tmp_path):
        words = ["a", "ab", "abc", "abd", "b"]
        _, trie = self.make(tmp_path, words, seed=4)
        for node in range(trie.label.size):
            for child in range(trie.first[node], trie.first[node + 1]):
                assert trie.smeared[child] <= trie.smeared[node] + 1e-12

    def test_missing_word_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        lm = load_arpa(make_bigram_arpa(tmp_path / "s3.arpa", ["cat"], rng))
        trie = build_lexicon(["cat", "dog"], default_alphabet())
        with pytest.raises(LMError, match="dog"):
            smear(trie, lm)
