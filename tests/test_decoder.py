import json
import math
import pathlib

import numpy as np
import pytest

from convasr import decoder
from convasr.alphabet import default_alphabet, encode_transcription, make_alphabet
from convasr.criterion import CriterionError, TransitionTable
from convasr.decoder import (
    DecodeError,
    DecodeResult,
    DecoderConfig,
    decode,
    exhaustive_decode,
    prune,
)
from convasr.lm import build_lexicon, load_arpa, score_word, smear

import oracles
from conftest import make_bigram_arpa, random_transitions

LETTERS = "abcd"
GOLDEN_NBEST = pathlib.Path(__file__).parent / "golden" / "decode_nbest.json"
GOLDEN_TIES = pathlib.Path(__file__).parent / "golden" / "decode_ties.json"
GOLDEN_SCALE = pathlib.Path(__file__).parent / "golden" / "decode_scale.json"


@pytest.fixture
def alphabet():
    return make_alphabet(LETTERS)


def make_setup(tmp_path, words, rng, alphabet):
    lm = load_arpa(make_bigram_arpa(tmp_path / "lm.arpa", words, rng))
    lexicon = smear(build_lexicon(words, alphabet), lm)
    return lm, lexicon


def exhaustive_cfg(**kw):
    defaults = dict(beam_size=10**6, beam_threshold=math.inf, mode="max")
    defaults.update(kw)
    return DecoderConfig(**defaults)


class TestPrune:
    def cfg(self, **kw):
        return DecoderConfig(**kw)

    def keep(self, scores, cfg, at_root=None):
        # hypotheses off the root unless marked: the count cap applies to every one
        total = np.array(scores, dtype=float)
        at_root = np.zeros(total.size, dtype=bool) if at_root is None else np.asarray(at_root)
        return prune(total, at_root, cfg).tolist()

    def test_all_equal_within_beam_unchanged(self):
        assert self.keep([1.0] * 5, self.cfg(beam_size=5)) == [0, 1, 2, 3, 4]

    def test_top_k_with_infinite_threshold(self):
        scores = [3.0, 1.0, 2.0, 5.0, 4.0]
        kept = self.keep(scores, self.cfg(beam_size=2))
        # exact selection: the two best, in stable (input) order
        assert kept == [3, 4]
        assert sorted(scores[i] for i in kept) == [4.0, 5.0]

    def test_threshold_drops_far_hypotheses(self):
        kept = self.keep([0.0, -5.0, -1.0], self.cfg(beam_size=10, beam_threshold=2.0))
        assert kept == [0, 2]

    def test_matches_sort_based_reference(self):
        rng = np.random.default_rng(0)
        # small frontiers, then up to 300 hypotheses with scores to one
        # decimal, where many equal totals straddle the k-th best
        for size, decimals, max_beam in ((30, 2, 10), (300, 1, 50)):
            for _ in range(100):
                n = int(rng.integers(1, size))
                scores = list(np.round(rng.normal(size=n), decimals))  # rounded: force ties
                beam = int(rng.integers(1, max_beam))
                thr = float(rng.uniform(0.5, 5.0))
                kept = self.keep(scores, self.cfg(beam_size=beam, beam_threshold=thr))
                want = oracles.sort_based_prune(list(range(n)), scores, beam, thr)
                assert kept == want
        assert self.keep([2, 1, 1, 1, 1, 0], self.cfg(beam_size=3)) == [0, 1, 2]
        # -0.0 and 0.0 are equal totals, so index order breaks their tie
        assert self.keep([0.0, 1.0, -0.0, 0.0], self.cfg(beam_size=2)) == [0, 1]
        assert self.keep([-0.0, 1.0, 0.0], self.cfg(beam_size=2)) == [0, 1]

    def test_empty_frontier(self):
        assert self.keep([], self.cfg()) == []

    def test_root_hypotheses_escape_the_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            scores = list(np.round(rng.normal(size=n), 2))  # rounded: force ties
            at_root = rng.random(n) < 0.5
            beam = int(rng.integers(1, 6))
            thr = float(rng.uniform(0.5, 5.0))
            kept = self.keep(scores, self.cfg(beam_size=beam, beam_threshold=thr), at_root)
            cut = max(scores) - thr
            passing = [i for i in range(n) if scores[i] >= cut]
            # every root hypothesis within the threshold, whatever the beam
            want = {i for i in passing if at_root[i]}
            in_word = sorted(
                (i for i in passing if not at_root[i]), key=lambda i: (-scores[i], i)
            )
            want.update(in_word[:beam])
            assert kept == sorted(want)


class TestDecodeBasics:
    def test_single_word_lexicon(self, tmp_path, alphabet):
        rng = np.random.default_rng(1)
        lm, lexicon = make_setup(tmp_path, ["cab"], rng, alphabet)
        L = len(alphabet)
        f = np.full((5, L), -5.0)
        for t, ch in enumerate("cabbb"):
            f[t, alphabet.index[ch]] = 2.0
        results = decode(f, TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg())
        assert results[0].words == ["cab"]

    @pytest.mark.parametrize("nbest", [0, -1])
    def test_nbest_below_one_rejected(self, tmp_path, alphabet, nbest):
        lm, lexicon = make_setup(tmp_path, ["cab"], np.random.default_rng(1), alphabet)
        L = len(alphabet)
        with pytest.raises(ValueError, match="nbest"):
            decode(np.zeros((5, L)), TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg(), nbest)

    @pytest.mark.parametrize("nbest", [2.5, np.float64(2.0), "3", None])
    def test_nbest_not_an_integer_rejected(self, tmp_path, alphabet, nbest):
        lm, lexicon = make_setup(tmp_path, ["cab"], np.random.default_rng(1), alphabet)
        L = len(alphabet)
        with pytest.raises(ValueError, match="nbest"):
            decode(np.zeros((5, L)), TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg(), nbest)

    @pytest.mark.parametrize("nbest", [True, np.int64(2)])
    def test_nbest_integer_types_accepted(self, tmp_path, alphabet, nbest):
        lm, lexicon = make_setup(tmp_path, ["cab"], np.random.default_rng(1), alphabet)
        L = len(alphabet)
        f = np.full((5, L), -5.0)
        for t, ch in enumerate("cabbb"):
            f[t, alphabet.index[ch]] = 2.0
        results = decode(f, TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg(), nbest)
        assert 1 <= len(results) <= int(nbest) and results[0].words == ["cab"]

    def test_score_decomposition(self, tmp_path, alphabet):
        rng = np.random.default_rng(2)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad", "bc"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(6, L))
        tr = random_transitions(rng, L)
        cfg = exhaustive_cfg(alpha=0.8, beta=-0.4)
        for r in decode(f, tr, lm, lexicon, cfg, nbest=10):
            recomposed = r.acoustic + cfg.alpha * r.lm + cfg.beta * r.num_words
            assert abs(r.score - recomposed) < 1e-9

    def test_results_sorted_descending(self, tmp_path, alphabet):
        rng = np.random.default_rng(3)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad", "bc"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(7, L))
        results = decode(f, TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg(), nbest=20)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_empty_lexicon_rejected(self, tmp_path, alphabet):
        rng = np.random.default_rng(4)
        lm, _ = make_setup(tmp_path, ["ab"], rng, alphabet)
        empty = build_lexicon([], alphabet)
        with pytest.raises(DecodeError, match="empty lexicon"):
            decode(np.zeros((3, len(alphabet))), TransitionTable.zeros(len(alphabet)), lm, empty, exhaustive_cfg())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_emissions_rejected(self, tmp_path, alphabet, bad):
        rng = np.random.default_rng(12)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(5, L))
        f[2, alphabet.index["a"]] = bad
        for search in (decode, lambda *args: exhaustive_decode(*args, 2)):
            with pytest.raises(CriterionError, match="finite"):
                search(f, TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg())

    def test_label_count_mismatch_rejected(self, tmp_path, alphabet):
        rng = np.random.default_rng(5)
        lm, lexicon = make_setup(tmp_path, ["ab"], rng, alphabet)
        with pytest.raises(CriterionError, match="labels"):
            decode(np.zeros((3, 5)), TransitionTable.zeros(5), lm, lexicon, exhaustive_cfg())

    def test_too_short_for_any_word_fails_explicitly(self, tmp_path, alphabet):
        rng = np.random.default_rng(6)
        lm, lexicon = make_setup(tmp_path, ["abcd"], rng, alphabet)
        L = len(alphabet)
        cfg = exhaustive_cfg(silence="none")
        with pytest.raises(DecodeError):
            decode(np.zeros((2, L)), TransitionTable.zeros(L), lm, lexicon, cfg)

    def test_tight_threshold_failure_is_explicit(self, tmp_path, alphabet):
        rng = np.random.default_rng(7)
        lm, lexicon = make_setup(tmp_path, ["ab"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(4, L))
        # silence dominates every frame; a tiny beam keeps only silence,
        # which never completes a word with policy "none" wordless... force:
        f[:, alphabet.silence_id] = 10.0
        cfg = DecoderConfig(beam_size=1, beam_threshold=1e-9, mode="max", silence="none")
        with pytest.raises(DecodeError):
            decode(f, TransitionTable.zeros(L), lm, lexicon, cfg)

    def test_determinism(self, tmp_path, alphabet):
        rng = np.random.default_rng(8)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(6, L))
        tr = random_transitions(rng, L)
        a = decode(f, tr, lm, lexicon, exhaustive_cfg(), nbest=5)
        b = decode(f, tr, lm, lexicon, exhaustive_cfg(), nbest=5)
        assert [(r.words, r.score) for r in a] == [(r.words, r.score) for r in b]

    def test_resmear_refreshes_the_flat_trie(self, tmp_path, alphabet):
        # decode reads the trie's smeared scores as they stand; smearing
        # it again with another LM must replace all of the first LM's
        rng = np.random.default_rng(1)
        words = lexicon_with_a_letter(rng, 5, 7)
        lm = load_arpa(make_bigram_arpa(tmp_path / "lm.arpa", words, rng))
        lm2 = load_arpa(make_bigram_arpa(tmp_path / "lm2.arpa", words, rng))
        f, tr = rng.normal(size=(10, len(alphabet))), random_transitions(rng, len(alphabet))
        cfg = DecoderConfig(alpha=1.0, beta=-0.5, beam_size=2)
        lexicon = smear(build_lexicon(words, alphabet), lm)
        stale = hex_nbest(f, tr, lm2, lexicon, cfg)
        smear(lexicon, lm2)
        want = hex_nbest(f, tr, lm2, smear(build_lexicon(words, alphabet), lm2), cfg)
        assert stale != want  # the first LM's smearing changes this search
        assert hex_nbest(f, tr, lm2, lexicon, cfg) == want

    def test_each_state_and_word_is_scored_once(self, tmp_path, alphabet, monkeypatch):
        # a word committed again from the same LM state reuses its score
        # and next state within one decode
        rng = np.random.default_rng(3)
        lm, lexicon = make_setup(tmp_path, lexicon_with_a_letter(rng, 5, 7), rng, alphabet)
        f, tr = rng.normal(size=(12, len(alphabet))), random_transitions(rng, len(alphabet))
        want = hex_nbest(f, tr, lm, lexicon, exhaustive_cfg())
        queries = []

        def counted(lm, state, word):
            queries.append((state, word))
            return score_word(lm, state, word)

        monkeypatch.setattr(decoder, "score_word", counted)
        assert hex_nbest(f, tr, lm, lexicon, exhaustive_cfg()) == want
        commits = [q for q in queries if q[1] != "</s>"]
        assert commits and len(commits) == len(set(commits))

    def test_concurrent_utterances_share_lm_and_lexicon(self, tmp_path, alphabet):
        # one utterance per thread over the same immutable model objects
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(9)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad", "bc"], rng, alphabet)
        L = len(alphabet)
        tr = random_transitions(rng, L)
        utterances = [rng.normal(size=(int(rng.integers(3, 8)), L)) for _ in range(8)]
        cfg = exhaustive_cfg()
        serial = [decode(f, tr, lm, lexicon, cfg, nbest=3) for f in utterances]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda f: decode(f, tr, lm, lexicon, cfg, nbest=3), utterances))
        for a, b in zip(serial, threaded):
            assert [(r.words, r.score) for r in a] == [(r.words, r.score) for r in b]


class TestExhaustiveOracle:
    def test_empty_emissions_rejected(self, tmp_path, alphabet):
        rng = np.random.default_rng(9)
        lm, lexicon = make_setup(tmp_path, ["ab"], rng, alphabet)
        with pytest.raises(DecodeError):
            exhaustive_decode(np.zeros((0, len(alphabet))), TransitionTable.zeros(len(alphabet)), lm, lexicon, exhaustive_cfg(), 2)

    def test_combinatorial_guard(self, tmp_path, alphabet):
        rng = np.random.default_rng(10)
        lm, lexicon = make_setup(tmp_path, ["ab"], rng, alphabet)
        L = len(alphabet)
        with pytest.raises(ValueError, match="tiny"):
            exhaustive_decode(np.zeros((9, L)), TransitionTable.zeros(L), lm, lexicon, exhaustive_cfg(), 2)

    def test_single_word_vocabulary(self, tmp_path, alphabet):
        rng = np.random.default_rng(11)
        lm, lexicon = make_setup(tmp_path, ["cab"], rng, alphabet)
        L = len(alphabet)
        f = np.full((4, L), -3.0)
        for t, ch in enumerate("cabb"):
            f[t, alphabet.index[ch]] = 1.0  # peaked on the word's letters
        tr = random_transitions(rng, L)
        best = exhaustive_decode(f, tr, lm, lexicon, exhaustive_cfg(beta=-0.2), 1)
        assert best.words == ["cab"]
        assert abs(best.score - (best.acoustic + 1.0 * best.lm + -0.2)) < 1e-12


class TestBeamEqualsOracle:
    @pytest.mark.parametrize("policy", ["optional", "none", "mandatory"])
    def test_exhaustive_beam_matches_oracle(self, tmp_path, alphabet, policy):
        rng = np.random.default_rng(12)
        L = len(alphabet)
        mismatches = 0
        for trial in range(25):
            n_words = int(rng.integers(1, 5))
            words = []
            while len(words) < n_words:
                wl = int(rng.integers(2, 4))  # >= 2 letters: max_words=4 covers T<=8
                w = "".join(LETTERS[rng.integers(0, len(LETTERS))] for _ in range(wl))
                if w not in words:
                    words.append(w)
            lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
            T = int(rng.integers(2, 9))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            cfg = exhaustive_cfg(
                alpha=float(rng.uniform(0.2, 2.0)),
                beta=float(rng.uniform(-1.0, 1.0)),
                silence=policy,
            )
            try:
                want = exhaustive_decode(f, tr, lm, lexicon, cfg, max_words=4)
            except DecodeError:
                want = None
            try:
                got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
            except DecodeError:
                got = None
            if want is None or got is None:
                assert (want is None) == (got is None)
                continue
            assert got.words == want.words, (trial, policy, got.words, want.words)
            assert abs(got.score - want.score) < 1e-9
            assert abs(got.acoustic - want.acoustic) < 1e-9
            mismatches += 0
        assert mismatches == 0

    @pytest.mark.parametrize("policy", ["optional", "mandatory"])
    def test_logadd_on_silence_only_input(self, tmp_path, alphabet, policy):
        # the all-silence labeling is one path of the empty word sequence,
        # however the oracle could split it into leading and trailing silence
        lm, lexicon = make_setup(tmp_path, ["ab", "cd"], np.random.default_rng(3), alphabet)
        L = len(alphabet)
        f = np.full((5, L), -50.0)
        f[:, alphabet.silence_id] = 0.0
        tr = TransitionTable.zeros(L)
        cfg = exhaustive_cfg(mode="logadd", beam_size=1000, silence=policy)
        want = exhaustive_decode(f, tr, lm, lexicon, cfg, max_words=2)
        got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
        assert got.words == want.words == []
        assert abs(got.acoustic - want.acoustic) < 1e-9
        assert abs(got.score - want.score) < 1e-9

    def test_alpha_zero_beta_zero_picks_best_viterbi_word(self, tmp_path, alphabet):
        # single-word utterances: the decoder must pick the word whose
        # constrained best-path score is highest
        from convasr.criterion import _separated_units, build_linear_graph, forward_score

        rng = np.random.default_rng(13)
        words = ["ab", "cad", "bc", "da"]
        lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
        L = len(alphabet)
        for _ in range(10):
            T = 3  # fits exactly one 2-3 letter word
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            cfg = exhaustive_cfg(alpha=0.0, beta=0.0)
            got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
            best_word, best_score = None, -math.inf
            for wi, w in enumerate(words):
                units = _separated_units([lexicon.spellings[wi]], alphabet.silence_id, "optional")
                try:
                    graph = build_linear_graph(units[0], units[1], T)
                except Exception:
                    continue
                score, _ = forward_score(graph, f, tr, "max")
                if score > best_score:
                    best_word, best_score = w, score
            assert got.words == [best_word]
            assert abs(got.acoustic - best_score) < 1e-9


class TestZeroLmWeight:
    """At alpha 0 the LM term counts 0, even for a word the LM rules out
    (0 * -inf would be NaN)."""

    def make(self, tmp_path):
        alphabet = make_alphabet("cdef")
        path = tmp_path / "lm.arpa"
        path.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-inf\tcd\n-0.5\tef\n\n\\end\\\n")
        lm = load_arpa(path)
        return alphabet, lm, smear(build_lexicon(["cd", "ef"], alphabet), lm)

    def test_impossible_word_decodes_on_acoustics(self, tmp_path):
        alphabet, lm, lexicon = self.make(tmp_path)
        L = len(alphabet)
        f = np.full((4, L), -2.0)
        for t, ch in enumerate("ccdd"):
            f[t, alphabet.index[ch]] = 1.0
        tr = TransitionTable.zeros(L)
        cfg = exhaustive_cfg(alpha=0.0, silence="none")
        got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
        want = exhaustive_decode(f, tr, lm, lexicon, cfg, 2)
        assert got.words == want.words == ["cd"]
        assert abs(got.score - want.score) < 1e-9 and got.score == got.acoustic
        # any positive weight rules the word out
        tiny = exhaustive_cfg(alpha=1e-9, silence="none")
        assert decode(f, tr, lm, lexicon, tiny, nbest=1)[0].words == ["ef"]

    @pytest.mark.parametrize("policy", ["optional", "none", "mandatory"])
    def test_beam_matches_oracle(self, tmp_path, policy):
        alphabet, lm, lexicon = self.make(tmp_path)
        rng = np.random.default_rng(40)
        L = len(alphabet)
        for _ in range(6):
            # random scores leaning towards "cd", the word the LM rules out
            f = rng.normal(size=(6, L))
            f[1:3, alphabet.index["c"]] += 2.0
            f[3:5, alphabet.index["d"]] += 2.0
            tr = random_transitions(rng, L)
            cfg = exhaustive_cfg(alpha=0.0, beta=-0.3, silence=policy)
            got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
            want = exhaustive_decode(f, tr, lm, lexicon, cfg, 3)
            assert "cd" in got.words and got.words == want.words
            assert abs(got.score - want.score) < 1e-9


class TestBeamBehavior:
    def test_monotone_in_beam_size(self, tmp_path, alphabet):
        rng = np.random.default_rng(14)
        words = ["ab", "cad", "bc"]
        lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
        L = len(alphabet)
        for _ in range(15):
            T = int(rng.integers(3, 8))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            prev = -math.inf
            for beam in (1, 2, 4, 10**6):
                cfg = DecoderConfig(beam_size=beam, beam_threshold=math.inf, mode="max")
                try:
                    score = decode(f, tr, lm, lexicon, cfg, nbest=1)[0].score
                except DecodeError:
                    score = -math.inf
                assert score >= prev - 1e-12
                prev = score

    def test_monotone_in_threshold(self, tmp_path, alphabet):
        rng = np.random.default_rng(15)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad", "bc"], rng, alphabet)
        L = len(alphabet)
        f = rng.normal(size=(6, L))
        tr = random_transitions(rng, L)
        prev = -math.inf
        for thr in (0.5, 2.0, 8.0, math.inf):
            cfg = DecoderConfig(beam_size=10**6, beam_threshold=thr, mode="max")
            try:
                score = decode(f, tr, lm, lexicon, cfg, nbest=1)[0].score
            except DecodeError:
                score = -math.inf
            assert score >= prev - 1e-12
            prev = score

    def test_logadd_mass_is_exact_when_states_separate(self, tmp_path, alphabet):
        # 2-letter words over 3 frames: only single-word sequences fit and
        # bigram states keep them apart, so the per-sequence mass is the
        # full forward score of that word's spelling lattice
        from convasr.criterion import _separated_units, build_linear_graph, forward_score
        from convasr.lm import LN10, sentence_logprob

        rng = np.random.default_rng(16)
        words = ["ab", "ca", "bc", "da"]
        lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
        L = len(alphabet)
        for _ in range(10):
            f = rng.normal(size=(3, L))
            tr = random_transitions(rng, L)
            cfg = exhaustive_cfg(mode="logadd", alpha=0.7, beta=0.3)
            results = {tuple(r.words): r for r in decode(f, tr, lm, lexicon, cfg, nbest=50)}
            for wi, w in enumerate(words):
                units = _separated_units([lexicon.spellings[wi]], alphabet.silence_id, "optional")
                graph = build_linear_graph(units[0], units[1], 3)
                acoustic, _ = forward_score(graph, f, tr, "logadd")
                want = acoustic + cfg.alpha * LN10 * sentence_logprob(lm, [w]) + cfg.beta
                assert abs(results[(w,)].score - want) < 1e-9

    def test_logadd_score_at_least_max_score(self, tmp_path, alphabet):
        rng = np.random.default_rng(17)
        lm, lexicon = make_setup(tmp_path, ["ab", "cad"], rng, alphabet)
        L = len(alphabet)
        for _ in range(10):
            f = rng.normal(size=(5, L))
            tr = random_transitions(rng, L)
            mx = decode(f, tr, lm, lexicon, exhaustive_cfg(mode="max"), nbest=1)[0]
            la = decode(f, tr, lm, lexicon, exhaustive_cfg(mode="logadd"), nbest=1)[0]
            assert la.score >= mx.score - 1e-12


def narrow_beam_nbest(tmp_path) -> list:
    """n-best lists (nbest 5) of 36 seeded small decodes at beam 3 and
    threshold 4: 6 lexicons x silence none/optional/mandatory x
    max/logadd.  ``tests/golden/decode_nbest.json`` holds this list as
    JSON; re-record it only when the search changes on purpose."""
    alphabet = make_alphabet(LETTERS)
    L = len(alphabet)
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        words = set()
        while len(words) < 6:
            size, word = int(rng.integers(1, 5)), [int(rng.integers(0, 4))]
            while len(word) < size:
                c = int(rng.integers(0, 4))
                if c != word[-1]:
                    word.append(c)
            words.add("".join(LETTERS[c] for c in word))
        words = sorted(words)
        lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
        # a spoken sentence: peaks on its silence-separated spelling, 1-2
        # frames per label, over unit Gaussian scores
        spelling = []
        for w in rng.choice(words, int(rng.integers(2, 4))):
            spelling += [alphabet.index[ch] for ch in w] + [alphabet.silence_id]
        frames = np.repeat(spelling[:-1], rng.integers(1, 3, len(spelling) - 1))
        f = rng.normal(size=(len(frames), L))
        f[np.arange(len(frames)), frames] += 2.0
        tr = random_transitions(rng, L)
        alpha = 0.8
        if seed % 2:
            # whole-number scores and no LM weight: equal totals put
            # prune's tie-break to work
            f, tr, alpha = np.round(f), TransitionTable.zeros(L), 0.0
        for silence in ("none", "optional", "mandatory"):
            for mode in ("max", "logadd"):
                cfg = DecoderConfig(
                    alpha=alpha, beta=-0.3, beam_size=3, beam_threshold=4.0, mode=mode, silence=silence
                )
                results = decode(f, tr, lm, lexicon, cfg, nbest=5)
                nbest = [[r.words, r.score, r.acoustic, r.lm] for r in results]
                cases.append({"seed": seed, "silence": silence, "mode": mode, "nbest": nbest})
    return cases


class TestNarrowBeamGolden:
    def test_matches_recorded_nbest(self, tmp_path):
        # pins prune's tie-breaks and the root cap exemption at the decode
        # level, which the exhaustive-beam oracle checks cannot see
        want = json.loads(GOLDEN_NBEST.read_text())
        got = narrow_beam_nbest(tmp_path)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g["seed"], g["silence"], g["mode"]) == (w["seed"], w["silence"], w["mode"])
            assert [r[0] for r in g["nbest"]] == [r[0] for r in w["nbest"]], w
            scores = np.array([r[1:] for r in g["nbest"]])
            np.testing.assert_allclose(scores, np.array([r[1:] for r in w["nbest"]]), rtol=0, atol=1e-9)


def hex_nbest(f, tr, lm, lexicon, cfg, search=decode) -> dict:
    """A decode's n-best (nbest 5) with scores as float hex, or its
    ``DecodeError`` message; ``search`` is ``decode`` or a reference."""
    try:
        results = search(f, tr, lm, lexicon, cfg, nbest=5)
    except DecodeError as exc:
        return {"error": str(exc)}
    return {"nbest": [[r.words, r.score.hex(), r.acoustic.hex(), r.lm.hex()] for r in results]}


def lexicon_with_a_letter(rng, low: int, high: int) -> list:
    """``low`` to ``high - 1`` words of 1-3 letters over "abcd", one of
    them a single letter."""
    words = {LETTERS[int(rng.integers(0, 4))]}
    size = int(rng.integers(low, high))
    while len(words) < size:
        length, word = int(rng.integers(1, 4)), [int(rng.integers(0, 4))]
        while len(word) < length:
            c = int(rng.integers(0, 4))
            if c != word[-1]:
                word.append(c)
        words.add("".join(LETTERS[c] for c in word))
    return sorted(words)


def whole_number_case(tmp_path, seed: int):
    """A seeded max-mode decode at beam 1 or 2 in which emissions and
    transitions are whole numbers in [-1, 1] and alpha is 0, so that
    equal totals are common."""
    alphabet = make_alphabet(LETTERS)
    L = len(alphabet)
    rng = np.random.default_rng(seed)
    lm, lexicon = make_setup(tmp_path, lexicon_with_a_letter(rng, 3, 7), rng, alphabet)
    f = rng.integers(-1, 2, size=(int(rng.integers(4, 12)), L)).astype(float)
    tr = TransitionTable(rng.integers(-1, 2, size=(L, L)), rng.integers(-1, 2, size=L))
    cfg = DecoderConfig(
        alpha=0.0,
        beta=float(rng.choice([0.0, -0.5, 0.5, -1.0])),
        beam_size=int(rng.integers(1, 3)),
        beam_threshold=float(rng.choice([math.inf, 1.0, 2.0])),
        mode="max",
        silence=str(rng.choice(["none", "optional", "mandatory"])),
    )
    return f, tr, lm, lexicon, cfg


def word_end_commit_case(tmp_path):
    """Two frames over the lexicon ["a", "bc"] at beam 1: on frame 0 the
    start "b" outscores the start "a", so the in-word candidate on "a"
    cannot be kept, but the word "a" it completes goes back to the root,
    which the cap does not limit."""
    alphabet = make_alphabet(LETTERS)
    lm, lexicon = make_setup(tmp_path, ["a", "bc"], np.random.default_rng(31), alphabet)
    f = np.zeros((2, len(alphabet)))
    f[0, alphabet.index["a"]], f[0, alphabet.index["b"]], f[1, alphabet.index["c"]] = 1.0, 2.0, 2.0
    cfg = DecoderConfig(alpha=0.0, beta=0.0, beam_size=1, mode="max", silence="none")
    return f, TransitionTable.zeros(len(alphabet)), lm, lexicon, cfg


def tie_sweep_nbest(tmp_path) -> list:
    """n-best lists (``hex_nbest``) of small decodes built to reach
    prune's exact ties: a sweep of 1440, then ``whole_number_case`` for
    seeds 0-399, then ``word_end_commit_case``.  The sweep is 40 lexicons
    of 3-5 words over "abcd", each with a one-letter word, x silence
    none/optional/mandatory x max/logadd x beam 1/2/3 x threshold inf/3;
    odd seeds use whole-number emissions, zero transitions and alpha 0.
    ``tests/golden/decode_ties.json`` holds this list, one case a line;
    re-record it only when the search changes on purpose."""
    alphabet = make_alphabet(LETTERS)
    L = len(alphabet)
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(700 + seed)
        words = lexicon_with_a_letter(rng, 3, 6)
        lm, lexicon = make_setup(tmp_path, words, rng, alphabet)
        f = rng.normal(size=(int(rng.integers(3, 9)), L))
        tr = random_transitions(rng, L)
        alpha = 0.8
        if seed % 2:
            f, tr, alpha = np.round(f), TransitionTable.zeros(L), 0.0
        for silence in ("none", "optional", "mandatory"):
            for mode in ("max", "logadd"):
                for beam in (1, 2, 3):
                    for threshold in (math.inf, 3.0):
                        cfg = DecoderConfig(
                            alpha=alpha,
                            beta=-0.5,
                            beam_size=beam,
                            beam_threshold=threshold,
                            mode=mode,
                            silence=silence,
                        )
                        case = {
                            "seed": seed,
                            "silence": silence,
                            "mode": mode,
                            "beam": beam,
                            "threshold": repr(threshold),
                        }
                        case.update(hex_nbest(f, tr, lm, lexicon, cfg))
                        cases.append(case)
    for seed in range(400):
        cases.append({"case": "whole_number", "seed": seed, **hex_nbest(*whole_number_case(tmp_path, seed))})
    cases.append({"case": "word_end_commit", **hex_nbest(*word_end_commit_case(tmp_path))})
    return cases


def recorded_ties() -> list:
    return [json.loads(line) for line in GOLDEN_TIES.read_text().splitlines()]


class TestTieGolden:
    def test_matches_recorded_nbest_bit_for_bit(self, tmp_path):
        # exact ties at the beam cap resolve by each key's first-arrival
        # position among all of the frame's candidates
        want = recorded_ties()
        got = tie_sweep_nbest(tmp_path)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_word_end_commit_of_a_dropped_start(self, tmp_path):
        got = hex_nbest(*word_end_commit_case(tmp_path))
        assert [r[0] for r in got["nbest"]] == [["bc"], ["a"]]
        assert {"case": "word_end_commit", **got} == recorded_ties()[-1]

    def test_first_arrival_wins_a_tie_between_word_histories(self, tmp_path):
        # a unigram LM leaves every committed hypothesis in the LM state (),
        # so the commits of "ab", "cb" and "db" at frame 1 share one key
        # (root, (), b); "ab" arrives first but scores 1 less, and "cb"
        # and "db" tie exactly: the earlier of the two, "cb", must win
        arpa = tmp_path / "uni.arpa"
        grams = "".join(f"-0.5\t{w}\n" for w in ["<s>", "</s>", "ab", "cb", "db"])
        arpa.write_text(f"\\data\\\nngram 1=5\n\n\\1-grams:\n{grams}\n\\end\\\n")
        alphabet = make_alphabet(LETTERS)
        lm = load_arpa(arpa)
        lexicon = smear(build_lexicon(["ab", "cb", "db"], alphabet), lm)
        f = np.full((2, len(alphabet)), -5.0)
        f[0, [alphabet.index["a"], alphabet.index["c"], alphabet.index["d"]]] = [0.0, 1.0, 1.0]
        f[1, alphabet.index["b"]] = 2.0
        case = (f, TransitionTable.zeros(len(alphabet)), lm, lexicon, exhaustive_cfg())
        got = hex_nbest(*case)
        assert [r[0] for r in got["nbest"]] == [["cb"], []]
        assert got == hex_nbest(*case, search=oracles.reference_decode)


def start_bound_case(tmp_path, words, peaks, trans=None, mode="max"):
    """A beam-1 decode at alpha 0 and beta 0 over ``words`` (letters
    "abcd"): frame t scores -5 on every label but ``peaks[t]``, a dict
    from symbol (" " is silence) to score.  Zero transitions unless
    ``trans`` maps a (from, to) symbol pair to a score."""
    alphabet = make_alphabet(LETTERS)
    lm, lexicon = make_setup(tmp_path, words, np.random.default_rng(5), alphabet)
    ids = dict(alphabet.index, **{" ": alphabet.silence_id})
    f = np.full((len(peaks), len(alphabet)), -5.0)
    for t, row in enumerate(peaks):
        for symbol, score in row.items():
            f[t, ids[symbol]] = score
    tr = TransitionTable.zeros(len(alphabet))
    for (a, b), score in (trans or {}).items():
        tr.trans[ids[a], ids[b]] = score
    cfg = DecoderConfig(alpha=0.0, beta=0.0, beam_size=1, mode=mode, silence="optional")
    return f, tr, lm, lexicon, cfg


class TestWordStartBound:
    """The word starts that ``decode`` builds in "max" mode: each case
    cuts a start that the bound must keep, and the n-best list, which
    matches the search that builds every candidate, shows it.  A start
    onto a word end is ``test_word_end_commit_of_a_dropped_start``."""

    def check(self, case, words, score):
        got = hex_nbest(*case)
        assert got == hex_nbest(*case, search=oracles.reference_decode)
        assert got["nbest"][0][:2] == [words, score.hex()]

    def test_starts_tied_with_kappa_are_built(self, tmp_path):
        # frame 0: the starts "a" and "c" tie at kappa, the best start;
        # "a" arrived first and goes on to "ab"
        case = start_bound_case(tmp_path, ["ab", "cd"], [{"a": 1, "c": 1, " ": 0}, {"b": 1, "d": 0}])
        self.check(case, ["ab"], 2.0)

    def test_every_start_of_a_key_that_reaches_kappa_is_built(self, tmp_path):
        # frame 2: after the word "a", its root copies on "a" (first) and on
        # silence start "b" and "c"; every start totals kappa = 1 but "a" ->
        # "b" (0), which is the first arrival of the key on "b", so "b" wins
        # the tie for the beam and goes on to "bd"
        peaks = [{"a": 0}, {"a": 0, " ": 1}, {"b": 0, "c": 1}, {"d": 1}]
        case = start_bound_case(tmp_path, ["a", "bd", "cd"], peaks, trans={(" ", "c"): -1})
        self.check(case, ["a", "bd"], 2.0)

    def test_start_sharing_a_key_with_a_depth_one_stay_is_built(self, tmp_path):
        # frame 1: the stay on "a" ties with the start "c" at kappa = 1; the
        # start onto "a" (0) is below kappa but is its key's first arrival,
        # so "a" wins the tie for the beam and goes on to "ab"
        peaks = [{"a": 1, " ": 0}, {"a": 0, "c": 1}, {"b": 1, "d": 0}]
        self.check(start_bound_case(tmp_path, ["ab", "cd"], peaks), ["ab"], 2.0)

    def test_logadd_mode_builds_every_start(self, tmp_path):
        # frame 2: the key on "b" adds two starts of 0 (ln 2 > 0.5), the
        # key on "c" has one start of 0.5
        peaks = [{"a": 0}, {"a": 0, " ": 0}, {"b": 0, "c": 0.5}, {"d": 1}]
        case = start_bound_case(tmp_path, ["a", "bd", "cd"], peaks, trans={(" ", "c"): -9}, mode="logadd")
        got = hex_nbest(*case)
        assert got == hex_nbest(*case, search=oracles.reference_decode)
        assert got["nbest"][0][0] == ["a", "bd"]


def scale_nbest(tmp_path) -> list:
    """n-best lists (``hex_nbest``) of 3 seeded utterances of 60-80 frames
    over 300 random words of 3-8 letters and a bigram model on them, at
    beam 100 and threshold 25, in max and logadd modes.  Unlike the small
    goldens, its frames offer thousands of candidates, fold keys over
    several rounds and cap in-word keys while root keys escape the cap.
    ``tests/golden/decode_scale.json`` holds this list, one case a line;
    re-record it only when the search changes on purpose."""
    alphabet = default_alphabet()
    L = len(alphabet)
    rng = np.random.default_rng(1609)
    words = set()
    while len(words) < 300:
        words.add("".join(chr(97 + int(c)) for c in rng.integers(0, 26, int(rng.integers(3, 9)))))
    words = sorted(words)
    lm = load_arpa(make_bigram_arpa(tmp_path / "scale.arpa", words, rng, backoff_prob=0.1))
    lexicon = smear(build_lexicon(words, alphabet), lm)
    tr = random_transitions(rng, L)
    cases = []
    for utterance in range(3):
        # a sentence's silence-separated spelling, 2-3 frames per label,
        # each peaking over unit Gaussian scores by 1.5 to 4.5
        size = int(rng.integers(60, 81))
        spelling = []
        while 2 * len(spelling) < size:
            word = words[int(rng.integers(0, len(words)))]
            spelling += encode_transcription(word, alphabet) + [alphabet.silence_id]
        frames = np.repeat(spelling, rng.integers(2, 4, len(spelling)))[:size]
        f = rng.normal(size=(size, L))
        f[np.arange(size), frames] += rng.uniform(1.5, 4.5, size)
        for mode in ("max", "logadd"):
            cfg = DecoderConfig(alpha=1.0, beta=0.5, beam_size=100, beam_threshold=25.0, mode=mode)
            cases.append({"utterance": utterance, "mode": mode, **hex_nbest(f, tr, lm, lexicon, cfg)})
    return cases


class TestScaleGolden:
    def test_matches_recorded_nbest_bit_for_bit(self, tmp_path):
        want = [json.loads(line) for line in GOLDEN_SCALE.read_text().splitlines()]
        assert scale_nbest(tmp_path) == want


class TestConfigValidation:
    def test_bad_beam(self):
        with pytest.raises(ValueError):
            DecoderConfig(beam_size=0)

    @pytest.mark.parametrize("beam_size", [2.5, np.float64(2.0), "3", None])
    def test_beam_size_must_be_an_integer(self, beam_size):
        with pytest.raises(ValueError, match="beam_size"):
            DecoderConfig(beam_size=beam_size)

    @pytest.mark.parametrize("beam_size", [True, np.int64(3)])
    def test_beam_size_integer_types_accepted(self, beam_size):
        assert DecoderConfig(beam_size=beam_size).beam_size == beam_size

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            DecoderConfig(beam_threshold=0.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            DecoderConfig(mode="sum")

    def test_bad_silence(self):
        with pytest.raises(ValueError):
            DecoderConfig(silence="always")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            DecoderConfig(alpha=alpha)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="beta"):
            DecoderConfig(beta=beta)

    def test_zero_alpha_and_negative_beta_accepted(self):
        cfg = DecoderConfig(alpha=0.0, beta=-5.0)
        assert (cfg.alpha, cfg.beta) == (0.0, -5.0)
