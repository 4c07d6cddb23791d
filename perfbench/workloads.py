"""The two benchmark workloads.

Each workload builds its inputs from a seed in ``setup``, then exposes
a pool of items.  The runner times ``call(state, item)`` alone and then
runs ``check(state, item, out)``, which returns the list of failed
checks (empty when the output is right).  Everything the program sees
is generated here; convasr is reached only through its public module
attributes, so the traced run's wrappers see every call.

Properties that drive cost (utterance length, label-peak confidence)
are drawn from a base-2 van der Corput sequence shifted by a seeded
offset, so any prefix of a pool covers the range evenly and runs of
different seeds do nearly the same mix of work.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from convasr import acoustic, alphabet, criterion, decoder, lm, metrics, training

FRAME_S = 0.02  # frame stride of the decoder's emissions


def van_der_corput(i: int) -> float:
    q, denom = 0.0, 1.0
    while i:
        denom *= 2.0
        i, bit = divmod(i, 2)
        q += bit / denom
    return q


def spread(n: int, rng) -> list[float]:
    """n points in [0, 1): a seeded rotation of the van der Corput sequence."""
    shift = rng.random()
    return [(van_der_corput(i) + shift) % 1.0 for i in range(n)]


def startup_check(rng) -> list[str]:
    """asg_loss equals the difference of the two lattices' Forward scores."""
    f = rng.standard_normal((10, 5))
    tr = criterion.TransitionTable(0.3 * rng.standard_normal((5, 5)), 0.3 * rng.standard_normal(5))
    labels = [0, 2, 1, 3]
    loss = criterion.asg_loss(f, tr, labels).loss
    num, _ = criterion.forward_score(criterion.build_asg_graph(labels, 10), f, tr)
    den, _ = criterion.forward_score(criterion.build_full_graph(5, 10), f, tr)
    if not abs(loss - (den - num)) <= 1e-9:
        return [f"startup: asg_loss {loss!r} != forward difference {den - num!r}"]
    return []


def check_asg(result, where: str) -> list[str]:
    errors = []
    if not (math.isfinite(result.loss) and result.loss >= 0.0):
        errors.append(f"{where}: ASG loss {result.loss!r} is not finite and >= 0")
    row_err = float(np.max(np.abs(result.d_emissions.sum(axis=1))))
    if not row_err <= 1e-9:
        errors.append(f"{where}: d_emissions rows sum to {row_err!r}, not 0")
    return errors


class TrainAsg:
    """``training.train_toy`` on a tone-sequence corpus over a-z."""

    name = "train_asg"
    letters = "abcdefghijklmnopqrstuvwxyz"
    num_samples = 30
    epochs = 2
    trace_items = 2

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        errors = startup_check(rng)
        tones = tuple(float(f) for f in np.geomspace(250.0, 5000.0, len(self.letters)))
        # one utterance per make_toy_dataset call, so that the word lengths
        # (8-24 letters, 180-250 ms each) cover their range evenly
        dataset = []
        for q in spread(self.num_samples, rng):
            size = 8 + int(17 * q)
            cfg = training.ToyTaskConfig(
                letters=self.letters,
                num_samples=1,
                min_word_len=size,
                max_word_len=size,
                tone_hz=tones,
                min_tone_ms=180.0,
                max_tone_ms=250.0,
                seed=int(rng.integers(2**32)),
            )
            abc, samples = training.make_toy_dataset(cfg)
            dataset += samples
        d = dataset[0][0].dim
        spec = acoustic.NetworkSpec(
            [
                acoustic.ConvLayerSpec(d, 250, 7, 2, "hardtanh"),
                acoustic.ConvLayerSpec(250, 250, 5, 1, "hardtanh"),
                acoustic.ConvLayerSpec(250, len(abc), 1, 1, "none"),
            ]
        )
        # the same split train_toy makes: the trailing fifth is held out
        n_hold = max(1, int(round(len(dataset) * 0.2)))
        train = dataset[: len(dataset) - n_hold]
        stride_s = dataset[0][0].frame_stride_ms / 1000.0
        state = {
            "alphabet": abc,
            "dataset": dataset,
            "spec": spec,
            "train_cfg": training.TrainConfig(
                epochs=self.epochs, holdout_fraction=0.2, seed=seed
            ),
            "audio_s": self.epochs * sum(feats.num_frames * stride_s for feats, _ in train),
            "errors": errors,
            "n_train": len(train),
            "checked": 0,
            "holdout_ler": None,
        }
        # warm-up: a short run on a few utterances
        training.train_toy(dataset[:3], abc, spec, training.TrainConfig(epochs=1, seed=seed))
        return state

    def items(self, state) -> list:
        return [0]

    def audio_s(self, state, item) -> float:
        return state["audio_s"]

    def call(self, state, item):
        return training.train_toy(state["dataset"], state["alphabet"], state["spec"], state["train_cfg"])

    def check(self, state, item, out) -> list[str]:
        errors = []
        for s in out.curve:
            if not (math.isfinite(s.train_loss) and s.train_loss >= 0.0):
                errors.append(f"epoch {s.epoch}: mean ASG loss {s.train_loss!r}")
        if len(out.curve) != self.epochs:
            errors.append(f"curve has {len(out.curve)} epochs, expected {self.epochs}")
        # one full criterion check per call, on a training utterance of the
        # trained model, rotating through the corpus
        k = state["checked"] % state["n_train"]
        state["checked"] += 1
        feats, text = state["dataset"][k]
        emissions, _ = acoustic.network_forward_cached(feats.frames, state["spec"], out.params)
        labels = alphabet.encode_transcription(text, state["alphabet"])
        errors += check_asg(criterion.asg_loss(emissions, out.transitions, labels), f"utterance {k}")
        state["holdout_ler"] = out.curve[-1].ler
        return errors

    def quality(self, state) -> dict:
        return {"holdout_ler": state["holdout_ler"]}


def bigram_arpa_text(words, rng, num_bigrams: int) -> str:
    """A well-formed random bigram model with sentence sentinels."""
    vocab = ["<s>", "</s>"] + list(words)
    n = len(vocab)
    # left word from <s> + words, right word from </s> + words
    pairs = rng.integers(0, n, size=(int(num_bigrams * 1.3), 2))
    pairs = pairs[(pairs[:, 0] != 1) & (pairs[:, 1] != 0)]
    pairs = np.unique(pairs, axis=0)
    pairs = pairs[rng.permutation(len(pairs))[:num_bigrams]]
    probs = (-rng.uniform(0.1, 1.2, size=len(pairs))).tolist()
    lines = ["\\data\\", f"ngram 1={n}", f"ngram 2={len(pairs)}", "", "\\1-grams:"]
    lines.append(f"{-99.0!r}\t<s>\t{-rng.uniform(0.1, 0.4)!r}")
    lines.append(f"{-rng.uniform(0.2, 1.0)!r}\t</s>")
    for w in words:
        lines.append(f"{-rng.uniform(2.5, 4.0)!r}\t{w}\t{-rng.uniform(0.1, 0.4)!r}")
    lines += ["", "\\2-grams:"]
    lines += [f"{p!r}\t{vocab[a]} {vocab[b]}" for (a, b), p in zip(pairs.tolist(), probs)]
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


class DecodeBigram:
    """Beam search over a 2000-word lexicon with a bigram LM."""

    name = "decode_bigram"
    num_words = 2000
    num_bigrams = 185_000
    model_seed = 20160910
    pool = 32
    trace_items = 6
    peak_range = (1.5, 4.5)
    cfg = dict(alpha=1.0, beta=0.5, beam_size=100, beam_threshold=25.0, mode="max", silence="optional")

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        errors = startup_check(rng)
        abc = alphabet.default_alphabet()
        # the lexicon and LM are the model under test, the same for every
        # seed, as one decoder is scored on many test sets; the seed draws
        # the utterances
        model_rng = np.random.default_rng(self.model_seed)
        words: set[str] = set()
        while len(words) < self.num_words:
            size = int(model_rng.integers(3, 9))
            words.add("".join(chr(97 + int(c)) for c in model_rng.integers(0, 26, size)))
        words = sorted(words)
        text = bigram_arpa_text(words, model_rng, self.num_bigrams)
        os.makedirs(self.scratch_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.scratch_dir) as tmp:
            path = os.path.join(tmp, "bigram.arpa")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            model = lm.load_arpa(path)
        trie = lm.smear(lm.build_lexicon(words, abc), model)
        cfg = decoder.DecoderConfig(**self.cfg)
        transitions = criterion.TransitionTable.zeros(len(abc))

        items = []
        lo, hi = self.peak_range
        # each word (with the silence after it) gets its own confidence, so
        # every utterance mixes clean and noisy stretches
        peaks = iter(spread(6 * self.pool, rng))
        for _ in range(self.pool):
            sentence = [words[int(i)] for i in rng.integers(0, len(words), int(rng.integers(4, 7)))]
            emissions = self.emissions(rng, sentence, [lo + (hi - lo) * next(peaks) for _ in sentence], abc)
            ref_total = reference_total(emissions, transitions, model, sentence, abc, cfg)
            items.append((emissions, sentence, ref_total))
        state = {
            "lm": model,
            "lexicon": trie,
            "cfg": cfg,
            "transitions": transitions,
            "items": items,
            "errors": errors,
            "word_edits": 0,
            "ref_words": 0,
            "search_errors": 0,
            "decoded": 0,
        }
        # warm-up on a clean two-word utterance
        self.call(state, (self.emissions(rng, words[:2], [hi, hi], abc),))
        return state

    @staticmethod
    def emissions(rng, sentence, peaks, abc) -> np.ndarray:
        """Unit Gaussian scores plus, on each frame, ``peak`` on the label
        of the sentence's silence-separated spelling; 2-3 frames per label."""
        spelling, peak = [], []
        for w, p in zip(sentence, peaks):
            ids = alphabet.encode_transcription(w, abc) + [abc.silence_id]
            spelling += ids
            peak += [p] * len(ids)
        spelling, peak = spelling[:-1], peak[:-1]
        reps = rng.integers(2, 4, len(spelling))
        frames = np.repeat(spelling, reps)
        scores = rng.standard_normal((len(frames), len(abc)))
        scores[np.arange(len(frames)), frames] += np.repeat(peak, reps)
        return scores

    def items(self, state) -> list:
        return state["items"]

    def audio_s(self, state, item) -> float:
        return item[0].shape[0] * FRAME_S

    def call(self, state, item):
        return decoder.decode(item[0], state["transitions"], state["lm"], state["lexicon"], state["cfg"])

    def check(self, state, item, out) -> list[str]:
        _, sentence, ref_total = item
        cfg = state["cfg"]
        errors = []
        for r in out:
            parts = r.acoustic + cfg.alpha * r.lm + cfg.beta * len(r.words)
            if not abs(r.score - parts) <= 1e-9:
                errors.append(f"decode total {r.score!r} != acoustic + alpha*lm + beta*words {parts!r}")
        best = out[0]
        state["decoded"] += 1
        state["search_errors"] += int(is_search_error(best.score, ref_total))
        state["word_edits"] += metrics.levenshtein(sentence, best.words)
        state["ref_words"] += len(sentence)
        return errors

    def quality(self, state) -> dict:
        return {
            "wer": state["word_edits"] / max(1, state["ref_words"]),
            "search_error_frac": state["search_errors"] / max(1, state["decoded"]),
        }


def reference_total(emissions, transitions, model, sentence, abc, cfg) -> float:
    """The decoder's objective for the reference sentence, scored on its
    silence-separated spelling: best alignment plus LM and word terms.

    A decoder that searches well returns a total at least this high.
    """
    spelling = alphabet.encode_transcription(" ".join(sentence), abc)
    graph = criterion.build_asg_graph(spelling, emissions.shape[0])
    _, acoustic_score = criterion.viterbi(graph, emissions, transitions)
    return (
        acoustic_score
        + cfg.alpha * lm.LN10 * lm.sentence_logprob(model, sentence)
        + cfg.beta * len(sentence)
    )


def is_search_error(best_total: float, reference_total: float, tol: float = 1e-9) -> bool:
    """The search missed: the reference scores above the returned 1-best."""
    return best_total < reference_total - tol


def make(name: str, scratch_dir: str):
    if name == DecodeBigram.name:
        return DecodeBigram(scratch_dir)
    return {TrainAsg.name: TrainAsg}[name]()
