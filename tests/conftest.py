import time
from types import SimpleNamespace

import numpy as np
import pytest

from convasr.criterion import TransitionTable
from convasr.training import ToyTaskConfig, TrainConfig, default_toy_network, make_toy_dataset, train_toy

# backoff fixture with hand-computable queries (log10 everywhere)
HAND_ARPA = """\
\\data\\
ngram 1=5
ngram 2=4

\\1-grams:
-1.0\t<s>\t-0.30103
-0.69897\t</s>
-0.52\ta\t-0.1
-0.61\tb\t-0.2
-0.5\tc

\\2-grams:
-0.30103\ta b
-0.15\t<s> a
-0.9\tb </s>
-0.4\tb c

\\end\\
"""


@pytest.fixture
def hand_arpa(tmp_path):
    path = tmp_path / "hand.arpa"
    path.write_text(HAND_ARPA)
    return path


@pytest.fixture(scope="session")
def criterion_5_run():
    """Acceptance criterion 5's toy model, trained once per session: its
    ``alphabet``, ``data``, ``spec``, ``train_toy`` ``result`` and the
    ``elapsed`` seconds of rendering and training."""
    start = time.perf_counter()
    alphabet, data = make_toy_dataset(ToyTaskConfig(num_samples=500, seed=20, noise_std=0.6))
    spec = default_toy_network(39, len(alphabet))
    result = train_toy(data, alphabet, spec, TrainConfig(epochs=12, learning_rate=0.008, seed=20))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(alphabet=alphabet, data=data, spec=spec, result=result, elapsed=elapsed)


def make_bigram_arpa(path, words, rng, backoff_prob=0.6):
    """Random but well-formed bigram model over the given words."""
    vocab = ["<s>", "</s>"] + list(words)
    bigrams = [
        (a, b, -rng.uniform(0.1, 1.2))
        for a in vocab
        for b in vocab
        if a != "</s>" and b != "<s>" and rng.random() < backoff_prob
    ]
    lines = ["\\data\\", f"ngram 1={len(words) + 2}", f"ngram 2={len(bigrams)}", ""]
    lines.append("\\1-grams:")
    lines.append(f"{-99.0!r}\t<s>\t{-rng.uniform(0.1, 0.4)!r}")
    lines.append(f"{-rng.uniform(0.2, 1.0)!r}\t</s>")
    for w in words:
        lines.append(f"{-rng.uniform(0.2, 1.5)!r}\t{w}\t{-rng.uniform(0.1, 0.4)!r}")
    lines += ["", "\\2-grams:"]
    for a, b, p in bigrams:
        lines.append(f"{p!r}\t{a} {b}")
    lines += ["", "\\end\\", ""]
    path.write_text("\n".join(lines))
    return path


def random_label_sequence(rng, length, num_labels, forbid=()):
    """Random labels with no adjacent repeats (valid for both criteria).

    With fewer than two usable labels the length caps at 1.
    """
    choices = [i for i in range(num_labels) if i not in forbid]
    seq = [int(rng.choice(choices))]
    if len(choices) < 2:
        return seq
    while len(seq) < length:
        nxt = int(rng.choice(choices))
        if nxt != seq[-1]:
            seq.append(nxt)
    return seq


def random_transitions(rng, num_labels, scale=0.3):
    return TransitionTable(
        scale * rng.standard_normal((num_labels, num_labels)),
        scale * rng.standard_normal(num_labels),
    )
