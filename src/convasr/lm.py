"""Backoff n-gram language model (ARPA text format) and grapheme lexicon.

Scores stay in ARPA's log10 domain throughout this module; the decoder
multiplies by ln(10) when mixing them with natural-log acoustic scores.
Keeping the raw file values makes save/load round-trips bit-identical.
ARPA and lexicon files are read as a stream of lines through
``alphabet._lines``, one read at a time, so loading needs memory for
the model plus one read.  Loader messages name the line, not the file.

The lexicon is a trie over repetition-encoded grapheme spellings, held
as flat arrays in breadth-first order.  Each node can be "smeared" with
the best unigram score among the words below it, giving partial words an
admissible language-model estimate during beam search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alphabet import Alphabet, _lines, encode_transcription

LN10 = 2.302585092994046  # natural log of 10: converts log10 to ln

BOS = "<s>"
EOS = "</s>"


class LMError(ValueError):
    """Raised for malformed models or failed queries."""


class ArpaParseError(LMError):
    """Raised with a line number when an ARPA file is malformed."""


@dataclass
class NGramLM:
    order: int
    vocab: dict  # word -> id
    words: list  # id -> word
    # tables[n] maps n-tuples of word ids to (log10 prob, log10 backoff);
    # backoff is 0.0 when the file omits it
    tables: list

    def start_state(self) -> tuple:
        if BOS in self.vocab:
            return (self.vocab[BOS],)
        return ()


def load_arpa(path) -> NGramLM:
    """Parse an ARPA model in the format's order: the \\data\\ line, the
    count lines, then the sections up to \\end\\.  Malformed input raises
    with a line number."""

    def fail(lineno, msg):
        raise ArpaParseError(f"line {lineno}: {msg}")

    def stripped():  # the non-blank lines, then "" one past the last line
        lineno = 0
        for lineno, line in _lines(path, ArpaParseError):
            if line := line.strip():
                yield lineno, line
        yield lineno + 1, ""

    lines = stripped()
    lineno, line = next(lines)
    if not line:
        fail(lineno - 1, "missing \\data\\ header")
    if line != "\\data\\":
        fail(lineno, f"expected \\data\\ header, got {line!r}")
    counts = {}
    for lineno, line in lines:
        if not line or line[0] == "\\":
            break
        if not line.startswith("ngram "):
            fail(lineno, f"expected 'ngram N=count', got {line!r}")
        try:
            order_part, count_part = line[len("ngram ") :].split("=")
            n, count = int(order_part), int(count_part)
        except ValueError:
            fail(lineno, f"cannot parse count line {line!r}")
        if n < 1 or count < 0:
            fail(lineno, f"invalid ngram count {line!r}")
        if n in counts:
            fail(lineno, f"duplicate count for order {n}")
        counts[n] = count
    # the counts end on the line before the first section (or the end of file)
    if not counts:
        fail(lineno - 1, "no ngram counts declared")
    max_order = max(counts)
    if sorted(counts) != list(range(1, max_order + 1)):
        fail(lineno - 1, f"non-contiguous ngram orders {sorted(counts)}")
    tables = [{} for _ in range(max_order + 1)]
    vocab: dict[str, int] = {}
    words: list[str] = []
    seen_sections: set[int] = set()
    while line != "\\end\\":  # at a section header, or past the last line
        if not line:
            fail(lineno - 1, "missing \\end\\ marker")
        if not line.endswith("-grams:"):  # only the line after the counts can be neither
            fail(lineno, f"entry before any section: {line!r}")
        try:
            order = int(line[1 : -len("-grams:")])
        except ValueError:
            fail(lineno, f"bad section header {line!r}")
        if order not in counts:
            fail(lineno, f"section \\{order}-grams: not declared in \\data\\")
        if order in seen_sections:
            fail(lineno, f"duplicate \\{order}-grams: section")
        seen_sections.add(order)
        for lineno, line in lines:
            if not line or line[0] == "\\" and (line == "\\end\\" or line.endswith("-grams:")):
                break
            parts = line.split()
            has_backoff = len(parts) == order + 2
            if not has_backoff and len(parts) != order + 1:
                fail(lineno, f"expected {order + 1} or {order + 2} fields, got {len(parts)}")
            if has_backoff and order == max_order:
                fail(lineno, "backoff weight on highest-order entry")
            try:
                prob = float(parts[0])
                backoff = float(parts[-1]) if has_backoff else 0.0
            except ValueError:
                fail(lineno, f"bad float in entry {line!r}")
            if not prob <= 0.0:
                fail(lineno, f"positive or NaN log10 probability {prob}")
            if not backoff < math.inf:
                fail(lineno, f"infinite or NaN log10 backoff {backoff}")
            gram_words = parts[1 : order + 1]
            ids = []
            for w in gram_words:
                if order == 1:
                    if w in vocab:
                        fail(lineno, f"duplicate unigram {w!r}")
                    vocab[w] = len(words)
                    words.append(w)
                elif w not in vocab:
                    fail(lineno, f"word {w!r} not in unigram vocabulary")
                ids.append(vocab[w])
            key = tuple(ids)
            if key in tables[order]:
                fail(lineno, f"duplicate {order}-gram {' '.join(gram_words)!r}")
            tables[order][key] = (prob, backoff)
    for n in range(1, max_order + 1):
        if n not in seen_sections:
            fail(lineno, f"missing \\{n}-grams: section")
        if len(tables[n]) != counts[n]:
            fail(lineno, f"{n}-gram section has {len(tables[n])} entries, header declared {counts[n]}")
    return NGramLM(max_order, vocab, words, tables)


def save_arpa(lm: NGramLM, path) -> None:
    """Write the model back out; floats use shortest round-trip form, and
    a -0.0 backoff is written so that it loads back as -0.0."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("\\data\\\n")
        for n in range(1, lm.order + 1):
            f.write(f"ngram {n}={len(lm.tables[n])}\n")
        for n in range(1, lm.order + 1):
            f.write(f"\n\\{n}-grams:\n")
            for key, (prob, backoff) in lm.tables[n].items():
                gram = " ".join(lm.words[i] for i in key)
                if n < lm.order and (backoff != 0.0 or math.copysign(1.0, backoff) < 0):
                    f.write(f"{prob!r}\t{gram}\t{backoff!r}\n")
                else:
                    f.write(f"{prob!r}\t{gram}\n")
        f.write("\n\\end\\\n")


def score_word(lm: NGramLM, state: tuple, word: str):
    """Backoff query for ``word``: returns (log10 prob, new state).

    ``state`` is an opaque context of word ids (use ``lm.start_state()``
    to begin a sentence).  If the full n-gram is absent the context's
    backoff weight is added and the context shortened, recursively.
    """
    wid = lm.vocab.get(word)
    if wid is None:
        raise LMError(f"out-of-vocabulary word: {word!r}")
    ctx = tuple(state)[-(lm.order - 1) :] if lm.order > 1 else ()
    score = 0.0
    while True:
        hit = lm.tables[len(ctx) + 1].get(ctx + (wid,))
        if hit is not None:
            score += hit[0]
            break
        if not ctx:
            # word absent even as a unigram
            raise LMError(f"word {word!r} has no unigram entry")
        bow_entry = lm.tables[len(ctx)].get(ctx)
        if bow_entry is not None:
            score += bow_entry[1]
        ctx = ctx[1:]
    new_state = (tuple(state) + (wid,))[-(lm.order - 1) :] if lm.order > 1 else ()
    return score, new_state


def sentence_logprob(lm: NGramLM, sentence) -> float:
    """Log10 probability of a word sequence with sentence sentinels.

    Scores each word left to right starting from the begin-of-sentence
    context, then the end-of-sentence token (when the model defines it).
    """
    words = sentence.split() if isinstance(sentence, str) else list(sentence)
    state, total = lm.start_state(), 0.0
    for w in words + ([EOS] if EOS in lm.vocab else []):
        s, state = score_word(lm, state, w)
        total += s
    return total


@dataclass(eq=False)
class LexiconTrie:
    """The spellings' trie as flat arrays: one node per distinct spelling
    prefix, breadth first with children in grapheme order, the root (the
    empty prefix) being node 0.  ``smeared`` is 0.0 until ``smear`` fills
    it.  ``build_lexicon`` and ``load_lexicon`` check the entries."""

    words: list  # word id -> word string
    spellings: list  # word id -> list of grapheme ids
    alphabet: Alphabet
    first: np.ndarray = field(init=False)  # node n's children: first[n] to first[n + 1] - 1
    label: np.ndarray = field(init=False)  # node -> its grapheme, -1 at the root
    ends: list = field(init=False)  # node -> ids of the words spelled to it
    num_ends: np.ndarray = field(init=False)  # node -> len(ends[node])
    smeared: np.ndarray = field(init=False)  # node -> best unigram log10 below it
    # a decoder hypothesis on node n moves by rows[:, rows_first[n]:rows_first[n + 1]]
    rows_first: np.ndarray = field(init=False)
    rows: np.ndarray = field(init=False)  # (3, R): target node, label, committed word id or -1

    def __post_init__(self):
        # level by level, a level's nodes being its sorted (parent, grapheme) keys
        keys, at = [(-1, -1)], [0] * len(self.spellings)  # each word's node so far
        todo, depth = range(len(self.spellings)), 0
        while todo := [w for w in todo if len(self.spellings[w]) > depth]:
            level = sorted({(at[w], self.spellings[w][depth]) for w in todo})
            ids = {key: len(keys) + i for i, key in enumerate(level)}
            for w in todo:
                at[w] = ids[at[w], self.spellings[w][depth]]
            keys += level
            depth += 1
        parent, self.label = np.array(list(zip(*keys)))
        # parents ascend: node n's children follow every node whose parent is below n
        self.first = np.searchsorted(parent[1:], np.arange(len(keys) + 1)) + 1
        self.ends = [[] for _ in keys]
        for wid, node in enumerate(at):
            self.ends[node].append(wid)
        self.num_ends = np.array([len(e) for e in self.ends])
        self.smeared = np.zeros(len(keys))
        # a node's rows: its stay (on label -1 at the root), the root's silence,
        # then per child its advance and one commit back to the root per word
        # ending there; an edge repeating its parent's label never advances
        moves = (self.label != self.label[parent]) & (parent >= 0)
        at, nodes = np.array(at, dtype=np.intp), np.arange(len(keys))
        move, commit = moves.nonzero()[0], moves[at].nonzero()[0]
        word_at = at[commit]
        to = np.concatenate([nodes, [0], move, np.zeros_like(commit)])
        lab = np.concatenate([self.label, [self.alphabet.silence_id], self.label[move], self.label[word_at]])
        wid = np.concatenate([np.full(nodes.size + 1 + move.size, -1), commit])
        owner = np.concatenate([nodes, [0], parent[move], parent[word_at]])
        # a stay sorts before its node's first child, an advance before its commits
        key = np.concatenate([2 * self.first[:-1], [2 * self.first[0]], 2 * move + 1, 2 * word_at + 1])
        self.rows = np.stack([to, lab, wid]).take(key.argsort(kind="stable"), axis=1)
        self.rows_first = np.concatenate([[0], np.bincount(owner, minlength=nodes.size).cumsum()])

    @property
    def num_words(self) -> int:
        return len(self.words)


def _checked_spelling(word: str, spelling, alphabet: Alphabet) -> list:
    """``spelling``, if ``word`` is one token and ``spelling`` can be
    matched: nonempty, with no silence and no label twice in a row."""
    if not word or any(ch.isspace() for ch in word):
        raise LMError(f"lexicon word {word!r} is empty or contains whitespace")
    if not spelling:
        raise LMError(f"lexicon word {word!r} has an empty spelling")
    for prev, gid in zip([None, *spelling], spelling):
        if gid == alphabet.silence_id:
            raise LMError(f"spelling of {word!r} contains the silence symbol")
        if gid == prev:
            # adjacent identical labels collapse to one emission and
            # could never be matched; repetition labels exist for this
            raise LMError(
                f"spelling of {word!r} repeats a label adjacently; "
                "use the repetition labels instead"
            )
    return spelling


def build_lexicon(words, alphabet: Alphabet) -> LexiconTrie:
    """Trie over ``encode_transcription`` spellings; explicit spellings,
    under which several words can share one node, come from a lexicon
    file (``load_lexicon``)."""
    words = list(words)
    spellings = [_checked_spelling(w, encode_transcription(w, alphabet), alphabet) for w in words]
    return LexiconTrie(words, spellings, alphabet)


def smear(trie: LexiconTrie, lm: NGramLM) -> LexiconTrie:
    """Assign each node the best unigram log10 score among the words
    spelled through it, the root the vocabulary's (-inf for no words).

    The best word below a node is an admissible estimate of the partial
    word's language-model score.  Every lexicon word must be in the LM
    vocabulary.  Mutates and returns the trie.
    """
    scores = [score_word(lm, (), w)[0] for w in trie.words]
    best = [max([scores[w] for w in wids]) if wids else -math.inf for wids in trie.ends]
    parent = np.repeat(np.arange(len(best)), np.diff(trie.first)).tolist()  # of nodes 1 on
    # a child follows its parent: one sweep up from the last node fills the root
    for node, up in reversed(list(enumerate(parent, 1))):
        best[up] = max(best[up], best[node])
    trie.smeared = np.array(best)
    return trie


def load_lexicon(path, alphabet: Alphabet) -> LexiconTrie:
    """Read a lexicon file, one word a line: the word, a TAB, then its
    spelling's symbols separated by spaces; malformed input raises with a line number."""
    words, spellings = [], []
    for lineno, line in _lines(path, LMError):
        if not line.strip():
            continue
        if "\t" not in line:
            raise LMError(f"line {lineno}: expected 'word<TAB>spelling'")
        word, spelling = line.split("\t", 1)
        ids = []
        for sym in spelling.split():
            if sym not in alphabet.index:
                raise LMError(f"line {lineno}: unknown grapheme {sym!r}")
            ids.append(alphabet.index[sym])
        try:
            spellings.append(_checked_spelling(word, ids, alphabet))
        except LMError as exc:
            raise LMError(f"line {lineno}: {exc}") from None
        words.append(word)
    return LexiconTrie(words, spellings, alphabet)
