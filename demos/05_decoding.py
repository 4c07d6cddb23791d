"""Beam-search decoding against a bigram language model.

Builds a 4-word lexicon trie with smeared LM scores, fabricates
emissions that favor "cab" followed by "ad", and decodes.  On an
instance this small the exhaustive oracle can score every word sequence
directly, so the beam result is checked against it.
"""

import math
import tempfile

import numpy as np

from convasr.alphabet import make_alphabet
from convasr.criterion import TransitionTable
from convasr.decoder import DecoderConfig, decode, exhaustive_decode
from convasr.lm import build_lexicon, load_arpa, smear

ARPA = """\
\\data\\
ngram 1=6
ngram 2=5

\\1-grams:
-99\t<s>\t-0.4
-0.6\t</s>
-0.7\tcab\t-0.3
-0.9\tad\t-0.3
-1.1\tbad\t-0.3
-1.3\tdab\t-0.3

\\2-grams:
-0.2\t<s> cab
-0.3\tcab ad
-0.5\tad </s>
-0.8\tcab </s>
-0.9\t<s> ad
\\end\\
"""

with tempfile.NamedTemporaryFile("w", suffix=".arpa", delete=False) as fh:
    fh.write(ARPA)
    arpa_path = fh.name

alphabet = make_alphabet("abcd")
lm = load_arpa(arpa_path)
words = ["cab", "ad", "bad", "dab"]
lexicon = smear(build_lexicon(words, alphabet), lm)
print(f"lexicon: {words}; root smeared score = {lexicon.smeared[0]} (best unigram)")

# 8 frames: c a b | | a d with a quiet tail
L = len(alphabet)
f = np.full((8, L), -4.0)
for t, ch in enumerate("cab||ad"):
    f[t, alphabet.index[ch]] = 2.0
tr = TransitionTable(0.1 * np.ones((L, L)), np.zeros(L))

cfg = DecoderConfig(alpha=0.8, beta=-0.5, beam_size=200, beam_threshold=math.inf, mode="max")
results = decode(f, tr, lm, lexicon, cfg, nbest=4)
print("\nrank  total        acoustic     lm(ln)      words")
for rank, r in enumerate(results, 1):
    print(f"{rank:>4}  {r.score:>10.4f}  {r.acoustic:>10.4f}  {r.lm:>10.4f}  {' '.join(r.words)}")

oracle = exhaustive_decode(f, tr, lm, lexicon, cfg, max_words=3)
print(f"\nexhaustive oracle agrees: {oracle.words} at {oracle.score:.4f} "
      f"(beam: {results[0].words} at {results[0].score:.4f})")
print("decomposition: total = acoustic + alpha*lm + beta*#words ->",
      f"{results[0].acoustic + cfg.alpha * results[0].lm + cfg.beta * len(results[0].words):.4f}")
