"""File writers that only the tests use, each for the format that a
convasr loader reads: ``load_alphabet``, ``load_lexicon`` and ``load_wav``."""

import wave

import numpy as np

from convasr.alphabet import Alphabet
from convasr.features import Waveform
from convasr.lm import LexiconTrie


def save_alphabet(alphabet: Alphabet, path) -> None:
    """Write one symbol per line; the line number is the label id."""
    with open(path, "w", encoding="utf-8") as f:
        for s in alphabet.symbols:
            f.write(s + "\n")


def save_lexicon(trie: LexiconTrie, path) -> None:
    """One line per word: word TAB space-separated spelling symbols."""
    with open(path, "w", encoding="utf-8") as f:
        for word, spelling in zip(trie.words, trie.spellings):
            symbols = " ".join(trie.alphabet.symbols[g] for g in spelling)
            f.write(f"{word}\t{symbols}\n")


def save_wav(path, w: Waveform) -> None:
    """Write a 16-bit mono WAV file (samples clipped to [-1, 1))."""
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(w.sample_rate)
        out.writeframes(pcm.tobytes())
