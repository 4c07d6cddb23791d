"""Grapheme inventory and repetition-label transcription coding.

The acoustic model emits one score per grapheme.  Instead of a blank
label, runs of identical letters are rewritten with two dedicated
repetition labels: "2" marks a letter written twice in a row and "3"
a letter written three times, so "caterpillar" becomes
c,a,t,e,r,p,i,l,2,a,r.  Encoded sequences never contain two identical
adjacent labels, which is what the lattice criteria rely on.

``_lines`` is the package's one reader of text files by line: alphabet,
ARPA, lexicon and ``ler``/``wer`` files are read through it as UTF-8 and
break where ``str.splitlines`` breaks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz'"
SILENCE = "|"
REP2 = "2"
REP3 = "3"


class AlphabetError(ValueError):
    """Raised for unspellable input or malformed label sequences."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered grapheme inventory with silence and repetition labels.

    ``symbols`` is the id -> symbol mapping (ids are 0..len-1).  The
    default inventory has 30 symbols: 26 letters, the apostrophe,
    silence, and the two repetition labels.
    """

    symbols: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetError("duplicate symbols in alphabet")
        for special in (SILENCE, REP2, REP3):
            if special not in self.symbols:
                raise AlphabetError(f"alphabet is missing the {special!r} symbol")
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def silence_id(self) -> int:
        return self.index[SILENCE]

    @property
    def rep2_id(self) -> int:
        return self.index[REP2]

    @property
    def rep3_id(self) -> int:
        return self.index[REP3]

    @property
    def letters(self) -> tuple[str, ...]:
        """Symbols that may start or extend a spelled word."""
        special = {SILENCE, REP2, REP3}
        return tuple(s for s in self.symbols if s not in special)

    def is_letter(self, label: int) -> bool:
        return self.symbols[label] not in (SILENCE, REP2, REP3)

    def is_repetition(self, label: int) -> bool:
        return label in (self.rep2_id, self.rep3_id)


def default_alphabet() -> Alphabet:
    """The 30-symbol inventory: a-z, apostrophe, silence, and "2"/"3"."""
    return make_alphabet(DEFAULT_LETTERS)


def make_alphabet(letters: str) -> Alphabet:
    """Build an inventory from a custom letter set (silence and
    repetition labels are appended automatically)."""
    return Alphabet(tuple(letters) + (SILENCE, REP2, REP3))


def encode_transcription(text: str, alphabet: Alphabet) -> list[int]:
    """Encode text into label ids with repetition labels.

    Input is lowercased.  Whitespace runs collapse to a single silence
    label (leading/trailing whitespace is dropped), so the encoded
    sequence never carries two identical adjacent ids.  Runs of a
    letter are split greedily left to right into chunks of at most
    three: "aaaa" encodes as a,3,a.

    Raises AlphabetError naming the character and its offset when the
    text contains a symbol outside the inventory.
    """
    lowered = text.lower()
    for i, ch in enumerate(lowered):
        if not ch.isspace() and (ch in (SILENCE, REP2, REP3) or ch not in alphabet.index):
            raise AlphabetError(f"unspellable character {ch!r} at offset {i}")
    ids: list[int] = []
    for word in lowered.split():
        if ids:
            ids.append(alphabet.silence_id)
        for ch, run in itertools.groupby(word):
            for left in range(len(list(run)), 0, -3):
                ids.append(alphabet.index[ch])
                if left > 1:
                    ids.append(alphabet.rep2_id if left == 2 else alphabet.rep3_id)
    return ids


def decode_labels(labels, alphabet: Alphabet, strict: bool = True) -> str:
    """Expand repetition labels back into text (inverse of encoding).

    A repetition label doubles or triples the letter immediately before
    it; silence decodes to a single space.  With ``strict`` a repetition
    label in first position, after silence, or after another repetition
    label raises AlphabetError; otherwise such labels are dropped, which
    is useful when decoding unconstrained model output.
    """
    out: list[str] = []
    prev: int | None = None
    for pos, label in enumerate(labels):
        label = int(label)
        if label < 0 or label >= len(alphabet):
            raise AlphabetError(f"label id {label} out of range at position {pos}")
        if alphabet.is_repetition(label):
            if prev is None or not alphabet.is_letter(prev):
                if strict:
                    where = "first position" if prev is None else f"position {pos}"
                    raise AlphabetError(f"repetition label without preceding letter at {where}")
                prev = label
                continue
            copies = 1 if label == alphabet.rep2_id else 2
            out.append(alphabet.symbols[prev] * copies)
        elif label == alphabet.silence_id:
            out.append(" ")
        else:
            out.append(alphabet.symbols[label])
        prev = label
    return "".join(out)


def collapse_path(frame_labels, alphabet: Alphabet) -> list[int]:
    """Merge consecutive duplicate frame labels into one emission.

    A lattice path that stays on the same state for several frames
    represents a single label; this recovers the label sequence a
    Viterbi path stands for.  Empty input collapses to an empty list.
    """
    out: list[int] = []
    for label in frame_labels:
        label = int(label)
        if label < 0 or label >= len(alphabet):
            raise AlphabetError(f"label id {label} out of range")
        if not out or out[-1] != label:
            out.append(label)
    return out


_CHUNK = 1 << 16  # characters per read: a reader holds one read of a file's text


def _not_utf8(path) -> str:
    """``line N: byte 0x.. is not valid UTF-8`` for the first such byte of
    the file at ``path``, once decoding it has failed; N counts lines as
    ``str.splitlines`` does."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        return f"line {line}: byte {data[exc.start]:#04x} is not valid UTF-8"
    raise OSError(f"{path} changed while it was read")


def _lines(path, error):
    """``(line number, line)`` for each line of the UTF-8 file at ``path``,
    broken where ``str.splitlines`` breaks, one read in memory at a time.

    A first pass only decodes, so an undecodable byte anywhere raises
    ``error(where)`` naming its line before a caller can fail on an earlier
    line.  The second reads with universal newlines, so a "\\r\\n" cut by a
    read still arrives as one "\\n"."""
    with open(path, encoding="utf-8", newline=None) as f:
        try:
            while f.read(_CHUNK):
                pass
        except UnicodeDecodeError:
            raise error(_not_utf8(path)) from None
        f.seek(0)
        lineno, rest = 0, ""  # rest: the line still open at the end of a read
        while text := f.read(_CHUNK):
            # "x" ends the last line: it is open unless the text ended with a break
            *lines, rest = (rest + text + "x").splitlines()
            rest = rest[:-1]
            yield from enumerate(lines, lineno + 1)
            lineno += len(lines)
        if rest:
            yield lineno + 1, rest


def load_alphabet(path) -> Alphabet:
    """Read an alphabet file, one symbol a line, the line number being the
    label id; a byte that is not UTF-8 or a malformed inventory raises
    AlphabetError naming the file."""
    try:
        return Alphabet(tuple(line for _, line in _lines(path, AlphabetError) if line))
    except AlphabetError as exc:
        raise AlphabetError(f"{path}: {exc}") from None
