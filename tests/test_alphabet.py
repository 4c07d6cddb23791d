import numpy as np
import pytest

from convasr.alphabet import (
    Alphabet,
    AlphabetError,
    collapse_path,
    decode_labels,
    default_alphabet,
    encode_transcription,
    load_alphabet,
    make_alphabet,
)

from writers import save_alphabet


@pytest.fixture
def ab():
    return default_alphabet()


def syms(ids, ab):
    return [ab.symbols[i] for i in ids]


class TestInventory:
    def test_default_has_30_symbols(self, ab):
        assert len(ab) == 30
        assert len(set(ab.symbols)) == 30

    def test_bijection(self, ab):
        for i, s in enumerate(ab.symbols):
            assert ab.index[s] == i

    def test_special_ids_distinct(self, ab):
        assert ab.rep2_id != ab.rep3_id
        assert ab.silence_id not in (ab.rep2_id, ab.rep3_id)
        assert not ab.is_letter(ab.rep2_id)
        assert not ab.is_letter(ab.silence_id)

    def test_custom_letters(self):
        small = make_alphabet("abcde")
        assert len(small) == 8
        assert small.is_letter(small.index["a"])

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "a", "|", "2", "3"))


class TestEncode:
    def test_caterpillar(self, ab):
        got = encode_transcription("caterpillar", ab)
        assert syms(got, ab) == list("caterpil2ar")

    def test_no_repeats(self, ab):
        assert syms(encode_transcription("cat", ab), ab) == list("cat")

    def test_greedy_run_of_four(self, ab):
        # greedy left-to-right chunking, then verified by round trip
        got = encode_transcription("aaaa", ab)
        assert syms(got, ab) == ["a", "3", "a"]
        assert decode_labels(got, ab) == "aaaa"

    def test_triple(self, ab):
        assert syms(encode_transcription("aaa", ab), ab) == ["a", "3"]

    def test_space_becomes_silence(self, ab):
        got = encode_transcription("a b", ab)
        assert syms(got, ab) == ["a", "|", "b"]

    def test_whitespace_runs_collapse(self, ab):
        assert encode_transcription("a \t b", ab) == encode_transcription("a b", ab)
        assert encode_transcription("  a b  ", ab) == encode_transcription("a b", ab)

    def test_case_insensitive(self, ab):
        assert encode_transcription("CaT", ab) == encode_transcription("cat", ab)

    def test_unspellable_names_offset(self, ab):
        with pytest.raises(AlphabetError, match=r"'9' at offset 3"):
            encode_transcription("cat9", ab)

    def test_no_adjacent_identical_ids(self, ab):
        rng = np.random.default_rng(0)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(200):
            word = "".join(rng.choice(list(letters), size=rng.integers(1, 12)))
            ids = encode_transcription(word, ab)
            assert all(a != b for a, b in zip(ids, ids[1:]))


class TestDecode:
    def test_trivial(self, ab):
        assert decode_labels(encode_transcription("cat", ab), ab) == "cat"

    def test_caterpillar(self, ab):
        ids = [ab.index[s] for s in "caterpil2ar"]
        assert decode_labels(ids, ab) == "caterpillar"

    def test_rep_first_rejected(self, ab):
        with pytest.raises(AlphabetError, match="first position"):
            decode_labels([ab.rep2_id, ab.index["a"]], ab)

    def test_rep_after_silence_rejected(self, ab):
        with pytest.raises(AlphabetError):
            decode_labels([ab.index["a"], ab.silence_id, ab.rep2_id], ab)

    def test_rep_after_rep_rejected(self, ab):
        with pytest.raises(AlphabetError):
            decode_labels([ab.index["a"], ab.rep2_id, ab.rep3_id], ab)

    def test_lenient_mode_drops_bad_reps(self, ab):
        ids = [ab.rep2_id, ab.index["a"], ab.rep2_id]
        assert decode_labels(ids, ab, strict=False) == "aa"

    def test_out_of_range(self, ab):
        with pytest.raises(AlphabetError):
            decode_labels([99], ab)


class TestCollapse:
    def test_duplicates_merge(self, ab):
        c, a, t = (ab.index[s] for s in "cat")
        assert collapse_path([c, c, a, a, t], ab) == [c, a, t]
        assert collapse_path([c, a, t, t, t], ab) == [c, a, t]

    def test_repetition_labels_collapse_too(self, ab):
        a, r2 = ab.index["a"], ab.rep2_id
        assert collapse_path([a, r2, r2, a], ab) == [a, r2, a]

    def test_empty(self, ab):
        assert collapse_path([], ab) == []

    def test_idempotent(self, ab):
        rng = np.random.default_rng(1)
        for _ in range(100):
            path = list(rng.integers(0, len(ab), size=rng.integers(1, 20)))
            once = collapse_path(path, ab)
            assert collapse_path(once, ab) == once


class TestRoundTrip:
    def test_runs_up_to_three(self, ab):
        rng = np.random.default_rng(2)
        letters = list("abcdefghijklmnopqrstuvwxyz'")
        for _ in range(500):
            chunks = []
            for _ in range(rng.integers(1, 8)):
                chunks.append(str(rng.choice(letters)) * int(rng.integers(1, 4)))
            s = "".join(chunks)
            assert decode_labels(encode_transcription(s, ab), ab) == s

    def test_longer_runs_still_round_trip(self, ab):
        for s in ("aaaa", "aaaaa", "aaaaaa", "bbbbbbb"):
            assert decode_labels(encode_transcription(s, ab), ab) == s

    def test_sentences(self, ab):
        for s in ("the cat sat", "it's a hill", "go o o"):
            assert decode_labels(encode_transcription(s, ab), ab) == s


class TestSerialization:
    def test_save_load(self, ab, tmp_path):
        path = tmp_path / "alphabet.txt"
        save_alphabet(ab, path)
        loaded = load_alphabet(path)
        assert loaded.symbols == ab.symbols
        assert loaded.silence_id == ab.silence_id
        assert loaded.rep2_id == ab.rep2_id

    def test_any_line_break_and_blank_lines(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_bytes(b"a\r\nb\rc\n\n|\n2\n3")
        assert load_alphabet(path).symbols == ("a", "b", "c", "|", "2", "3")

    @pytest.mark.parametrize("data, line", [(b"\xff", 1), (b"a\r\nb\r\xe9\n", 3), (b"a\n\n|\n\xc3", 4)])
    def test_byte_not_utf8_names_the_line(self, tmp_path, data, line):
        path = tmp_path / "alphabet.txt"
        path.write_bytes(data)
        with pytest.raises(AlphabetError, match=f"alphabet.txt: line {line}: byte 0x.. is not valid UTF-8"):
            load_alphabet(path)

    def test_file_layout(self, ab, tmp_path):
        path = tmp_path / "alphabet.txt"
        save_alphabet(ab, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 30
        assert lines[ab.silence_id] == "|"
        assert lines[ab.rep2_id] == "2"
        assert lines[ab.rep3_id] == "3"
