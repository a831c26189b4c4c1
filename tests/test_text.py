"""Vocabulary, corpus loading, and the drop/shuffle noise model."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from extractedit.text import (
    BOS,
    EOS,
    PAD,
    UNK,
    RESERVED_TOKENS,
    CorpusError,
    Vocabulary,
    apply_noise,
    load_corpus,
    read_lines,
)

# the characters other than "\n" at which str.splitlines ends a line
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


class TestVocabulary:
    def test_reserved_ids_fixed_order(self):
        v = Vocabulary(["a", "b"])
        assert v.id_to_token[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)

    def test_bijection_over_content(self):
        v = Vocabulary(["x", "y", "z"])
        for i, tok in enumerate(v.id_to_token):
            assert v.token_to_id[tok] == i

    def test_oov_maps_to_unk(self):
        v = Vocabulary(["a"])
        np.testing.assert_array_equal(v.encode(["a", "mystery"]), [4, UNK])

    def test_duplicate_token_rejected(self):
        with pytest.raises(CorpusError):
            Vocabulary(["a", "a"])


class TestLoadCorpus:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\nb c\n", encoding="utf-8")
        vocab = Vocabulary.from_lines(["a b", "b c"])
        assert vocab.id_to_token[4:] == ["b", "a", "c"]  # by frequency, then name
        corpus = load_corpus(p, vocab, max_len=20)
        assert isinstance(corpus, list) and len(corpus) == 2
        np.testing.assert_array_equal(corpus[1], [4, 6])

    def test_empty_file_is_error(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(p, Vocabulary([]), max_len=20)

    def test_blank_line_error_names_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\n\nc\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p, Vocabulary([]), max_len=20)

    @pytest.mark.parametrize("token", RESERVED_TOKENS)
    def test_reserved_token_error_names_line_and_token(self, tmp_path, token):
        """A sentence holds no framing id: a reserved token is refused by
        name, even past max_len, rather than read as its id."""
        p = tmp_path / "c.txt"
        p.write_text(f"a b\nb c a {token}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"c.txt: line 2: token '{token}' is reserved"):
            load_corpus(p, Vocabulary(["a", "b", "c"]), max_len=2)

    def test_malformed_utf8_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"ok line\n\xff\xfe broken\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p, Vocabulary([]), max_len=20)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
    def test_a_line_ends_at_newline_only(self, tmp_path, char):
        """Only ``\\n`` ends a line, so a fault is reported on the line an
        editor shows: other line-break characters, a lone ``\\r`` included,
        separate tokens within their line."""
        p = tmp_path / "c.txt"
        p.write_bytes(f"a{char}b\n".encode("utf-8"))
        assert [line.split() for line in read_lines(p)] == [["a", "b"]]
        p.write_bytes(f"a{char}b\nc <eos>\n".encode("utf-8"))
        with pytest.raises(CorpusError, match="c.txt: line 2: token '<eos>' is reserved"):
            read_lines(p)

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"a b\nb c a\nc\n")
        crlf.write_bytes(b"a b\r\nb c a\r\nc\r\n")
        vocab = Vocabulary(["a", "b", "c"])
        want, got = (load_corpus(p, vocab, max_len=20) for p in (lf, crlf))
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_indexing_stable_across_reloads(self, tmp_path, rng):
        """1000-line file: sentence i identical across two loads."""
        toks = [f"w{i}" for i in range(50)]
        lines = [" ".join(rng.choice(toks, size=rng.integers(1, 8))) for _ in range(1000)]
        p = tmp_path / "big.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        c1 = load_corpus(p, Vocabulary(toks), max_len=20)
        c2 = load_corpus(p, Vocabulary(toks), max_len=20)
        assert len(c1) == 1000
        for i in range(1000):
            np.testing.assert_array_equal(c1[i], c2[i])

    def test_fixed_vocabulary_reused(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b q\n", encoding="utf-8")
        vocab = Vocabulary(["a", "b"])
        corpus = load_corpus(p, vocab, max_len=20)
        np.testing.assert_array_equal(corpus[0], [4, 5, UNK])

    def test_truncation_to_max_len(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a a a a a a\n", encoding="utf-8")
        corpus = load_corpus(p, Vocabulary(["a"]), max_len=4)
        assert len(corpus[0]) == 4


class TestNoise:
    def test_identity_when_disabled(self, rng):
        ids = np.array([5, 6, 7, 8])
        out = apply_noise(ids, p_drop=0.0, shuffle_window=0, rng=rng)
        np.testing.assert_array_equal(out, ids)

    def test_window1_outputs_are_legal_permutations(self, rng):
        """Enumeration oracle: every output of shuffling [a,b,c] with window 1
        must be a permutation with max displacement 1."""
        ids = np.array([10, 11, 12])
        legal = set()
        for perm in itertools.permutations(range(3)):
            if all(abs(perm[i] - i) <= 1 for i in range(3)):
                legal.add(tuple(ids[list(perm)]))
        assert legal == {(10, 11, 12), (11, 10, 12), (10, 12, 11)}
        seen = set()
        for _ in range(500):
            out = apply_noise(ids, p_drop=0.0, shuffle_window=1, rng=rng)
            seen.add(tuple(out))
        assert seen <= legal
        assert len(seen) > 1  # actually shuffles

    def test_displacement_bound_random(self, rng):
        """Property: |new_pos(i) - i| <= window for distinct tokens."""
        for _ in range(200):
            n = int(rng.integers(2, 15))
            w = int(rng.integers(0, 4))
            ids = np.arange(n) + 100
            out = apply_noise(ids, p_drop=0.0, shuffle_window=w, rng=rng)
            pos = {int(t): i for i, t in enumerate(out)}
            assert all(abs(pos[int(t)] - i) <= w for i, t in enumerate(ids))

    def test_drop_rate_monte_carlo(self, rng):
        """p_drop=0.5 over 10000 trials on length 10: mean kept in [4.5, 5.6]."""
        ids = np.arange(10)
        total = 0
        for _ in range(10000):
            total += len(apply_noise(ids, p_drop=0.5, shuffle_window=0, rng=rng))
        mean = total / 10000
        assert 4.5 <= mean <= 5.6

    def test_never_drops_everything(self, rng):
        ids = np.array([7])
        for _ in range(200):
            out = apply_noise(ids, p_drop=0.9, shuffle_window=0, rng=rng)
            assert len(out) >= 1

    def test_measure_preserving_on_vocabulary(self, rng):
        """Noise never introduces tokens absent from the input."""
        for _ in range(100):
            ids = rng.integers(4, 50, size=rng.integers(1, 12))
            out = apply_noise(ids, p_drop=0.3, shuffle_window=2, rng=rng)
            assert set(out.tolist()) <= set(ids.tolist())

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            apply_noise(np.array([1]), p_drop=1.0, shuffle_window=0, rng=rng)
        with pytest.raises(ValueError):
            apply_noise(np.array([1]), p_drop=0.1, shuffle_window=-1, rng=rng)
