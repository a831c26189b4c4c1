"""Cipher pair generation: bijectivity, reproducibility, distribution match."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from extractedit import cipher
from extractedit.cipher import (
    CipherPair,
    CipherSpec,
    CipherSpecError,
    apply_cipher,
    build_permutation,
    generate_cipher_pair,
    invert_cipher,
    read_gold_pairs,
    token_inventory,
    vocab_dictionary,
    write_cipher_pair,
)
from extractedit.text import RESERVED_TOKENS, CorpusError, Vocabulary, load_corpus


def small_spec(**kw) -> CipherSpec:
    base = dict(vocab_size=30, seed=7, substitution_seed=3, window=1,
                n_train=200, n_valid=40, n_test=50, len_min=2, len_max=8)
    base.update(kw)
    return CipherSpec(**base)


class TestCipherMap:
    def test_identity_cipher_is_verbatim(self):
        perm = np.arange(20)
        ids = np.array([3, 1, 4, 1, 5])
        np.testing.assert_array_equal(apply_cipher(ids, perm, window=0), ids)

    def test_substitution_is_a_permutation(self):
        spec = small_spec()
        perm = build_permutation(spec)
        assert sorted(perm.tolist()) == list(range(spec.vocab_size))

    def test_roundtrip_every_window(self, rng):
        """decode(encode(s)) == s for random sentences and windows."""
        perm = build_permutation(small_spec(substitution_seed=11))
        for _ in range(200):
            n = int(rng.integers(1, 15))
            ids = rng.integers(0, 30, size=n)
            w = int(rng.integers(0, 4))
            back = invert_cipher(apply_cipher(ids, perm, w), perm, w)
            np.testing.assert_array_equal(back, ids)

    def test_displacement_bounded_by_window(self):
        ids = np.arange(9)
        out = apply_cipher(ids, np.arange(9), window=2)
        for i, t in enumerate(out):
            assert abs(int(t) - i) <= 2


class TestGeneration:
    def test_identity_spec_yields_same_language(self):
        """With identity substitution and window 0, targets read as source text."""
        pair = generate_cipher_pair(small_spec(substitution_seed=None, window=0))
        # target sentences are drawn from the same sampler; spot-check that the
        # cipher map really was the identity by re-checking the gold pairs
        for s, t in pair.gold[:20]:
            np.testing.assert_array_equal(s, t)

    def test_gold_pairs_invert_exactly(self):
        spec = small_spec()
        pair = generate_cipher_pair(spec)
        offset = pair.vocab.size - spec.vocab_size
        for s, t in pair.gold:
            back = invert_cipher(t - offset, pair.dictionary, spec.window) + offset
            np.testing.assert_array_equal(back, s)

    def test_bit_reproducible(self):
        a = generate_cipher_pair(small_spec())
        b = generate_cipher_pair(small_spec())
        assert len(a.src_train) == len(b.src_train)
        for x, y in zip(a.src_train, b.src_train):
            np.testing.assert_array_equal(x, y)
        for (s1, t1), (s2, t2) in zip(a.gold, b.gold):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(t1, t2)

    def test_unigram_distributions_match(self):
        """Source vs cipher-decoded target unigram TVD < 0.05 at 2000/side."""
        spec = small_spec(vocab_size=100, n_train=2000, len_min=3, len_max=12)
        pair = generate_cipher_pair(spec)
        offset = pair.vocab.size - spec.vocab_size

        def unigram(sents, decode):
            counts = np.zeros(spec.vocab_size)
            for ids in sents:
                content = ids - offset
                if decode:
                    content = invert_cipher(content, pair.dictionary, spec.window)
                np.add.at(counts, content, 1.0)
            return counts / counts.sum()

        p = unigram(pair.src_train, decode=False)
        q = unigram(pair.tgt_train, decode=True)
        tvd = 0.5 * np.abs(p - q).sum()
        assert tvd < 0.05

    def test_train_sides_are_disjoint_samples(self):
        spec = small_spec(vocab_size=100, n_train=500, len_min=4, len_max=10)
        pair = generate_cipher_pair(spec)
        offset = pair.vocab.size - spec.vocab_size
        src = {tuple(s.tolist()) for s in pair.src_train}
        decoded = {
            tuple((invert_cipher(t - offset, pair.dictionary, spec.window) + offset).tolist())
            for t in pair.tgt_train
        }
        # disjoint draws: essentially no parallel lines slip in by chance
        assert len(src & decoded) <= 2

    def test_parallel_fraction_injects_true_pairs(self):
        spec = small_spec(parallel_fraction=0.5)
        pair = generate_cipher_pair(spec)
        offset = pair.vocab.size - spec.vocab_size
        n_par = 0
        for s, t in zip(pair.src_train, pair.tgt_train):
            back = invert_cipher(t - offset, pair.dictionary, spec.window) + offset
            if len(back) == len(s) and np.array_equal(back, s):
                n_par += 1
        assert n_par >= 0.5 * spec.n_train

    def test_spec_validation(self):
        with pytest.raises(CipherSpecError):
            generate_cipher_pair(small_spec(vocab_size=5))
        with pytest.raises(CipherSpecError):
            generate_cipher_pair(small_spec(n_train=50))

    def test_more_gold_sources_than_distinct_sentences_rejected(self):
        """Ten one-token sentences exist, so an eleventh unique gold source
        can never be drawn: validate says so instead of sampling forever."""
        spec = small_spec(vocab_size=10, len_min=1, len_max=1, n_test=11)
        with pytest.raises(CipherSpecError, match="n_test"):
            spec.validate()
        assert len(generate_cipher_pair(replace(spec, n_test=10)).gold) == 10

    def test_successor_chains_bound_the_gold_set(self):
        """With bigram_weight = 1 every second token is a preferred
        successor of the first, so only those pairs can be gold sources."""
        spec = small_spec(vocab_size=10, len_min=2, len_max=2, bigram_weight=1.0)
        successors = cipher._SentenceSampler(spec, np.random.default_rng(spec.seed)).successors
        chains = {(a, b) for a in range(10) for b in successors[a]}
        with pytest.raises(CipherSpecError, match="n_test"):
            replace(spec, n_test=len(chains) + 1).validate()
        pair = generate_cipher_pair(replace(spec, n_test=len(chains)))
        offset = pair.vocab.size - spec.vocab_size
        assert {tuple((s - offset).tolist()) for s, _ in pair.gold} == chains

    def test_rare_gold_tail_fails_within_the_draw_budget(self):
        """1000 three-token sentences exist, but at Zipf exponent 3 the
        rarest has p ~ 6e-10, so drawing 999 distinct ones could take hours;
        generation gives up after 100 draws per gold source. Run in a child
        process so that a generator without the budget fails on the timeout."""
        code = ("from extractedit.cipher import CipherSpec, generate_cipher_pair\n"
                "generate_cipher_pair(CipherSpec(vocab_size=10, len_min=3, len_max=3,"
                " zipf_exponent=3, n_test=999, n_train=100, n_valid=5))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert done.returncode == 1
        assert "CipherSpecError: n_test=999 distinct gold sources not drawn in 99900" in (
            done.stderr)

    def test_gold_draw_budget_is_100_per_gold_source(self):
        """At Zipf exponent 50 one of the ten one-token sentences takes all but
        ~1e-15 of the mass, so 200 draws give one distinct gold source of
        the two asked for: the spec passes validate, and generation refuses it."""
        spec = CipherSpec(vocab_size=10, seed=0, n_train=100, n_valid=1, n_test=2,
                          len_min=1, len_max=1, zipf_exponent=50.0, bigram_weight=0.0)
        spec.validate()
        with pytest.raises(CipherSpecError,
                           match="n_test=2 distinct gold sources not drawn in 200 draws"):
            generate_cipher_pair(spec)

    def test_gold_sources_unique(self):
        pair = generate_cipher_pair(small_spec(n_test=100))
        keys = {tuple(s.tolist()) for s, _ in pair.gold}
        assert len(keys) == 100


class TestWriting:
    def test_written_files_reload_identically(self, tmp_path):
        spec = small_spec()
        pair = generate_cipher_pair(spec)
        manifest = write_cipher_pair(pair, tmp_path)
        assert (tmp_path / manifest["files"]["src_train"]).exists()
        corpus = load_corpus(tmp_path / "src.train.txt", pair.vocab, spec.len_max)
        assert len(corpus) == spec.n_train
        for i in range(len(corpus)):
            np.testing.assert_array_equal(corpus[i], pair.src_train[i])

    @pytest.mark.parametrize("substitution_seed", [3, None])
    def test_vocab_dictionary_is_the_written_dictionary(self, tmp_path, substitution_seed):
        """The spec's dictionary over vocabulary ids maps each token of
        oracle_dict.tsv to its listed image, and reserved ids to themselves;
        word-by-word it translates every gold source at window 0."""
        pair = generate_cipher_pair(small_spec(window=0, substitution_seed=substitution_seed))
        write_cipher_pair(pair, tmp_path)
        table = vocab_dictionary(pair.spec)
        ids = pair.vocab.token_to_id
        listed = [line.split("\t") for line in
                  (tmp_path / "oracle_dict.tsv").read_text().splitlines()]
        assert len(listed) == pair.spec.vocab_size
        assert [table[ids[a]] for a, _ in listed] == [ids[b] for _, b in listed]
        assert table[:len(RESERVED_TOKENS)].tolist() == list(range(len(RESERVED_TOKENS)))
        for s, t in pair.gold:
            np.testing.assert_array_equal(table[s], t)

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        spec = small_spec()
        write_cipher_pair(generate_cipher_pair(spec), tmp_path / "a")
        write_cipher_pair(generate_cipher_pair(spec), tmp_path / "b")
        for name in ["src.train.txt", "tgt.train.txt", "gold.test.tsv", "oracle_dict.tsv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_gold_token_outside_the_vocabulary_rejected(self, tmp_path):
        """A gold set read with another pair's smaller vocabulary is an
        error naming the file, the line and the token, not a run of UNKs."""
        write_cipher_pair(generate_cipher_pair(small_spec(vocab_size=60)), tmp_path)
        path = tmp_path / "gold.test.tsv"
        assert len(read_gold_pairs(path, Vocabulary(token_inventory(60)))) == 50
        with pytest.raises(CorpusError, match=r"gold\.test\.tsv: line \d+: token '\w+' "
                                              r"is not in the vocabulary"):
            read_gold_pairs(path, Vocabulary(token_inventory(30)))
        known = token_inventory(30)
        path.write_text(f"{known[0]} {known[1]}\t{known[2]}\n{known[3]}\t{known[4]} zz\n")
        with pytest.raises(CorpusError, match="line 2: token 'zz'"):
            read_gold_pairs(path, Vocabulary(known))

    @pytest.mark.parametrize("token", RESERVED_TOKENS)
    def test_gold_reserved_token_rejected(self, tmp_path, token):
        """Every vocabulary holds the reserved tokens, but a gold sentence
        holds text only: one is an error naming the file, the line and the
        token."""
        known = token_inventory(30)
        path = tmp_path / "gold.test.tsv"
        path.write_text(f"{known[0]}\t{known[1]}\n{known[2]}\t{known[3]} {token}\n")
        with pytest.raises(CorpusError, match=rf"gold\.test\.tsv: line 2: token '{token}' "
                                              r"is reserved, not text"):
            read_gold_pairs(path, Vocabulary(known))

    @pytest.mark.parametrize("line", ["ba be\t", "\tba be", "ba \t  "])
    def test_gold_side_without_a_token_rejected(self, tmp_path, line):
        """A gold line with an empty side is an error naming the file and
        the line, not a pair graded against an empty sentence."""
        path = tmp_path / "gold.test.tsv"
        path.write_text(f"ba\tbe\n{line}\n")
        with pytest.raises(CorpusError, match=r"gold\.test\.tsv: line 2 is not "):
            read_gold_pairs(path, Vocabulary(token_inventory(30)))

    def test_inventory_is_stable_and_unique(self):
        inv = token_inventory(150)
        assert len(inv) == len(set(inv)) == 150
        assert inv == token_inventory(150)


class ChoiceSampler:
    """The sentence sampler as first written: one ``rng.choice(V, p=unigram)``
    per unigram token, one ``rng.random()`` per bigram coin, one
    ``rng.integers`` per length and successor pick, and one ``np.empty``
    array per sentence, shifted past the reserved ids to joint-vocabulary
    ids. The random stream it consumes defines the corpora a spec names."""

    def __init__(self, spec: CipherSpec, rng: np.random.Generator):
        ranks = np.arange(1, spec.vocab_size + 1, dtype=np.float64)
        weights = ranks ** (-spec.zipf_exponent)
        self.unigram = weights / weights.sum()
        self.successors = rng.integers(0, spec.vocab_size, size=(spec.vocab_size, 3))
        self.spec = spec
        self.rng = rng

    def draw(self, count: int) -> list[np.ndarray]:
        spec, rng = self.spec, self.rng
        sentences = []
        for _ in range(count):
            n = int(rng.integers(spec.len_min, spec.len_max + 1))
            out = np.empty(n, dtype=np.int64)
            out[0] = rng.choice(spec.vocab_size, p=self.unigram)
            for i in range(1, n):
                if rng.random() < spec.bigram_weight:
                    out[i] = self.successors[out[i - 1], rng.integers(3)]
                else:
                    out[i] = rng.choice(spec.vocab_size, p=self.unigram)
            sentences.append(out + len(RESERVED_TOKENS))
        return sentences


def loop_block_reverse(ids: np.ndarray, window: int) -> np.ndarray:
    """Block reversal as first written: one slice assignment per block."""
    out = ids.copy()
    if window == 0 or len(ids) < 2:
        return out
    block = window + 1
    for start in range(0, len(ids), block):
        out[start : start + block] = out[start : start + block][::-1]
    return out


def contents(pair: CipherPair) -> dict[str, list[list[int]]]:
    return {
        "src_train": [s.tolist() for s in pair.src_train],
        "tgt_train": [s.tolist() for s in pair.tgt_train],
        "src_valid": [s.tolist() for s in pair.src_valid],
        "tgt_valid": [s.tolist() for s in pair.tgt_valid],
        "gold": [(s.tolist(), t.tolist()) for s, t in pair.gold],
        "distractors": [d.tolist() for d in pair.distractors],
        "dictionary": pair.dictionary.tolist(),
    }


# vocab_size, zipf_exponent, bigram_weight, window, len_min, len_max,
# parallel_fraction, n_distractor, substitution_seed
STREAM_SPECS = [
    (10, 0.5, 0.0, 0, 3, 8, 0.0, 0, 1),
    (10, 2.0, 1.0, 3, 6, 6, 0.0, 5, None),
    (10, 1.1, 0.5, 1, 1, 12, 0.2, 0, 4),
    (17, 0.5, 1.0, 2, 4, 4, 0.0, 30, 2),
    (25, 1.5, 0.0, 3, 1, 3, 1.0, 0, None),
    (30, 1.1, 0.5, 1, 2, 8, 0.0, 12, 3),
    (40, 0.7, 0.5, 0, 5, 5, 0.5, 0, 9),
    (50, 2.0, 0.0, 2, 2, 6, 0.0, 7, 11),
    (64, 1.0, 1.0, 1, 3, 10, 0.1, 0, None),
    (80, 0.5, 0.5, 3, 7, 7, 0.0, 40, 5),
    (100, 1.1, 0.5, 1, 3, 12, 0.0, 0, 1),
    (100, 1.9, 1.0, 0, 2, 2, 0.3, 3, 6),
    (128, 0.8, 0.0, 2, 1, 9, 0.0, 0, 7),
    (150, 1.3, 0.5, 3, 4, 11, 0.7, 20, None),
    (200, 0.5, 1.0, 1, 8, 8, 0.0, 0, 8),
    (250, 1.7, 0.0, 3, 4, 4, 0.3, 15, None),
    (300, 1.1, 0.5, 2, 1, 1, 0.0, 0, 10),
    (350, 2.0, 0.5, 0, 3, 15, 0.05, 9, 12),
    (400, 0.6, 1.0, 3, 2, 7, 0.0, 0, 13),
    (450, 1.2, 0.0, 1, 6, 9, 0.9, 25, 14),
    (500, 0.5, 0.5, 2, 3, 12, 0.0, 0, None),
    (500, 2.0, 1.0, 1, 10, 10, 0.4, 11, 15),
]


class TestStreamContract:
    """The corpora a spec names are fixed by the order of its random draws."""

    @pytest.mark.parametrize("case", STREAM_SPECS, ids=lambda c: "-".join(map(str, c)))
    def test_matches_the_choice_sampler(self, case, monkeypatch):
        (vocab_size, zipf, bigram, window, len_min, len_max,
         parallel, n_distractor, substitution_seed) = case
        spec = CipherSpec(vocab_size=vocab_size, seed=vocab_size + window,
                          substitution_seed=substitution_seed, window=window,
                          n_train=100, n_valid=13, n_test=20, n_distractor=n_distractor,
                          len_min=len_min, len_max=len_max, zipf_exponent=zipf,
                          bigram_weight=bigram, parallel_fraction=parallel)
        got = contents(generate_cipher_pair(spec))
        monkeypatch.setattr(cipher, "_SentenceSampler", ChoiceSampler)
        monkeypatch.setattr(cipher, "_block_reverse", loop_block_reverse)
        want = contents(generate_cipher_pair(spec))
        assert got == want

    def test_matches_the_choice_sampler_across_refills(self, monkeypatch):
        """An odd vocabulary draws an odd number of halves for the successor
        table, so the sentences start from a cached half, and 2000 training
        pairs take the sampler through many refills of its word buffer."""
        spec = CipherSpec(vocab_size=101, seed=5, n_train=2000, n_valid=50, n_test=100,
                          n_distractor=40, parallel_fraction=0.1)
        blocks = []

        class Watched(cipher._SentenceSampler):
            def __init__(self, spec, rng):
                super().__init__(spec, rng)
                assert self.half is not None
                raw = self.raw
                self.raw = lambda n: blocks.append(n) or raw(n)

        monkeypatch.setattr(cipher, "_SentenceSampler", Watched)
        got = contents(generate_cipher_pair(spec))
        assert len(blocks) > 20
        monkeypatch.setattr(cipher, "_SentenceSampler", ChoiceSampler)
        want = contents(generate_cipher_pair(spec))
        assert got == want

    @pytest.mark.parametrize("len_min,len_max,bigram", [(600, 600, 0.0), (550, 650, 0.5)])
    def test_matches_the_choice_sampler_past_a_block(self, len_min, len_max, bigram):
        """A sentence may take more words than one 1024-word block holds."""
        spec = small_spec(vocab_size=31, len_min=len_min, len_max=len_max, bigram_weight=bigram)
        got, want = (kind(spec, np.random.default_rng(spec.seed)).draw(6)
                     for kind in (cipher._SentenceSampler, ChoiceSampler))
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    @pytest.mark.parametrize("word,zero_at,refilled", [(1, 1016, True), (1, 1022, True),
                                                       (2, 1018, False)])
    def test_rejected_halves_match_the_choice_sampler(self, word, zero_at, refilled):
        """A raw word of 0 gives two halves that Lemire's method rejects for
        ``integers(3)`` (2**32 % 3 == 1), which no seed reaches in practice.
        PCG64 outputs 0 from a 128-bit state whose two 64-bit halves are
        both ``word``; stepping its LCG back puts that output at raw word
        ``zero_at`` after the successor table. Near the end of the first
        1024-word block, the rejection loop must refill the buffer rather
        than read past it."""
        spec = small_spec(len_min=2, len_max=4)
        mult, mod = 0x2360ED051FC65DA44385DF649FCCF645, 1 << 128
        state = np.random.default_rng(spec.seed).bit_generator.state
        s = (word << 64) | word
        for _ in range(zero_at + 1):
            s = (s - state["state"]["inc"]) * pow(mult, -1, mod) % mod
        state["state"]["state"], state["has_uint32"] = s, 0
        probe = np.random.default_rng()
        probe.bit_generator.state = state
        assert probe.bit_generator.random_raw(zero_at + 1)[-1] == 0

        refills = []

        class Watched(cipher._SentenceSampler):
            def _integers(self, words, pos, half, n):
                out = super()._integers(words, pos, half, n)
                refilled = out[0] is not words
                taken = out[1] - (0 if refilled else pos)  # fresh words
                if 2 * taken + (half is not None) - (out[2] is not None) > 1:  # a rejection
                    refills.append(refilled)
                return out

        samplers = []
        for kind in (Watched, ChoiceSampler):
            rng = np.random.default_rng(spec.seed)
            samplers.append(kind(spec, rng))
            rng.bit_generator.state = state
        samplers[0].half = None
        got, want = (sampler.draw(250) for sampler in samplers)
        assert refills == [refilled]
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_block_reverse_matches_the_loop(self, rng):
        for n in range(0, 14):
            ids = rng.integers(0, 50, size=n)
            for window in range(0, 5):
                np.testing.assert_array_equal(
                    cipher._block_reverse(ids, window), loop_block_reverse(ids, window))

    # sha256 of every written file, computed when the sampler drew through
    # ``rng.choice``; a change here means the spec names other corpora
    GOLDEN = [
        ({}, {
            "gold.test.tsv": "c44c0730dd3057c840207796c07e2ff539b81acf84d922448e0d8cf3c62f2ec9",
            "oracle_dict.tsv": "a6ade89f889ce88138a791c41979934885ca61bcdc6578407efe27b0087898e7",
            "src.train.txt": "72f11646fec8e7b8f4e98e3f8c033eedd2a80889d3a79b51bf4942c7fa8d65d3",
            "src.valid.txt": "f5cc895a9b86e1a46889e30aa478c5199192cb34205bddc79c40c72272757d64",
            "tgt.train.txt": "9cf81fafc90bba30fe42d5c1e3c56037f538c0c5a856b821c17d592b0f3e73b1",
            "tgt.valid.txt": "4fdb0acc2b3b7032a41ab1d8f4c0bdd872358d01e67b80a2e841255c60ba9836",
            "corpus_manifest.json":
                "aad22391ea353a1f211703b188892845ec5551a43274319c7792d7f71782c768",
        }),
        (dict(vocab_size=30, seed=1, substitution_seed=2, window=1, n_train=150,
              n_valid=24, n_test=30, n_distractor=270, len_min=2, len_max=6), {
            "distractors.txt": "070b2b3d14fef3ecc63f1c795829fdfc81d8f8e025085ab9dabd8eed46708ea3",
            "gold.test.tsv": "ee5075054cb8fc5d5aaf07fe60d0f14da4d3021fa7b0b2640f1b1f97549ed130",
            "oracle_dict.tsv": "ac6c22cc253de8bcf59c0f50c272ba0e74f3dec193842a655881500fe111c870",
            "src.train.txt": "106e85c06c21223d7c46647a3bae600ef639a28dbf46a72db026398a4194c5b7",
            "src.valid.txt": "cf943884e71dc05c2034bc571c20d6d36faa566c2e880ef3e5db7778e66ed6da",
            "tgt.train.txt": "7289ed63c3afb3321718462323c40d82e231a7f63aa726c7cdf23956f8ff0fe4",
            "tgt.valid.txt": "4f710d8e7aff20fca8b99ae41756d4df31ac1e3cf4ae559234b25fd25fbe1497",
            "corpus_manifest.json":
                "3d902197ebe848419b178d6a85e5fd32f5e0c258790f4cc313f807f6906b5f33",
        }),
        (dict(vocab_size=250, seed=9, substitution_seed=None, window=3, n_train=300,
              n_valid=20, n_test=40, n_distractor=15, len_min=4, len_max=4,
              zipf_exponent=1.7, bigram_weight=0.0, parallel_fraction=0.3), {
            "distractors.txt": "804364ece4f57bd0975b69e47ed9c1dbef9b7172e5e96563fc05c61c997d31a6",
            "gold.test.tsv": "c7e73af7407ff18becaad539bce41d55172f467db0e220636ec9c1f1b6ea0a25",
            "oracle_dict.tsv": "8a54a5e9ac070e5e14bfd46d1a787d86906b849ad4aea43cdad59adc36b15a65",
            "src.train.txt": "c4860c3039c17cead5dfbeaf25dd5d4b6ead2c096faf7c2bf44580dc7ec1a45b",
            "src.valid.txt": "3c21e8c3f5a4b9a2f1c6452bfad73dbbf8b0b2080534258d7ba2f41a71738d9c",
            "tgt.train.txt": "24b0500ec8d470596bfde60ba3c5f63166193223b54e54c7a278d6cc6ef9b616",
            "tgt.valid.txt": "e7aa3e20e49adda86feeebc5ab2b00e7e45e799e8467101195cd8e1024fe26f8",
            "corpus_manifest.json":
                "e684e3828b975f6f62027ae10e1e956f8bcbe878a89255c8189f526f389b5f73",
        }),
        # the corpora behind every recorded extract-dump benchmark number,
        # computed when the sampler drew through ``Generator`` calls
        (dict(vocab_size=100, window=1, seed=1, n_train=8000), {
            "gold.test.tsv": "be45785505ef76db50a5b3a8908f14ffd8beeb80e58d170c245454cb9499444e",
            "oracle_dict.tsv": "a6ade89f889ce88138a791c41979934885ca61bcdc6578407efe27b0087898e7",
            "src.train.txt": "b3b02a186d12c09d55174b03e091999e11ce278a0bf95f70fa046309895bd278",
            "src.valid.txt": "b4dd7da2ecf97a1134550dec53b24eb473407f92d3c7cbdd696811ce70070ec9",
            "tgt.train.txt": "1b91163bf2071177107b6e33676acc4940840f79cf15346641a42028cd854c90",
            "tgt.valid.txt": "1751eedc2dee29cd358d5394ce259535bdfe0909e26384462821917da665a0e1",
            "corpus_manifest.json":
                "88845e8547f5d20e9a635aa0ca3c883c79c385311e2eb1509c7682843cd168c3",
        }),
    ]

    @pytest.mark.parametrize("kw,digests", GOLDEN,
                             ids=["default", "cli-micro", "fixed-len", "extract-dump"])
    def test_written_files_match_golden_hashes(self, kw, digests, tmp_path):
        files = write_cipher_pair(generate_cipher_pair(CipherSpec(**kw)), tmp_path)["files"]
        written = sorted(files.values()) + ["corpus_manifest.json"]
        assert sorted(written) == sorted(digests)
        for name in written:
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digests[name], name
