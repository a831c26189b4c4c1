"""Synthetic cipher language pairs with known ground truth.

A "language pair" is built from one shared pseudo-word inventory: source
sentences come from a Zipfian unigram-plus-bigram sampler, and target
sentences are cipher images (bijective token substitution followed by
deterministic block reversal within a window) of a disjoint source sample,
so the two training corpora share no parallel lines. Because the cipher is
invertible, gold parallel test pairs and an oracle dictionary come for
free, which is what makes unsupervised translation verifiable at this
scale.

The order of random draws is part of the data format: a spec names its
corpora only through the exact stream of ``np.random.default_rng(seed)``
draws that ``_SentenceSampler`` consumes, so any change to which draws are
made, or in what order, silently yields a different corpus for every seed.
Generation reads the bit generator's raw 64-bit words in blocks and makes
from them the values numpy's ``Generator.random`` and ``Generator.integers``
calls would return, without paying for a call per token. The golden-hash
and reference-sampler tests in ``tests/test_cipher.py`` pin it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .text import RESERVED_TOKENS, CorpusError, Vocabulary, read_lines

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class CipherSpecError(ValueError):
    """Invalid cipher-pair specification."""


@dataclass(frozen=True)
class CipherSpec:
    """Everything needed to regenerate a cipher language pair bit-exactly."""

    vocab_size: int = 100
    seed: int = 0
    substitution_seed: int | None = 1  # None -> identity substitution
    window: int = 1
    reorder_rule: str = "block-reverse"
    n_train: int = 2000
    n_valid: int = 200
    n_test: int = 500
    n_distractor: int = 0
    len_min: int = 3
    len_max: int = 12
    zipf_exponent: float = 1.1
    bigram_weight: float = 0.5
    parallel_fraction: float = 0.0

    def validate(self) -> None:
        for key, least in (("vocab_size", 10), ("n_train", 100), ("n_valid", 1),
                           ("n_test", 1), ("n_distractor", 0), ("window", 0), ("seed", 0)):
            if getattr(self, key) < least:
                raise CipherSpecError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.substitution_seed is not None and self.substitution_seed < 0:
            raise CipherSpecError(f"substitution_seed must be >= 0, got {self.substitution_seed}")
        if self.reorder_rule != "block-reverse":
            raise CipherSpecError(f"unknown reorder_rule {self.reorder_rule!r}")
        if not 1 <= self.len_min <= self.len_max:
            raise CipherSpecError("need 1 <= len_min <= len_max")
        for key in ("parallel_fraction", "bigram_weight"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise CipherSpecError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        if not np.isfinite(self.zipf_exponent):
            raise CipherSpecError(f"zipf_exponent must be finite, got {self.zipf_exponent}")
        distinct = _distinct_sentences(self, cap=self.n_test)
        if distinct < self.n_test:
            raise CipherSpecError(f"n_test must be <= {distinct}, the number of distinct "
                                  f"sentences this spec can draw, got {self.n_test}")


def token_inventory(size: int) -> list[str]:
    """Deterministic pseudo-word inventory shared by both languages."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = list(syllables)
    i = 0
    while len(words) < size:
        words.append(syllables[i // len(syllables)] + syllables[i % len(syllables)])
        i += 1
    return words[:size]


def build_permutation(spec: CipherSpec) -> np.ndarray:
    """Substitution over content token ids; identity when unseeded."""
    if spec.substitution_seed is None:
        return np.arange(spec.vocab_size, dtype=np.int64)
    rng = np.random.default_rng(spec.substitution_seed)
    return rng.permutation(spec.vocab_size).astype(np.int64)


def vocab_dictionary(spec: CipherSpec) -> np.ndarray:
    """The oracle dictionary over joint-vocabulary ids: reserved ids map to
    themselves, content id i to its substitution image. Suitable for
    position-wise word translation of id arrays."""
    reserved = len(RESERVED_TOKENS)
    return np.concatenate([np.arange(reserved, dtype=np.int64),
                           build_permutation(spec) + reserved])


@lru_cache(maxsize=1024)
def _block_reverse_order(n: int, window: int) -> np.ndarray:
    """Gather order that reverses each run of ``window + 1`` positions."""
    order = np.arange(n, dtype=np.int64)
    block = window + 1
    for start in range(0, n, block):
        order[start : start + block] = order[start : start + block][::-1]
    order.flags.writeable = False
    return order


def _block_reverse(ids: np.ndarray, window: int) -> np.ndarray:
    ids = np.asarray(ids)
    return ids[_block_reverse_order(len(ids), window)]


def apply_cipher(ids: np.ndarray, perm: np.ndarray, window: int) -> np.ndarray:
    """Substitute tokens through ``perm`` then block-reverse within ``window``.

    Every token is displaced by at most ``window`` positions and the map
    is a bijection on sentences.
    """
    return _block_reverse(perm[ids], window)


def invert_cipher(ids: np.ndarray, perm: np.ndarray, window: int) -> np.ndarray:
    """Exact inverse of ``apply_cipher`` (block reversal is an involution)."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv[_block_reverse(ids, window)]


def _sampler_tables(spec: CipherSpec, rng: np.random.Generator):
    """The unigram CDF, and each token's three preferred successors: the
    first draw a spec's stream makes."""
    ranks = np.arange(1, spec.vocab_size + 1, dtype=np.float64)
    weights = ranks ** (-spec.zipf_exponent)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist(), rng.integers(0, spec.vocab_size, size=(spec.vocab_size, 3)).tolist()


_LOW = (1 << 32) - 1  # the low 32-bit half of a raw word
_BLOCK = 1024  # raw words fetched per refill of the sampler's buffer


class _SentenceSampler:
    """Zipfian unigram sampler with per-token preferred successors.

    Each sentence consumes, in order, the draws of these ``Generator``
    calls: ``integers(len_min, len_max + 1)`` for its length, one
    ``random()`` for its first token, then per further token one
    ``random()`` for the bigram coin followed by either ``integers(3)``
    (successor pick) or one ``random()`` (unigram draw). A unigram draw is
    ``bisect_right(cdf, random())`` over the CDF that
    ``Generator.choice(V, p=unigram)`` builds (``cumsum``, then divided by
    its last entry): the same single double and the same index as
    ``choice``.

    ``draw`` makes those draws itself, from the bit generator's raw 64-bit
    words fetched in blocks, exactly as numpy makes them from the same
    words:

    - ``random()`` takes one word and is its top 53 bits times ``2**-53``;
    - ``integers(lo, hi)`` takes one 32-bit half: the low half of a fresh
      word, whose high half is cached for the next ``integers`` call, also
      across any ``random()`` calls between the two. The cache starts as
      the bit generator's own (``has_uint32``, ``uinteger``) once the
      successor table is drawn;
    - a half ``x`` maps to ``(x * n) >> 32`` for ``n = hi - lo``, taking
      another half while the product's low 32 bits are below
      ``2**32 % n`` (Lemire's multiply-and-reject, as numpy loops it);
      ``n == 1`` takes no half.

    So the position of each ``integers`` call relative to the ``random()``
    calls is part of the stream. The draws pick content tokens, and the
    sentences hold their joint-vocabulary ids (after the reserved ids).
    """

    def __init__(self, spec: CipherSpec, rng: np.random.Generator):
        self.cdf, self.successors = _sampler_tables(spec, rng)
        self.spec = spec
        self.raw = rng.bit_generator.random_raw
        state = rng.bit_generator.state
        self.half = state["uinteger"] if state["has_uint32"] else None
        self.words: list[int] = []
        self.pos = 0
        # words a sentence takes at most without a rejection: one per
        # token, a second per further token, and a half for its length
        self.reserve = 2 * spec.len_max
        self.block = max(_BLOCK, self.reserve)  # a refill always restores the reserve

    def draw(self, count: int) -> list[np.ndarray]:
        """The next ``count`` sentences of the stream."""
        spec = self.spec
        cdf, successors, bigram_weight = self.cdf, self.successors, spec.bigram_weight
        len_min, len_range = spec.len_min, spec.len_max - spec.len_min + 1
        reserve, words, pos, half = self.reserve, self.words, self.pos, self.half
        offset = len(RESERVED_TOKENS)
        sentences = []
        for _ in range(count):
            if len(words) - pos < reserve:
                words, pos = words[pos:] + self.raw(self.block).tolist(), 0
            n = len_min
            if len_range > 1:
                words, pos, half, k = self._integers(words, pos, half, len_range)
                n += k
            tok = bisect_right(cdf, (words[pos] >> 11) * 2.0**-53)
            pos += 1
            out = [tok + offset]
            for _ in range(1, n):
                coin = (words[pos] >> 11) * 2.0**-53
                pos += 1
                if coin < bigram_weight:
                    if half is None:
                        x, half = words[pos] & _LOW, words[pos] >> 32
                        pos += 1
                    else:
                        x, half = half, None
                    m = x * 3
                    if m & _LOW < (1 << 32) % 3:  # rejected: the loop goes on as a fresh draw
                        words, pos, half, k = self._integers(words, pos, half, 3)
                        tok = successors[tok][k]
                    else:
                        tok = successors[tok][m >> 32]
                else:
                    tok = bisect_right(cdf, (words[pos] >> 11) * 2.0**-53)
                    pos += 1
                out.append(tok + offset)
            sentences.append(np.array(out, dtype=np.int64))
        self.words, self.pos, self.half = words, pos, half
        return sentences

    def _integers(self, words: list[int], pos: int, half: int | None, n: int):
        """One ``integers(n)`` draw: take halves until Lemire's method
        accepts one, returning the buffer, position and cached half after
        it, and the value. A fresh word comes from a refilled buffer when
        fewer than the reserve are left, so the rest of the sentence keeps
        its words."""
        threshold = (1 << 32) % n
        while True:
            if half is None:
                if len(words) - pos < self.reserve:
                    words, pos = words[pos:] + self.raw(self.block).tolist(), 0
                x, half = words[pos] & _LOW, words[pos] >> 32
                pos += 1
            else:
                x, half = half, None
            m = x * n
            if m & _LOW >= threshold:
                return words, pos, half, m >> 32


def _distinct_sentences(spec: CipherSpec, cap: int) -> int:
    """How many distinct sentences ``spec`` can draw, at most ``cap``: each
    token is a unigram draw, or after the first (if ``bigram_weight > 0``)
    a preferred successor, which it always is if ``bigram_weight == 1``."""
    cdf, successors = _sampler_tables(spec, np.random.default_rng(spec.seed))
    unigram = np.diff(cdf, prepend=0.0) > 0  # the tokens a unigram draw can reach
    unigram_next = spec.bigram_weight < 1
    succ = np.sort(successors, axis=1)
    # each distinct successor once, unless a unigram draw reaches it too
    pick = (np.diff(succ, axis=1, prepend=-1) > 0) & ~(unigram_next & unigram[succ])
    pick &= spec.bigram_weight > 0
    counts = np.ones(spec.vocab_size)  # length-n sentences from each token; floats never wrap
    total = 0.0
    for n in range(1, spec.len_max + 1):
        starts = counts[unigram].sum()
        total += starts if n >= spec.len_min else 0.0
        counts = np.minimum((counts[succ] * pick).sum(axis=1) + unigram_next * starts, cap)
    return int(min(total, cap))


@dataclass
class CipherPair:
    """Generated corpora plus the ground truth that makes them gradable."""

    spec: CipherSpec
    vocab: Vocabulary
    src_train: list[np.ndarray]
    tgt_train: list[np.ndarray]
    src_valid: list[np.ndarray]
    tgt_valid: list[np.ndarray]
    gold: list[tuple[np.ndarray, np.ndarray]]  # (source ids, cipher ids)
    distractors: list[np.ndarray]  # cipher images of sources outside the gold set
    dictionary: np.ndarray  # content-id permutation, the oracle dictionary


def generate_cipher_pair(spec: CipherSpec) -> CipherPair:
    """Sample a full cipher language pair from the spec, bit-reproducibly.

    Train/valid/test/distractor draws are disjoint samples from the same
    sentence distribution; the target side of each split is the cipher
    image of its own draw, never of the source side (except for an
    optional injected fraction of true parallels in the training split).
    Gold test sources are de-duplicated so each gold target is unique in
    ranking pools; if 100 * n_test draws do not yield n_test distinct ones,
    raises CipherSpecError (the spec's rarest sentences are too rare).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    sampler = _SentenceSampler(spec, rng)
    perm = vocab_dictionary(spec)  # over joint-vocabulary ids, as the sampler emits

    src_train = sampler.draw(spec.n_train)
    tgt_train_src = sampler.draw(spec.n_train)
    n_par = int(round(spec.parallel_fraction * spec.n_train))
    for i in range(n_par):
        tgt_train_src[i] = src_train[i].copy()
    tgt_train = [apply_cipher(s, perm, spec.window) for s in tgt_train_src]

    src_valid = sampler.draw(spec.n_valid)
    tgt_valid = [apply_cipher(s, perm, spec.window) for s in sampler.draw(spec.n_valid)]

    gold_src: dict[tuple[int, ...], np.ndarray] = {}  # first draw of each sentence
    for _ in range(100 * spec.n_test):
        (s,) = sampler.draw(1)
        gold_src.setdefault(tuple(s.tolist()), s)
        if len(gold_src) == spec.n_test:
            break
    else:
        raise CipherSpecError(f"n_test={spec.n_test} distinct gold sources not drawn "
                              f"in {100 * spec.n_test} draws; lower n_test")
    gold = [(s, apply_cipher(s, perm, spec.window)) for s in gold_src.values()]

    distractors = [apply_cipher(s, perm, spec.window) for s in sampler.draw(spec.n_distractor)]

    return CipherPair(
        spec=spec,
        vocab=Vocabulary(token_inventory(spec.vocab_size)),
        src_train=src_train,
        tgt_train=tgt_train,
        src_valid=src_valid,
        tgt_valid=tgt_valid,
        gold=gold,
        distractors=distractors,
        dictionary=build_permutation(spec),
    )


def write_cipher_pair(pair: CipherPair, outdir) -> dict:
    """Write corpora, gold pairs, oracle dictionary, and a sidecar manifest.

    Returns the manifest dict. File formats: corpora are one sentence per
    line with space-separated tokens; the gold test set and the dictionary
    are tab-separated source/target per line.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    vocab = pair.vocab

    def write_corpus(name: str, corpus: list[np.ndarray]) -> str:
        p = outdir / name
        with open(p, "w", encoding="utf-8") as f:
            for ids in corpus:
                f.write(" ".join(vocab.decode(ids)) + "\n")
        return name

    files = {
        "src_train": write_corpus("src.train.txt", pair.src_train),
        "tgt_train": write_corpus("tgt.train.txt", pair.tgt_train),
        "src_valid": write_corpus("src.valid.txt", pair.src_valid),
        "tgt_valid": write_corpus("tgt.valid.txt", pair.tgt_valid),
    }
    with open(outdir / "gold.test.tsv", "w", encoding="utf-8") as f:
        for s, t in pair.gold:
            f.write(" ".join(vocab.decode(s)) + "\t" + " ".join(vocab.decode(t)) + "\n")
    files["gold_test"] = "gold.test.tsv"
    if pair.distractors:
        files["distractors"] = write_corpus("distractors.txt", pair.distractors)
    else:  # a rewrite of an older pair must not keep its pool
        (outdir / "distractors.txt").unlink(missing_ok=True)
    inventory = token_inventory(pair.spec.vocab_size)
    with open(outdir / "oracle_dict.tsv", "w", encoding="utf-8") as f:
        for i, j in enumerate(pair.dictionary):
            f.write(f"{inventory[i]}\t{inventory[int(j)]}\n")
    files["oracle_dict"] = "oracle_dict.tsv"

    manifest = {"spec": asdict(pair.spec), "files": files}
    with open(outdir / "corpus_manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def full_vocab_dictionary(pair: CipherPair) -> np.ndarray:
    """``vocab_dictionary`` of the pair's spec."""
    return vocab_dictionary(pair.spec)


def read_gold_pairs(path, vocab: Vocabulary) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a tab-separated gold test set back into id pairs. The file is
    read by ``read_lines`` against ``vocab`` (a token outside it is an
    error, not UNK); an empty file, or a line without a token on each side
    of one tab, is a CorpusError too."""
    pairs = []
    for i, line in enumerate(read_lines(path, vocab), start=1):
        parts = line.split("\t")
        if len(parts) != 2 or not all(part.split() for part in parts):
            raise CorpusError(f"{path}: line {i} is not source<TAB>target, each with a token")
        pairs.append(tuple(vocab.encode(part.split()) for part in parts))
    if not pairs:
        raise CorpusError(f"{path}: empty gold set")
    return pairs
