"""BLEU against a hand-computed oracle, token accuracy, Hits@k protocol."""

from __future__ import annotations

import math

import numpy as np
import pytest

from extractedit import metrics
from extractedit import tensor as T
from extractedit.engine import EvaluationNetwork, embed_sentences
from extractedit.metrics import HitsReport, corpus_bleu, hits_at_k, token_accuracy
from extractedit.model import ModelConfig, TranslationModel
from extractedit.tensor import Tensor


def toks(s: str) -> list[int]:
    """Stable token-to-int mapping for readable test corpora."""
    return [hash_word(w) for w in s.split()]


_WORDS: dict[str, int] = {}


def hash_word(w: str) -> int:
    if w not in _WORDS:
        _WORDS[w] = len(_WORDS) + 4
    return _WORDS[w]


class TestBleu:
    def test_identity_is_100(self):
        corpus = [toks("a b c d e"), toks("f g"), toks("h i j k")]
        report = corpus_bleu(corpus, corpus)
        assert report.bleu == pytest.approx(100.0, abs=1e-12)
        assert report.brevity_penalty == 1.0

    def test_zero_overlap_unsmoothed_is_0(self):
        report = corpus_bleu([toks("a b c")], [toks("x y z")], smoothing=False)
        assert report.bleu == 0.0

    def test_hand_computed_three_pair_case(self):
        """Frozen oracle, computed by hand from the BLEU definition.

        Pairs:
          "the cat sat on the mat" / "the cat sat on a mat"
          "a quick brown fox"      / "the quick brown fox jumps"
          "hello world"            / "hello world"
        Clipped counts: p1=10/12, p2=6/9, p3=3/6, p4=1/4;
        lengths 12 vs 13 so BP=exp(-1/12);
        BLEU = 100 * exp(-1/12) * (5/72)^(1/4).
        """
        cands = [toks("the cat sat on the mat"), toks("a quick brown fox"),
                 toks("hello world")]
        refs = [toks("the cat sat on a mat"), toks("the quick brown fox jumps"),
                toks("hello world")]
        report = corpus_bleu(cands, refs, smoothing=False)
        assert report.precisions == pytest.approx([10 / 12, 6 / 9, 3 / 6, 1 / 4])
        assert report.brevity_penalty == pytest.approx(math.exp(-1 / 12), abs=1e-15)
        expect = 100.0 * math.exp(-1 / 12) * (5 / 72) ** 0.25
        assert report.bleu == pytest.approx(expect, abs=1e-9)

    def test_pair_order_invariance(self, rng):
        cands = [rng.integers(4, 20, size=rng.integers(2, 8)) for _ in range(10)]
        refs = [rng.integers(4, 20, size=rng.integers(2, 8)) for _ in range(10)]
        a = corpus_bleu(cands, refs)
        perm = rng.permutation(10)
        b = corpus_bleu([cands[i] for i in perm], [refs[i] for i in perm])
        assert a.bleu == b.bleu

    def test_unigram_only_equal_lengths_is_precision(self):
        """max_n=1 with equal lengths: BLEU = unigram precision * 100."""
        cands = [toks("a b c d")]
        refs = [toks("a b x y")]
        report = corpus_bleu(cands, refs, max_n=1, smoothing=False)
        assert report.bleu == pytest.approx(50.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([toks("a")], [])


class TestTokenAccuracy:
    def test_identical_is_one(self, rng):
        corpus = [rng.integers(4, 30, size=rng.integers(1, 9)) for _ in range(20)]
        assert token_accuracy(corpus, corpus) == 1.0

    def test_disjoint_vocab_is_zero(self):
        assert token_accuracy([toks("a b c")], [toks("p q r")]) == 0.0

    def test_chance_floor_random_permutation(self, rng):
        """Monte Carlo: identity 'model' against a permuted cipher scores at
        chance, i.e. the permutation's fixed-point rate (expected 1/|V|)."""
        v = 50
        perm = rng.permutation(v)
        p = np.sum(perm == np.arange(v)) / v  # realized chance level
        srcs = [rng.integers(0, v, size=10) for _ in range(400)]
        refs = [perm[s] for s in srcs]
        acc = token_accuracy(srcs, refs)
        sigma = math.sqrt(max(p * (1 - p), 1.0 / v) / 4000)
        assert abs(acc - p) <= 4 * sigma

    def test_min_length_positions(self):
        assert token_accuracy([toks("a b c d")], [toks("a b")]) == 1.0
        assert token_accuracy([toks("a x")], [toks("a b c d")]) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            token_accuracy([], [toks("a")])


def tiny_setup(seed=0, d=16, vocab=40):
    rng = np.random.default_rng(seed)
    model = TranslationModel(ModelConfig(vocab_size=vocab, hidden_size=d, layers=1,
                                         max_len=12), rng)
    ev = EvaluationNetwork(d, rng, hidden=16, d_out=16)
    return model, ev, rng


def reference_hits(gold_pairs, distractor_pool, noise_ratio, model, evaluator, ks):
    """One ratio at a time, every sentence embedded for it, and a loop over
    the queries: the protocol ``hits_at_k`` must reproduce."""
    n_gold = len(gold_pairs)
    n_distract = int(round(n_gold * noise_ratio / (1.0 - noise_ratio)))
    candidates = [t for _, t in gold_pairs] + list(distractor_pool[:n_distract])
    with T.no_grad():
        r_query = evaluator.forward(
            Tensor(embed_sentences([s for s, _ in gold_pairs], model))).data
        r_cand = evaluator.forward(Tensor(embed_sentences(candidates, model))).data
    r_query /= np.linalg.norm(r_query, axis=1, keepdims=True)
    r_cand /= np.linalg.norm(r_cand, axis=1, keepdims=True)
    sims = r_query @ r_cand.T
    gold_rank = np.empty(n_gold, dtype=np.int64)
    for q in range(n_gold):
        own = sims[q, q]
        gold_rank[q] = (np.count_nonzero(sims[q] > own)
                        + np.count_nonzero(sims[q, :q] == own))
    return HitsReport(noise_ratio=noise_ratio, n_queries=n_gold,
                      n_candidates=len(candidates),
                      hits={int(k): float(np.mean(gold_rank < k)) for k in ks})


class TestHitsAtK:
    def test_matches_the_per_ratio_reference_with_ties(self):
        """Every ratio's report equals the one-ratio-at-a-time reference
        when repeated sentences tie in score. Each query is its own gold
        target, so only a tie can outrank it: query 5 repeats query 2 and
        loses to the earlier copy; the copies among the distractors come
        later and cost nothing."""
        model, ev, rng = tiny_setup(seed=7)
        sents = [rng.integers(4, 40, size=rng.integers(2, 7)) for _ in range(30)]
        gold = [(s, s) for s in sents[:20]]
        gold[5] = gold[2]
        pool = [gold[i % 8][1] for i in range(90)] + sents[20:] * 9
        ratios, ks = (0.0, 0.5, 0.9), (1, 2, 3, 5, 10, 40)
        reports = hits_at_k(gold, pool, ratios, model, ev, ks)
        assert reports == [reference_hits(gold, pool, r, model, ev, ks) for r in ratios]
        assert [r.n_candidates for r in reports] == [20, 40, 200]
        assert [r.hits[1] for r in reports] == [0.95] * 3
        assert [r.hits[2] for r in reports] == [1.0] * 3

    def test_bad_ratio_fails_before_any_embedding(self, monkeypatch):
        """Every ratio is checked first: a late ratio the pool cannot fill,
        or one outside [0, 1), fails with no sentence embedded."""
        model, ev, rng = tiny_setup(seed=8)
        gold = [(rng.integers(4, 40, size=4), rng.integers(4, 40, size=4))
                for _ in range(10)]
        pool = [rng.integers(4, 40, size=4) for _ in range(10)]
        calls = []
        monkeypatch.setattr(metrics, "embed_sentences",
                            lambda sents, m: calls.append(len(sents)))
        with pytest.raises(ValueError, match="need 90 distractors for noise ratio 0.9"):
            hits_at_k(gold, pool, (0.0, 0.5, 0.9), model, ev, ks=(1,))
        with pytest.raises(ValueError, match="noise_ratio must be in"):
            hits_at_k(gold, pool, (0.5, 1.0), model, ev, ks=(1,))
        assert calls == []

    def test_self_retrieval_perfect_at_zero_noise(self):
        """Queries identical to their gold targets: Hits@1 = 100%."""
        model, ev, rng = tiny_setup()
        sents = [rng.integers(4, 40, size=rng.integers(2, 7)) for _ in range(30)]
        gold = [(s, s) for s in sents]  # query embedding == target embedding
        report = hits_at_k(gold, [], (0.0,), model, ev, ks=(1, 3))[0]
        assert report.hits[1] == 1.0

    def test_monotone_in_k(self):
        model, ev, rng = tiny_setup(seed=3)
        gold = [(rng.integers(4, 40, size=rng.integers(2, 7)),
                 rng.integers(4, 40, size=rng.integers(2, 7))) for _ in range(40)]
        pool = [rng.integers(4, 40, size=rng.integers(2, 7)) for _ in range(80)]
        report = hits_at_k(gold, pool, (0.5,), model, ev, ks=(1, 3, 5, 8, 10))[0]
        rates = [report.hits[k] for k in (1, 3, 5, 8, 10)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_distractor_count_follows_ratio(self):
        model, ev, rng = tiny_setup(seed=4)
        gold = [(rng.integers(4, 40, size=4), rng.integers(4, 40, size=4))
                for _ in range(10)]
        pool = [rng.integers(4, 40, size=4) for _ in range(100)]
        report = hits_at_k(gold, pool, (0.9,), model, ev, ks=(1,))[0]
        assert report.n_candidates == 100  # 10 gold + 90 distractors

    def test_insufficient_distractors_rejected(self):
        model, ev, rng = tiny_setup(seed=5)
        gold = [(rng.integers(4, 40, size=4), rng.integers(4, 40, size=4))
                for _ in range(10)]
        with pytest.raises(ValueError, match="distractors"):
            hits_at_k(gold, [], (0.5,), model, ev, ks=(1,))

    def test_untrained_encoder_sits_at_chance(self):
        """Chance-level oracle: with equal-length sentences an untrained
        model ranks the gold target uniformly; Hits@1 ~ Binomial(Q, 1/C)."""
        model, ev, rng = tiny_setup(seed=6)
        n = 120
        gold = [(rng.integers(4, 40, size=5), rng.integers(4, 40, size=5))
                for _ in range(n)]
        report = hits_at_k(gold, [], (0.0,), model, ev, ks=(1,))[0]
        p = 1.0 / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(report.hits[1] - p) <= 4 * sigma + 1e-9
