"""Corpus BLEU, token accuracy, the gold-set grader, and the Hits@k
retrieval protocol."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .engine import EvaluationNetwork, embed_sentences
from .model import TGT, TranslationModel
from .tensor import Tensor


@dataclass
class BleuReport:
    """Corpus-level BLEU on the 0-100 scale with its ingredients.

    bleu = brevity_penalty * exp(mean of log precisions) * 100; zero when
    a precision is zero, which smoothing leaves only to an n with no
    candidate n-grams.
    """

    bleu: float
    precisions: list[float]
    brevity_penalty: float
    candidate_length: int
    reference_length: int

    def rows(self) -> list[dict]:
        return [{
            "bleu": self.bleu,
            **{f"p{i + 1}": p for i, p in enumerate(self.precisions)},
            "brevity_penalty": self.brevity_penalty,
            "candidate_length": self.candidate_length,
            "reference_length": self.reference_length,
        }]


def _ngrams(ids, n: int) -> Counter:
    seq = tuple(int(t) for t in ids)
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def corpus_bleu(candidates, references) -> BleuReport:
    """Smoothed corpus BLEU-4 with clipped n-gram counts and brevity
    penalty (Papineni et al. 2002).

    Counts are pooled over the corpus before taking precisions. A zero
    clipped-match total counts as 0.01 matches (short desk-scale
    sentences rarely share 4-grams).
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference length mismatch: {len(candidates)} vs {len(references)}"
        )
    if not references:
        raise ValueError("empty corpus")
    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            cn = _ngrams(cand, n)
            rn = _ngrams(ref, n)
            totals[n - 1] += sum(cn.values())
            matches[n - 1] += sum(min(c, rn[g]) for g, c in cn.items())

    precisions = [(m or 0.01) / t if t else 0.0 for m, t in zip(matches, totals)]

    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        candidate_length=cand_len,
        reference_length=ref_len,
    )


def token_accuracy(candidates, references) -> float:
    """Mean over pairs of (matching positions / min pair length)."""
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference length mismatch: {len(candidates)} vs {len(references)}"
        )
    if not references:
        raise ValueError("empty corpus")
    accs = []
    for cand, ref in zip(candidates, references):
        n = min(len(cand), len(ref))
        if n == 0:
            accs.append(0.0)
            continue
        eq = sum(int(a) == int(b) for a, b in zip(cand[:n], ref[:n]))
        accs.append(eq / n)
    return float(np.mean(accs))


def grade(model: TranslationModel, gold_pairs) -> tuple[BleuReport, float]:
    """Corpus BLEU and token accuracy of the model's greedy translations of
    the gold sources against the gold targets."""
    decoded = model.translate([s for s, _ in gold_pairs], TGT)
    refs = [t for _, t in gold_pairs]
    return corpus_bleu(decoded, refs), token_accuracy(decoded, refs)


@dataclass
class HitsReport:
    """Hit rates per rank cutoff for one noise ratio."""

    noise_ratio: float
    n_queries: int
    n_candidates: int
    hits: dict[int, float]  # rank cutoff -> share of queries whose gold target is within it

    def rows(self) -> list[dict]:
        return [
            {"noise_ratio": self.noise_ratio, "k": k, "hits": rate,
             "queries": self.n_queries, "candidates": self.n_candidates}
            for k, rate in sorted(self.hits.items())
        ]


def hits_at_k(gold_pairs, distractor_pool, noise_ratios,
              model: TranslationModel, evaluator: EvaluationNetwork, ks) -> list[HitsReport]:
    """Rank gold targets among distractor-diluted candidates, one report
    per noise ratio.

    At each ratio the candidate set holds every gold target plus the first
    distractors of the pool, enough for them to make up ``noise_ratio`` of
    the set. Each gold source queries the whole set, ranked by joint-space
    cosine similarity, and a query hits at k when its own gold target ranks
    within the top k. Ties break toward the lower pool index. Every ratio
    is checked before any sentence is embedded, and each sentence is
    embedded once for all ratios. A query or candidate whose joint-space
    vector is zero has no cosine and raises ``DegenerateInputError``.
    """
    if not gold_pairs:
        raise ValueError("gold pair set is empty")
    n_gold = len(gold_pairs)
    n_distract = []
    for ratio in noise_ratios:
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"noise_ratio must be in [0, 1), got {ratio}")
        n_distract.append(int(round(n_gold * ratio / (1.0 - ratio))))
        if n_distract[-1] > len(distractor_pool):
            raise ValueError(
                f"need {n_distract[-1]} distractors for noise ratio {ratio}, "
                f"pool has {len(distractor_pool)}"
            )
    candidates = [t for _, t in gold_pairs] + list(distractor_pool[:max(n_distract, default=0)])

    with T.no_grad():
        r_query = evaluator.forward(
            Tensor(embed_sentences([s for s, _ in gold_pairs], model))).data
        r_cand = evaluator.forward(Tensor(embed_sentences(candidates, model))).data
    for side, r in (("query", r_query), ("candidate", r_cand)):
        norms = np.linalg.norm(r, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise T.DegenerateInputError(f"hits_at_k: a {side} has a zero joint-space vector")
        r /= norms

    reports = []
    for ratio, n in zip(noise_ratios, n_distract):
        sims = r_query @ r_cand[: n_gold + n].T  # (Q, C) cosine in the joint space
        own = np.diagonal(sims)[:, None]  # each query's score for its own gold target
        # its rank: the candidates scoring higher, plus the ties earlier in the pool
        earlier = np.arange(n_gold + n) < np.arange(n_gold)[:, None]
        gold_rank = np.count_nonzero((sims > own) | ((sims == own) & earlier), axis=1)
        reports.append(HitsReport(
            noise_ratio=ratio, n_queries=n_gold, n_candidates=n_gold + n,
            hits={int(k): float(np.mean(gold_rank < k)) for k in ks}))
    return reports
