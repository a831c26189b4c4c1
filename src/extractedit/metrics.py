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
    any n-gram precision is zero and smoothing is off.
    """

    bleu: float
    precisions: list[float]
    brevity_penalty: float
    candidate_length: int
    reference_length: int
    smoothed: bool

    def rows(self) -> list[dict]:
        return [{
            "bleu": self.bleu,
            **{f"p{i + 1}": p for i, p in enumerate(self.precisions)},
            "brevity_penalty": self.brevity_penalty,
            "candidate_length": self.candidate_length,
            "reference_length": self.reference_length,
            "smoothed": int(self.smoothed),
        }]


def _ngrams(ids, n: int) -> Counter:
    seq = tuple(int(t) for t in ids)
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def corpus_bleu(candidates, references, max_n: int = 4,
                smoothing: bool = True, epsilon: float = 0.01) -> BleuReport:
    """Corpus BLEU with clipped n-gram counts and brevity penalty.

    Counts are pooled over the corpus before taking precisions. With
    ``smoothing`` on, zero clipped-match totals are replaced by
    ``epsilon`` (short desk-scale sentences rarely share 4-grams);
    with it off, any zero precision makes the score exactly 0.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference length mismatch: {len(candidates)} vs {len(references)}"
        )
    if not references:
        raise ValueError("empty corpus")
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cn = _ngrams(cand, n)
            rn = _ngrams(ref, n)
            totals[n - 1] += sum(cn.values())
            matches[n - 1] += sum(min(c, rn[g]) for g, c in cn.items())

    precisions = []
    for m, t in zip(matches, totals):
        if t == 0:
            precisions.append(0.0)
        elif m == 0 and smoothing:
            precisions.append(epsilon / t)
        else:
            precisions.append(m / t)

    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        candidate_length=cand_len,
        reference_length=ref_len,
        smoothed=smoothing,
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
    embedded once for all ratios.
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
    r_query /= np.linalg.norm(r_query, axis=1, keepdims=True)
    r_cand /= np.linalg.norm(r_cand, axis=1, keepdims=True)

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
