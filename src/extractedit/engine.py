"""Extraction, editing, and candidate scoring.

Extraction is an exact nearest-neighbor search over a snapshot matrix of
target-corpus sentence embeddings (the index is rebuilt once per training
episode, never per batch, by encoding the corpus in length-sorted
batches). One GEMM per query block screens every row, and the few rows
that pass are re-ranked with the exact distance, so the result equals a
brute-force scan bit for bit. Editing max-pools the source embedding
with an extracted sentence's embedding and greedily decodes the pooled
vector in float32; callers supply both embeddings (the trainer takes the
extracted ones straight from the index rows while the generator has made
no update since the index was built: fresh encodes to the bit where a
row's products do not depend on the batch height, as at hidden 64, see
``tensor._mm``), and the trainer encodes the decoded sentences
with its other ranking candidates, so all of them live in the same
representation space. Scoring projects embeddings through a
shared MLP into a joint space, measures cosine similarity to the source
there, and returns the log-probabilities of the ranking distribution, a
log-softmax of the similarities times an inverse temperature. Every
function takes a batch of rows; a single query is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .model import TranslationModel, glorot
from .tensor import DegenerateInputError, Tensor
from .text import Vocabulary, decode_lines

_INDEX_CHUNK = 256  # rows per encode in embed_sentences; bounds its per-token states
_SCREEN_SLACK = 1e-9  # kNN screen margin, relative to (max ||r|| + ||q||)^2


class EvaluationNetwork:
    """Shared MLP projecting sentence embeddings into the joint ranking space."""

    def __init__(self, d_in: int, rng: np.random.Generator, hidden: int, d_out: int):
        self.w1 = glorot(rng, (d_in, hidden))
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = glorot(rng, (hidden, hidden))
        self.b2 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w3 = glorot(rng, (hidden, d_out))
        self.b3 = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, e: Tensor) -> Tensor:
        """Map (..., d_in) embeddings to (..., d_out) joint-space vectors."""
        lead = e.data.shape[:-1]
        h = T.tanh(T.matmul(T.reshape(e, (-1, e.data.shape[-1])), self.w1) + self.b1)
        h = T.tanh(T.matmul(h, self.w2) + self.b2)
        out = T.matmul(h, self.w3) + self.b3
        return T.reshape(out, (*lead, out.data.shape[-1]))

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "evaluator.w1": self.w1, "evaluator.b1": self.b1,
            "evaluator.w2": self.w2, "evaluator.b2": self.b2,
            "evaluator.w3": self.w3, "evaluator.b3": self.b3,
        }


@dataclass
class EmbeddingIndex:
    """Snapshot of corpus sentence embeddings; row i = encode(corpus[i])."""

    rows: np.ndarray  # (N, d), gradient-free by construction
    episode: int

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every row, computed once for the kNN screen."""
        return (self.rows * self.rows).sum(axis=1)


@dataclass
class ExtractionResult:
    """Top-k extraction for one source sentence plus its edited versions."""

    source_index: int
    indices: np.ndarray  # (k,) corpus indices, ascending distance
    distances: np.ndarray  # (k,) L2 distances
    edited: list[np.ndarray]  # k edited sentences (token ids)


def embed_sentences(sentences, model: TranslationModel) -> np.ndarray:
    """Forward-only pooled embeddings (N, d) of ``sentences``, in their order.

    Sentences are ordered by length (stable argsort) and encoded in chunks
    of at most ``_INDEX_CHUNK`` rows, so a chunk carries little padding
    and its per-token states stay small; each pooled row is scattered back
    to its input position. Rows are bit-identical to one-sentence
    ``encode_batch`` calls where a row's products do not depend on the batch
    height, as at hidden 64; at other widths their last bits can differ
    (see ``tensor._mm``).
    """
    order = np.argsort([len(s) for s in sentences], kind="stable")
    rows = np.empty((len(sentences), model.config.hidden_size))
    with T.no_grad():
        for start in range(0, len(order), _INDEX_CHUNK):
            chunk = order[start : start + _INDEX_CHUNK]
            _, pooled, _ = model.encode_batch([sentences[i] for i in chunk])
            rows[chunk] = pooled.data
    return rows


def build_index(corpus: list[np.ndarray], model: TranslationModel,
                episode: int) -> EmbeddingIndex:
    """Encode every corpus sentence forward-only under current parameters."""
    if len(corpus) == 0:
        raise DegenerateInputError("cannot index an empty corpus")
    return EmbeddingIndex(rows=embed_sentences(corpus, model), episode=episode)


def extract_topk_batch(queries: np.ndarray, index: EmbeddingIndex,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest index rows per query by L2 distance.

    Returns (indices (B,k), distances (B,k)) in ascending distance order;
    exact ties resolve to the lower corpus index (stable sort).

    One GEMM screens every row: a = ||r||^2 - 2 q.r is the squared distance
    less ||q||^2. Rows with a <= a_(k) + tau (a_(k) the k-th smallest) are
    re-ranked with the exact distance sqrt(sum((r - q)^2)) and a stable
    argsort. With M = (max ||r|| + ||q||)^2, u the unit roundoff and
    gamma_n = n u / (1 - n u), the screen's error is at most gamma_{d+2} M
    and so is the exact formula's, so tau >= 4 gamma_{d+2} M (plus 6 u M,
    which keeps two squared distances that far apart distinct after the
    square root) makes every row left out strictly farther than k rows
    that were kept. Every exact tie with the k-th distance is kept, so the
    result equals a full scan with the exact formula bit for bit. tau is
    1e-9 M, above the bound for any width d below two million, at the
    cost of a few extra candidates.
    """
    if k < 1 or k > len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    queries = np.atleast_2d(queries)
    rows = index.rows
    q_norm = np.sqrt((queries * queries).sum(axis=1))
    tau = _SCREEN_SLACK * (np.sqrt(index.sq_norms.max()) + q_norm) ** 2
    screen = index.sq_norms - 2.0 * (queries @ rows.T)
    kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
    out_idx = np.empty((len(queries), k), dtype=np.int64)
    out_dist = np.empty((len(queries), k))
    for i, q in enumerate(queries):
        cand = np.flatnonzero(screen[i] <= kth[i] + tau[i])
        dist = np.sqrt(((rows[cand] - q) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:k]
        out_idx[i] = cand[order]
        out_dist[i] = dist[order]
    return out_idx, out_dist


def edit_batch(e_src: np.ndarray, e_extracted: np.ndarray,
               model: TranslationModel, out_lang: int) -> list[np.ndarray]:
    """Edit extracted sentences toward the source embeddings, row-aligned.

    e_src and e_extracted are (B, d) embeddings the caller already has
    (for instance index rows, which equal fresh encodes while the
    parameters have not moved since the index was built). Pools each pair
    element-wise by max and greedily decodes the pooled vectors. Encodes
    nothing and is forward only; callers encode the results when
    gradients are needed.
    """
    pooled = np.maximum(e_src, e_extracted)
    edited, _ = model.decode_greedy_batch(Tensor(pooled), None, None, out_lang)
    return edited


def score_candidates_batch(e_src: Tensor, candidates: Tensor,
                           evaluator: EvaluationNetwork,
                           inv_temperature: float) -> Tensor:
    """Log-probabilities (B, C) of the ranking distribution over the
    candidates of each source row.

    e_src (B, d), candidates (B, C, d). Projects everything through the
    evaluation network, takes cosine similarity in the joint space, and
    normalizes ``inv_temperature`` times the similarities with a
    log-softmax over the C candidates jointly; a positive
    ``inv_temperature`` sharpens (large) or flattens (small) the
    distribution. Differentiable with respect to the evaluator and the
    embeddings.
    """
    if not inv_temperature > 0:
        raise ValueError(f"inv_temperature must be positive, got {inv_temperature}")
    if candidates.data.shape[-2] < 1:
        raise DegenerateInputError("need at least one candidate")
    r_src = evaluator.forward(e_src)
    r_cand = evaluator.forward(candidates)
    b, d_out = r_src.data.shape
    alpha = T.cosine(T.reshape(r_src, (b, 1, d_out)), r_cand)
    return T.log_softmax(alpha * inv_temperature)


# ---------------------------------------------------------------------------
# extraction dumps (CLI-facing inspection format)


def write_extraction_dump(path, results: list[ExtractionResult],
                          vocab: Vocabulary) -> None:
    """One tab-separated record per source sentence:
    source index, space-joined target indices, space-joined distances,
    then the k edited sentences."""
    with open(path, "w", encoding="utf-8") as f:
        for r in results:
            fields = [
                str(r.source_index),
                " ".join(str(int(i)) for i in r.indices),
                " ".join(f"{d:.17g}" for d in r.distances),
            ]
            fields.extend(" ".join(vocab.decode(e)) for e in r.edited)
            f.write("\t".join(fields) + "\n")


def read_extraction_dump(path, vocab: Vocabulary) -> list[ExtractionResult]:
    results = []
    for line in decode_lines(path):
        parts = line.split("\t")
        src_idx = int(parts[0])
        indices = np.array([int(x) for x in parts[1].split()], dtype=np.int64)
        distances = np.array([float(x) for x in parts[2].split()])
        edited = [vocab.encode(p.split()) for p in parts[3:]]
        results.append(ExtractionResult(src_idx, indices, distances, edited))
    return results
