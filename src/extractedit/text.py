"""Tokenization, vocabulary, corpus loading, and the drop/shuffle noise model.

Sentences are 1-D ``np.int64`` arrays of content token ids (no BOS/EOS/PAD
inside); the model layer adds framing tokens where needed.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

__all__ = [
    "PAD",
    "BOS",
    "EOS",
    "UNK",
    "RESERVED_TOKENS",
    "CorpusError",
    "Vocabulary",
    "load_corpus",
    "apply_noise",
]

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class CorpusError(ValueError):
    """Unreadable, empty, or malformed corpus input; message carries line numbers."""


class Vocabulary:
    """Bijective token <-> id map with reserved ids 0..3 in fixed order."""

    def __init__(self, tokens):
        self.id_to_token: list[str] = list(RESERVED_TOKENS)
        seen = set(RESERVED_TOKENS)
        for tok in tokens:
            if tok in seen:
                raise CorpusError(f"duplicate or reserved token in vocabulary: {tok!r}")
            seen.add(tok)
            self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def from_lines(cls, lines) -> "Vocabulary":
        """Frequency-sorted vocabulary (ties broken lexicographically)."""
        counts = Counter()
        for line in lines:
            counts.update(line.split())
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ordered)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.token_to_id.get(t, UNK) for t in tokens], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[int(i)] for i in ids]


def load_corpus(path, vocab: Vocabulary, max_len: int) -> list[np.ndarray]:
    """Load a one-sentence-per-line UTF-8 file with whitespace tokens.

    Tokens outside ``vocab`` map to UNK, and sentences longer than
    ``max_len`` are truncated. Empty files, empty lines and reserved
    tokens are ingestion errors.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CorpusError(f"cannot read corpus file {path}: {e}") from e
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = raw[: e.start].count(b"\n") + 1
        raise CorpusError(f"{path}: malformed UTF-8 at line {line_no}") from e

    lines = text.splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty corpus")
    for i, line in enumerate(lines, start=1):
        if not line.split():
            raise CorpusError(f"{path}: empty sentence at line {i}")
        for tok in line.split():
            if tok in RESERVED_TOKENS:
                raise CorpusError(f"{path}: line {i}: token {tok!r} is reserved, not text")

    return [vocab.encode(line.split()[:max_len]) for line in lines]


def apply_noise(
    ids: np.ndarray,
    p_drop: float,
    shuffle_window: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Word-drop plus bounded local shuffle.

    Each token is dropped independently with probability ``p_drop`` but at
    least one survivor is kept. Survivors are then permuted by sorting the
    keys i + U(0, shuffle_window + 1), which guarantees every token moves
    at most ``shuffle_window`` positions. Never introduces new tokens.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ValueError(f"p_drop must be in [0, 1), got {p_drop}")
    if shuffle_window < 0:
        raise ValueError(f"shuffle_window must be >= 0, got {shuffle_window}")
    n = len(ids)
    keep = rng.random(n) >= p_drop
    if not keep.any():
        keep[rng.integers(n)] = True
    kept = ids[keep]
    m = len(kept)
    keys = np.arange(m) + rng.uniform(0.0, shuffle_window + 1.0, size=m)
    order = np.argsort(keys, kind="stable")
    return kept[order]
