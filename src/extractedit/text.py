"""Tokenization, vocabulary, the one checked reader of text files, corpus
loading, and the drop/shuffle noise model.

Sentences are 1-D ``np.int64`` arrays of content token ids (no BOS/EOS/PAD
inside); the model layer adds framing tokens where needed.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class CorpusError(ValueError):
    """Unreadable, empty, or malformed text input; a fault in a file names the
    file, and the line where there is one."""


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


def decode_lines(path, error=CorpusError) -> list[str]:
    """The lines of a UTF-8 file. A line ends at ``\\n`` and nowhere else, so
    a CRLF file's ``\\r`` stays in its line, where ``str.split`` takes it for
    whitespace. An unreadable file or malformed UTF-8 raises ``error``
    naming the path, and the line of the malformed byte."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        line_no = raw.count(b"\n", 0, e.start) + 1
        raise error(f"{path}: line {line_no}: malformed UTF-8") from e
    return lines[:-1] if lines[-1] == "" else lines


def read_lines(path, vocab: Vocabulary | None = None) -> list[str]:
    """The ``decode_lines`` of a file of whitespace-tokenized sentences.

    Every fault is a CorpusError naming the path, and the line where there
    is one: an unreadable file, malformed UTF-8, a line with no token, a
    reserved token, and, when ``vocab`` is given, a token outside it.
    """
    lines = decode_lines(path)
    for i, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise CorpusError(f"{path}: line {i}: empty sentence")
        for tok in tokens:
            if tok in RESERVED_TOKENS:
                raise CorpusError(f"{path}: line {i}: token {tok!r} is reserved, not text")
            if vocab is not None and tok not in vocab.token_to_id:
                raise CorpusError(f"{path}: line {i}: token {tok!r} is not in the vocabulary")
    return lines


def load_corpus(path, vocab: Vocabulary, max_len: int) -> list[np.ndarray]:
    """Load a ``read_lines`` file as a corpus: tokens outside ``vocab`` map
    to UNK, sentences longer than ``max_len`` are truncated, and an empty
    file is an error."""
    lines = read_lines(path)
    if not lines:
        raise CorpusError(f"{path}: empty corpus")
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
