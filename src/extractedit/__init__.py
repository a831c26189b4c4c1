"""Desk-scale unsupervised translation lab.

A self-contained numpy stack: a float64 autodiff tensor engine, a shared
GRU encoder/decoder, exact nearest-neighbor extraction of real target
sentences, a max-pool editing mechanism, a comparative ranking loss with
an adversarially trained evaluation network, a back-translation baseline,
and synthetic cipher language pairs that make every result checkable
against ground truth.
"""

from .cipher import CipherSpec, generate_cipher_pair, write_cipher_pair
from .engine import (
    EmbeddingIndex,
    EvaluationNetwork,
    build_index,
    edit_batch,
    extract_topk_batch,
    score_candidates_batch,
)
from .metrics import corpus_bleu, hits_at_k, token_accuracy
from .model import ModelConfig, TranslationModel
from .optim import Adam
from .tensor import Tape, Tensor, no_grad
from .text import Vocabulary, apply_noise, load_corpus
from .training import TrainConfig, Trainer

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CipherSpec",
    "EmbeddingIndex",
    "EvaluationNetwork",
    "ModelConfig",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "TranslationModel",
    "Vocabulary",
    "apply_noise",
    "build_index",
    "corpus_bleu",
    "edit_batch",
    "extract_topk_batch",
    "generate_cipher_pair",
    "hits_at_k",
    "load_corpus",
    "no_grad",
    "score_candidates_batch",
    "token_accuracy",
    "write_cipher_pair",
]
