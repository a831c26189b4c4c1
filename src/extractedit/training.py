"""Training orchestration.

Phase one is denoising-autoencoder pretraining of the shared model (each
step interleaves one source and one target batch, so the step loss is the
two-language language-modeling objective; with oracle-dictionary
initialization a word-by-word translation term is mixed in as the
stand-in for a learned cross-lingual prior). Phase two depends on the
mode:

* ``extract-edit``: strict 1:1 alternation between an evaluation-network
  update (ranking edited real sentences above the translation) and a
  shared encoder/decoder update (language modeling plus the comparative
  ranking loss, whose gradients reach the encoder side only since both
  decoding passes are non-differentiable).
* ``back-translation``: baseline; reconstruction NLL on greedy pseudo
  pairs plus the same language-modeling term.

Everything runs off one RNG stream captured in TrainState, so a run can
checkpoint and resume bit-exactly (the embedding-index snapshots are part
of the checkpoint for exactly this reason).
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, load_json, load_tensors, save_json, save_tensors
from .engine import (
    EmbeddingIndex,
    EvaluationNetwork,
    ExtractionResult,
    build_index,
    edit_batch,
    embed_sentences,
    extract_topk_batch,
    score_candidates_batch,
)
from .model import SRC, TGT, ModelConfig, TranslationModel
from .optim import Adam
from .tensor import Tape, Tensor
from .text import RESERVED_TOKENS, Vocabulary, apply_noise

MODES = ("extract-edit", "back-translation")

METRIC_COLUMNS = ("step", "mode", "loss_total", "loss_lm", "loss_com",
                  "loss_R", "D_s2t", "D_t2s", "skipped")

STATE_FILE = "state.json"  # a checkpoint's config, vocabulary and run state
STATE_FORMAT = 1  # the version of STATE_FILE's layout


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "extract-edit"
    seed: int = 0
    hidden_size: int = 64
    layers: int = 2
    eval_hidden: int = 64
    eval_out: int = 64
    max_len: int = 20
    batch_size: int = 32
    lr: float = 3e-4
    lr_evaluator: float = 3e-4
    omega_lm: float = 1.0
    omega_com: float = 1.0
    lam: float = 0.5
    k: int = 10
    episode_len: int = 50
    pretrain_steps: int = 2000
    main_steps: int = 3000
    p_drop: float = 0.1
    shuffle_window: int = 3
    init_mode: str = "oracle"
    valid_interval: int = 200
    checkpoint_interval: int = 1000

    def validate(self) -> None:
        for key in ("lr", "lr_evaluator", "omega_lm", "omega_com", "lam"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.omega_lm < 0 or self.omega_com < 0:
            raise ValueError("loss weights must be >= 0")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.main_steps < 0 or self.pretrain_steps < 0:
            raise ValueError("step counts must be >= 0")
        if self.init_mode not in ("oracle", "random"):
            raise ValueError(f"init_mode must be oracle or random, got {self.init_mode!r}")
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError(f"p_drop must be in [0, 1), got {self.p_drop}")
        for key in ("batch_size", "hidden_size", "layers", "eval_hidden", "eval_out",
                    "max_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("seed", "lr", "lr_evaluator", "valid_interval", "checkpoint_interval",
                    "shuffle_window"):
            if getattr(self, key) < 0:  # interval 0 turns validation/checkpoints off
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _count(value, name: str, least: int) -> int:
    """``value``, a run-state count read from STATE_FILE, if it is an
    integer of at least ``least``; otherwise a ValueError naming it."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")
    return value


def _corpus_digest(corpus: list[np.ndarray]) -> str:
    """sha256 of a corpus's sentence lengths and token ids, in order."""
    lengths = np.array([len(s) for s in corpus], dtype=np.int64)
    tokens = np.concatenate(corpus).astype(np.int64)
    return hashlib.sha256(lengths.tobytes() + tokens.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# loss builders shared by the trainer and the gradient-check tests


def comparative_loss(e_s: Tensor, cand: Tensor, evaluator: EvaluationNetwork,
                     lam: float) -> Tensor:
    """Comparative translation loss over a batch of sources.

    e_s (B, d) source embeddings, cand (B, k+1, d) candidate embeddings
    with the k edited sentences first and the translation t* in the last
    slot. Returns the batch mean of minus t*'s ranking log-probability among
    the edited candidates plus itself; gradients reach the evaluator and
    whatever produced the embeddings.
    """
    b, k = e_s.data.shape[0], cand.data.shape[1] - 1
    logp = score_candidates_batch(e_s, cand, evaluator, lam)
    return -T.tmean(T.gather(logp, np.full((b, 1), k)))


def evaluator_loss(e_s: Tensor, cand: Tensor, evaluator: EvaluationNetwork,
                   lam: float) -> Tensor:
    """Evaluation-network loss over a batch of sources.

    Same inputs as ``comparative_loss``. Returns the mean of minus the
    ranking log-probability of each of the k edited candidates; t* stays in
    the denominator. The trainer passes detached embeddings (the encoder
    is frozen in this pass), so gradients reach the evaluation network
    alone.
    """
    b, k = e_s.data.shape[0], cand.data.shape[1] - 1
    logp = score_candidates_batch(e_s, cand, evaluator, lam)
    return -T.tmean(T.gather(logp, np.broadcast_to(np.arange(k), (b, k))))


# ---------------------------------------------------------------------------
# the networks, and rebuilding them from a checkpoint


def _build_networks(config: TrainConfig, vocab_size: int, rng: np.random.Generator
                    ) -> tuple[TranslationModel, EvaluationNetwork]:
    """Freshly initialized model and evaluation network, drawn from ``rng``
    in that order."""
    model = TranslationModel(
        ModelConfig(vocab_size=vocab_size, hidden_size=config.hidden_size,
                    layers=config.layers, max_len=config.max_len),
        rng,
    )
    evaluator = EvaluationNetwork(config.hidden_size, rng,
                                  hidden=config.eval_hidden, d_out=config.eval_out)
    return model, evaluator


def _checkpoint_arrays(model: TranslationModel, evaluator: EvaluationNetwork,
                       opt_gen: Adam | None = None, opt_eval: Adam | None = None
                       ) -> dict[str, dict[str, np.ndarray]]:
    """The live arrays of a checkpoint's tensor files, by file, in file order:
    ``params.bin`` holds both networks' parameters, ``optim.bin`` the ``gen.``
    then the ``eval.`` optimizer's moments, as ``Adam.state_arrays`` names them."""
    return {
        "params.bin": {k: p.data for net in (model, evaluator)
                       for k, p in net.named_parameters().items()},
        "optim.bin": {f"{tag}.{k}": a for tag, opt in (("gen", opt_gen), ("eval", opt_eval))
                      if opt is not None for k, a in opt.state_arrays().items()},
    }


def _refuse_non_finite(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """A CheckpointError naming ``path`` and each of ``arrays`` that holds
    NaN or Inf."""
    bad = [k for k, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise CheckpointError(f"{path}: non-finite values in tensors {bad}")


def _read_checked(path: Path, live: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The tensor file at ``path``, which must hold exactly the names and
    shapes of the ``live`` arrays, all finite; otherwise a CheckpointError
    naming it and every missing, extra, misshapen or non-finite tensor. No
    array changes."""
    saved = load_tensors(path)
    missing, extra = sorted(live.keys() - saved.keys()), sorted(saved.keys() - live.keys())
    shapes = [f"{k} {saved[k].shape} vs {a.shape}" for k, a in live.items()
              if k in saved and saved[k].shape != a.shape]
    if missing or extra or shapes:
        raise CheckpointError(f"{path}: missing tensors {missing}, extra tensors {extra}, "
                              f"wrong shapes {shapes}")
    _refuse_non_finite(path, saved)
    return saved


def read_state(directory) -> tuple[dict, TrainConfig, Vocabulary]:
    """A checkpoint directory's STATE_FILE, with the TrainConfig and
    Vocabulary it records. A file that is not an object in the ``format``
    this code writes, or whose config or vocabulary does not build, is a
    CheckpointError naming the path."""
    path = Path(directory) / STATE_FILE
    meta = load_json(path)
    if meta.get("format") != STATE_FORMAT:
        raise CheckpointError(f"{path}: checkpoint format {meta.get('format')!r} is not "
                              f"supported (expected {STATE_FORMAT})")
    try:
        config = TrainConfig(**meta["config"])
        config.validate()
        vocab = Vocabulary(meta["vocab_content"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config or vocabulary: {e!r}") from e
    return meta, config, vocab


def load_checkpoint(directory
                    ) -> tuple[TranslationModel, EvaluationNetwork, Vocabulary, TrainConfig]:
    """The model, evaluation network, vocabulary and TrainConfig saved in a
    checkpoint directory, for inference; ``Trainer.restore`` also restores
    the optimizers, indexes and RNG."""
    directory = Path(directory)
    _, config, vocab = read_state(directory)
    model, evaluator = _build_networks(config, vocab.size, np.random.default_rng(config.seed))
    live = _checkpoint_arrays(model, evaluator)["params.bin"]
    saved = _read_checked(directory / "params.bin", live)
    for k, a in live.items():
        a[...] = saved[k]
    return model, evaluator, vocab, config


# ---------------------------------------------------------------------------


@dataclass
class _DirectionBatch:
    """Everything one direction of an alternation step shares between the
    evaluator update and the generator update."""

    t_star: list[np.ndarray]
    edited: list[np.ndarray]  # B*k sentences, row-major
    e_src: Tensor  # (B, d) pooled source encodes, recorded when made under a tape


@dataclass
class TrainState:
    step: int = 0
    episode: int = -1
    metric_rows: list[list[str]] = field(default_factory=list)


class Trainer:
    """Owns the model, the evaluation network, their optimizers, and the
    full training/validation/checkpoint lifecycle for one run."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary,
                 src_train: list[np.ndarray], tgt_train: list[np.ndarray],
                 src_valid: list[np.ndarray] | None = None,
                 tgt_valid: list[np.ndarray] | None = None,
                 oracle_dictionary: np.ndarray | None = None):
        config.validate()
        if config.init_mode == "oracle" and oracle_dictionary is None:
            raise ValueError("init_mode=oracle needs an oracle dictionary "
                             "(use init_mode=random for plain corpora)")
        # validation extracts from both training corpora, in either mode
        n = min(len(src_train), len(tgt_train))
        if config.k > n:
            raise ValueError(f"k must be in [1, {n}] (the smaller training corpus), "
                             f"got {config.k}")
        self.config = config
        self.vocab = vocab
        self.corpora = {SRC: src_train, TGT: tgt_train}
        self.valid = {SRC: src_valid, TGT: tgt_valid}
        self.word_tables = {}  # into TGT the oracle dictionary, into SRC its inverse
        if oracle_dictionary is not None:
            inv = np.argsort(oracle_dictionary)
            if not np.array_equal(oracle_dictionary[inv], np.arange(vocab.size)):
                raise ValueError(f"the oracle dictionary is not a permutation of the "
                                 f"{vocab.size} vocabulary ids")
            self.word_tables = {TGT: oracle_dictionary, SRC: inv}

        self.rng = np.random.default_rng(config.seed)
        self.model, self.evaluator = _build_networks(config, vocab.size, self.rng)
        self.opt_gen = Adam(self.model.named_parameters(), lr=config.lr)
        self.opt_eval = Adam(self.evaluator.named_parameters(), lr=config.lr_evaluator)
        self.state = TrainState()
        self.indexes: dict[int, EmbeddingIndex] = {}
        # opt_gen.step_count when _ensure_indexes built each index; a restored one has none
        self._index_built_at: dict[int, int] = {}

    # -- batching ------------------------------------------------------------

    def _sample_batch(self, lang: int) -> list[np.ndarray]:
        corpus = self.corpora[lang]
        idx = self.rng.integers(0, len(corpus), size=self.config.batch_size)
        return [corpus[int(i)] for i in idx]

    def _noised(self, batch: list[np.ndarray]) -> list[np.ndarray]:
        cfg = self.config
        return [apply_noise(s, cfg.p_drop, cfg.shuffle_window, self.rng) for s in batch]

    def _draw_lm_batches(self) -> tuple[list, list]:
        """Clean and noised batches of each language, indexed by SRC and TGT,
        drawn in a fixed RNG order; shared by every step type."""
        batches = [self._sample_batch(SRC), self._sample_batch(TGT)]
        return batches, [self._noised(b) for b in batches]

    def _word_translate(self, batch: list[np.ndarray], to_lang: int) -> list[np.ndarray]:
        table = self.word_tables[to_lang]
        return [table[s] for s in batch]

    # -- language modeling / pretraining --------------------------------------

    def _lm_loss(self, batches: list, noised: list) -> Tensor:
        """Two-language denoising autoencoding loss."""
        return (self.model.nll_batch(noised[SRC], batches[SRC], SRC)
                + self.model.nll_batch(noised[TGT], batches[TGT], TGT))

    def pretrain_step(self) -> None:
        cfg = self.config
        batches, noised = self._draw_lm_batches()

        def losses():
            lm = self._lm_loss(batches, noised)
            if cfg.init_mode == "oracle":
                words = [self._word_translate(batches[SRC], TGT),
                         self._word_translate(batches[TGT], SRC)]
                lm = lm + (self.model.nll_batch(noised[SRC], words[SRC], TGT)
                           + self.model.nll_batch(noised[TGT], words[TGT], SRC))
            return {"total": lm * cfg.omega_lm, "lm": lm}

        self._finish_step("pretrain", **self._update(self.opt_gen, losses))

    # -- episodes and indexes --------------------------------------------------

    def _current_episode(self) -> int:
        """Episode id of the current main-phase step (0-based)."""
        in_phase = max(self.state.step - self.config.pretrain_steps, 0)
        return in_phase // self.config.episode_len

    def _ensure_indexes(self, langs: tuple[int, ...] = (SRC, TGT)) -> None:
        episode = self._current_episode()
        for lang in langs:
            idx = self.indexes.get(lang)
            if idx is None or idx.episode != episode:
                self.indexes[lang] = build_index(self.corpora[lang], self.model, episode)
                self._index_built_at[lang] = self.opt_gen.step_count
        self.state.episode = episode

    # -- extract-edit ----------------------------------------------------------

    def _prepare_direction(self, sources: list[np.ndarray], out_lang: int) -> _DirectionBatch:
        """Encode the sources once, on the active tape if there is one, then
        translate, extract and edit from that encode's values; only the
        encode is differentiable."""
        h_enc, pooled, mask = self.model.encode_batch(sources)
        t_star, _ = self.model.decode_greedy_batch(pooled, h_enc, mask, out_lang)
        # the first decode step bans EOS, so every translation has a token
        assert all(len(s) for s in t_star), "empty greedy translation"
        _, _, edited = self._extract_edit(pooled.data, out_lang)
        return _DirectionBatch(t_star=t_star, edited=edited, e_src=pooled)

    def _extract_edit(self, e_src: np.ndarray, out_lang: int
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Extract the k nearest ``out_lang`` sentences to each source
        embedding (B, d) and edit each toward its source: (indices (B, k),
        distances (B, k), B*k edited sentences, row-major).

        The edits start from the index rows of the extracted sentences while
        the generator has made no update since the index was built: those
        rows are then the current encodes bit for bit. Otherwise each
        distinct extracted sentence is encoded again.
        """
        k = self.config.k
        index = self.indexes[out_lang]
        idxs, dists = extract_topk_batch(e_src, index, k)
        if self._index_built_at.get(out_lang) == self.opt_gen.step_count:
            e_extracted = index.rows[idxs.ravel()]
        else:
            uniq, inverse = np.unique(idxs, return_inverse=True)
            corpus = self.corpora[out_lang]
            rows = embed_sentences([corpus[int(j)] for j in uniq], self.model)
            e_extracted = rows[inverse.ravel()]
        edited = edit_batch(np.repeat(e_src, k, axis=0), e_extracted, self.model, out_lang)
        return idxs, dists, edited

    def _encode_directions(self, directions: list[_DirectionBatch]
                           ) -> list[tuple[Tensor, Tensor]]:
        """(source embeddings (B,d), candidates (B,k+1,d)) per direction.

        The sources are each direction's ``e_src``. Each distinct candidate
        of all directions is encoded once, in one batch, in order of first
        occurrence (edits, then translations, direction by direction), and
        every slot gathers its row; the translation occupies the last
        candidate slot. Differentiable when called under a tape; both
        updates of a step share this encode (the evaluator update detaches
        it, the generator update backprops it).

        The embeddings are those of encoding every slot, bit for bit,
        because a sentence encodes the same in any batch. With no repeated
        candidate the batch is that full list, so the gradients are the
        same bits too. A repeated candidate's slot gradients are summed by
        the gather's backward before the encoder backward, which then runs
        at the distinct height: equal in exact arithmetic, the gradients
        differ only by the reassociation of float64 sums.
        """
        row_of: dict[bytes, int] = {}
        sents: list[np.ndarray] = []
        slots = []
        for d in directions:
            rows = []
            for s in (*d.edited, *d.t_star):
                key = s.tobytes()
                if key not in row_of:
                    row_of[key] = len(sents)
                    sents.append(s)
                rows.append(row_of[key])
            b = len(d.t_star)
            rows = np.array(rows)
            slots.append(np.column_stack([rows[:-b].reshape(b, -1), rows[-b:]]))
        _, pooled, _ = self.model.encode_batch(sents)
        return [(d.e_src, T.take_rows(pooled, cand)) for d, cand in zip(directions, slots)]

    def adversarial_step(self) -> None:
        """One 1:1 alternation, both directions handled symmetrically.

        The evaluator update ranks the edited candidates above the
        translation on detached embeddings (the encoder is frozen in it).
        It nests inside the encoder/decoder update, after the source and
        candidate encodes both share. That update records each source's
        one encode, which also feeds its translation, extraction and edits,
        and backpropagates language modeling plus the comparative ranking
        loss through the encoder, while the evaluator takes part in the
        forward pass only (frozen in this pass), and the decoder gets
        gradient from the language-modeling term alone since every decode
        in the candidate pipeline is non-differentiable.
        """
        cfg = self.config
        self._ensure_indexes()
        batches, noised = self._draw_lm_batches()

        def losses():
            embeds = self._encode_directions([self._prepare_direction(batches[SRC], TGT),
                                              self._prepare_direction(batches[TGT], SRC)])
            loss_r = self._update(self.opt_eval, lambda: {"total": reduce(add, (
                evaluator_loss(e_s.detach(), cand.detach(), self.evaluator, cfg.lam)
                for e_s, cand in embeds))})["total"]
            lm = self._lm_loss(batches, noised)
            com = reduce(add, (comparative_loss(e_s, cand, self.evaluator, cfg.lam)
                               for e_s, cand in embeds))
            return {"total": lm * cfg.omega_lm + com * cfg.omega_com, "lm": lm, "com": com,
                    "loss_r": loss_r}

        self._finish_step("extract-edit", **self._update(self.opt_gen, losses))

    # -- back-translation baseline ----------------------------------------------

    def backtranslation_step(self) -> None:
        """Pseudo pairs from greedy decoding, then reconstruction MLE plus LM."""
        cfg = self.config
        batches, noised = self._draw_lm_batches()
        t_hat, _ = self.model.translate_batch(batches[SRC], TGT)
        s_hat, _ = self.model.translate_batch(batches[TGT], SRC)

        def losses():
            lm = self._lm_loss(batches, noised)
            bt = (self.model.nll_batch(t_hat, batches[SRC], SRC)
                  + self.model.nll_batch(s_hat, batches[TGT], TGT))
            return {"total": lm * cfg.omega_lm + bt * cfg.omega_com, "lm": lm, "com": bt}

        self._finish_step("back-translation", **self._update(self.opt_gen, losses))

    # -- extraction dumps ----------------------------------------------------------

    def extract_corpus(self, limit: int | None = None) -> list[ExtractionResult]:
        """Top-k extractions plus edits for every source sentence (or a
        prefix), whose embeddings come from one ``embed_sentences`` call;
        extraction and editing take ``batch_size`` sources at a time."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self._ensure_indexes((TGT,))  # only the target side is searched
        cfg = self.config
        e_src = embed_sentences(self.corpora[SRC][:limit], self.model)
        out: list[ExtractionResult] = []
        for start in range(0, len(e_src), cfg.batch_size):
            idxs, dists, edited = self._extract_edit(e_src[start : start + cfg.batch_size], TGT)
            for bi in range(len(idxs)):
                out.append(ExtractionResult(
                    source_index=start + bi,
                    indices=idxs[bi],
                    distances=dists[bi],
                    edited=edited[bi * cfg.k : (bi + 1) * cfg.k],
                ))
        return out

    # -- model selection ------------------------------------------------------------

    def model_selection_score(self, out_lang: int) -> float:
        """Criterion D for translation into ``out_lang`` (TGT or SRC): the
        mean log ranking probability of greedy translations of the other
        language's held-out sentences, 64 per batch; higher is better.
        Order-invariant."""
        corpus = self.valid[{TGT: SRC, SRC: TGT}[out_lang]]
        if corpus is None:
            raise ValueError(f"no validation corpus to translate into language {out_lang}")
        self._ensure_indexes()
        cfg = self.config
        total = 0.0
        for start in range(0, len(corpus), 64):
            with T.no_grad():
                batch = self._prepare_direction(corpus[start : start + 64], out_lang)
                (e_s, cand), = self._encode_directions([batch])
                logp = score_candidates_batch(e_s, cand, self.evaluator, cfg.lam)
            total += float(logp.data[:, cfg.k].sum())
        return total / max(len(corpus), 1)

    def validate(self) -> tuple[float, float]:
        """Criterion D into the target, then into the source language,
        recorded in the metrics row of the current step if it has one."""
        d_s2t = self.model_selection_score(TGT)
        d_t2s = self.model_selection_score(SRC)
        if self.state.metric_rows:
            last = self.state.metric_rows[-1]
            if last[0] == str(self.state.step):
                last[6] = _fmt(d_s2t)
                last[7] = _fmt(d_t2s)
        return d_s2t, d_t2s

    # -- driver ------------------------------------------------------------------

    def main_step(self) -> None:
        if self.config.mode == "extract-edit":
            self.adversarial_step()
        else:
            self.backtranslation_step()

    def run(self, checkpoint_dir=None, log=None, until: int | None = None) -> list[Path]:
        """Pretrain, then run the configured mode to its step budget,
        validating and checkpointing at the configured intervals; returns
        the checkpoint directories saved, in step order.

        ``until`` stops early at a global step (for interrupt/resume
        exercises) without changing any per-step behavior. A NonFiniteError
        raised while step n is made or validated reaches the caller as one
        whose message begins ``step n: ``, the step's row in the metrics.
        """
        cfg = self.config
        true_end = cfg.pretrain_steps + cfg.main_steps
        total_steps = true_end if until is None else min(true_end, until)
        saved = []
        while self.state.step < total_steps:
            n = self.state.step + 1
            try:
                if self.state.step < cfg.pretrain_steps:
                    self.pretrain_step()
                else:
                    self.main_step()
                at_end = self.state.step == true_end
                want_valid = cfg.valid_interval and (
                    self.state.step % cfg.valid_interval == 0 or at_end)
                if want_valid and self.valid[SRC] is not None and self.valid[TGT] is not None \
                        and self.state.step >= cfg.pretrain_steps:
                    self.validate()
            except T.NonFiniteError as e:
                raise T.NonFiniteError(f"step {n}: {e}") from e
            want_ckpt = at_end or (cfg.checkpoint_interval
                                   and self.state.step % cfg.checkpoint_interval == 0)
            if checkpoint_dir is not None and want_ckpt:
                saved.append(self.save_checkpoint(
                    Path(checkpoint_dir) / f"step_{self.state.step:07d}"))
            if log is not None and self.state.step % 100 == 0:
                log(self.state.step, self.state.metric_rows[-1])
        return saved

    # -- bookkeeping ----------------------------------------------------------------

    def _update(self, opt: Adam, losses) -> dict[str, Tensor]:
        """One optimizer update, and the only code that makes one: zero
        ``opt``'s gradients, record ``losses()`` on a fresh tape,
        backpropagate its ``"total"`` and step ``opt``.

        ``losses`` returns named scalar terms, which come back as they are;
        an update run inside another's ``losses`` records on its own tape
        only. The total needs no finiteness check here: it is made by ``add``
        or ``mul``, which refuse non-finite values.
        """
        opt.zero_grad()
        with Tape() as tape:
            terms = losses()
        tape.backward(terms["total"])
        opt.step()
        return terms

    def _finish_step(self, mode: str, total: Tensor, lm: Tensor | None = None,
                     com: Tensor | None = None, loss_r: Tensor | None = None) -> None:
        """Count the step and append its metrics row."""
        self.state.step += 1
        self.state.metric_rows.append([
            str(self.state.step),
            mode,
            *("" if t is None else _fmt(t.item()) for t in (total, lm, com, loss_r)),
            "",
            "",
            "0",  # skipped: no row is ever skipped; the column stays for readers
        ])

    def metrics_csv(self) -> str:
        lines = [",".join(METRIC_COLUMNS)]
        lines.extend(",".join(row) for row in self.state.metric_rows)
        return "\n".join(lines) + "\n"

    # -- checkpointing -----------------------------------------------------------------

    def save_checkpoint(self, directory) -> Path:
        """Write a checkpoint to ``directory``, replacing any earlier one whole.

        The files go to a sibling temporary directory, which is renamed into
        place only once complete: a save that fails part-way leaves neither
        a partial directory nor a change to what ``directory`` held, and a
        re-save keeps no file of the old checkpoint.
        """
        directory = Path(directory)
        tmp = directory.with_name(f".{directory.name}.tmp")
        old = directory.with_name(f".{directory.name}.old")
        for leftover in (tmp, old):  # from a save that was killed
            shutil.rmtree(leftover, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            self._write_checkpoint(tmp)
            if directory.exists():
                directory.rename(old)
                tmp.rename(directory)
                shutil.rmtree(old)
            else:
                tmp.rename(directory)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return directory

    def _write_checkpoint(self, directory: Path) -> None:
        for name, live in _checkpoint_arrays(self.model, self.evaluator,
                                             self.opt_gen, self.opt_eval).items():
            save_tensors(directory / name, live)
        indexed = [(lang, name) for lang, name in ((SRC, "src"), (TGT, "tgt"))
                   if lang in self.indexes]
        if indexed:
            save_tensors(directory / "index.bin",
                         {f"index.{name}": self.indexes[lang].rows for lang, name in indexed})
        save_json(directory / STATE_FILE, {
            "format": STATE_FORMAT,
            "step": self.state.step,
            "episode": self.state.episode,
            "rng": self.rng.bit_generator.state,
            "opt_gen_steps": self.opt_gen.step_count,
            "opt_eval_steps": self.opt_eval.step_count,
            "metric_rows": self.state.metric_rows,
            "config": asdict(self.config),
            "vocab_content": self.vocab.id_to_token[len(RESERVED_TOKENS):],
            "index_episodes": {name: self.indexes[lang].episode for lang, name in indexed},
            "index_corpus_sha256": {name: _corpus_digest(self.corpora[lang])
                                    for lang, name in indexed},
        })

    def restore(self, directory, require_same_config: bool = True) -> None:
        """Load a checkpoint into this trainer.

        With ``require_same_config`` (the default) the checkpoint must have
        been written under an identical TrainConfig; sweeps that share a
        pretrained initialization across k values disable the check.
        ``params.bin`` and ``optim.bin`` must hold exactly this trainer's
        arrays (``_read_checked``), and ``state.json`` its run state: an
        integer step, optimizer step counts and kept index episodes of at
        least 0, an episode of at least -1, and metric rows of
        ``len(METRIC_COLUMNS)`` strings.

        An index snapshot whose corpus digest differs from this trainer's
        corpus is dropped, so the next ``_ensure_indexes`` builds it anew; a
        checkpoint that records no digests restores every snapshot. A kept one
        must be (corpus rows, ``hidden_size``) and finite. Each fault is a
        CheckpointError naming its file, raised after every file is read and
        before any trainer state changes: a refused restore leaves the trainer
        as it was.
        """
        directory = Path(directory)
        meta, config, vocab = read_state(directory)
        if require_same_config and config != self.config:
            saved, live = asdict(config), asdict(self.config)
            mismatch = {k for k in saved if saved[k] != live[k]}
            raise ValueError(f"checkpoint config mismatch on keys: {sorted(mismatch)}")
        if vocab.id_to_token != self.vocab.id_to_token:
            raise ValueError("checkpoint vocabulary does not match the loaded corpora")
        path = directory / "index.bin"
        snapshots = load_tensors(path) if path.exists() else {}
        try:
            rows = meta["metric_rows"]
            if not isinstance(rows, list) or not all(
                    isinstance(r, list) and len(r) == len(METRIC_COLUMNS)
                    and all(isinstance(c, str) for c in r) for r in rows):
                raise ValueError("metric_rows is not a list of rows of "
                                 f"{len(METRIC_COLUMNS)} strings")
            state = TrainState(_count(meta["step"], "step", 0),
                               _count(meta["episode"], "episode", -1), rows)
            type(self.rng.bit_generator)().state = meta["rng"]  # checked here, set below
            opt_steps = (_count(meta["opt_gen_steps"], "opt_gen_steps", 0),
                         _count(meta["opt_eval_steps"], "opt_eval_steps", 0))
            episodes = meta["index_episodes"]
            digests = meta.get("index_corpus_sha256")
            kept = {}
            for lang, name in ((SRC, "src"), (TGT, "tgt")):
                key = f"index.{name}"
                if key not in snapshots or (digests and digests[name]
                                            != _corpus_digest(self.corpora[lang])):
                    continue  # no snapshot, or one over another corpus
                kept[key] = lang, _count(episodes[name], f"index_episodes.{name}", 0)
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{directory / STATE_FILE}: bad run state: {e!r}") from e
        indexes = {}
        for key, (lang, episode) in kept.items():
            rows = snapshots[key]
            if rows.shape != (len(self.corpora[lang]), self.config.hidden_size):
                raise CheckpointError(f"{path}: {key} has shape {rows.shape}, not "
                                      f"({len(self.corpora[lang])}, {self.config.hidden_size})")
            indexes[lang] = EmbeddingIndex(rows=rows, episode=episode)
        _refuse_non_finite(path, {key: snapshots[key] for key in kept})
        files = _checkpoint_arrays(self.model, self.evaluator, self.opt_gen, self.opt_eval)
        arrays = {name: _read_checked(directory / name, live) for name, live in files.items()}
        # every file is checked: from here on nothing fails
        for name, live in files.items():
            for k, a in live.items():
                a[...] = arrays[name][k]
        self.rng.bit_generator.state = meta["rng"]
        self.opt_gen.step_count, self.opt_eval.step_count = opt_steps
        self.indexes = indexes
        self._index_built_at = {}  # a restored index counts as stale
        self.state = state
