"""Shared encoder, shared decoder, sentence embeddings, greedy decoding.

One parameter set serves both languages: a single token embedding table
over the joint vocabulary, one encoder GRU stack, one decoder GRU stack
with dot-product attention and an output projection. The decoder learns
which language to emit from a language-tag embedding added to its first
input. Sentence embeddings are element-wise max over the final encoder
layer's hidden states, which composes directly with the max-pool edit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import DegenerateInputError, Tensor
from .text import BOS, EOS, PAD

SRC, TGT = 0, 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_size: int
    layers: int
    max_len: int


def pad_batch(sentences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad id arrays into (ids (B,T), lengths (B,), valid mask (B,T))."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    if np.any(lengths == 0):
        raise DegenerateInputError("cannot batch an empty sentence")
    t_max = int(lengths.max())
    ids = np.full((len(sentences), t_max), PAD, dtype=np.int64)
    for i, s in enumerate(sentences):
        ids[i, : len(s)] = s
    mask = np.arange(t_max)[None, :] < lengths[:, None]
    return ids, lengths, mask


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """A trainable weight of ``shape``, Glorot-uniform; the one weight initializer."""
    limit = np.sqrt(6.0 / sum(shape))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _gru_layer(rng: np.random.Generator, d_in: int, d_h: int) -> dict[str, Tensor]:
    """One gated-recurrence layer: ``tensor.gru_step``'s weights, in its
    argument order; gate layout [reset | update | candidate]."""
    return {
        "w_ih": glorot(rng, (d_in, 3 * d_h)),
        "b_ih": Tensor(np.zeros(3 * d_h), requires_grad=True),
        "w_hh": glorot(rng, (d_h, 3 * d_h)),
        "b_hh": Tensor(np.zeros(3 * d_h), requires_grad=True),
    }


class TranslationModel:
    """Joint-vocabulary seq2seq with shared parameters across languages."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        d = config.hidden_size
        v = config.vocab_size
        self.config = config
        self.embedding = Tensor(rng.uniform(-0.1, 0.1, size=(v, d)), requires_grad=True)
        self.enc_layers = [_gru_layer(rng, d, d) for _ in range(config.layers)]
        self.dec_layers = [_gru_layer(rng, d, d) for _ in range(config.layers)]
        self.w_att = glorot(rng, (2 * d, d))
        self.b_att = Tensor(np.zeros(d), requires_grad=True)
        self.w_out = glorot(rng, (d, v))
        self.b_out = Tensor(np.zeros(v), requires_grad=True)
        self.lang_emb = Tensor(rng.uniform(-0.1, 0.1, size=(2, d)), requires_grad=True)

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding}
        for side, layers in (("encoder", self.enc_layers), ("decoder", self.dec_layers)):
            for i, layer in enumerate(layers):
                out.update({f"{side}.l{i}.{k}": p for k, p in layer.items()})
        out["decoder.attn.w"] = self.w_att
        out["decoder.attn.b"] = self.b_att
        out["decoder.proj.w"] = self.w_out
        out["decoder.proj.b"] = self.b_out
        out["decoder.lang_tag"] = self.lang_emb
        return out

    # -- encoding -------------------------------------------------------------

    def encode_batch(self, sentences) -> tuple[Tensor, Tensor, np.ndarray]:
        """Encode padded sentences into per-token states and pooled embeddings.

        Returns (H (B,T,d), pooled (B,d), valid mask (B,T)).

        Time step t runs the GRU on the live rows only, those with
        length > t (``None`` when all are); a finished row carries its last
        hidden state forward, so H at a PAD position repeats the state of
        the sentence's last token. The pooled row is H's max over all steps:
        it equals the max over the sentence's own, and its gradient goes to
        the first argmax, never a PAD step. Each live row gets the bits it
        would get in a full-height step, so a sentence encodes the same
        alone or in any batch; the backward's matrix products stay full
        height, because OpenBLAS rounds their rows differently at other
        heights (see ``tensor.gru_step``).
        """
        ids, lengths, mask = pad_batch(sentences)
        b, t_max = ids.shape
        d = self.config.hidden_size
        live = [None if lengths.min() > t else np.flatnonzero(lengths > t)
                for t in range(t_max)]
        xs = [T.take_rows(self.embedding, ids[:, t]) for t in range(t_max)]
        for layer in self.enc_layers:
            h = Tensor(np.zeros((b, d)))
            outs = []
            for t in range(t_max):
                h = T.gru_step(xs[t], h, *layer.values(), live=live[t])
                outs.append(h)
            xs = outs
        h_seq = T.stack(xs)
        pooled = T.max_over_time(h_seq)
        return h_seq, pooled, mask

    # -- decoding -------------------------------------------------------------

    def _decoder_input(self, tok_ids: np.ndarray, step: int, lang: int) -> Tensor:
        """The embedded decoder input; step 0 adds the language tag."""
        x = T.take_rows(self.embedding, tok_ids)
        if step == 0:
            x = x + T.take_rows(self.lang_emb, np.full(len(tok_ids), lang))
        return x

    def _decoder_step(self, x: Tensor, hiddens: list[Tensor], h_enc: Tensor | None,
                      enc_mask: np.ndarray | None, projected: bool = False) -> Tensor:
        """One decoder step from layer 0's input ``x``: the embedded input, or
        with ``projected`` its layer-0 input projection (see ``gru_step``)."""
        for i, layer in enumerate(self.dec_layers):
            w_ih, b_ih, w_hh, b_hh = layer.values()
            if projected and i == 0:
                w_ih = b_ih = None
            hiddens[i] = T.gru_step(x, hiddens[i], w_ih, b_ih, w_hh, b_hh)
            x = hiddens[i]
        if h_enc is not None:
            ctx = T.attend(x, h_enc, enc_mask)
            x = T.tanh(T.matmul(T.concat([x, ctx]), self.w_att) + self.b_att)
        return T.matmul(x, self.w_out) + self.b_out

    def nll_batch(self, src_sentences, tgt_sentences, out_lang: int) -> Tensor:
        """Token-averaged teacher-forced negative log-likelihood of targets.

        Encodes the sources, then scores each reference token (plus EOS)
        under the attentive decoder conditioned on ``out_lang``.
        """
        h_enc, pooled, enc_mask = self.encode_batch(src_sentences)
        tgt_ids, tgt_len, _ = pad_batch(tgt_sentences)
        b, t_out = tgt_ids.shape
        t_out += 1  # room for EOS
        inputs = np.full((b, t_out), PAD, dtype=np.int64)
        targets = np.full((b, t_out), PAD, dtype=np.int64)
        inputs[:, 0] = BOS
        inputs[:, 1:] = tgt_ids
        targets[:, :-1] = tgt_ids
        targets[np.arange(b), tgt_len] = EOS
        loss_mask = np.arange(t_out)[None, :] <= tgt_len[:, None]

        hiddens = [pooled for _ in self.dec_layers]
        logits = []
        for t in range(t_out):
            x = self._decoder_input(inputs[:, t], t, out_lang)
            logits.append(self._decoder_step(x, hiddens, h_enc, enc_mask))
        logp = T.log_softmax(T.stack(logits))
        tok_logp = T.gather(logp, targets[:, :, None])
        picked = T.reshape(tok_logp, (b, t_out)) * Tensor(loss_mask.astype(np.float64))
        return -(T.tsum(picked) * (1.0 / float(loss_mask.sum())))

    def decode_greedy_batch(self, init: Tensor, h_enc: Tensor | None,
                            enc_mask: np.ndarray | None, lang: int
                            ) -> tuple[list[np.ndarray], np.ndarray]:
        """Greedy argmax decoding; deterministic and never differentiable.

        ``init`` seeds the initial hidden state of every decoder layer; with
        ``h_enc`` None the decoder attends to nothing and is conditioned on
        that one vector per row (the edit path). PAD and BOS are never
        emitted, and EOS is rejected on the first step so every output has
        at least one token. Decoding runs at most ``config.max_len`` steps.
        Returns the decoded sentences and a per-sentence flag marking
        max-length truncation.

        Only the rows still decoding are computed: a row that emits EOS
        leaves the batch with its hidden states and its ``h_enc`` and
        ``enc_mask`` rows (``h_enc`` keeps its padded length). Step 0's layer-0
        input projection is that of the one row of BOS plus the language tag.
        When the vocabulary has fewer tokens than the ``rows × max_len``
        row-steps the call may decode, later steps read it from a table of
        every token's ``x @ w_ih + b_ih``, made once per call; otherwise they
        project their embedding rows. No row's products depend on how many
        rows its batch has (see ``tensor._mm``), so a row decodes to the same
        bits alone, in any batch, with or without the table, and as in a loop
        that multiplies every row's embedding at every step.
        """
        b, max_len = init.data.shape[0], self.config.max_len
        grid = np.empty((b, max_len), dtype=np.int64)  # row i emits grid[i, :lengths[i]]
        lengths = np.full(b, max_len)
        rows = np.arange(b)  # the batch rows still decoding
        layer0 = self.dec_layers[0]
        with T.no_grad():
            first = T.matmul(self._decoder_input(np.array([BOS]), 0, lang), layer0["w_ih"])
            x, projected = T.take_rows(first + layer0["b_ih"], np.zeros(b, dtype=np.int64)), True
            table = self.embedding.data.shape[0] < b * max_len  # fewer tokens than row-steps
            tokens = self.embedding  # layer 0's input per token id after step 0
            if table:
                tokens = T.matmul(tokens, layer0["w_ih"]) + layer0["b_ih"]
            hiddens = [init for _ in self.dec_layers]
            for t in range(max_len):
                logits = self._decoder_step(x, hiddens, h_enc, enc_mask, projected).data
                logits[:, PAD] = -np.inf
                logits[:, BOS] = -np.inf
                if t == 0:
                    logits[:, EOS] = -np.inf
                tok = logits.argmax(axis=1)
                grid[rows, t] = tok
                going = tok != EOS
                if not going.all():
                    lengths[rows[~going]] = t
                    rows, tok = rows[going], tok[going]
                    hiddens = [Tensor(h.data[going]) for h in hiddens]
                    if h_enc is not None:
                        h_enc, enc_mask = Tensor(h_enc.data[going]), enc_mask[going]
                if rows.size == 0:
                    break
                x, projected = T.take_rows(tokens, tok), table
        return [row[:n] for row, n in zip(grid, lengths.tolist())], lengths == max_len

    def translate_batch(self, sentences, out_lang: int
                        ) -> tuple[list[np.ndarray], np.ndarray]:
        """Greedy translation with attention over the input states."""
        with T.no_grad():
            h_enc, pooled, mask = self.encode_batch(sentences)
        return self.decode_greedy_batch(pooled, h_enc, mask, out_lang)

    def translate(self, sentences, out_lang: int) -> list[np.ndarray]:
        """Greedy translations of a whole list, 64 sentences per batch.

        A row's logits can differ in their last bits with the padded length
        of its batch (the attention softmax sums over it), so the fixed
        chunking is part of the result.
        """
        decoded = []
        for start in range(0, len(sentences), 64):
            decoded.extend(self.translate_batch(sentences[start : start + 64], out_lang)[0])
        return decoded
