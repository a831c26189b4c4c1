"""Shared encoder/decoder: pooling, decoding contracts, NLL, gradients."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from extractedit import tensor as T
from extractedit.model import SRC, TGT, ModelConfig, TranslationModel, pad_batch
from extractedit.optim import Adam
from extractedit.tensor import DegenerateInputError, Tape, Tensor
from extractedit.text import BOS, EOS, PAD

from conftest import check_grad, encoder_params


def tiny_model(d=8, layers=2, vocab=20, seed=0, max_len=12) -> TranslationModel:
    cfg = ModelConfig(vocab_size=vocab, hidden_size=d, layers=layers, max_len=max_len)
    return TranslationModel(cfg, np.random.default_rng(seed))


class TestEncode:
    def test_single_token_embedding_is_its_hidden_state(self):
        """Max-pool over one element is that element."""
        m = tiny_model()
        h_seq, pooled, _ = m.encode_batch([np.array([5])])
        np.testing.assert_array_equal(pooled.data[0], h_seq.data[0, 0])

    def test_identical_sentences_identical_embeddings(self):
        m = tiny_model()
        s = np.array([4, 9, 6])
        _, e1, _ = m.encode_batch([s])
        _, e2, _ = m.encode_batch([s])
        np.testing.assert_array_equal(e1.data, e2.data)

    def test_hidden_state_count_equals_input_length(self):
        m = tiny_model()
        h_seq, _, _ = m.encode_batch([np.array([4, 5, 6, 7])])
        assert h_seq.data.shape[1] == 4

    def test_pad_invariance_of_pooled_embedding(self):
        """Batching a short sentence with a long one must not change it."""
        m = tiny_model()
        short, long_ = np.array([4, 5]), np.array([6, 7, 8, 9, 10])
        _, e_alone, _ = m.encode_batch([short])
        _, pooled, _ = m.encode_batch([short, long_])
        np.testing.assert_allclose(pooled.data[0], e_alone.data[0], atol=1e-15)

    def test_empty_sentence_rejected(self):
        with pytest.raises(DegenerateInputError):
            tiny_model().encode_batch([np.array([], dtype=np.int64)])

    @pytest.mark.parametrize("d", [8, 64])
    def test_embedding_independent_of_batch(self, d):
        """A sentence's pooled row is bit-identical in every batch it joins."""
        m = tiny_model(d=d, vocab=30)
        r = np.random.default_rng(d)
        s = r.integers(4, 30, size=5)
        shorter = [r.integers(4, 30, size=n) for n in (1, 2, 3, 4)]
        longer = [r.integers(4, 30, size=n) for n in (6, 9, 12)]
        many = [r.integers(4, 30, size=r.integers(1, 13)) for _ in range(255)]
        with T.no_grad():
            _, alone, _ = m.encode_batch([s])
            batches = ((shorter + [s], 4), ([s] + longer, 0),
                       (shorter[:2] + [s] + longer, 2), (many[:100] + [s] + many[100:], 100))
            for batch, pos in batches:
                _, pooled, _ = m.encode_batch(batch)
                np.testing.assert_array_equal(pooled.data[pos], alone.data[0])

    def test_encoder_gradient_matches_fd(self, rng):
        """cosine(e_s, fixed) wrt encoder weights, rel err < 1e-4, d_h=8."""
        m = tiny_model(d=8, layers=2)
        s = np.array([4, 7, 5, 9])
        fixed = Tensor(rng.normal(size=8))
        params = encoder_params(m)

        def loss():
            _, e, _ = m.encode_batch([s])
            return T.cosine(T.reshape(e, (8,)), fixed)

        check_grad(loss, list(params.values()), tol=1e-4, max_coords=6, rng=rng)

    def test_weight_sharing_object_identity(self):
        """Both languages encode through the same parameter objects."""
        m = tiny_model()
        assert encoder_params(m)["embedding"] is m.embedding
        p1 = m.named_parameters()
        p2 = m.named_parameters()
        for k in p1:
            assert p1[k] is p2[k]


def unpacked_encode(m: TranslationModel, sentences) -> tuple[Tensor, Tensor]:
    """Reference encoder that runs every row at every step and freezes
    finished rows with the blend h = mask * h_new + (1 - mask) * h."""
    ids, _, mask = pad_batch(sentences)
    b, t_max = ids.shape
    xs = [T.take_rows(m.embedding, ids[:, t]) for t in range(t_max)]
    for layer in m.enc_layers:
        h = Tensor(np.zeros((b, m.config.hidden_size)))
        outs = []
        for t in range(t_max):
            keep = mask[:, t : t + 1].astype(np.float64)
            h = Tensor(keep) * T.gru_step(xs[t], h, *layer.values()) + Tensor(1.0 - keep) * h
            outs.append(h)
        xs = outs
    h_seq = T.stack(xs)
    pad = Tensor(np.where(mask, 0.0, -1e30)[:, :, None])  # pool over valid steps only
    return h_seq, T.max_over_time(h_seq + pad)


class TestPackedEncoder:
    """encode_batch runs each time step on the rows still inside their
    sentence; frozen rows must behave exactly as if masked."""

    def test_ragged_batch_gradient_matches_fd(self, rng):
        m = tiny_model(d=6, layers=2)
        sents = [rng.integers(4, 20, size=n) for n in (3, 1, 5, 2, 4)]
        w_pool = Tensor(rng.normal(size=(5, 6)))
        w_seq = Tensor(rng.normal(size=(5, 5, 6)))

        def loss():
            h_seq, pooled, _ = m.encode_batch(sents)
            return T.tsum(pooled * w_pool) + T.tsum(h_seq * w_seq)

        check_grad(loss, list(encoder_params(m).values()), tol=1e-4,
                   max_coords=8, rng=rng)

    def test_pooling_sees_only_valid_steps(self, rng):
        """Pooling takes no mask: a padded step holds its row's last valid
        state, so the max over all steps is the max over the valid ones,
        and the gradient of the pooled row reaches no padded step."""
        m = tiny_model(d=16, layers=2, vocab=30)
        lengths = rng.integers(1, 9, size=24)
        lengths[:2] = 1, 8
        sents = [rng.integers(4, 30, size=n) for n in lengths]
        with Tape() as tape:
            h_seq, pooled, mask = m.encode_batch(sents)
            loss = T.tsum(pooled * Tensor(rng.normal(size=pooled.data.shape)))
        (node,) = [n for n in tape.nodes if n.out is pooled]
        bwd, seen = node.bwd, []

        def spy(og):  # the gradient the pooling hands to the (B, T, d) states
            grads = bwd(og)
            seen.extend(grads)
            return grads

        node.bwd = spy
        tape.backward(loss)
        (g,) = seen
        for i, n in enumerate(lengths):
            valid, padded = h_seq.data[i, :n], h_seq.data[i, n:]
            np.testing.assert_array_equal(padded, np.broadcast_to(valid[-1], padded.shape))
            np.testing.assert_array_equal(pooled.data[i], valid.max(axis=0))
            assert not g[i, n:].any() and g[i, :n].any()
        assert not mask.all()

    @pytest.mark.parametrize("rows, d", [(48, 32), (400, 64)])
    def test_bit_exact_against_unpacked_oracle(self, rng, rows, d):
        """48 rows reach the short products whose rows round differently;
        400 rows reach the weight-gradient sums that change when zero rows
        are dropped."""
        m = tiny_model(d=d, layers=2, vocab=40)
        lengths = rng.integers(1, 13, size=rows)
        lengths[5] = 1
        sents = [rng.integers(4, 40, size=n) for n in lengths]
        w_pool = rng.normal(size=(rows, d))
        w_seq = rng.normal(size=(rows, int(lengths.max()), d))
        params = m.named_parameters()

        def run(encode):
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                h_seq, pooled = encode()
                loss = T.tsum(pooled * Tensor(w_pool)) + T.tsum(h_seq * Tensor(w_seq))
            tape.backward(loss)
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            return h_seq.data, pooled.data, grads

        h_seq, pooled, grads = run(lambda: m.encode_batch(sents)[:2])
        ref_seq, ref_pooled, ref_grads = run(lambda: unpacked_encode(m, sents))
        with T.no_grad():  # a step that is not recorded takes its own early return
            ng_seq, ng_pooled, _ = m.encode_batch(sents)
        np.testing.assert_array_equal(h_seq, ref_seq)
        np.testing.assert_array_equal(pooled, ref_pooled)
        np.testing.assert_array_equal(ng_seq.data, h_seq)
        np.testing.assert_array_equal(ng_pooled.data, pooled)
        assert grads.keys() == ref_grads.keys() == encoder_params(m).keys()
        for k in grads:
            np.testing.assert_array_equal(grads[k], ref_grads[k], err_msg=k)

    def test_tape_state_per_live_row_step(self):
        """Beyond the outputs of its nodes, a taped encode of a ragged batch
        holds under 5 * d floats per live row and layer step: gru_step keeps
        rz, the candidate third of h @ w_hh and n (4 * d), and the rest is
        per-step overhead. Keeping all of gh, h's live rows or 1 - z would
        cross the bound."""
        d, layers = 64, 2
        m = tiny_model(d=d, layers=layers, vocab=40)
        r = np.random.default_rng(1)
        lengths = r.integers(1, 13, size=32)
        sents = [r.integers(4, 40, size=n) for n in lengths]
        gc.collect()
        tracemalloc.start()
        try:
            with Tape() as tape:
                h_seq, pooled, _ = m.encode_batch(sents)
            held = tracemalloc.get_traced_memory()[0]
            outputs = sum(node.out.data.nbytes for node in tape.nodes
                          if node.out is not h_seq and node.out is not pooled)
            del tape
            gc.collect()
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_row_step = (released - outputs) / (layers * int(lengths.sum()))
        assert 0 < per_row_step < 5 * d * 8

    def test_work_is_live_rows_only(self, rng, monkeypatch):
        m = tiny_model(layers=2)
        lengths = [4, 1, 7, 7, 2, 5]
        rows = []
        real_step = T.gru_step

        def spy(x, h, *weights, live=None):
            rows.append(x.data.shape[0] if live is None else len(live))
            return real_step(x, h, *weights, live=live)

        monkeypatch.setattr(T, "gru_step", spy)
        m.encode_batch([rng.integers(4, 20, size=n) for n in lengths])
        assert len(rows) == 2 * max(lengths)
        assert sum(rows) == 2 * sum(lengths)


def full_height_decode(m: TranslationModel, init: Tensor, h_enc: Tensor | None,
                       enc_mask: np.ndarray | None, lang: int
                       ) -> tuple[list[np.ndarray], np.ndarray]:
    """Reference greedy decoder that runs every row at every step, feeding a
    finished row PAD, and projects each step's embedding rows through w_ih,
    until every row has emitted EOS or max_len steps have run."""
    b = init.data.shape[0]
    hiddens = [init for _ in m.dec_layers]
    tok = np.full(b, BOS)
    done = np.zeros(b, dtype=bool)
    steps = []
    with T.no_grad():
        for t in range(m.config.max_len):
            x = T.take_rows(m.embedding, tok)
            if t == 0:
                x = x + T.take_rows(m.lang_emb, np.full(b, lang))
            for i, layer in enumerate(m.dec_layers):
                hiddens[i] = x = T.gru_step(x, hiddens[i], *layer.values())
            if h_enc is not None:
                ctx = T.attend(x, h_enc, enc_mask)
                x = T.tanh(T.matmul(T.concat([x, ctx]), m.w_att) + m.b_att)
            logits = (T.matmul(x, m.w_out) + m.b_out).data
            logits[:, [PAD, BOS]] = -np.inf
            if t == 0:
                logits[:, EOS] = -np.inf
            tok = logits.argmax(axis=1)
            tok[done] = PAD
            done |= tok == EOS
            steps.append(tok)
            if done.all():
                break
    grid = np.stack(steps, axis=1)
    return [row[(row != PAD) & (row != EOS)] for row in grid], ~done


def ragged_decode_inputs(attention: bool, d: int, vocab: int, rows: int):
    """A model whose greedy rows stop at many different steps (a larger EOS
    output column), with the arguments of one decode_greedy_batch call over
    ``rows`` encoded sentences: on the attention path or the edit path."""
    m = tiny_model(d=d, vocab=vocab, seed=1, max_len=14)
    m.w_out.data[:, EOS] *= 3.0
    r = np.random.default_rng(0)
    sents = [r.integers(4, vocab, size=r.integers(1, 10)) for _ in range(rows)]
    with T.no_grad():
        h_enc, pooled, mask = m.encode_batch(sents)
    return m, (pooled, h_enc, mask) if attention else (pooled, None, None)


def rows_of(args, idx) -> tuple:
    """The decode arguments of the batch rows ``idx``; ``h_enc`` keeps its
    padded length."""
    init, h_enc, mask = args
    if h_enc is None:
        return Tensor(init.data[idx]), None, None
    return Tensor(init.data[idx]), Tensor(h_enc.data[idx]), mask[idx]


DECODE_CASES = [pytest.param(a, d, v, n, id=f"{'attention' if a else 'edit'}-d{d}")
                for a in (True, False) for d, v, n in ((8, 20, 24), (64, 100, 64))]


class TestGreedyDecode:
    def test_deterministic(self):
        m = tiny_model()
        s = np.array([4, 5, 6])
        out1, _ = m.translate_batch([s], TGT)
        out2, _ = m.translate_batch([s], TGT)
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_never_emits_pad_or_bos(self, rng):
        m = tiny_model(seed=3)
        for _ in range(20):
            s = rng.integers(4, 20, size=rng.integers(1, 9))
            out, _ = m.translate_batch([s], int(rng.integers(0, 2)))
            assert PAD not in out[0] and BOS not in out[0] and EOS not in out[0]

    def test_eos_rigged_decoder_still_emits_one_token(self):
        """Even if EOS is always the argmax, the first step must produce a token."""
        m = tiny_model()
        m.b_out.data[:] = 0.0
        m.b_out.data[EOS] = 50.0  # EOS dominates every step
        m.w_out.data[:] = 0.0
        out, truncated = m.translate_batch([np.array([4, 5])], TGT)
        assert len(out[0]) >= 1
        assert not truncated[0]

    def test_truncation_flagged(self):
        m = tiny_model(max_len=5)
        m.w_out.data[:] = 0.0
        m.b_out.data[:] = 0.0
        m.b_out.data[7] = 50.0  # never emits EOS
        out, truncated = m.translate_batch([np.array([4, 5])], TGT)
        assert truncated[0]
        assert len(out[0]) == 5

    def test_vector_conditioned_decode_deterministic(self, rng):
        m = tiny_model()
        v = Tensor(rng.normal(size=(2, 8)))
        a, _ = m.decode_greedy_batch(v, None, None, TGT)
        b, _ = m.decode_greedy_batch(v, None, None, TGT)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("attention, d, vocab, rows", DECODE_CASES)
    def test_rows_stopping_at_different_steps_decode_as_alone(self, attention, d, vocab,
                                                              rows):
        """Each row's tokens and truncation flag equal its one-row decode's,
        and the batch equals the full-height reference, bit for bit."""
        m, args = ragged_decode_inputs(attention, d, vocab, rows)
        out, truncated = m.decode_greedy_batch(*args, TGT)
        stopped = {len(s) for s, cut in zip(out, truncated) if not cut}
        assert len(stopped) >= 4 and truncated.any()
        ref, ref_truncated = full_height_decode(m, *args, TGT)
        np.testing.assert_array_equal(truncated, ref_truncated)
        for i in range(rows):
            np.testing.assert_array_equal(out[i], ref[i])
            alone, cut = m.decode_greedy_batch(*rows_of(args, [i]), TGT)
            np.testing.assert_array_equal(alone[0], out[i])
            assert cut[0] == truncated[i]

    @pytest.mark.parametrize("attention, d, vocab, rows", DECODE_CASES)
    def test_batch_collapsing_to_one_live_row(self, attention, d, vocab, rows, monkeypatch):
        """Rows that stop early and the one that runs longest: once the others
        leave, the steps run one row high, and each step computes only the
        rows still decoding; the outputs equal the reference's."""
        m, args = ragged_decode_inputs(attention, d, vocab, rows)
        out, truncated = m.decode_greedy_batch(*args, TGT)
        lengths = np.array([len(s) for s in out])
        longest = int(np.argmax(lengths))
        pick = [longest, *np.flatnonzero(lengths < lengths[longest] - 1)[:6]]
        assert len(pick) > 2
        sub = rows_of(args, pick)
        heights = []
        real_step = T.gru_step

        def spy(x, h, *weights, **kwargs):
            heights.append(x.data.shape[0])
            return real_step(x, h, *weights, **kwargs)

        monkeypatch.setattr(T, "gru_step", spy)
        got, cut = m.decode_greedy_batch(*sub, TGT)
        monkeypatch.undo()
        assert heights[-1] == 1
        steps = [m.config.max_len if truncated[i] else lengths[i] + 1 for i in pick]
        assert sum(heights) == m.config.layers * sum(steps)
        ref, ref_cut = full_height_decode(m, *sub, TGT)
        np.testing.assert_array_equal(cut, ref_cut)
        np.testing.assert_array_equal(cut, truncated[pick])
        for a, b, i in zip(got, ref, pick):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, out[i])

    @pytest.mark.parametrize("rows, table", [(7, False), (8, True)])
    def test_token_table_only_below_the_row_steps(self, rows, table, monkeypatch):
        """Layer 0 reads a token table after step 0 only when the vocabulary
        (100) has fewer tokens than rows × max_len (14); step 0 is always the
        one projected BOS row. Either way the outputs equal the reference's."""
        m, args = ragged_decode_inputs(True, 8, 100, rows)
        projected = []
        real_step = T.gru_step

        def spy(x, h, w_ih, *weights, **kwargs):
            if w_ih is None or w_ih is m.dec_layers[0]["w_ih"]:
                projected.append(w_ih is None)
            return real_step(x, h, w_ih, *weights, **kwargs)

        monkeypatch.setattr(T, "gru_step", spy)
        got, cut = m.decode_greedy_batch(*args, TGT)
        monkeypatch.undo()
        assert len(projected) > 2
        assert projected == [True] + [table] * (len(projected) - 1)
        ref, ref_cut = full_height_decode(m, *args, TGT)
        np.testing.assert_array_equal(cut, ref_cut)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


class TestNLL:
    def test_uniform_distribution_gives_log_vocab(self):
        """Zeroed projection => uniform over the joint vocabulary => ln|V|."""
        m = tiny_model()
        m.w_out.data[:] = 0.0
        m.b_out.data[:] = 0.0
        nll = m.nll_batch([np.array([4, 5, 6])], [np.array([7, 8])], TGT)
        assert nll.item() == pytest.approx(math.log(m.config.vocab_size), abs=1e-12)

    def test_nll_non_negative(self, rng):
        m = tiny_model(seed=5)
        for _ in range(10):
            s = rng.integers(4, 20, size=rng.integers(1, 6))
            r = rng.integers(4, 20, size=rng.integers(1, 6))
            assert m.nll_batch([s], [r], SRC).item() >= 0.0

    def test_overfit_probe_strictly_decreases(self):
        """NLL decreases over 50 optimizer steps on one fixed pair."""
        m = tiny_model(d=16, layers=1, seed=2)
        s, r = np.array([4, 5, 6, 7]), np.array([9, 8, 7])
        opt = Adam(m.named_parameters(), lr=3e-3)
        first = last = None
        for _ in range(50):
            opt.zero_grad()
            with Tape() as tape:
                loss = m.nll_batch([s], [r], TGT)
            tape.backward(loss)
            opt.step()
            if first is None:
                first = loss.item()
            last = loss.item()
        assert last < first * 0.5

    def test_nll_gradient_matches_fd(self, rng):
        m = tiny_model(d=6, layers=1, vocab=12, seed=4)
        s, r = np.array([4, 5]), np.array([6, 7])
        params = list(m.named_parameters().values())
        check_grad(lambda: m.nll_batch([s], [r], TGT), params, tol=1e-4,
                   max_coords=4, rng=rng)


class TestCopyTask:
    def test_autoencoding_reconstructs_after_training(self, rng):
        """Trained oracle: 200 steps of plain autoencoding on 50 short
        sentences reaches >= 0.9 exact-match reconstruction (d_h=32)."""
        m = tiny_model(d=32, layers=1, vocab=24, seed=1)
        sents = [rng.integers(4, 24, size=rng.integers(2, 5)) for _ in range(50)]
        opt = Adam(m.named_parameters(), lr=3e-3)
        order = np.random.default_rng(0)
        for _ in range(200):
            batch = [sents[i] for i in order.integers(0, 50, size=16)]
            opt.zero_grad()
            with Tape() as tape:
                loss = m.nll_batch(batch, batch, SRC)
            tape.backward(loss)
            opt.step()
        decoded, _ = m.translate_batch(sents, SRC)
        exact = sum(np.array_equal(d, s) for d, s in zip(decoded, sents))
        assert exact >= 45

    def test_converged_autoencoder_nll_below_band(self, rng):
        """Sanity band: NLL on the copy task ends below ln|V|/4."""
        m = tiny_model(d=32, layers=1, vocab=24, seed=1)
        sents = [rng.integers(4, 24, size=rng.integers(2, 5)) for _ in range(50)]
        opt = Adam(m.named_parameters(), lr=3e-3)
        order = np.random.default_rng(0)
        for _ in range(200):
            batch = [sents[i] for i in order.integers(0, 50, size=16)]
            opt.zero_grad()
            with Tape() as tape:
                loss = m.nll_batch(batch, batch, SRC)
            tape.backward(loss)
            opt.step()
        with Tape() as tape:
            final = m.nll_batch(sents, sents, SRC)
        assert final.item() < math.log(24) / 4


class TestPadBatch:
    def test_shapes_and_mask(self):
        ids, lengths, mask = pad_batch([np.array([4, 5]), np.array([6])])
        assert ids.shape == (2, 2)
        np.testing.assert_array_equal(lengths, [2, 1])
        np.testing.assert_array_equal(mask, [[True, True], [True, False]])
        assert ids[1, 1] == PAD
