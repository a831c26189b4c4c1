"""Training orchestration: losses, alternation, isolation, determinism, resume."""

from __future__ import annotations

import math

import numpy as np
import pytest

from extractedit import tensor as T
from extractedit import training
from extractedit.checkpoint import (CheckpointError, load_json, load_tensors, save_json,
                                    save_tensors)
from extractedit.cipher import CipherSpec, full_vocab_dictionary, generate_cipher_pair
from extractedit.engine import (
    EvaluationNetwork,
    edit_batch,
    embed_sentences,
    extract_topk_batch,
    score_candidates_batch,
)
from extractedit.model import SRC, TGT, TranslationModel
from extractedit.optim import Adam
from extractedit.tensor import Tape, Tensor
from extractedit.text import RESERVED_TOKENS, Vocabulary
from extractedit.training import (
    METRIC_COLUMNS,
    TrainConfig,
    Trainer,
    comparative_loss,
    evaluator_loss,
)

from conftest import check_grad, encoder_params


def micro_pair(seed=1, vocab=30, n_train=150, window=1):
    spec = CipherSpec(vocab_size=vocab, seed=seed, substitution_seed=2, window=window,
                      n_train=n_train, n_valid=30, n_test=40, len_min=2, len_max=6)
    return generate_cipher_pair(spec)


def micro_trainer(pair, **overrides) -> Trainer:
    base = dict(seed=0, hidden_size=16, layers=1, eval_hidden=16, eval_out=16,
                batch_size=8, k=3, episode_len=25, pretrain_steps=10, main_steps=10,
                valid_interval=0, checkpoint_interval=0, max_len=8, lr=1e-3,
                lr_evaluator=1e-3)
    base.update(overrides)
    cfg = TrainConfig(**base)
    return Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train,
                   pair.src_valid, pair.tgt_valid,
                   oracle_dictionary=full_vocab_dictionary(pair))


@pytest.fixture(scope="module")
def pair():
    return micro_pair()


class TestConfig:
    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(k=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(omega_lm=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(mode="nonsense").validate()

    @pytest.mark.parametrize("key", ["batch_size", "hidden_size", "layers", "eval_hidden",
                                     "eval_out", "max_len"])
    def test_sizes_must_be_positive(self, key):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: 0}).validate()
        TrainConfig(**{key: 1}).validate()

    @pytest.mark.parametrize("key, bad, good", [("p_drop", 1.0, 0.0), ("p_drop", -0.1, 0.5),
                                                ("shuffle_window", -1, 0)])
    def test_noise_settings_checked(self, key, bad, good):
        """apply_noise would refuse these at the first step; validate does first."""
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: bad}).validate()
        TrainConfig(**{key: good}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["lr", "lr_evaluator", "omega_lm", "omega_com", "lam"])
    def test_rates_and_weights_must_be_finite(self, key, bad):
        """A non-finite rate or weight would fail only at the first step."""
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrainConfig(**{key: bad}).validate()

    @pytest.mark.parametrize("key", ["lr", "lr_evaluator", "valid_interval",
                                     "checkpoint_interval", "seed"])
    def test_rates_and_intervals_must_be_non_negative(self, key):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: -1}).validate()
        TrainConfig(**{key: 0}).validate()  # an interval of 0 turns it off

    @pytest.mark.parametrize("key, bad, message", [
        ("pretrain_steps", -1, "step counts must be >= 0"),
        ("main_steps", -1, "step counts must be >= 0"),
        ("init_mode", "dictionary", "init_mode must be oracle or random, got 'dictionary'"),
        ("episode_len", 0, "episode_len must be >= 1"),
    ], ids=["pretrain_steps", "main_steps", "init_mode", "episode_len"])
    def test_step_counts_init_mode_and_episode_length_checked(self, key, bad, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{key: bad}).validate()

    @pytest.mark.parametrize("mode", ["extract-edit", "back-translation"])
    def test_k_beyond_either_training_corpus_rejected_at_construction(self, pair, mode):
        """Validation extracts in both directions in either mode, so k is
        checked against the smaller training corpus before any step runs."""
        with pytest.raises(ValueError, match=r"k must be in \[1, 150\]"):
            micro_trainer(pair, mode=mode, k=151)
        cfg = TrainConfig(mode=mode, k=5, init_mode="random")
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train[:4])
        micro_trainer(pair, mode=mode, k=150)

    @pytest.mark.parametrize("corrupt", [
        lambda t: np.concatenate([t[:5], t[6:7], t[6:]]),
        lambda t: t[:-3],
        lambda t: np.concatenate([t[:-1], [t.size]]),
    ], ids=["two-to-one", "truncated", "out-of-range"])
    def test_oracle_dictionary_must_be_a_permutation(self, pair, corrupt):
        """A table that is not a permutation of the vocabulary ids has no
        inverse to translate into the source language: refused at
        construction, by name."""
        table = corrupt(full_vocab_dictionary(pair))
        with pytest.raises(ValueError, match="oracle dictionary is not a permutation"):
            Trainer(TrainConfig(), pair.vocab, pair.src_train, pair.tgt_train,
                    oracle_dictionary=table)


class TestPretraining:
    def test_initial_loss_near_log_vocab(self, pair):
        """Untrained predictions are uniform-ish: per-token NLL within a
        factor of two of ln|V|."""
        tr = micro_trainer(pair, init_mode="random")
        tr.pretrain_step()
        loss_lm = float(tr.state.metric_rows[0][3]) / 2  # two languages summed
        assert math.log(pair.vocab.size) / 2 < loss_lm < math.log(pair.vocab.size) * 2

    def test_smoothed_curve_non_increasing(self, pair):
        """Window-averaged pretraining loss never goes back up."""
        tr = micro_trainer(pair, init_mode="random", pretrain_steps=250, main_steps=0)
        for _ in range(250):
            tr.pretrain_step()
        losses = np.array([float(r[2]) for r in tr.state.metric_rows])
        windows = losses.reshape(5, 50).mean(axis=1)
        assert np.all(np.diff(windows) <= 0.02)

    def test_noise_free_pretraining_is_plain_autoencoding(self):
        """With the noise model off the objective reduces to autoencoding:
        a converged run copies its training sentences back exactly."""
        rng = np.random.default_rng(0)
        spec = CipherSpec(vocab_size=24, seed=5, substitution_seed=None, window=0,
                          n_train=100, n_valid=10, n_test=10, len_min=2, len_max=4)
        pair = generate_cipher_pair(spec)
        tr = micro_trainer(pair, init_mode="random", p_drop=0.0, shuffle_window=0,
                           hidden_size=32, pretrain_steps=400, main_steps=0, lr=3e-3,
                           batch_size=16)
        for _ in range(400):
            tr.pretrain_step()
        sents = [pair.src_train[i] for i in range(50)]
        decoded, _ = tr.model.translate_batch(sents, SRC)
        exact = sum(np.array_equal(d, s) for d, s in zip(decoded, sents))
        assert exact >= 45


def direction(tr, sources, t_star, edited) -> training._DirectionBatch:
    """One direction of a step, its sources encoded in their own batch as the
    trainer does; recorded when called under a tape."""
    return training._DirectionBatch(t_star=t_star, edited=edited,
                                    e_src=tr.model.encode_batch(sources)[1])


def embed(tr, sources, t_star, edited):
    """(e_s (B,d), cand (B,k+1,d)) as the trainer builds them for one
    direction: the k = len(edited) // B edits of each source, row-major,
    then its translation in the last slot. Differentiable under a tape."""
    b = len(sources)
    k = len(edited) // b
    assert tr.config.k == k
    (e_s, cand), = tr._encode_directions([direction(tr, sources, t_star, edited)])
    return e_s, cand


def two_way_probs(tr, source, t_edit, t_star, lam):
    """Ranking probabilities of (t_edit, t_star) computed one sentence at a
    time: scaled softmax of joint-space cosines to the source."""
    with T.no_grad():
        _, e_s, _ = tr.model.encode_batch([source])
        r_s = tr.evaluator.forward(Tensor(e_s.data)).data[0]
        alphas = []
        for sent in (t_edit, t_star):
            _, e, _ = tr.model.encode_batch([sent])
            r = tr.evaluator.forward(Tensor(e.data)).data[0]
            alphas.append(float(np.dot(r, r_s) / (np.linalg.norm(r) * np.linalg.norm(r_s))))
    z = [math.exp(lam * a) for a in alphas]
    return z[0] / sum(z), z[1] / sum(z)


class TestComparativeLoss:
    def test_uniform_candidates_anchor(self, pair):
        """All k+1 candidates identical: loss is exactly ln(k+1)."""
        tr = micro_trainer(pair, k=10)
        s = pair.src_train[0]
        t = pair.tgt_train[0]
        loss = comparative_loss(*embed(tr, [s], [t], [t] * 10), tr.evaluator, lam=0.5)
        assert loss.item() == pytest.approx(math.log(11), abs=1e-9)

    def test_single_competitor_matches_direct_formula(self, pair, rng):
        """One edited competitor: loss equals the two-way softmax formula."""
        tr = micro_trainer(pair, k=1)
        s, t_star, t_edit = pair.src_train[0], pair.tgt_train[1], pair.tgt_train[2]
        lam = 0.5
        loss = comparative_loss(*embed(tr, [s], [t_star], [t_edit]), tr.evaluator, lam)
        p_edit, p_star = two_way_probs(tr, s, t_edit, t_star, lam)
        assert loss.item() == pytest.approx(-math.log(p_star), abs=1e-12)

    def test_gradient_reaches_encoder_only(self, pair, rng):
        """Finite differences over encoder params; decoder params get no
        gradient at all from the comparative loss."""
        tr = micro_trainer(pair, hidden_size=8, eval_hidden=8, eval_out=8, k=2)
        s, t_star = pair.src_train[0], pair.tgt_train[1]
        edited = [pair.tgt_train[2], pair.tgt_train[3]]

        enc = list(encoder_params(tr.model).values())
        check_grad(
            lambda: comparative_loss(*embed(tr, [s], [t_star], edited), tr.evaluator, 0.5),
            enc, tol=1e-4, max_coords=3, rng=rng)

        for p in tr.model.named_parameters().values():
            p.grad = None
        with Tape() as tape:
            loss = comparative_loss(*embed(tr, [s], [t_star], edited), tr.evaluator, 0.5)
        tape.backward(loss)
        for name, p in tr.model.named_parameters().items():
            if name.startswith("decoder."):
                assert p.grad is None, f"{name} received gradient from the comparative loss"

    def test_gradient_through_repeated_candidates(self, pair, rng):
        """Finite differences over encoder params when slots repeat a
        sentence (a repeated source, an edit repeated within and across
        sources, a translation that is also an edit): the gather's
        scatter-add backward sums the slots before the encoder backward."""
        tr = micro_trainer(pair, hidden_size=8, eval_hidden=8, eval_out=8, k=2)
        s, t = pair.src_train[0], pair.tgt_train[1]
        sources, t_star = [s, s], [pair.tgt_train[2], t]
        edited = [t, t, t, pair.tgt_train[3]]

        enc = list(encoder_params(tr.model).values())
        check_grad(
            lambda: comparative_loss(*embed(tr, sources, t_star, edited), tr.evaluator, 0.5),
            enc, tol=1e-4, max_coords=3, rng=rng)


class TestEvaluatorLoss:
    def test_uniform_candidates_anchor(self, pair):
        tr = micro_trainer(pair, k=10)
        t = pair.tgt_train[0]
        loss = evaluator_loss(*embed(tr, [pair.src_train[0]], [t], [t] * 10),
                              tr.evaluator, 0.5)
        assert loss.item() == pytest.approx(math.log(11), abs=1e-9)

    def test_single_competitor_matches_direct_formula(self, pair):
        """One edited candidate: loss is -log of its two-way probability."""
        tr = micro_trainer(pair, k=1)
        s, t_star, t_edit = pair.src_train[0], pair.tgt_train[1], pair.tgt_train[2]
        loss = evaluator_loss(*embed(tr, [s], [t_star], [t_edit]), tr.evaluator, 0.5)
        p_edit, _ = two_way_probs(tr, s, t_edit, t_star, 0.5)
        assert loss.item() == pytest.approx(-math.log(p_edit), abs=1e-12)

    def test_non_negative(self, pair, rng):
        tr = micro_trainer(pair, k=2)
        for _ in range(5):
            ids = rng.integers(0, len(pair.tgt_train), size=4)
            loss = evaluator_loss(
                *embed(tr, [pair.src_train[int(ids[0])]], [pair.tgt_train[int(ids[1])]],
                       [pair.tgt_train[int(i)] for i in ids[2:]]),
                tr.evaluator, 0.5)
            assert loss.item() >= 0.0

    def test_encoder_frozen_in_evaluator_pass(self, pair):
        """The trainer hands the evaluator update detached embeddings:
        the evaluation network gets gradient, the encoder none."""
        tr = micro_trainer(pair, k=2)
        for p in tr.model.named_parameters().values():
            p.grad = None
        with Tape():
            e_s, cand = embed(tr, [pair.src_train[0]], [pair.tgt_train[0]],
                              [pair.tgt_train[1], pair.tgt_train[2]])
        with Tape() as tape:
            loss = evaluator_loss(Tensor(e_s.data), Tensor(cand.data), tr.evaluator, 0.5)
        tape.backward(loss)
        assert all(p.grad is None for p in tr.model.named_parameters().values())
        assert any(p.grad is not None for p in tr.evaluator.named_parameters().values())

    def test_separable_embeddings_loss_decreases(self, rng):
        """20 evaluator-only updates on frozen, linearly separable
        embeddings strictly reduce the ranking loss."""
        ev = EvaluationNetwork(8, rng, hidden=16, d_out=8)
        opt = Adam(ev.named_parameters(), lr=3e-3)
        u = rng.normal(size=8)
        edited = np.stack([u + 0.05 * rng.normal(size=8) for _ in range(4)])
        t_star = -u + 0.05 * rng.normal(size=8)
        e_s = rng.normal(size=8)
        cand = Tensor(np.concatenate([edited, t_star[None, :]])[None, :, :])
        query = Tensor(e_s[None, :])

        first = last = None
        for _ in range(20):
            opt.zero_grad()
            with Tape() as tape:
                loss = evaluator_loss(query, cand, ev, 0.5)
            tape.backward(loss)
            opt.step()
            if first is None:
                first = loss.item()
            last = loss.item()
        assert last < first


class TestAdversarialStep:
    def test_zero_comparative_weight_matches_pretraining(self, pair):
        """omega_com=0 makes the generator update identical to a
        language-modeling step: parameter trajectories agree bit-exactly."""
        a = micro_trainer(pair, init_mode="random", omega_com=0.0,
                          pretrain_steps=4, main_steps=3)
        b = micro_trainer(pair, init_mode="random", omega_com=0.0,
                          pretrain_steps=7, main_steps=0)
        for _ in range(4):
            a.pretrain_step()
        for _ in range(3):
            a.adversarial_step()
        for _ in range(7):
            b.pretrain_step()
        for k, p in a.model.named_parameters().items():
            np.testing.assert_array_equal(p.data, b.model.named_parameters()[k].data,
                                          err_msg=k)

    def test_sharp_ranking_stays_finite(self, pair):
        """At lam=1000 every ranking probability but the largest underflows to
        zero; the ranking is read as log-probabilities, so extract-edit steps
        and validation still give finite losses and D."""
        tr = micro_trainer(pair, lam=1000.0, pretrain_steps=5, main_steps=5)
        tr.run()
        main = tr.state.metric_rows[5:]
        assert [r[1] for r in main] == ["extract-edit"] * 5
        assert np.all(np.isfinite([[float(x) for x in r[2:6]] for r in main]))
        assert np.all(np.isfinite(tr.validate()))

    def test_zero_comparative_weight_logs_the_comparative_loss(self, pair, tmp_path):
        """The LM-only arm logs the comparative loss it does not optimize:
        from one restored state, an omega_com=0 step and an omega_com=1 step
        log the same loss_com."""
        start = micro_trainer(pair, pretrain_steps=3, main_steps=1)
        start.run(until=3)
        ckpt = start.save_checkpoint(tmp_path / "ck")
        logged = []
        for omega_com in (0.0, 1.0):
            tr = micro_trainer(pair, pretrain_steps=3, main_steps=1, omega_com=omega_com)
            tr.restore(ckpt, require_same_config=False)
            tr.adversarial_step()
            logged.append(tr.state.metric_rows[-1][4])
        assert logged[0] == logged[1]
        assert float(logged[0]) > 0

    def test_update_isolation_bitwise(self, pair, monkeypatch):
        """R's update leaves enc/dec bytes untouched; the enc/dec update
        then leaves R's bytes untouched and changes its own. Both checked
        around each ``_update`` of one alternation step, in its order."""
        tr = micro_trainer(pair)
        for _ in range(3):
            tr.pretrain_step()

        def snapshot():
            return ({k: p.data.tobytes() for k, p in tr.model.named_parameters().items()},
                    {k: p.data.tobytes() for k, p in tr.evaluator.named_parameters().items()})

        after = []
        update = Trainer._update

        def spy(self, opt, *parts):
            terms = update(self, opt, *parts)
            after.append((opt, snapshot()))
            return terms

        monkeypatch.setattr(Trainer, "_update", spy)
        gen_before, eval_before = snapshot()
        tr.adversarial_step()
        (opt_r, (gen_mid, eval_mid)), (opt_g, (gen_after, eval_after)) = after
        assert opt_r is tr.opt_eval and opt_g is tr.opt_gen
        assert gen_mid == gen_before
        assert any(eval_mid[k] != v for k, v in eval_before.items())
        assert eval_after == eval_mid
        assert any(gen_after[k] != v for k, v in gen_before.items())

    def test_updates_use_the_shared_losses(self, pair, monkeypatch):
        """Both updates build their ranking terms with the loss functions
        checked above, once per direction, and log their sums."""
        seen = {"comparative_loss": [], "evaluator_loss": []}
        for name, values in seen.items():
            def spy(*args, _inner=getattr(training, name), _values=values):
                loss = _inner(*args)
                _values.append(loss.item())
                return loss
            monkeypatch.setattr(training, name, spy)
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.pretrain_step()
        tr.adversarial_step()
        row = tr.state.metric_rows[-1]
        assert len(seen["comparative_loss"]) == len(seen["evaluator_loss"]) == 2
        assert float(row[4]) == sum(seen["comparative_loss"])
        assert float(row[5]) == sum(seen["evaluator_loss"])

    def test_poisoned_evaluator_gradient_names_the_training_step(self, pair, monkeypatch):
        """A NaN in an evaluator gradient while step 8 is made (the evaluator
        optimizer's second step) raises before any parameter moves, naming
        training step 8, whose metrics row is not written."""
        tr = micro_trainer(pair, pretrain_steps=6, main_steps=4)
        w3 = tr.evaluator.named_parameters()["evaluator.w3"]
        real_step = tr.opt_eval.step

        def poisoned_step():
            if tr.state.step == 7:
                w3.grad[0, 0] = np.nan
            real_step()

        monkeypatch.setattr(tr.opt_eval, "step", poisoned_step)
        with pytest.raises(T.NonFiniteError,
                           match=r"^step 8: non-finite gradient for evaluator\.w3$"):
            tr.run()
        assert tr.state.step == 7 and len(tr.state.metric_rows) == 7
        assert tr.opt_eval.step_count == 1

    def test_non_finite_validation_names_the_training_step(self, pair, monkeypatch):
        """A NaN met while validating step 10 names step 10."""
        tr = micro_trainer(pair, pretrain_steps=6, main_steps=4, valid_interval=5)

        def validate():
            if tr.state.step == 10:
                raise T.NonFiniteError("cosine produced non-finite values")

        monkeypatch.setattr(tr, "validate", validate)
        with pytest.raises(T.NonFiniteError,
                           match="^step 10: cosine produced non-finite values$"):
            tr.run()

    def test_loss_decomposition_row(self, pair):
        """Logged total equals omega_lm * lm + omega_com * com to 1e-12."""
        tr = micro_trainer(pair, omega_lm=0.7, omega_com=1.3, pretrain_steps=2,
                           main_steps=2)
        for _ in range(2):
            tr.pretrain_step()
        for _ in range(2):
            tr.adversarial_step()
        row = tr.state.metric_rows[-1]
        total, lm, com = float(row[2]), float(row[3]), float(row[4])
        assert abs(total - (0.7 * lm + 1.3 * com)) <= 1e-12

    def test_stability_run_no_nan_decreasing_com(self, pair):
        """500 alternations: finite losses throughout, smoothed comparative
        loss lower at the end than at the start."""
        tr = micro_trainer(pair, pretrain_steps=50, main_steps=500, episode_len=50)
        for _ in range(50):
            tr.pretrain_step()
        for _ in range(500):
            tr.adversarial_step()
        com = np.array([float(r[4]) for r in tr.state.metric_rows[50:]])
        assert np.isfinite(com).all()
        assert com[-100:].mean() <= com[:100].mean()


class TestBackTranslation:
    def test_step_deterministic_given_seed(self, pair):
        a = micro_trainer(pair, mode="back-translation", pretrain_steps=3, main_steps=3)
        b = micro_trainer(pair, mode="back-translation", pretrain_steps=3, main_steps=3)
        for t in (a, b):
            t.run()
        assert a.state.metric_rows == b.state.metric_rows

    def test_perfect_translator_fixed_point(self):
        """On an identity cipher a converged autoencoder is a perfect
        translator: pseudo pairs equal the gold pairs and the
        reconstruction loss sits near the autoencoding floor."""
        spec = CipherSpec(vocab_size=24, seed=5, substitution_seed=None, window=0,
                          n_train=100, n_valid=10, n_test=10, len_min=2, len_max=4)
        pair = generate_cipher_pair(spec)
        tr = micro_trainer(pair, init_mode="random", p_drop=0.0, shuffle_window=0,
                           hidden_size=32, pretrain_steps=400, main_steps=0, lr=3e-3,
                           batch_size=16, mode="back-translation")
        for _ in range(400):
            tr.pretrain_step()
        batch = [pair.src_train[i] for i in range(16)]
        pseudo, _ = tr.model.translate_batch(batch, TGT)
        matches = sum(np.array_equal(p, s) for p, s in zip(pseudo, batch))
        assert matches >= 13
        ae_floor = float(tr.state.metric_rows[-1][3])
        tr.backtranslation_step()
        recon = float(tr.state.metric_rows[-1][4])
        assert recon <= ae_floor * 1.5 + 0.2

    def test_same_csv_schema_as_extract_edit(self, pair):
        a = micro_trainer(pair, mode="back-translation", pretrain_steps=1, main_steps=1)
        a.run()
        header = a.metrics_csv().splitlines()[0]
        assert header == ",".join(METRIC_COLUMNS)


def one_tape_main_step(tr: Trainer) -> None:
    """A main step whose generator update records every loss term on one
    tape and backpropagates their weighted sum once: the extract-edit step
    records the source and candidate encodes (and runs the evaluator update)
    before the LM term, the back-translation step records the LM term before
    the reconstruction NLL."""
    cfg = tr.config
    if cfg.mode == "extract-edit":
        tr._ensure_indexes()
    batches, noised = tr._draw_lm_batches()
    if cfg.mode == "back-translation":
        t_hat, _ = tr.model.translate_batch(batches[SRC], TGT)
        s_hat, _ = tr.model.translate_batch(batches[TGT], SRC)
    tr.opt_gen.zero_grad()
    with Tape() as tape:
        loss_r = None
        if cfg.mode == "extract-edit":
            (e1, c1), (e2, c2) = tr._encode_directions([
                tr._prepare_direction(batches[SRC], TGT),
                tr._prepare_direction(batches[TGT], SRC)])
            loss_r = tr._update(tr.opt_eval, lambda: {"total": (
                evaluator_loss(e1.detach(), c1.detach(), tr.evaluator, cfg.lam)
                + evaluator_loss(e2.detach(), c2.detach(), tr.evaluator, cfg.lam))})["total"]
            lm = tr._lm_loss(batches, noised)
            com = (comparative_loss(e1, c1, tr.evaluator, cfg.lam)
                   + comparative_loss(e2, c2, tr.evaluator, cfg.lam))
        else:
            lm = tr._lm_loss(batches, noised)
            com = (tr.model.nll_batch(t_hat, batches[SRC], SRC)
                   + tr.model.nll_batch(s_hat, batches[TGT], TGT))
        total = lm * cfg.omega_lm + com * cfg.omega_com
    tape.backward(total)
    tr.opt_gen.step()
    tr._finish_step(cfg.mode, total, lm, com, loss_r)


class TestPartedUpdate:
    @pytest.mark.parametrize("mode", ["extract-edit", "back-translation"])
    def test_same_bits_as_one_tape(self, pair, mode):
        """From identical states, main steps whose updates backpropagate one
        part at a time leave every parameter, every Adam moment, the RNG and
        the metrics rows byte-identical to steps that record all terms on
        one tape; the first extract-edit step builds the indexes, the
        second edits from their rows."""
        kw = dict(mode=mode, pretrain_steps=3, main_steps=2, omega_lm=0.7, omega_com=1.3)
        parted, reference = micro_trainer(pair, **kw), micro_trainer(pair, **kw)
        for tr in (parted, reference):
            tr.run(until=3)
        for _ in range(2):
            parted.main_step()
            one_tape_main_step(reference)
        assert parted.state.metric_rows == reference.state.metric_rows
        assert parted.rng.bit_generator.state == reference.rng.bit_generator.state
        # both networks' parameters, then both optimizers' moments
        files, want = (training._checkpoint_arrays(t.model, t.evaluator, t.opt_gen, t.opt_eval)
                       for t in (parted, reference))
        for name, arrays in files.items():
            assert arrays.keys() == want[name].keys()
            for k, x in arrays.items():
                assert x.tobytes() == want[name][k].tobytes(), k

    def test_lm_tape_spent_before_the_candidate_tape_records(self, pair, monkeypatch):
        """The extract-edit generator update records the LM term on one tape
        and backpropagates it, releasing every node, before a second tape
        is entered for the source and candidate encodes; the evaluator
        update nests in that second tape on a third."""
        events = []

        class SpyTape(Tape):
            def __enter__(self):
                events.append(("enter", self))
                return super().__enter__()

            def backward(self, root):
                events.append(("backward", self))
                return super().backward(root)

        active_at = {}
        for name in ("_lm_loss", "_encode_directions"):
            def spy(self, *args, _inner=getattr(Trainer, name), _name=name):
                active_at[_name] = T._ACTIVE
                return _inner(self, *args)
            monkeypatch.setattr(Trainer, name, spy)
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.pretrain_step()
        monkeypatch.setattr(training, "Tape", SpyTape)
        tr.adversarial_step()
        lm_tape, candidate_tape, evaluator_tape = (t for kind, t in events if kind == "enter")
        assert events == [("enter", lm_tape), ("backward", lm_tape),
                          ("enter", candidate_tape), ("enter", evaluator_tape),
                          ("backward", evaluator_tape), ("backward", candidate_tape)]
        assert active_at == {"_lm_loss": lm_tape, "_encode_directions": candidate_tape}
        assert len(lm_tape) > 0 and all(n.out is None and n.bwd is None for n in lm_tape.nodes)


class TestModelSelection:
    def test_uniform_anchor_minus_log_k_plus_1(self, pair):
        """With the evaluator's w3 zeroed every candidate projects to b3, so
        all k+1 cosines are equal and D is -ln(k+1) in both directions."""
        tr = micro_trainer(pair, k=10)
        tr.evaluator.w3.data[...] = 0.0
        tr.evaluator.b3.data[...] = 1.0  # a zero b3 has no cosine
        for out_lang in (TGT, SRC):
            d = tr.model_selection_score(out_lang)
            assert d == pytest.approx(-math.log(11), abs=1e-12)

    def test_order_invariance(self, pair):
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        for _ in range(3):
            tr.pretrain_step()
        d1 = tr.model_selection_score(TGT)
        shuffled = list(pair.src_valid)
        np.random.default_rng(0).shuffle(shuffled)
        tr.valid[SRC] = shuffled
        d2 = tr.model_selection_score(TGT)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_equals_minus_comparative_loss(self, pair):
        """On one validation batch D is minus the comparative loss of the
        same candidates: both read t* from the last slot."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        for _ in range(3):
            tr.pretrain_step()
        sents = pair.src_valid
        assert len(sents) <= 64  # one validation batch
        d = tr.model_selection_score(TGT)
        batch = tr._prepare_direction(sents, TGT)
        with T.no_grad():
            (e_s, cand), = tr._encode_directions([batch])
            loss = comparative_loss(e_s, cand, tr.evaluator, tr.config.lam)
        assert abs(d + loss.item()) <= 1e-12

    def test_sources_encoded_once(self, pair, monkeypatch):
        """The ranking reuses the source rows _prepare_direction computed:
        on 30 sources, with an index built since the last update, the
        encodes are the sources, then each distinct edit and translation;
        D keeps the bits of encoding the sources again."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        for _ in range(3):
            tr.pretrain_step()
        tr._ensure_indexes()
        sources = pair.src_valid
        assert len(sources) == 30
        batch = tr._prepare_direction(sources, TGT)
        calls = []
        inner = TranslationModel.encode_batch

        def recording(self, sentences):
            calls.append(list(sentences))
            return inner(self, sentences)

        monkeypatch.setattr(TranslationModel, "encode_batch", recording)
        d = tr.model_selection_score(TGT)
        distinct = dict.fromkeys(s.tobytes() for s in (*batch.edited, *batch.t_star))
        assert [len(c) for c in calls] == [30, len(distinct)]
        assert [s.tobytes() for s in calls[0]] == [s.tobytes() for s in sources]
        assert [s.tobytes() for s in calls[1]] == list(distinct)
        with T.no_grad():
            (e_s, cand), = tr._encode_directions([batch])
            logp = score_candidates_batch(e_s, cand, tr.evaluator, tr.config.lam)
        assert d == float(logp.data[:, tr.config.k].sum()) / len(sources)


class TestDeterminismAndResume:
    def test_identical_config_identical_metrics(self, pair):
        a = micro_trainer(pair, pretrain_steps=5, main_steps=5, valid_interval=5)
        b = micro_trainer(pair, pretrain_steps=5, main_steps=5, valid_interval=5)
        a.run()
        b.run()
        assert a.state.metric_rows == b.state.metric_rows
        assert a.metrics_csv() == b.metrics_csv()

    def test_resume_bit_exact(self, pair, tmp_path):
        """Checkpoint at n, restore, run to n+m: identical to uninterrupted."""
        full = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        full.run()

        part = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        part.run(until=10)
        ckpt = part.save_checkpoint(tmp_path / "ck")

        resumed = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        resumed.restore(ckpt)
        assert resumed.state.step == 10
        resumed.run()

        assert resumed.metrics_csv() == full.metrics_csv()
        for k, p in full.model.named_parameters().items():
            np.testing.assert_array_equal(
                p.data, resumed.model.named_parameters()[k].data, err_msg=k)
        for k, p in full.evaluator.named_parameters().items():
            np.testing.assert_array_equal(
                p.data, resumed.evaluator.named_parameters()[k].data, err_msg=k)

    def test_resume_reuses_index_rows_where_the_run_does(self, pair, tmp_path, monkeypatch):
        """Step 6 validates at an episode boundary, building both indexes
        after the generator's last update, and the checkpoint records them as
        current: step 7 then edits from their rows resumed as uninterrupted,
        encoding no extracted sentence. A state.json without the key (an
        older checkpoint) still restores, with both indexes stale: step 7
        encodes each direction's extracted sentences again, to the same row."""
        kw = dict(pretrain_steps=4, main_steps=4, episode_len=2, valid_interval=2)
        calls = []
        monkeypatch.setattr(training, "embed_sentences",
                            lambda sents, model: calls.append(len(sents))
                            or embed_sentences(sents, model))
        full = micro_trainer(pair, **kw)
        full.run(until=6)
        ckpt = full.save_checkpoint(tmp_path / "ck")
        calls.clear()
        full.run(until=7)
        assert calls == []

        resumed = micro_trainer(pair, **kw)
        resumed.restore(ckpt)
        resumed.run(until=7)
        assert calls == []
        assert resumed.state.metric_rows == full.state.metric_rows

        state = load_json(ckpt / training.STATE_FILE)
        assert state["index_current"] == ["src", "tgt"]
        del state["index_current"]
        save_json(ckpt / training.STATE_FILE, state)
        older = micro_trainer(pair, **kw)
        older.restore(ckpt)
        assert sorted(older.indexes) == [SRC, TGT]
        older.run(until=7)
        assert len(calls) == 2
        assert older.state.metric_rows == full.state.metric_rows

    def test_restore_accepts_state_keys_of_older_versions(self, pair, tmp_path):
        """A checkpoint whose state.json still carries keys that older
        versions wrote (best_step, best_d, skipped_total) restores and
        finishes the run bit-exactly."""
        full = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        full.run()

        part = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        part.run(until=10)
        ckpt = part.save_checkpoint(tmp_path / "ck")
        state = load_json(ckpt / training.STATE_FILE)
        state.update(best_step=10, best_d=-1.25, skipped_total=0)
        save_json(ckpt / training.STATE_FILE, state)

        resumed = micro_trainer(pair, pretrain_steps=6, main_steps=14, valid_interval=5)
        resumed.restore(ckpt)
        resumed.run()
        assert resumed.metrics_csv() == full.metrics_csv()

    @pytest.mark.parametrize("key, value", [
        ("step", "3"), ("step", -1), ("step", 2.0), ("episode", -2),
        ("opt_gen_steps", -1), ("opt_eval_steps", True),
        ("metric_rows", [[1, 2]]), ("metric_rows", [["1", "pretrain"]]),
        ("metric_rows", "rows"), ("index_episodes", {"src": 0, "tgt": "0"}),
        ("index_current", "tgt"), ("index_current", ["tgt", "both"]),
    ])
    def test_malformed_run_state_refused(self, pair, tmp_path, key, value):
        """A run state of the wrong type or range is refused naming
        state.json, before any trainer state changes; the step, the optimizer
        step counts, the kept indexes' episodes and the episode are integers
        of at least 0, 0, 0 and -1, each metric row is len(METRIC_COLUMNS)
        strings, and the current indexes are a list of "src" and "tgt"."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.run()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        state = load_json(ckpt / training.STATE_FILE)
        state[key] = value
        save_json(ckpt / training.STATE_FILE, state)
        other = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        embedding = other.model.embedding.data.copy()
        with pytest.raises(CheckpointError, match=f"{training.STATE_FILE}: bad run state"):
            other.restore(ckpt)
        np.testing.assert_array_equal(other.model.embedding.data, embedding)
        assert other.opt_gen.step_count == other.opt_eval.step_count == 0
        assert other.state.step == 0 and other.state.metric_rows == []

    def test_restore_rejects_config_mismatch(self, pair, tmp_path):
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=0)
        tr.pretrain_step()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        other = micro_trainer(pair, pretrain_steps=2, main_steps=0)
        with pytest.raises(ValueError, match="config mismatch"):
            other.restore(ckpt)

    def test_restore_rejects_another_vocabulary(self, pair, tmp_path):
        """A checkpoint over another vocabulary of the same size is refused
        before any trainer state changes."""
        tr = micro_trainer(pair, init_mode="random", pretrain_steps=1, main_steps=0)
        tr.pretrain_step()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        tokens = pair.vocab.id_to_token[len(RESERVED_TOKENS):]
        other = Trainer(tr.config, Vocabulary(tokens[::-1]), pair.src_train, pair.tgt_train)
        with pytest.raises(ValueError, match="checkpoint vocabulary does not match"):
            other.restore(ckpt)
        assert other.state.step == 0

    def test_state_format_other_than_1_refused(self, pair, tmp_path):
        """A checkpoint whose state.json records format 2 is refused by
        ``load_checkpoint`` and ``restore`` alike, naming the format."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=0)
        tr.pretrain_step()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        state = load_json(ckpt / training.STATE_FILE)
        assert state["format"] == 1
        state["format"] = 2
        save_json(ckpt / training.STATE_FILE, state)
        other = micro_trainer(pair, pretrain_steps=1, main_steps=0)
        for read in (training.load_checkpoint, other.restore):
            with pytest.raises(CheckpointError, match="checkpoint format 2 is not supported"):
                read(ckpt)
        assert other.state.step == 0

    @pytest.mark.parametrize("name", ["params.bin", "optim.bin"])
    def test_misshapen_tensor_changes_no_array_of_its_file(self, pair, tmp_path, name):
        """A tensor file whose last tensor has another shape is refused,
        naming the file and the tensor, before any array it holds changes."""
        tr = micro_trainer(pair, pretrain_steps=2, main_steps=0)
        tr.pretrain_step()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        tensors = load_tensors(ckpt / name)
        last = list(tensors)[-1]
        tensors[last] = np.zeros(1)
        save_tensors(ckpt / name, tensors)
        other = micro_trainer(pair, pretrain_steps=2, main_steps=0)

        def live():
            if name == "params.bin":
                return [p.data for net in (other.model, other.evaluator)
                        for p in net.named_parameters().values()]
            return [*other.opt_gen.state_arrays().values(),
                    *other.opt_eval.state_arrays().values()]

        before = [a.copy() for a in live()]
        message = rf"{name}: missing tensors \[\], extra tensors \[\], wrong shapes \['{last} "
        with pytest.raises(CheckpointError, match=message):
            other.restore(ckpt)
        for a, b in zip(live(), before, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["state.json", "optim.bin", "index.bin"])
    def test_refused_restore_changes_no_trainer_state(self, pair, tmp_path, name):
        """A checkpoint refused for any one of its files leaves the trainer as
        it was: its embedding, RNG state, optimizer step counts, indexes and
        run state; ``state.json`` lacks an index's episode, ``optim.bin`` a
        moment, ``index.bin`` the width of a snapshot."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.run()
        assert tr.opt_gen.step_count > 0 and tr.opt_eval.step_count > 0
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        if name == "state.json":
            state = load_json(ckpt / name)
            del state["index_episodes"]["tgt"]
            save_json(ckpt / name, state)
        else:
            tensors = load_tensors(ckpt / name)
            if name == "optim.bin":
                del tensors["gen.m.embedding"]
            else:
                tensors["index.tgt"] = tensors["index.tgt"][:, :5]
            save_tensors(ckpt / name, tensors)
        other = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        embedding = other.model.embedding.data.copy()
        rng_state = other.rng.bit_generator.state
        with pytest.raises(CheckpointError, match=f"{name}: "):
            other.restore(ckpt)
        np.testing.assert_array_equal(other.model.embedding.data, embedding)
        assert other.rng.bit_generator.state == rng_state
        assert other.opt_gen.step_count == other.opt_eval.step_count == 0
        assert other.indexes == {} and other.state.step == 0

    @pytest.mark.parametrize("name, tensor, value", [
        ("params.bin", "embedding", np.nan),
        ("optim.bin", "eval.v.evaluator.b3", np.inf),
        ("index.bin", "index.tgt", np.nan),
    ])
    def test_non_finite_array_refused_by_name(self, pair, tmp_path, name, tensor, value):
        """A NaN or Inf in a checkpoint array is refused, naming the file and
        the tensor, before any trainer state changes; ``load_checkpoint``
        refuses one in params.bin too."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.run()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        tensors = load_tensors(ckpt / name)
        tensors[tensor] = tensors[tensor].copy()
        tensors[tensor].flat[3] = value
        save_tensors(ckpt / name, tensors)
        other = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        embedding = other.model.embedding.data.copy()
        message = rf"{name}: non-finite values in tensors \['{tensor}'\]"
        with pytest.raises(CheckpointError, match=message):
            other.restore(ckpt)
        np.testing.assert_array_equal(other.model.embedding.data, embedding)
        assert other.indexes == {} and other.state.step == 0
        if name == "params.bin":
            with pytest.raises(CheckpointError, match=message):
                training.load_checkpoint(ckpt)

    @pytest.mark.parametrize("other", ["fewer sentences", "same size, reordered"])
    def test_restore_drops_an_index_built_over_another_corpus(self, pair, tmp_path, other):
        """An index snapshot restores only over the corpus it was built from;
        over another, extraction builds the index from this trainer's corpus."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.run()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        tgt = pair.tgt_train[:120] if other == "fewer sentences" else pair.tgt_train[::-1]
        moved = Trainer(tr.config, pair.vocab, pair.src_train, tgt,
                        oracle_dictionary=full_vocab_dictionary(pair))
        moved.restore(ckpt)
        assert sorted(moved.indexes) == [SRC]
        np.testing.assert_array_equal(moved.indexes[SRC].rows, tr.indexes[SRC].rows)
        results = moved.extract_corpus(limit=8)
        np.testing.assert_array_equal(moved.indexes[TGT].rows,
                                      embed_sentences(tgt, moved.model))
        assert len(results) == 8 and all(r.indices.max() < len(tgt) for r in results)

    def test_restore_keeps_the_index_of_the_same_corpus(self, pair, tmp_path):
        """Over its own corpus a snapshot is restored as saved, and so is every
        snapshot of a checkpoint that records no corpus digests."""
        tr = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        tr.run()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        for drop_digests in (False, True):
            if drop_digests:
                state = load_json(ckpt / training.STATE_FILE)
                del state["index_corpus_sha256"]
                save_json(ckpt / training.STATE_FILE, state)
            back = micro_trainer(pair, pretrain_steps=1, main_steps=1)
            back.restore(ckpt)
            assert sorted(back.indexes) == [SRC, TGT]
            for lang in (SRC, TGT):
                np.testing.assert_array_equal(back.indexes[lang].rows, tr.indexes[lang].rows)


def fail_on_second_file(monkeypatch) -> None:
    """Make ``save_tensors`` raise on ``optim.bin``, after ``params.bin`` is written."""
    real = training.save_tensors

    def save_tensors(path, tensors):
        if path.name == "optim.bin":
            raise OSError("disk full")
        real(path, tensors)

    monkeypatch.setattr(training, "save_tensors", save_tensors)


class TestCrashSafeCheckpoint:
    def test_failed_save_keeps_the_last_checkpoint_resumable(self, pair, tmp_path,
                                                             monkeypatch):
        kw = dict(pretrain_steps=6, main_steps=14, valid_interval=5)
        full = micro_trainer(pair, **kw)
        full.run()

        crashing = micro_trainer(pair, checkpoint_interval=10, **kw)
        crashing.run(checkpoint_dir=tmp_path, until=10)
        fail_on_second_file(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            crashing.run(checkpoint_dir=tmp_path)
        assert crashing.state.step == 20
        assert sorted(p.name for p in tmp_path.iterdir()) == ["step_0000010"]

        monkeypatch.undo()
        resumed = micro_trainer(pair, checkpoint_interval=10, **kw)
        resumed.restore(tmp_path / "step_0000010")
        resumed.run()
        assert resumed.metrics_csv() == full.metrics_csv()

    def test_failed_resave_leaves_the_old_files(self, pair, tmp_path, monkeypatch):
        tr = micro_trainer(pair, pretrain_steps=2, main_steps=0)
        tr.pretrain_step()
        ckpt = tr.save_checkpoint(tmp_path / "ck")
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        tr.pretrain_step()
        fail_on_second_file(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            tr.save_checkpoint(ckpt)
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    def test_resave_without_indexes_restores(self, pair, tmp_path):
        with_index = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        with_index.run()
        assert with_index.indexes
        ckpt = with_index.save_checkpoint(tmp_path / "ck")
        assert (ckpt / "index.bin").exists()

        without = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        without.pretrain_step()
        without.save_checkpoint(ckpt)
        assert not (ckpt / "index.bin").exists()

        back = micro_trainer(pair, pretrain_steps=1, main_steps=1)
        back.restore(ckpt)
        assert back.state.step == 1
        assert back.indexes == {}


def reference_edits(trainer, e_src, out_lang):
    """Extract and edit by encoding every extracted sentence afresh: the
    reference the trainer's reuse of embeddings must equal bit for bit.
    Returns (indices, distances, extracted embeddings, edited sentences)."""
    cfg = trainer.config
    idxs, dists = extract_topk_batch(e_src, trainer.indexes[out_lang], cfg.k)
    corpus = trainer.corpora[out_lang]
    with T.no_grad():
        _, e_x, _ = trainer.model.encode_batch([corpus[int(j)] for j in idxs.ravel()])
    edited, _ = trainer.model.decode_greedy_batch(
        Tensor(np.maximum(np.repeat(e_src, cfg.k, axis=0), e_x.data)), None, None, out_lang)
    return idxs, dists, e_x.data, edited


def spy_edit_inputs(monkeypatch) -> list[np.ndarray]:
    """Record the extracted embeddings the trainer hands to edit_batch."""
    seen = []

    def spy(e_src, e_extracted, *args, **kwargs):
        seen.append(e_extracted)
        return edit_batch(e_src, e_extracted, *args, **kwargs)

    monkeypatch.setattr(training, "edit_batch", spy)
    return seen


def spy_extracted_idx(monkeypatch) -> list[np.ndarray]:
    """Record the (B, k) indices of every extraction the trainer makes."""
    seen = []
    inner = training.extract_topk_batch

    def spy(*args, **kwargs):
        idxs, dists = inner(*args, **kwargs)
        seen.append(idxs)
        return idxs, dists

    monkeypatch.setattr(training, "extract_topk_batch", spy)
    return seen


def count_encoded_rows(monkeypatch) -> list[int]:
    """Record the batch size of every TranslationModel.encode_batch call."""
    rows = []
    inner = TranslationModel.encode_batch

    def counting(self, sentences):
        rows.append(len(sentences))
        return inner(self, sentences)

    monkeypatch.setattr(TranslationModel, "encode_batch", counting)
    return rows


class TestEncodeOnce:
    """Edits reuse embeddings already computed, and equal the path that
    encodes every extracted sentence again."""

    def check_extraction(self, tr, results, seen, n):
        cfg = tr.config
        assert len(results) == n
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            batch = results[start : start + cfg.batch_size]
            with T.no_grad():
                _, pooled, _ = tr.model.encode_batch([tr.corpora[SRC][r.source_index]
                                                      for r in batch])
            idxs, dists, e_x, edited = reference_edits(tr, pooled.data, TGT)
            np.testing.assert_array_equal(seen[b], e_x)
            np.testing.assert_array_equal(np.stack([r.indices for r in batch]), idxs)
            np.testing.assert_array_equal(np.stack([r.distances for r in batch]), dists)
            got = [e for r in batch for e in r.edited]
            assert len(got) == len(edited)
            for x, y in zip(got, edited):
                np.testing.assert_array_equal(x, y)

    def test_indexes_kept_within_an_episode_and_rebuilt_after(self, pair):
        tr = micro_trainer(pair, pretrain_steps=0, main_steps=3, episode_len=2)
        tr.adversarial_step()
        first = dict(tr.indexes)
        tr.adversarial_step()  # step 1: still episode 0
        assert all(tr.indexes[lang] is first[lang] for lang in (SRC, TGT))
        tr.adversarial_step()  # step 2: episode 1
        assert all(tr.indexes[lang] is not first[lang] and tr.indexes[lang].episode == 1
                   for lang in (SRC, TGT))

    def test_extract_fresh_index_edits_from_its_rows(self, pair, monkeypatch):
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        tr.run()
        seen = spy_edit_inputs(monkeypatch)
        results = tr.extract_corpus(limit=20)
        rows = tr.indexes[TGT].rows
        for b, start in enumerate(range(0, 20, tr.config.batch_size)):
            idxs = np.stack([r.indices for r in results[start : start + tr.config.batch_size]])
            np.testing.assert_array_equal(seen[b], rows[idxs.ravel()])
        self.check_extraction(tr, results, seen, 20)

    def test_extract_stale_index_reencodes(self, pair, monkeypatch):
        """An index built earlier in the episode predates the last update,
        so its rows are not the current encodes and must not be edited from."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=5)
        tr.run(until=3)
        tr.adversarial_step()
        index = tr.indexes[TGT]
        with T.no_grad():
            _, now, _ = tr.model.encode_batch(tr.corpora[TGT])
        assert not np.array_equal(index.rows, now.data)
        seen = spy_edit_inputs(monkeypatch)
        results = tr.extract_corpus(limit=20)
        assert tr.indexes[TGT] is index
        self.check_extraction(tr, results, seen, 20)

    def test_extract_encodes_corpus_and_sources_once(self, pair, monkeypatch):
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        tr.run()
        rows = count_encoded_rows(monkeypatch)
        tr.extract_corpus(limit=20)
        assert sum(rows) == len(tr.corpora[TGT]) + 20

    def test_extract_embeds_its_sources_in_one_call(self, pair, monkeypatch):
        """extract_corpus embeds its sources with one embed_sentences call,
        then extracts and edits batch_size of them at a time."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0)
        tr.run()
        embedded = []
        monkeypatch.setattr(training, "embed_sentences",
                            lambda sents, model: embedded.append(sents)
                            or embed_sentences(sents, model))
        extracted = spy_extracted_idx(monkeypatch)
        tr.extract_corpus(limit=20)
        assert len(embedded) == 1
        assert [s.tobytes() for s in embedded[0]] == [s.tobytes() for s in tr.corpora[SRC][:20]]
        assert [len(i) for i in extracted] == [8, 8, 4]

    def test_step_encodes_each_source_once(self, pair, monkeypatch):
        """One alternation step encodes each of its 2 x batch_size sources
        once: besides language modeling's noised batches, its encodes are
        each direction's sources, then the distinct extracted sentences a
        stale index makes it encode again, and last each distinct candidate
        of both directions."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=5)
        tr.run(until=4)  # the indexes now predate the generator's last update
        drawn, directions, calls = [], [], []
        draw, prepare = Trainer._draw_lm_batches, Trainer._prepare_direction
        encode = TranslationModel.encode_batch
        monkeypatch.setattr(Trainer, "_draw_lm_batches",
                            lambda self: drawn.append(draw(self)) or drawn[-1])
        monkeypatch.setattr(Trainer, "_prepare_direction",
                            lambda self, *a: directions.append(prepare(self, *a))
                            or directions[-1])
        monkeypatch.setattr(TranslationModel, "encode_batch",
                            lambda self, sents: calls.append(sents) or encode(self, sents))
        extracted = spy_extracted_idx(monkeypatch)
        tr.adversarial_step()
        (batches, noised), = drawn
        encoded = [c for c in calls if not any(c is n for n in noised)]
        assert len(encoded) == len(calls) - 2
        cands = {s.tobytes() for d in directions for s in (*d.edited, *d.t_star)}
        reencoded = [len(np.unique(i)) for i in extracted]
        b = tr.config.batch_size
        assert [len(c) for c in encoded] == [b, reencoded[0], b, reencoded[1], len(cands)]
        assert encoded[0] is batches[SRC] and encoded[2] is batches[TGT]

    def test_prepare_direction_encodes_each_sentence_once(self, pair, monkeypatch):
        """The sources, then, once the generator has moved past the index,
        each distinct extracted sentence."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=5, k=5)
        tr.run(until=3)
        tr._ensure_indexes()
        sources = tr._sample_batch(SRC)
        rows = count_encoded_rows(monkeypatch)
        extracted = spy_extracted_idx(monkeypatch)
        tr._prepare_direction(sources, TGT)
        assert sum(rows) == len(sources)
        tr.pretrain_step()
        rows.clear()
        tr._prepare_direction(sources, TGT)
        idxs = extracted[-1]
        assert sum(rows) == len(sources) + len(np.unique(idxs))

    def test_prepare_direction_matches_encode_everything(self, pair, monkeypatch):
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=5, k=5)
        tr.run(until=3)
        tr._ensure_indexes()
        corpus = tr.corpora[SRC]
        sources = [corpus[0], corpus[1], corpus[2], corpus[0], corpus[7], corpus[7]]
        t_star, _ = tr.model.translate_batch(sources, TGT)
        with T.no_grad():
            _, pooled, _ = tr.model.encode_batch(sources)
        idxs, _, _, edited = reference_edits(tr, pooled.data, TGT)

        extracted = spy_extracted_idx(monkeypatch)
        d = tr._prepare_direction(sources, TGT)
        (d_idxs,) = extracted
        assert len(np.unique(d_idxs)) < d_idxs.size
        np.testing.assert_array_equal(d.e_src.data, pooled.data)
        assert len(d.t_star) == len(t_star)
        for x, y in zip(d.t_star, t_star):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(d_idxs, idxs)
        assert len(d.edited) == len(edited)
        for x, y in zip(d.edited, edited):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("caller", ["extract_corpus", "prepare_direction"])
    @pytest.mark.parametrize("since_build", ["nothing", "update", "restore"])
    def test_index_rows_reused_until_the_generator_moves(self, pair, tmp_path, monkeypatch,
                                                         caller, since_build):
        """Edits start from the index rows while the generator has made no
        update since the index was built; after an update, or in a trainer
        that restored the index (here one saved after an update), every
        distinct extracted sentence is encoded again from the current
        parameters."""
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=5)
        tr.run(until=3)
        tr._ensure_indexes()
        if since_build != "nothing":
            tr.pretrain_step()
        if since_build == "restore":
            ckpt = tr.save_checkpoint(tmp_path / "ck")
            tr = micro_trainer(pair, pretrain_steps=3, main_steps=5)
            tr.restore(ckpt)
        index = tr.indexes[TGT]
        seen = spy_edit_inputs(monkeypatch)
        extracted = spy_extracted_idx(monkeypatch)
        rows = count_encoded_rows(monkeypatch)
        if caller == "extract_corpus":
            n_sources = 20
            tr.extract_corpus(limit=n_sources)
        else:
            sources = tr._sample_batch(SRC)
            n_sources = len(sources)
            tr._prepare_direction(sources, TGT)
        encoded = sum(rows)
        assert tr.indexes[TGT] is index
        assert len(seen) == len(extracted) >= 1
        corpus = tr.corpora[TGT]
        for e_x, idxs in zip(seen, extracted):
            if since_build == "nothing":
                np.testing.assert_array_equal(e_x, index.rows[idxs.ravel()])
            else:
                with T.no_grad():
                    _, now, _ = tr.model.encode_batch([corpus[int(j)] for j in idxs.ravel()])
                assert not np.array_equal(index.rows[idxs.ravel()], now.data)
                np.testing.assert_array_equal(e_x, now.data)
        reencoded = 0 if since_build == "nothing" else sum(len(np.unique(i)) for i in extracted)
        assert encoded == n_sources + reencoded

    def test_rebuild_step_encodes_no_extracted_sentence(self, pair, monkeypatch):
        """A training step that builds the indexes edits from their rows: it
        encodes no extracted sentence, and its metrics row is that of
        encoding every extracted sentence again."""
        def reference(self, e_src, out_lang):
            idxs, dists, _, edited = reference_edits(self, e_src, out_lang)
            return idxs, dists, edited

        rows = []
        for use_reference in (False, True):
            tr = micro_trainer(pair, pretrain_steps=3, main_steps=5)
            tr.run(until=3)
            assert not tr.indexes
            with monkeypatch.context() as m:
                if use_reference:
                    m.setattr(Trainer, "_extract_edit", reference)
                reencoded = []
                m.setattr(training, "embed_sentences",
                          lambda sents, model: reencoded.append(len(sents))
                          or embed_sentences(sents, model))
                tr.adversarial_step()
            assert set(tr.indexes) == {SRC, TGT}
            assert reencoded == []
            rows.append(tr.state.metric_rows[-1])
        assert rows[0] == rows[1]

    def test_negative_limit_rejected(self, pair):
        tr = micro_trainer(pair, pretrain_steps=0, main_steps=0)
        with pytest.raises(ValueError, match="limit"):
            tr.extract_corpus(limit=-5)
        assert not tr.indexes


def encode_every_slot(tr, directions):
    """(e_s, cand) per direction with every candidate slot encoded: all edits
    and translations of all directions in one batch, sliced apart, beside
    each direction's own source encode. The oracle that encoding each
    distinct candidate once must match."""
    k = tr.config.k
    sents, starts = [], []
    for d in directions:
        starts.append(len(sents))
        sents += [*d.edited, *d.t_star]
    _, pooled, _ = tr.model.encode_batch(sents)
    d_h = pooled.data.shape[1]
    out = []
    for start, d in zip(starts, directions):
        b = len(d.t_star)
        e_edit = T.take_rows(pooled, np.arange(start, start + b * k))
        e_star = T.take_rows(pooled, np.arange(start + b * k, start + b * (k + 1)))
        cand = T.reshape(T.concat([T.reshape(e_edit, (b, k * d_h)), e_star]), (b, k + 1, d_h))
        out.append((d.e_src, cand))
    return out


def ranking_grads(tr, encode, specs):
    """Embeddings, the summed comparative loss, and the gradient of every
    parameter of both networks when each direction's sources are encoded
    on the tape (``direction``'s keyword arguments in ``specs``) and its
    candidates come from ``encode``."""
    params = {**tr.model.named_parameters(), **tr.evaluator.named_parameters()}
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        embeds = encode([direction(tr, **spec) for spec in specs])
        loss = None
        for e_s, cand in embeds:
            term = comparative_loss(e_s, cand, tr.evaluator, tr.config.lam)
            loss = term if loss is None else loss + term
    tape.backward(loss)
    grads = {k: None if p.grad is None else p.grad.copy() for k, p in params.items()}
    return [(e.data, c.data) for e, c in embeds], loss.item(), grads


class TestEncodeDirections:
    """The candidate encode takes each distinct candidate once and gathers
    the slots back: the values of encoding every slot, the same gradient
    bits when nothing repeats, and the same gradients up to float64
    reassociation when something does."""

    @pytest.fixture
    def tr(self, pair):
        tr = micro_trainer(pair, pretrain_steps=3, main_steps=0, k=3)
        tr.run()
        return tr

    @staticmethod
    def distinct_pool(pair, n):
        seen, pool = set(), []
        for s in [*pair.src_train, *pair.tgt_train]:
            if s.tobytes() not in seen:
                seen.add(s.tobytes())
                pool.append(s)
        return pool[:n]

    def specs(self, pair, repeats: bool):
        """Two directions of 4 sources at k = 3, as ``direction``'s keyword
        arguments, and their number of distinct candidates: 40 slots holding
        40 distinct sentences (32 candidates), or 12 (8 candidates) with
        repeats within and across slots, sources and directions."""
        p = self.distinct_pool(pair, 40)
        if not repeats:
            return [dict(sources=p[i : i + 4], edited=p[i + 4 : i + 16],
                         t_star=p[i + 16 : i + 20])
                    for i in (0, 20)], 32
        return [
            dict(sources=[p[0], p[1], p[0], p[2]], t_star=[p[3], p[4], p[3], p[5]],
                 edited=[p[6]] * 6 + [p[3], p[7], p[6]] + [p[6]] * 3),
            dict(sources=[p[3], p[8], p[9], p[8]], t_star=[p[0], p[6], p[10], p[10]],
                 edited=[p[11], p[11], p[0]] * 4),
        ], 8

    @pytest.mark.parametrize("repeats", [False, True])
    def test_matches_encoding_every_slot(self, pair, tr, repeats):
        """Embeddings and loss bit-identical; every gradient too when
        nothing repeats, else within 1e-12 of its largest entry."""
        specs, _ = self.specs(pair, repeats)
        embeds, loss, grads = ranking_grads(tr, tr._encode_directions, specs)
        embeds_ref, loss_ref, grads_ref = ranking_grads(
            tr, lambda ds: encode_every_slot(tr, ds), specs)
        for (e, c), (e_ref, c_ref) in zip(embeds, embeds_ref):
            np.testing.assert_array_equal(e, e_ref)
            np.testing.assert_array_equal(c, c_ref)
        assert loss == loss_ref
        assert any(g is not None for g in grads_ref.values())
        for name, g in grads_ref.items():
            if g is None:
                assert grads[name] is None, name
            elif repeats:
                assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
            else:
                np.testing.assert_array_equal(grads[name], g, err_msg=name)

    @pytest.mark.parametrize("repeats", [False, True])
    def test_each_distinct_sentence_encoded_once(self, pair, tr, monkeypatch, repeats):
        specs, n_distinct = self.specs(pair, repeats)
        directions = [direction(tr, **spec) for spec in specs]
        rows = count_encoded_rows(monkeypatch)
        tr._encode_directions(directions)
        assert rows == [n_distinct]

    def test_candidate_encode_stays_float64(self, pair, tr):
        """Translations and edits leave the float32 decode as token ids; the
        index, the sources' encode, the candidate encode, the ranking loss
        and every gradient it reaches stay float64."""
        tr._ensure_indexes()
        params = {**tr.model.named_parameters(), **tr.evaluator.named_parameters()}
        with Tape() as tape:
            d = tr._prepare_direction(tr._sample_batch(SRC), TGT)
            (e_s, cand), = tr._encode_directions([d])
            loss = comparative_loss(e_s, cand, tr.evaluator, tr.config.lam)
        tape.backward(loss)
        assert all(s.dtype == np.int64 for s in (*d.edited, *d.t_star))
        assert tr.indexes[TGT].rows.dtype == np.float64
        assert e_s.data.dtype == cand.data.dtype == loss.data.dtype == np.float64
        grads = [p.grad for p in params.values() if p.grad is not None]
        assert grads and all(g.dtype == np.float64 for g in grads)

    def test_trainer_directions_encoded_once(self, pair, tr, monkeypatch):
        """On the trainer's own directions, whose edits repeat."""
        tr._ensure_indexes()
        directions = [tr._prepare_direction(tr._sample_batch(SRC), TGT),
                      tr._prepare_direction(tr._sample_batch(TGT), SRC)]
        slots = [s for d in directions for s in (*d.edited, *d.t_star)]
        n_distinct = len({s.tobytes() for s in slots})
        assert n_distinct < len(slots)
        rows = count_encoded_rows(monkeypatch)
        tr._encode_directions(directions)
        assert rows == [n_distinct]
