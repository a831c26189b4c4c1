"""Extraction, editing, and candidate scoring against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from extractedit import tensor as T
from extractedit.engine import (
    EmbeddingIndex,
    EvaluationNetwork,
    ExtractionResult,
    build_index,
    edit_batch,
    extract_topk_batch,
    read_extraction_dump,
    score_candidates_batch,
    write_extraction_dump,
)
from extractedit.model import TGT, ModelConfig, TranslationModel
from extractedit.tensor import DegenerateInputError, Tensor
from extractedit.text import Vocabulary

from conftest import check_grad


def tiny_model(d=8, vocab=20, seed=0):
    return TranslationModel(ModelConfig(vocab_size=vocab, hidden_size=d, layers=1, max_len=10),
                            np.random.default_rng(seed))


def make_corpus(rng, n, vocab=20):
    return [rng.integers(4, vocab, size=rng.integers(1, 7)) for _ in range(n)]


class TestBuildIndex:
    def test_one_sentence_one_row(self, rng):
        m = tiny_model()
        idx = build_index(make_corpus(rng, 1), m, episode=0)
        assert idx.rows.shape == (1, 8)

    def test_rebuild_unchanged_params_bit_identical(self, rng):
        m = tiny_model()
        corpus = make_corpus(rng, 12)
        a = build_index(corpus, m, episode=0)
        b = build_index(corpus, m, episode=1)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_rows_equal_per_sentence_encode(self, rng):
        """Index rows match one-sentence encode_batch calls exactly."""
        m = tiny_model()
        corpus = make_corpus(rng, 9)
        idx = build_index(corpus, m, episode=0)
        for i, s in enumerate(corpus):
            _, e, _ = m.encode_batch([s])
            np.testing.assert_array_equal(idx.rows[i], e.data[0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_index([], tiny_model(), episode=0)

    def test_staleness(self, rng):
        """The index records the episode it was built in; the trainer
        rebuilds it once that differs from the current episode."""
        idx = build_index(make_corpus(rng, 3), tiny_model(), episode=4)
        assert idx.episode == 4


class TestExtractTopK:
    def test_self_retrieval_rank_one(self, rng):
        rows = rng.normal(size=(20, 6))
        index = EmbeddingIndex(rows, episode=0)
        idx, dist = extract_topk_batch(rows[7:8], index, k=3)
        assert idx[0, 0] == 7
        assert dist[0, 0] == 0.0

    def test_k_equals_size_returns_all_sorted(self, rng):
        rows = rng.normal(size=(8, 4))
        index = EmbeddingIndex(rows, episode=0)
        idx, dist = extract_topk_batch(rng.normal(size=(1, 4)), index, k=8)
        assert sorted(idx[0].tolist()) == list(range(8))
        assert np.all(np.diff(dist[0]) >= 0)

    def test_matches_full_sort_oracle(self, rng):
        """Random 50-row index, k=10: exact agreement with argsort oracle."""
        rows = rng.normal(size=(50, 6))
        index = EmbeddingIndex(rows, episode=0)
        q = rng.normal(size=6)
        idx, dist = extract_topk_batch(q[None, :], index, k=10)
        oracle = np.argsort(np.linalg.norm(rows - q, axis=1), kind="stable")[:10]
        np.testing.assert_array_equal(idx[0], oracle)

    def test_exhaustive_property_sizes_1_to_100(self, rng):
        """Agreement with the oracle across index sizes and every valid k."""
        for n in [1, 2, 3, 5, 17, 50, 100]:
            rows = rng.normal(size=(n, 4))
            index = EmbeddingIndex(rows, episode=0)
            q = rng.normal(size=4)
            for k in {1, n // 2 or 1, n}:
                idx, _ = extract_topk_batch(q[None, :], index, k)
                oracle = np.argsort(np.linalg.norm(rows - q, axis=1), kind="stable")[:k]
                np.testing.assert_array_equal(idx[0], oracle)

    def test_ties_break_by_corpus_index(self):
        rows = np.zeros((5, 3))
        index = EmbeddingIndex(rows, episode=0)
        idx, _ = extract_topk_batch(np.ones((1, 3)), index, k=5)
        np.testing.assert_array_equal(idx[0], [0, 1, 2, 3, 4])

    def test_k_out_of_range(self, rng):
        index = EmbeddingIndex(rng.normal(size=(4, 3)), episode=0)
        with pytest.raises(ValueError):
            extract_topk_batch(np.zeros((1, 3)), index, k=5)
        with pytest.raises(ValueError):
            extract_topk_batch(np.zeros((1, 3)), index, k=0)

    def test_batch_matches_single(self, rng):
        """A query's answer does not depend on the other queries in its batch."""
        rows = rng.normal(size=(30, 5))
        index = EmbeddingIndex(rows, episode=0)
        qs = rng.normal(size=(4, 5))
        bidx, bdist = extract_topk_batch(qs, index, k=6)
        for i in range(4):
            sidx, sdist = extract_topk_batch(qs[i : i + 1], index, k=6)
            np.testing.assert_array_equal(bidx[i], sidx[0])
            np.testing.assert_array_equal(bdist[i], sdist[0])


def full_scan(queries, rows, k):
    """Brute-force oracle: exact distance to every row, stable argsort."""
    out_idx, out_dist = [], []
    for q in queries:
        dist = np.sqrt(((rows - q) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:k]
        out_idx.append(order)
        out_dist.append(dist[order])
    return np.array(out_idx), np.array(out_dist)


class TestExtractTopKAdversarial:
    """The GEMM screen must never change the full scan's answer, bit for bit."""

    def check(self, queries, rows, ks):
        index = EmbeddingIndex(rows, episode=0)
        for k in ks:
            idx, dist = extract_topk_batch(queries, index, k)
            o_idx, o_dist = full_scan(queries, rows, k)
            np.testing.assert_array_equal(idx, o_idx)
            np.testing.assert_array_equal(dist, o_dist)

    def test_duplicate_rows(self, rng):
        base = rng.normal(size=(12, 8))
        rows = base[rng.integers(0, 12, size=60)]
        queries = np.concatenate([base[:4], rng.normal(size=(4, 8))])
        self.check(queries, rows, [1, 3, 7, 60])

    def test_rows_one_ulp_apart(self, rng):
        base = rng.normal(size=8)
        rows = np.stack([base] * 40)
        for i in range(1, 40):
            j = i % 8
            rows[i, j] = np.nextafter(rows[i - 1, j], np.inf)
        queries = np.stack([base, base + 1e-12, rng.normal(size=8)])
        self.check(queries, rows, [1, 5, 40])

    def test_large_offset_cancellation(self, rng):
        """+1e3 offset: ||r||^2 - 2q.r loses ~6 digits, the re-rank must not."""
        rows = 1e3 + rng.normal(size=(80, 16)) * 1e-6
        rows[40:] = rows[:40] + rng.normal(size=(40, 16)) * 1e-13
        queries = 1e3 + rng.normal(size=(8, 16)) * 1e-6
        self.check(queries, rows, [1, 10, 80])

    def test_k_one_and_k_all(self, rng):
        rows = rng.normal(size=(33, 5))
        queries = rng.normal(size=(5, 5))
        self.check(queries, rows, [1, 33])

    def test_query_block_of_64(self, rng):
        rows = rng.normal(size=(500, 64)).round(1)  # many near and exact ties
        queries = np.concatenate([rows[:32], rng.normal(size=(32, 64)).round(1)])
        self.check(queries, rows, [1, 10, 500])


class TestEdit:
    def test_pooled_vector_dominates_both_inputs(self, rng):
        """Every pooled coordinate >= both embeddings' coordinates."""
        m = tiny_model()
        s = rng.integers(4, 20, size=5)
        t = rng.integers(4, 20, size=4)
        _, e_s, _ = m.encode_batch([s])
        _, e_t, _ = m.encode_batch([t])
        pooled = np.maximum(e_s.data, e_t.data)
        assert np.all(pooled >= e_s.data) and np.all(pooled >= e_t.data)

    def test_dominated_source_degenerates_to_re_decoding(self, rng):
        """If the source embedding is strictly below the extraction's, the
        pooled vector equals the extraction's embedding."""
        m = tiny_model()
        t = rng.integers(4, 20, size=4)
        _, e_t, _ = m.encode_batch([t])
        e_s = e_t.data - 1.0
        t_edit1 = edit_batch(e_s, e_t.data, m, TGT)[0]
        with T.no_grad():
            redecoded, _ = m.decode_greedy_batch(Tensor(e_t.data), None, None, TGT)
        np.testing.assert_array_equal(t_edit1, redecoded[0])
        # and the identical-embedding case pools to exactly e_t
        np.testing.assert_array_equal(np.maximum(e_t.data, e_t.data), e_t.data)

    def test_empty_extraction_rejected(self, rng):
        """An empty extracted sentence has no embedding to edit from."""
        with pytest.raises(DegenerateInputError):
            tiny_model().encode_batch([np.array([], dtype=np.int64)])


class TestScoreCandidates:
    def test_singleton_log_probability_zero(self, rng):
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        logp = score_candidates_batch(Tensor(rng.normal(size=(1, 6))),
                                      Tensor(rng.normal(size=(1, 1, 6))),
                                      ev, inv_temperature=0.5)
        np.testing.assert_array_equal(logp.data, [[0.0]])

    def test_identical_candidates_uniform(self, rng):
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        c = rng.normal(size=6)
        logp = score_candidates_batch(Tensor(rng.normal(size=(1, 6))),
                                      Tensor(np.tile(c, (1, 4, 1))), ev, 0.5)
        np.testing.assert_allclose(logp.data, -np.log(4), atol=1e-12)

    def test_matches_direct_formula(self, rng):
        """Log-softmax of scaled joint-space cosines computed by hand."""
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        e_s = rng.normal(size=6)
        cands = rng.normal(size=(3, 6))
        logp = score_candidates_batch(Tensor(e_s[None, :]), Tensor(cands[None]), ev,
                                      inv_temperature=0.5)
        with T.no_grad():
            r_s = ev.forward(Tensor(e_s[None, :])).data[0]
            alphas = []
            for c in cands:
                r_c = ev.forward(Tensor(c[None, :])).data[0]
                alphas.append(np.dot(r_s, r_c) / (np.linalg.norm(r_s) * np.linalg.norm(r_c)))
        z = 0.5 * np.array(alphas)
        np.testing.assert_allclose(logp.data[0], z - np.log(np.exp(z).sum()), atol=1e-12)

    @pytest.mark.parametrize("lam", [1e-8, 0.5, 10.0, 1000.0])
    def test_rows_exp_sum_to_one(self, rng, lam):
        """At any positive scale, down to the uniform limit and up to where
        every probability but the largest underflows, the log-probabilities
        are finite and each row's exponentials sum to 1."""
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        logp = score_candidates_batch(Tensor(rng.normal(size=(3, 6))),
                                      Tensor(rng.normal(size=(3, 5, 6))), ev, lam).data
        assert np.all(np.isfinite(logp)) and np.all(logp <= 0)
        np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if lam == 1e-8:
            np.testing.assert_allclose(logp, -np.log(5), atol=1e-6)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    def test_nonpositive_scale_refused(self, rng, lam):
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        with pytest.raises(ValueError, match="inv_temperature must be positive"):
            score_candidates_batch(Tensor(rng.normal(size=(1, 6))),
                                   Tensor(rng.normal(size=(1, 2, 6))), ev, lam)

    def test_permutation_equivariance(self, rng):
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        e_s = Tensor(rng.normal(size=(1, 6)))
        cands = rng.normal(size=(1, 5, 6))
        p1 = score_candidates_batch(e_s, Tensor(cands), ev, 0.5).data
        perm = [3, 0, 4, 1, 2]
        p2 = score_candidates_batch(e_s, Tensor(cands[:, perm]), ev, 0.5).data
        np.testing.assert_allclose(p2, p1[:, perm], atol=1e-15)

    def test_argmax_invariant_to_temperature(self, rng):
        ev = EvaluationNetwork(6, rng, hidden=64, d_out=64)
        e_s = Tensor(rng.normal(size=(1, 6)))
        cands = Tensor(rng.normal(size=(1, 6, 6)))
        argmaxes = {
            int(np.argmax(score_candidates_batch(e_s, cands, ev, lam).data))
            for lam in (0.01, 0.5, 2.0, 10.0)
        }
        assert len(argmaxes) == 1

    def test_gradients_reach_evaluator_and_embeddings(self, rng):
        ev = EvaluationNetwork(5, rng, hidden=6, d_out=4)
        e_s = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        cands = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        params = list(ev.named_parameters().values()) + [e_s, cands]

        def loss():
            logp = score_candidates_batch(e_s, cands, ev, 0.5)
            return -T.tsum(T.gather(logp, np.array([[0], [1]])))

        check_grad(loss, params, tol=1e-4, max_coords=4, rng=rng)


class TestExtractionDump:
    def test_roundtrip(self, tmp_path, rng):
        vocab = Vocabulary([f"w{i}" for i in range(16)])
        results = [
            ExtractionResult(
                source_index=i,
                indices=rng.integers(0, 50, size=3).astype(np.int64),
                distances=np.sort(rng.random(3)),
                edited=[rng.integers(4, 20, size=rng.integers(1, 5)) for _ in range(3)],
            )
            for i in range(5)
        ]
        path = tmp_path / "extractions.tsv"
        write_extraction_dump(path, results, vocab)
        back = read_extraction_dump(path, vocab)
        assert len(back) == 5
        for a, b in zip(results, back):
            assert a.source_index == b.source_index
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.distances, b.distances, rtol=0, atol=0)
            for x, y in zip(a.edited, b.edited):
                np.testing.assert_array_equal(x, y)
