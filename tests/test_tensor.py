"""Tensor engine: forward semantics, tape mechanics, gradient correctness.

Derived expectations are computed by independent oracles inside the tests
(triple-loop matmul, central finite differences, mpmath log-softmax).
"""

from __future__ import annotations

import math
import weakref

import mpmath
import numpy as np
import pytest

from extractedit import tensor as T
from extractedit.tensor import (
    DegenerateInputError,
    DimensionError,
    NonFiniteError,
    Tape,
    Tensor,
)

from conftest import check_grad, finite_difference, rel_err


class TestTensorBasics:
    def test_data_is_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_grad_lazy_and_same_shape(self):
        p = Tensor(np.ones((3, 2)), requires_grad=True)
        assert p.grad is None
        with Tape() as tape:
            loss = T.tsum(p * 2.0)
        tape.backward(loss)
        assert p.grad.shape == p.data.shape

    def test_detach_drops_grad_participation(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(p.detach() * 3.0)
        assert len(tape) == 0
        assert loss.requires_grad is False


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_scalar_product(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[5.0]]))
        assert out.data[0, 0] == 10.0

    def test_matches_triple_loop_oracle(self, rng):
        """Random 3x4 @ 4x2 equals a naive triple loop, exactly."""
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(4):
                    acc += a[i, k] * b[k, j]
                expect[i, j] = acc
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_grad(lambda: T.tsum(T.matmul(a, b)), [a, b], tol=1e-6)


class TestCosine:
    def test_self_similarity(self, rng):
        r = Tensor(rng.normal(size=8))
        assert T.cosine(r, r).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert T.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateInputError):
            T.cosine(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    def test_range(self, rng):
        for _ in range(50):
            a = Tensor(rng.normal(size=5))
            b = Tensor(rng.normal(size=5))
            v = T.cosine(a, b).item()
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_gradient(self, rng):
        a = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        check_grad(lambda: T.cosine(a, b), [a, b], tol=1e-5)

    def test_broadcast_batch_gradient(self, rng):
        """Cosine of (B,1,d) against (B,C,d) reduces correctly."""
        a = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check_grad(lambda: T.tsum(T.cosine(a, b)), [a, b], tol=1e-5)


class TestLogSoftmax:
    """The ranking distribution's op: ``log_softmax`` of scores times a
    positive scale (``engine.score_candidates_batch`` passes cosines)."""

    def test_single_element(self):
        out = T.log_softmax(Tensor([3.7]) * 0.5)
        np.testing.assert_array_equal(out.data, [0.0])

    def test_uniform_limit(self):
        """As the scale vanishes the distribution approaches uniform."""
        out = T.log_softmax(Tensor([0.3, -1.2, 4.0, 2.2]) * 1e-8)
        np.testing.assert_allclose(out.data, -math.log(4), atol=1e-6)

    def test_exp_sums_to_one(self, rng):
        for _ in range(20):
            out = T.log_softmax(Tensor(rng.normal(size=7)) * float(rng.uniform(0.1, 5)))
            assert abs(np.exp(out.data).sum() - 1.0) <= 1e-12
            assert np.all(out.data <= 0)

    def test_against_extended_precision(self):
        """scores [1,2,3] at scale 0.5 vs a direct mpmath evaluation."""
        scores = [1.0, 2.0, 3.0]
        lam = 0.5
        with mpmath.workdps(50):
            es = [mpmath.e ** (lam * s) for s in scores]
            tot = sum(es)
            expect = np.array([float(mpmath.log(e / tot)) for e in es])
        out = T.log_softmax(Tensor(scores) * lam)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-15)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        w = Tensor(rng.normal(size=5))
        check_grad(lambda: T.tsum(T.log_softmax(x * 0.7) * w), [x], tol=1e-5)


class TestTapeMechanics:
    def test_backward_visits_each_chain_node_once(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        with Tape() as tape:
            y = x
            for _ in range(9):
                y = T.tanh(y)
            loss = T.tsum(y)
        visited = tape.backward(loss)
        assert visited == len(tape) == 10

    def test_no_grad_suppresses_recording(self):
        p = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with T.no_grad():
                _ = p * 2.0
            assert len(tape) == 0
            loss = T.tsum(p * 3.0)
        assert len(tape) == 2  # mul + sum, nothing from the no_grad block
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, [3.0])

    def test_grad_accumulates_across_uses(self):
        p = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(p * 3.0 + p * 4.0)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, [7.0])

    def test_tape_is_single_use(self):
        p = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(p * 3.0)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already run backward"):
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, [3.0])

    def test_backward_releases_intermediates_keeps_leaf_grads(self, rng):
        """After backward, on a tape still alive, the gru_step outputs inside
        a 3-step chain are gone and intermediate gradients are cleared;
        parameter and leaf gradients are those of a finite-difference check."""
        d = 3
        params = [Tensor(rng.normal(size=s) * 0.4, requires_grad=True) for s in
                  [(d, 3 * d), (3 * d,), (d, 3 * d), (3 * d,)]]
        x = Tensor(rng.normal(size=(2, d)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(2, d)), requires_grad=True)

        def chain():
            h1 = T.gru_step(x, h0, *params)
            h2 = T.gru_step(x, h1, *params, live=np.array([1]))
            h3 = T.gru_step(x, h2, *params)
            return h1, h2, h3

        def build_loss():
            return T.tsum(chain()[2] * 0.5)

        leaves = [*params, x, h0]
        check_grad(build_loss, leaves, tol=1e-4)
        expect = [p.grad.copy() for p in leaves]
        for p in leaves:
            p.grad = None
        with Tape() as tape:
            h1, h2, h3 = chain()
            scaled = h3 * 0.5
            loss = T.tsum(scaled)
        refs = [weakref.ref(h.data) for h in (h1, h2)]
        del h1, h2
        assert all(r() is not None for r in refs)  # the tape holds them until backward
        assert tape.backward(loss) == len(tape) == 5
        assert all(r() is None for r in refs)
        assert h3.grad is None and scaled.grad is None
        np.testing.assert_array_equal(loss.grad, 1.0)
        for p, g in zip(leaves, expect):
            np.testing.assert_array_equal(p.grad, g)

    def test_forward_determinism(self, rng):
        a = rng.normal(size=(4, 4))
        out1 = T.tanh(T.matmul(Tensor(a), Tensor(a)))
        out2 = T.tanh(T.matmul(Tensor(a), Tensor(a)))
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_nan_raises_never_silent(self):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            T.matmul(Tensor([[1e300, 1e300]]), Tensor([[1e300], [1e300]]))
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            T.mul(Tensor([1e300]), Tensor([1e300]))


class TestFusedKernels:
    def test_gru_zero_everything_is_fixed_point(self):
        """Zero input, hidden, and weights: h' = (1-sig(0))*tanh(0) + sig(0)*0 = 0."""
        d = 5
        zeros = lambda *s: Tensor(np.zeros(s))
        out = T.gru_step(zeros(2, d), zeros(2, d), zeros(d, 3 * d), zeros(3 * d),
                         zeros(d, 3 * d), zeros(3 * d))
        np.testing.assert_array_equal(out.data, np.zeros((2, d)))

    def test_gru_determinism(self, rng):
        d = 4
        ws = [Tensor(rng.normal(size=s) * 0.3) for s in
              [(d, 3 * d), (3 * d,), (d, 3 * d), (3 * d,)]]
        x = Tensor(rng.normal(size=(3, d)))
        h = Tensor(rng.normal(size=(3, d)))
        a = T.gru_step(x, h, *ws)
        b = T.gru_step(x, h, *ws)
        np.testing.assert_array_equal(a.data, b.data)

    def test_gru_unrolled_gradient(self, rng):
        """Scalar loss through 5 unrolled steps matches finite differences."""
        d = 3
        params = [Tensor(rng.normal(size=s) * 0.4, requires_grad=True) for s in
                  [(d, 3 * d), (3 * d,), (d, 3 * d), (3 * d,)]]
        xs = [Tensor(rng.normal(size=(2, d))) for _ in range(5)]

        def loss():
            h = Tensor(np.zeros((2, d)))
            for x in xs:
                h = T.gru_step(x, h, *params)
            return T.tsum(h * h)

        check_grad(loss, params, tol=1e-4)

    def test_gru_mask_freezes_hidden(self, rng):
        d = 4
        ws = [Tensor(rng.normal(size=s) * 0.3) for s in
              [(d, 3 * d), (3 * d,), (d, 3 * d), (3 * d,)]]
        x = Tensor(rng.normal(size=(2, d)))
        h = Tensor(rng.normal(size=(2, d)))
        out = T.gru_step(x, h, *ws, live=np.array([0]))
        np.testing.assert_array_equal(out.data[1], h.data[1])
        assert not np.allclose(out.data[0], h.data[0])

    @pytest.mark.parametrize("rows, d", [(1, 4), (7, 4), (48, 64)])
    def test_gru_projected_input_same_bits(self, rng, rows, d):
        """Rows of a table of every token's x @ w_ih + b_ih, passed with w_ih
        and b_ih None, give the bits of the step that projects x itself, with
        and without live rows."""
        w_ih, b_ih, w_hh, b_hh = [Tensor(rng.normal(size=s) * 0.3) for s in
                                  [(d, 3 * d), (3 * d,), (d, 3 * d), (3 * d,)]]
        emb = Tensor(rng.normal(size=(30, d)))
        table = T.matmul(emb, w_ih) + b_ih
        ids = rng.integers(0, 30, size=rows)
        h = Tensor(rng.normal(size=(rows, d)))
        for live in (None, np.arange(0, rows, 2)):
            own = T.gru_step(T.take_rows(emb, ids), h, w_ih, b_ih, w_hh, b_hh, live=live)
            projected = T.gru_step(T.take_rows(table, ids), h, None, None, w_hh, b_hh, live=live)
            np.testing.assert_array_equal(projected.data, own.data)

    def test_gru_projected_input_refused_on_a_recording_tape(self, rng):
        """The projected form has no backward: a step the tape would record
        raises, and one with only w_ih or only b_ih is refused too."""
        d = 3
        w_hh = Tensor(rng.normal(size=(d, 3 * d)), requires_grad=True)
        b_hh = Tensor(np.zeros(3 * d), requires_grad=True)
        gi, h = Tensor(rng.normal(size=(2, 3 * d))), Tensor(rng.normal(size=(2, d)))
        with Tape() as tape:
            with pytest.raises(RuntimeError, match="already projected"):
                T.gru_step(gi, h, None, None, w_hh, b_hh)
            with T.no_grad():
                T.gru_step(gi, h, None, None, w_hh, b_hh)
        assert len(tape) == 0
        with pytest.raises(DimensionError, match="together"):
            T.gru_step(gi, h, None, b_hh, w_hh, b_hh)

    def test_attend_gradient(self, rng):
        q = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        mask = np.array([[True, True, True, False], [True, True, False, False]])
        check_grad(lambda: T.tsum(T.attend(q, k, mask)), [q, k], tol=1e-4)

    def test_attend_ignores_masked_positions(self, rng):
        q = Tensor(rng.normal(size=(1, 3)))
        k1 = rng.normal(size=(1, 4, 3))
        k2 = k1.copy()
        k2[0, 3] = 99.0  # masked row, must not matter
        mask = np.array([[True, True, True, False]])
        out1 = T.attend(q, Tensor(k1), mask)
        out2 = T.attend(q, Tensor(k2), mask)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_max_over_time_gradient(self, rng):
        """Central differences away from ties; at a tie, as where a finished
        row's carried state repeats its last one, the gradient goes to the
        first of the equal steps only."""
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_grad(lambda: T.tsum(T.max_over_time(x)), [x], tol=1e-5)
        x.data[:, 2:] = x.data[:, 1:2] + 10.0
        x.grad = None
        with Tape() as tape:
            out = T.max_over_time(x)
            loss = T.tsum(out)
        tape.backward(loss)
        np.testing.assert_array_equal(out.data, x.data[:, 2])
        np.testing.assert_array_equal(x.grad[:, 2], 1.0)
        assert not x.grad[:, [0, 1, 3]].any()


class TestGradientSweep:
    """Spec invariant: every differentiable op matches central differences
    on random small tensors (dims <= 8) at relative error < 1e-4."""

    def test_all_ops_random_small_tensors(self, rng):
        d = 5
        a = Tensor(rng.normal(size=(3, d)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, d)) + 0.1, requires_grad=True)
        w = Tensor(rng.normal(size=(d, 4)), requires_grad=True)
        cases = {
            "add": lambda: T.tsum(T.add(a, b) * 2.0),
            "mul": lambda: T.tsum(T.mul(a, b)),
            "neg": lambda: T.tsum(T.neg(a) * 3.0),
            "matmul": lambda: T.tsum(T.matmul(a, w)),
            "tanh": lambda: T.tsum(T.tanh(a)),
            "mean": lambda: T.tmean(a * a),
            "reshape": lambda: T.tsum(T.reshape(a, (d, 3)) * 0.5),
            "concat": lambda: T.tsum(T.concat([a, b]) * 0.7),
            "stack": lambda: T.tsum(T.stack([a, b]) * 0.7),
            "log_softmax": lambda: T.tsum(T.log_softmax(a) * 0.3),
        }
        for name, fn in cases.items():
            params = [a, b] if name in ("add", "mul", "concat", "stack") else [a]
            if name == "matmul":
                params = [a, w]
            check_grad(fn, params, tol=1e-4)

    def test_take_rows_and_gather(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 5])
        check_grad(lambda: T.tsum(T.take_rows(table, ids)), [table], tol=1e-5)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        idx = np.array([[1], [3], [0]])
        check_grad(lambda: T.tsum(T.gather(x, idx)), [x], tol=1e-5)

    def test_finite_difference_helper_sanity(self):
        """The oracle itself differentiates x^2 correctly."""
        x = np.array([3.0])
        g = finite_difference(lambda: float(x[0] ** 2), x)
        assert abs(g[0] - 6.0) < 1e-6
