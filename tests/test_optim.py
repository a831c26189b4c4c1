"""Adam: descent sanity and exact agreement with the published recurrences."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from extractedit.optim import Adam, TrainingDivergenceError
from extractedit.tensor import Tape, Tensor, tsum


def test_zero_gradient_fresh_state_leaves_params_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    opt.step()  # no grad at all -> treated as zero
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 1


def test_moments_decay_toward_zero_on_zero_grad():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    m1 = abs(opt.m["p"][0])
    p.grad = np.array([0.0])
    for _ in range(5):
        opt.step()
    assert abs(opt.m["p"][0]) < m1


def test_descent_direction_on_quadratic():
    """One step on f(w)=w^2 at w=1 with lr=0.1 decreases w."""
    w = Tensor([1.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    with Tape() as tape:
        loss = tsum(w * w)
    tape.backward(loss)
    opt.step()
    assert w.data[0] < 1.0


def test_three_steps_match_reference_recurrence():
    """Hand-rolled reference of the published update, exact match."""
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    w_ref = 1.5
    m = v = 0.0
    ref_trace = []
    for t in range(1, 4):
        g = 2.0 * w_ref  # d/dw w^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        ref_trace.append(w_ref)

    w = Tensor([1.5], requires_grad=True)
    opt = Adam({"w": w}, lr=lr)
    for t in range(3):
        opt.zero_grad()
        with Tape() as tape:
            loss = tsum(w * w)
        tape.backward(loss)
        opt.step()
        assert w.data[0] == ref_trace[t]


def test_step_count_increments_by_one():
    p = Tensor([0.0], requires_grad=True)
    opt = Adam({"p": p}, lr=3e-4)
    for expected in (1, 2, 3):
        opt.step()
        assert opt.step_count == expected


def test_non_finite_gradient_raises_with_step_index():
    p = Tensor([0.0], requires_grad=True)
    opt = Adam({"p": p}, lr=3e-4)
    opt.step()
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingDivergenceError) as exc:
        opt.step()
    assert exc.value.step == 2


def test_divergence_error_survives_pickling():
    """A sweep-k worker sends its error to the parent process pickled."""
    err = pickle.loads(pickle.dumps(TrainingDivergenceError("non-finite gradient for q", 7)))
    assert isinstance(err, TrainingDivergenceError)
    assert (str(err), err.step) == ("non-finite gradient for q (step 7)", 7)


def test_non_finite_gradient_changes_nothing():
    """The second parameter's NaN gradient raises before the first
    parameter, its moments or the step count move."""
    p = Tensor([1.0, -1.0], requires_grad=True)
    q = Tensor([2.0], requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([1.0])
    opt.step()
    before = {k: a.copy() for k, a in opt.state_arrays().items()}
    params = {"p": p.data.copy(), "q": q.data.copy()}
    p.grad, q.grad = np.array([0.25, 0.25]), np.array([np.nan])
    with pytest.raises(TrainingDivergenceError, match="q") as exc:
        opt.step()
    assert exc.value.step == 2
    assert opt.step_count == 1
    for name, a in opt.state_arrays().items():
        np.testing.assert_array_equal(a, before[name])
    np.testing.assert_array_equal(p.data, params["p"])
    np.testing.assert_array_equal(q.data, params["q"])


def test_moment_shapes_match_parameters():
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    q = Tensor(np.zeros(7), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=3e-4)
    assert opt.m["p"].shape == (3, 4)
    assert opt.v["q"].shape == (7,)

