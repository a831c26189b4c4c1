"""Shared oracles and fixtures.

The finite-difference helper here is the independent gradient oracle used
across the suite; it never touches the tape's backward machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from extractedit.tensor import Tensor


def finite_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, coordinate-wise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error with an absolute floor for near-zero entries."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_grad(build_loss, params: list[Tensor], tol: float = 1e-4, h: float = 1e-6,
               max_coords: int | None = None, rng: np.random.Generator | None = None) -> None:
    """Compare tape gradients of ``build_loss()`` against central differences.

    ``build_loss`` must construct the loss from scratch (reading the current
    ``param.data`` buffers) and return a scalar Tensor. When ``max_coords``
    is set, a deterministic random subset of coordinates is checked per
    parameter to bound runtime.
    """
    from extractedit.tensor import Tape

    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    def value():
        return float(build_loss().data)

    for p, g_an in zip(params, analytic):
        assert g_an is not None, "parameter received no gradient"
        flat = p.data.reshape(-1)
        gflat = g_an.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            r = rng if rng is not None else np.random.default_rng(0)
            coords = r.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = value()
            flat[i] = orig - h
            fm = value()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            # absolute floor absorbs central-difference rounding noise
            # (~|f| * eps / h) on numerically-zero gradient coordinates
            bound = tol * max(abs(fd), abs(gflat[i])) + 1e-7
            assert abs(fd - gflat[i]) <= bound, (
                f"gradient mismatch at coord {i}: fd={fd} tape={gflat[i]}"
            )


def encoder_params(model) -> dict[str, Tensor]:
    """The embedding table plus the encoder stack (theta_enc) of a
    TranslationModel, by name."""
    return {k: p for k, p in model.named_parameters().items()
            if k == "embedding" or k.startswith("encoder.")}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
