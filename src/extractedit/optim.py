"""Adam optimizer over named parameter groups."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the published Adam constants


class Adam:
    """Adam over a named parameter dict; moments are keyed by name.

    A missing gradient counts as zero (the moments still decay), so
    parameters untouched by the current loss stay put only while their
    moments are zero.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        """One bias-corrected update of every parameter and its moments, in
        place. A non-finite gradient raises NonFiniteError, naming its
        parameter, before anything changes."""
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(f"non-finite gradient for {name}")
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live moment arrays, ``m.<name>`` then ``v.<name>`` per parameter,
        for a checkpoint to save and to restore in place."""
        return {f"{t}.{k}": moments[k] for k in self.params
                for t, moments in (("m", self.m), ("v", self.v))}
