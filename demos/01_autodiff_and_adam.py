"""A tour of the tensor engine: tapes, gradients, and Adam.

Run with: python demos/01_autodiff_and_adam.py
"""

import numpy as np

from extractedit import tensor as T
from extractedit.optim import Adam
from extractedit.tensor import Tape, Tensor

# --- forward math records onto an explicit tape ---------------------------

rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(2, 4)))

with Tape() as tape:
    y = T.tanh(T.matmul(x, w))
    loss = T.tmean(y * y)
print(f"recorded {len(tape)} ops; loss = {loss.item():.6f}")

visited = tape.backward(loss)
print(f"backward visited {visited} nodes; |dL/dw| max = {np.abs(w.grad).max():.4g}")

# --- check one coordinate against finite differences -----------------------

def value() -> float:
    y = T.tanh(T.matmul(x, w))
    return T.tmean(y * y).item()

h = 1e-6
orig = w.data[0, 0]
w.data[0, 0] = orig + h
up = value()
w.data[0, 0] = orig - h
down = value()
w.data[0, 0] = orig
print(f"finite diff {(up - down) / (2 * h):.8f} vs tape {w.grad[0, 0]:.8f}")

# --- Adam walks a quadratic downhill ---------------------------------------

w2 = Tensor([3.0], requires_grad=True)
opt = Adam({"w": w2}, lr=0.1)
for step in range(100):
    opt.zero_grad()
    with Tape() as tape:
        loss = T.tsum(w2 * w2)
    tape.backward(loss)
    opt.step()
print(f"after 100 Adam steps on w^2: w = {w2.data[0]:.6f}")
