"""Dense float tensors with reverse-mode autodiff on an explicit tape.

A ``Tensor`` keeps a float32 array as float32 and turns anything else into
float64, and each op computes in its operands' dtype. Training, its tape
and its gradients are float64; ``model.TranslationModel.decode_greedy_batch``
runs on float32 copies of its inputs and weights, since its only output is
argmax token ids.

The tape is rebuilt every training step: ops executed while a ``Tape`` is
active append one node each, and ``Tape.backward`` replays the nodes in
exact reverse append order. A tape is single-use: as the backward pass
goes, it releases each node's closure, inputs and output, and the
gradient of every intermediate output, so a step holds at most its
forward state and never all of its gradients on top. A node's closure
keeps only what its backward reads. Parameters are plain ``Tensor``
objects with ``requires_grad=True`` that outlive any tape, and they and
the other leaves keep their gradients. Fused kernels (``gru_step``,
``attend``, ``max_over_time``, ``log_softmax``) keep tapes short enough
for pure-Python dispatch to stay off the critical path. No op takes an axis.

``add``, ``mul``, ``matmul``, ``cosine``, ``gru_step``, ``attend`` and
``max_over_time`` check that their output is finite (NaN/Inf raises
``NonFiniteError``); the other ops do not.

The module sets no thread policy; the package sets one BLAS thread per
process unless the caller chose a count (see ``extractedit``'s docstring).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateInputError(ValueError):
    """Structurally valid input that is mathematically degenerate (zero norm, empty)."""


class NonFiniteError(FloatingPointError):
    """NaN or Inf, made by a forward operation or met in a gradient by
    ``optim.Adam.step``."""


def _as_float(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced non-finite values")


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product that gives a 1-row ``a`` the matrix-matrix path.

    BLAS sends a 1-row product down its matrix-vector path, which rounds
    differently from the matrix-matrix path larger batches take, so a 1-row
    ``a`` is computed as a 2-row product and trimmed. Whether a row's bits
    then depend on how many rows ``a`` has is up to BLAS and the shape: the
    tests pin that they do not for the encoder's float64 GRU products at
    hidden 64, (B, 64) @ (64, 192), at heights 1 to 320. On OpenBLAS 0.3.31
    they do at other shapes, such as hidden 100's (B, 100) @ (100, 300)
    below a few hundred rows.
    """
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


class Tensor:
    """Dense array that can participate in gradient recording.

    A float32 array stays float32; Python numbers, lists, and arrays of
    every other dtype (ints and bools among them) become float64. ``grad``
    is allocated lazily by the backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_error()

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # arithmetic sugar; full contracts live on the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def _scalar_error():
    raise DimensionError("item() requires a single-element tensor")


class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


_ACTIVE: Tape | None = None


class Tape:
    """Ordered record of differentiable operations.

    Used as a context manager; ops executed inside the block are recorded.
    ``backward`` walks the record once, strictly in reverse append order,
    and returns the number of nodes visited (for conservation checks).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._prev: Tape | None = None
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, root: Tensor) -> int:
        """Accumulate d root / d leaf into the ``grad`` of every leaf that
        requires it; returns the number of nodes whose backward ran.

        Each node is released as the walk reaches it: its closure, inputs
        and output are dropped, and so is its output's gradient (unless
        that output is ``root``), which is final by then because every
        consumer of the output was appended later and has already run. The
        tape therefore cannot run backward twice: a second call raises
        ``RuntimeError``. ``len(tape)`` still counts the recorded nodes.
        """
        if self._spent:
            raise RuntimeError("this tape has already run backward; record a new Tape")
        if root.data.size != 1:
            raise DimensionError("backward root must be a scalar")
        self._spent = True
        if root.grad is None:
            root.grad = np.ones_like(root.data)
        visited = 0
        for node in reversed(self.nodes):
            out, inputs, bwd = node.out, node.inputs, node.bwd
            node.out = node.inputs = node.bwd = None
            og = out.grad
            if og is None:
                continue
            visited += 1
            if out is not root:
                out.grad = None
            grads = bwd(og)
            for t, g in zip(inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    # own the buffer: copy views and pass-through references
                    t.grad = g.copy() if (g is og or g.base is not None) else g
                else:
                    t.grad += g
        return visited


@contextmanager
def no_grad():
    """Temporarily suspend recording on the active tape."""
    global _ACTIVE
    prev, _ACTIVE = _ACTIVE, None
    try:
        yield
    finally:
        _ACTIVE = prev


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` would be recorded on the active tape."""
    return _ACTIVE is not None and any(i.requires_grad for i in inputs)


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd) -> Tensor:
    if _recording(inputs):
        out.requires_grad = True
        _ACTIVE.nodes.append(_Node(out, inputs, bwd))
    return out


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")

    def bwd(og):
        return _unbroadcast(og, a.data.shape), _unbroadcast(og, b.data.shape)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")

    def bwd(og):
        return (
            _unbroadcast(og * b.data, a.data.shape),
            _unbroadcast(og * a.data, b.data.shape),
        )

    return _record(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def bwd(og):
        return (-og,)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product; inner dimensions must agree."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(_mm(a.data, b.data))
    _check_finite(out.data, "matmul")

    def bwd(og):
        return og @ b.data.T, a.data.T @ og

    return _record(out, (a, b), bwd)


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = Tensor(x.data.sum())

    def bwd(og):
        return (np.broadcast_to(og, x.data.shape),)

    return _record(out, (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    """Mean of every element, as a 0-d tensor."""
    out = Tensor(x.data.mean())
    n = x.data.size

    def bwd(og):
        return (np.broadcast_to(og, x.data.shape) / n,)

    return _record(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))

    def bwd(og):
        return (og * (1.0 - out.data * out.data),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(og):
        return (og.reshape(x.data.shape),)

    return _record(out, (x,), bwd)


def concat(tensors) -> Tensor:
    """Join along the last axis."""
    tensors = tuple(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1))
    splits = np.cumsum([t.data.shape[-1] for t in tensors])[:-1]

    def bwd(og):
        return tuple(np.split(og, splits, axis=-1))

    return _record(out, tensors, bwd)


def stack(tensors) -> Tensor:
    """Stack per-step (B, ...) tensors along axis 1, the time axis."""
    tensors = tuple(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=1))

    def bwd(og):
        return tuple(np.moveaxis(og, 1, 0))

    return _record(out, tensors, bwd)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding gather); duplicate ids accumulate in backward."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bwd(og):
        g = np.zeros_like(table.data)
        np.add.at(g, ids, og)
        return (g,)

    return _record(out, (table,), bwd)


def gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick entries along the last axis at constant integer positions."""
    idx = np.asarray(idx)
    out = Tensor(np.take_along_axis(x.data, idx, axis=-1))

    def bwd(og):
        g = np.zeros_like(x.data)
        np.put_along_axis(g, idx, og, axis=-1)
        return (g,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# log-softmax and cosine


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax along the last axis."""
    m = x.data.max(axis=-1, keepdims=True)
    s = x.data - m
    lse = np.log(np.exp(s).sum(axis=-1, keepdims=True))
    out = Tensor(s - lse)

    def bwd(og):
        return (og - np.exp(out.data) * og.sum(axis=-1, keepdims=True),)

    return _record(out, (x,), bwd)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last axis, broadcasting leading axes.

    Raises ``DegenerateInputError`` if any participating vector has zero
    norm. Output lies in [-1, 1] up to rounding.
    """
    a, b = _wrap(a), _wrap(b)
    na2 = (a.data * a.data).sum(axis=-1, keepdims=True)
    nb2 = (b.data * b.data).sum(axis=-1, keepdims=True)
    if np.any(na2 == 0.0) or np.any(nb2 == 0.0):
        raise DegenerateInputError("cosine of a zero-norm vector")
    na = np.sqrt(na2)
    nb = np.sqrt(nb2)
    dot = (a.data * b.data).sum(axis=-1, keepdims=True)
    val = dot / (na * nb)
    out = Tensor(val[..., 0])
    _check_finite(out.data, "cosine")

    def bwd(og):
        g = og[..., None]
        ga = g * (b.data / (na * nb) - val * a.data / na2)
        gb = g * (a.data / (na * nb) - val * b.data / nb2)
        return (
            _unbroadcast(ga, a.data.shape),
            _unbroadcast(gb, b.data.shape),
        )

    return _record(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# fused sequence-model kernels


def gru_step(x, h, w_ih, b_ih, w_hh, b_hh, live: np.ndarray | None = None) -> Tensor:
    """One gated-recurrence step on a batch, with hand-written backward.

    Gate layout along the last weight axis is [reset | update | candidate].
    ``live``, when given, holds the distinct indices of the rows still inside
    their sentence: only those rows are computed, and every other row keeps its
    hidden state (out = h) and passes its gradient straight back to ``h``,
    so padded positions contribute exactly zero to every parameter
    gradient. ``None`` means every row is live.

    A live row gets the same bits as in a full-height step where the forward
    products ``x @ w_ih`` and ``h @ w_hh`` do not depend on how many rows
    they have (see ``_mm`` for the shapes tested). The backward's four
    products do on OpenBLAS (``dgi @ w_hh.T`` rounds differently in a short
    product than in a tall one, and ``x.T @ dgi`` changes once the frozen
    rows are dropped), so they run at full height on gate gradients that are
    zero on the frozen rows; only the element-wise gate work is restricted
    to the live rows.

    With ``w_ih`` and ``b_ih`` both None, ``x`` is the input already
    projected, ``x @ w_ih + b_ih`` (B, 3d), for example rows gathered from a
    table of every token's projection; a row gets the same bits either way.
    That form has no backward (it needs ``x`` and ``w_ih``), so a step
    that would be recorded on the active tape refuses it.

    A recorded step keeps, per live row, ``rz`` (both gates), a copy of the
    candidate third of ``h @ w_hh + b_hh`` and the candidate ``n``: 4 × d
    floats. The backward gathers the live rows of ``h`` again and
    recomputes ``1 - z``; both give the forward's bits. A step that is not
    recorded makes no copy and builds no closure.
    """
    x, h = _wrap(x), _wrap(h)
    d = h.data.shape[-1]
    projected = w_ih is None
    if projected != (b_ih is None):
        raise DimensionError("gru_step takes w_ih and b_ih together, or neither")
    if projected and _recording((x, h, w_hh, b_hh)):
        raise RuntimeError("gru_step cannot record a step on an already projected input")
    if w_hh.data.shape != (d, 3 * d) or not (projected or w_ih.data.shape[1] == 3 * d):
        raise DimensionError("gru_step weight shapes do not match the hidden size")
    if x.data.shape[-1] != (3 * d if projected else w_ih.data.shape[0]):
        raise DimensionError("gru_step input width does not match w_ih")
    rows = slice(None) if live is None else live  # basic slice: views, no copy
    xl = x.data[rows]
    hl = h.data[rows]
    if projected:
        gi = xl  # read only below
    else:
        gi = _mm(xl, w_ih.data)
        gi += b_ih.data
    gh = _mm(hl, w_hh.data)
    gh += b_hh.data
    # sigmoid(a) = 0.5 * (1 + tanh(0.5 * a)) for both gates in one pass:
    # numpy's float64 tanh is several times faster than its exp, and the
    # tanh form cannot overflow
    rz = gi[:, : 2 * d] + gh[:, : 2 * d]
    rz *= 0.5
    np.tanh(rz, out=rz)
    rz += 1.0
    rz *= 0.5
    r = rz[:, :d]
    z = rz[:, d:]
    gh_n = gh[:, 2 * d :]
    n = r * gh_n
    n += gi[:, 2 * d :]
    np.tanh(n, out=n)
    h_new = (1.0 - z) * n
    h_new += z * hl
    if live is not None:
        out_data = h.data.copy()
        out_data[live] = h_new
        h_new = out_data
    out = Tensor(h_new)
    _check_finite(out.data, "gru_step")
    inputs = (x, h, w_ih, b_ih, w_hh, b_hh)
    if projected or not _recording(inputs):
        return out
    gh_n = gh_n.copy()  # the backward reads this third of gh, and none of gi

    def bwd(og):
        ogl = og[rows]
        hl = h.data[rows]
        one_z = 1.0 - z
        # gate-space gradients of the live rows, written into fused buffers
        dgl = np.empty((n.shape[0], 3 * d))
        da_r = dgl[:, :d]
        da_z = dgl[:, d : 2 * d]
        da_n = dgl[:, 2 * d :]
        np.multiply(ogl, one_z, out=da_n)
        da_n *= 1.0 - n * n
        np.multiply(da_n, gh_n, out=da_r)
        da_r *= r
        da_r *= 1.0 - r
        np.multiply(ogl, hl - n, out=da_z)
        da_z *= z
        da_z *= one_z
        if live is None:
            dgi = dgl
            dh = ogl * z
        else:
            dgi = np.zeros((og.shape[0], 3 * d))
            dgi[live] = dgl
            dh = og.copy()  # frozen rows pass their gradient straight through
            dh[live] = ogl * z
        dgh = dgi.copy()
        dgh[rows, 2 * d :] = da_n * r
        dh += dgh @ w_hh.data.T
        dx = dgi @ w_ih.data.T
        return (dx, dh, x.data.T @ dgi, dgi.sum(axis=0),
                h.data.T @ dgh, dgh.sum(axis=0))

    return _record(out, inputs, bwd)


def attend(query: Tensor, keys: Tensor, mask: np.ndarray) -> Tensor:
    """Dot-product attention: softmax(query . keys) pooled over keys.

    query (B, d), keys (B, T, d), mask (B, T) boolean marking valid
    positions (at least one per row). Returns the context vector (B, d).
    """
    scores = np.einsum("bd,btd->bt", query.data, keys.data)
    scores = np.where(mask, scores, -1e30)
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    att = e / e.sum(axis=1, keepdims=True)
    out = Tensor(np.einsum("bt,btd->bd", att, keys.data))
    _check_finite(out.data, "attend")

    def bwd(og):
        datt = np.einsum("bd,btd->bt", og, keys.data)
        dscores = att * (datt - (datt * att).sum(axis=1, keepdims=True))
        dq = np.einsum("bt,btd->bd", dscores, keys.data)
        dk = dscores[:, :, None] * query.data[:, None, :] + att[:, :, None] * og[:, None, :]
        return dq, dk

    return _record(out, (query, keys), bwd)


def max_over_time(x: Tensor) -> Tensor:
    """Max over the time axis of (B, T, d). Gradient flows to the first
    (lowest-t) argmax of each coordinate."""
    arg = x.data.argmax(axis=1)
    out = Tensor(np.take_along_axis(x.data, arg[:, None, :], axis=1)[:, 0, :])
    _check_finite(out.data, "max_over_time")

    def bwd(og):
        g = np.zeros_like(x.data)
        np.put_along_axis(g, arg[:, None, :], og[:, None, :], axis=1)
        return (g,)

    return _record(out, (x,), bwd)
