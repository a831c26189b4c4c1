"""Spans and counts recorded around the public calls into each layer.

The traced run replaces module attributes and class methods of
``extractedit`` with wrappers from outside the package. Each wrapped
call appends one span (name, start, end, parent span) to flat arrays
kept in memory, and a counting function may add counts at the same
boundary. A layer's self time is its span minus the time its child
spans cover, so nested calls are charged to the innermost wrapped layer.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.active = False

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span per call while active.

        ``count(rec, result, *args, **kwargs)`` runs after the span closes.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            self.add(name + ".calls", 1)
            if count is not None:
                count(self, out, *args, **kwargs)
            return out

        return wrapper

    def mark(self) -> int:
        return len(self.start)

    def times_ms(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, total span time) in ms per span name over spans [lo, hi)."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = end - start
        covered = np.zeros(len(dur))
        inside = parent >= lo
        np.add.at(covered, parent[inside] - lo, dur[inside])
        own = np.zeros(len(self.names))
        total = np.zeros(len(self.names))
        np.add.at(own, names, dur - covered)
        np.add.at(total, names, dur)
        return ({n: float(v) * 1e3 for n, v in zip(self.names, own)},
                {n: float(v) * 1e3 for n, v in zip(self.names, total)})

    def top_level_ms(self, lo: int, hi: int) -> float:
        """Time covered by spans with no wrapped parent, in ms."""
        total = 0.0
        for i in range(lo, hi):
            if self.parent[i] < lo:
                total += self.end[i] - self.start[i]
        return total * 1e3

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# -- counters at layer boundaries ----------------------------------------------


def _count_backward(rec, nodes, tape, root):
    rec.add("tensor.backward.nodes", nodes)


def _count_gru(rec, out, x, *args, **kwargs):
    rec.add("tensor.gru_step.rows", x.data.shape[0])


def _count_encode(rec, out, model, sentences):
    lengths = [len(s) for s in sentences]
    rec.add("model.encode_batch.rows", len(lengths))
    rec.add("model.encode_batch.tokens", sum(lengths))
    rec.add("model.encode_batch.slots", len(lengths) * max(lengths))


def _count_decode(rec, out, model, init, h_enc, enc_mask, lang, max_len=None):
    sentences, truncated = out
    if max_len is None:
        max_len = model.config.max_len
    # the loop runs to max_len when any row is truncated, else until the
    # last row emits EOS one step after its final token
    steps = max_len if truncated.any() else max(len(s) for s in sentences) + 1
    rec.add("model.decode_greedy_batch.rows", len(sentences))
    rec.add("model.decode_greedy_batch.steps", steps)
    rec.add("model.decode_greedy_batch.truncated", int(truncated.sum()))


def _count_build_index(rec, index, corpus, model, episode):
    rec.add("engine.build_index.rows", len(corpus))


def _count_extract(rec, out, queries, index, k):
    n = len(out[0])
    rec.add("engine.extract_topk_batch.queries", n)
    rec.add("engine.extract_topk_batch.dist_evals", n * len(index))


def _count_edit(rec, out, e_src, extracted, *args, **kwargs):
    rec.add("engine.edit_batch.rows", len(extracted))
    rec.add("engine.edit_batch.unique", len({s.tobytes() for s in extracted}))


def _count_save(rec, directory, trainer, *args, **kwargs):
    size = sum(f.stat().st_size for f in directory.iterdir())
    rec.add("checkpoint.save.bytes", size)


ENGINE_NAMES = ("build_index", "extract_topk_batch", "edit_batch", "score_candidates_batch")


def install(rec: Recorder, engine_only: bool = False) -> None:
    """Wrap the traced entry points of ``extractedit`` in place.

    ``engine_only`` wraps just the engine functions, to count their calls.
    """
    from extractedit import cipher, engine, model, optim, tensor, training

    def patch(owner, attr, name, count=None, also=()):
        wrapped = rec.wrap(name, getattr(owner, attr), count)
        for target in (owner, *also):
            setattr(target, attr, wrapped)

    counters = {"build_index": _count_build_index, "extract_topk_batch": _count_extract,
                "edit_batch": _count_edit}
    for fn in ENGINE_NAMES:
        # training imports these by name, so its bindings are replaced too
        patch(engine, fn, "engine." + fn, counters.get(fn), also=(training,))
    if engine_only:
        return
    patch(tensor.Tape, "backward", "tensor.backward", _count_backward)
    patch(tensor, "gru_step", "tensor.gru_step", _count_gru)
    patch(tensor, "attend", "tensor.attend")
    patch(optim.Adam, "step", "optim.adam")
    patch(model.TranslationModel, "encode_batch", "model.encode_batch", _count_encode)
    patch(model.TranslationModel, "decode_greedy_batch", "model.decode_greedy_batch",
          _count_decode)
    patch(model.TranslationModel, "nll_batch", "model.nll_batch")
    patch(training.Trainer, "validate", "training.validate")
    patch(training.Trainer, "save_checkpoint", "checkpoint.save", _count_save)
    patch(training.Trainer, "restore", "checkpoint.restore")
    patch(cipher, "generate_cipher_pair", "cipher.generate")


def engine_calls(rec: Recorder) -> int:
    return int(sum(rec.counts.get(f"engine.{fn}.calls", 0) for fn in ENGINE_NAMES))


def thread_count() -> int:
    """Threads of this process, BLAS workers included (Linux only; else 0)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, setup: tuple[int, int], timed: tuple[int, int],
                  n_setups: int, skipped_frac: float) -> dict[str, float]:
    """Per-layer metric values: timed-phase sums, setup layers per set-up.

    ``.ms`` is self time; ``.total_ms`` is the whole span, nested layers
    included, for entry points that call other traced layers.
    """
    own, total = rec.times_ms(*timed)
    own_setup = rec.times_ms(*setup)[0]
    c = rec.counts
    return {
        "tensor.backward.ms": own["tensor.backward"],
        "tensor.backward.calls": c.get("tensor.backward.calls", 0),
        "tensor.backward.nodes": c.get("tensor.backward.nodes", 0),
        "tensor.gru_step.ms": own["tensor.gru_step"],
        "tensor.gru_step.calls": c.get("tensor.gru_step.calls", 0),
        "tensor.gru_step.rows": c.get("tensor.gru_step.rows", 0),
        "tensor.attend.ms": own["tensor.attend"],
        "tensor.attend.calls": c.get("tensor.attend.calls", 0),
        "tensor.blas_threads": thread_count(),
        "optim.adam.ms": own["optim.adam"],
        "optim.adam.calls": c.get("optim.adam.calls", 0),
        "model.encode_batch.ms": own["model.encode_batch"],
        "model.encode_batch.total_ms": total["model.encode_batch"],
        "model.encode_batch.calls": c.get("model.encode_batch.calls", 0),
        "model.encode_batch.rows": c.get("model.encode_batch.rows", 0),
        "model.encode_batch.useful_frac": _ratio(c.get("model.encode_batch.tokens", 0),
                                                 c.get("model.encode_batch.slots", 0)),
        "model.decode_greedy_batch.ms": own["model.decode_greedy_batch"],
        "model.decode_greedy_batch.total_ms": total["model.decode_greedy_batch"],
        "model.decode_greedy_batch.calls": c.get("model.decode_greedy_batch.calls", 0),
        "model.decode_greedy_batch.rows": c.get("model.decode_greedy_batch.rows", 0),
        "model.decode_greedy_batch.steps": c.get("model.decode_greedy_batch.steps", 0),
        "model.decode_greedy_batch.truncated_frac": _ratio(
            c.get("model.decode_greedy_batch.truncated", 0),
            c.get("model.decode_greedy_batch.rows", 0)),
        "model.nll_batch.ms": own["model.nll_batch"],
        "model.nll_batch.total_ms": total["model.nll_batch"],
        "model.nll_batch.calls": c.get("model.nll_batch.calls", 0),
        "engine.build_index.ms": own["engine.build_index"],
        "engine.build_index.total_ms": total["engine.build_index"],
        "engine.build_index.calls": c.get("engine.build_index.calls", 0),
        "engine.build_index.rows": c.get("engine.build_index.rows", 0),
        "engine.extract_topk_batch.ms": own["engine.extract_topk_batch"],
        "engine.extract_topk_batch.queries": c.get("engine.extract_topk_batch.queries", 0),
        "engine.extract_topk_batch.dist_evals": c.get("engine.extract_topk_batch.dist_evals", 0),
        "engine.edit_batch.ms": own["engine.edit_batch"],
        "engine.edit_batch.total_ms": total["engine.edit_batch"],
        "engine.edit_batch.rows": c.get("engine.edit_batch.rows", 0),
        "engine.edit_batch.unique_frac": _ratio(c.get("engine.edit_batch.unique", 0),
                                                c.get("engine.edit_batch.rows", 0)),
        "engine.score_candidates_batch.ms": own["engine.score_candidates_batch"],
        "engine.score_candidates_batch.calls": c.get("engine.score_candidates_batch.calls", 0),
        "training.validate.ms": own["training.validate"],
        "training.validate.total_ms": total["training.validate"],
        "training.skipped_frac": skipped_frac,
        "checkpoint.save.ms": own["checkpoint.save"],
        "checkpoint.save.bytes": c.get("checkpoint.save.bytes", 0),
        "checkpoint.restore.ms": own_setup["checkpoint.restore"] / n_setups,
        "cipher.generate.ms": own_setup["cipher.generate"] / n_setups,
    }
