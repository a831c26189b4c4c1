"""End-to-end benchmark of extractedit.

Usage, from the repository root:

    python3 perfbench/run.py --workload ee-train --seed 1 --seconds 20 --trace 0

Each run is one fresh process and one closed loop: the training or
extraction loop is the only client and the benchmark starts no threads.
The run sets up (corpus generation, Trainer construction, warm-start
restore) several times and keeps the last set-up, times the workload,
checks the program's outputs, and prints two JSON lines: a full record
(context, quality scores, checks, metrics) for ``compare.py``, then the
result object, always the last line. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each layer's public calls (see
``spans.py``) and reports the per-layer metrics instead.

The warm start (300 pretraining steps by the code under test) is cached
under ``.bench_build/perfbench`` keyed by a hash of ``src/extractedit``,
the warm-start seed and the shapes; building it is not timed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("ee-train", "bt-train", "extract-dump")

# ROADMAP baseline shapes
SHAPES = dict(hidden_size=64, layers=2, eval_hidden=64, eval_out=64, batch_size=32,
              k=10, max_len=14, episode_len=50, init_mode="oracle")
CIPHER = dict(vocab_size=100, window=1)
N_TRAIN = {"ee-train": 2000, "bt-train": 2000, "extract-dump": 8000}

# The warm start is trained once per source tree, from a fixed seed, on a
# 2000-sentence pair. The substitution (CipherSpec.substitution_seed) does
# not depend on the data seed, so it fits the pair of every run seed.
WARM_SEED = 0
WARM_STEPS = 300

# Work per run: at least the minimum, else --seconds at a nominal cost per
# unit (a 2-CPU machine). Fixed work per argument set keeps every output
# reproducible for a seed. ee-train needs 103 steps: three index rebuilds
# and 100 ordinary steps, so the 90th percentile has ten samples beyond it.
MIN_UNITS = {"ee-train": 103, "bt-train": 100, "extract-dump": 2000}
NOMINAL_S = {"ee-train": 0.35, "bt-train": 0.14, "extract-dump": 0.01}
# Set-ups per run: the last one before the timed phase is the one used,
# the ones after it (untraced runs only) are dropped. setup_s reports the
# median of all. As many come after the timed phase as before it, so that
# when the machine's speed differs between the two ends of the run the
# median falls between them rather than on one end.
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
DIST_TOL = 1e-9  # max |distance - oracle distance| in the extraction check


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build-warm-start", metavar="DIR",
                   help="internal: train the warm start into DIR and exit")
    args = p.parse_args(argv)
    if args.workload is None and args.build_warm_start is None:
        p.error("--workload is required")
    return args


# -- program set-up ----------------------------------------------------------------


def make_trainer(pair, mode: str, seed: int):
    from extractedit.cipher import full_vocab_dictionary
    from extractedit.training import Trainer, TrainConfig

    config = TrainConfig(mode=mode, seed=seed, pretrain_steps=WARM_STEPS,
                         main_steps=10**6, **SHAPES)
    return Trainer(config, pair.vocab, pair.src_train, pair.tgt_train,
                   pair.src_valid, pair.tgt_valid,
                   oracle_dictionary=full_vocab_dictionary(pair))


def generate_pair(seed: int, n_train: int):
    from extractedit import cipher

    # looked up on the module so the traced run sees the call
    return cipher.generate_cipher_pair(cipher.CipherSpec(seed=seed, n_train=n_train, **CIPHER))


def build_warm_start(out: Path) -> None:
    trainer = make_trainer(generate_pair(WARM_SEED, 2000), "extract-edit", WARM_SEED)
    for _ in range(WARM_STEPS):
        trainer.pretrain_step()
    trainer.save_checkpoint(out)


def src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "extractedit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def warm_start(src_digest: str) -> tuple[Path, float]:
    """Path of the cached warm start, built first if missing, and its build time."""
    key = json.dumps({"src": src_digest, "seed": WARM_SEED, "steps": WARM_STEPS,
                      "shapes": SHAPES, "cipher": CIPHER}, sort_keys=True)
    final = CACHE / ("warm-" + hashlib.sha256(key.encode()).hexdigest()[:16])
    if not (final / "build.json").exists():
        tmp = CACHE / f"{final.name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--build-warm-start", str(tmp)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        (tmp / "build.json").write_text(json.dumps({"build_s": time.perf_counter() - t0}))
        try:
            os.replace(tmp, final)
        except OSError:  # another run finished the same build first
            shutil.rmtree(tmp, ignore_errors=True)
    return final, json.loads((final / "build.json").read_text())["build_s"]


def set_up(workload: str, seed: int, warm: Path):
    import numpy as np

    pair = generate_pair(seed, N_TRAIN[workload])
    mode = "back-translation" if workload == "bt-train" else "extract-edit"
    trainer = make_trainer(pair, mode, seed)
    trainer.restore(warm, require_same_config=False)
    # restore brings the warm start's RNG stream; the run seed replaces it
    trainer.rng.bit_generator.state = np.random.default_rng(seed).bit_generator.state
    return pair, trainer


def timed_set_up(workload: str, seed: int, warm: Path):
    """``set_up`` and its wall time, after collecting the garbage of the last one."""
    gc.collect()
    a = time.perf_counter()
    pair, trainer = set_up(workload, seed, warm)
    return pair, trainer, time.perf_counter() - a


# -- timed workloads ------------------------------------------------------------


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_training(trainer, workload: str, units: int, scratch: Path) -> dict:
    """Time ``units`` main steps (plus validation and a save on ee-train)."""
    step_s, rebuild = [], []
    failed = 0
    t0, c0 = time.perf_counter(), cpu_s()
    for _ in range(units):
        episode = trainer.state.episode
        a = time.perf_counter()
        try:
            trainer.main_step()
        except Exception:  # a failed step is counted, and the loop goes on
            traceback.print_exc()
            failed += 1
        step_s.append(time.perf_counter() - a)
        rebuild.append(trainer.state.episode != episode)
    if workload == "ee-train":
        trainer.validate()
        trainer.save_checkpoint(scratch / "checkpoint")
    wall, cpu = time.perf_counter() - t0, cpu_s() - c0
    return {"wall": wall, "cpu": cpu, "sents": 2 * trainer.config.batch_size * units,
            "attempted": units, "failed": failed, "rss_kb": peak_rss_kb(),
            "steps": [s for s, r in zip(step_s, rebuild) if not r],
            "rebuilds": sum(rebuild)}


def run_extract_dump(trainer, units: int, scratch: Path) -> dict:
    """Time one extract_corpus + write_extraction_dump over ``units`` sources.

    A step is one batch: the interval between consecutive kNN calls, which
    covers one batch's kNN and edit and the next batch's encode. The index
    builds come before the first interval and are not a step.
    """
    from extractedit import training
    from extractedit.engine import write_extraction_dump

    marks = []
    inner = training.extract_topk_batch

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        return inner(*args, **kwargs)

    training.extract_topk_batch = marked
    results, failed = None, 0
    t0, c0 = time.perf_counter(), cpu_s()
    try:
        results = trainer.extract_corpus(limit=units)
        write_extraction_dump(scratch / "dump.tsv", results, trainer.vocab)
    except Exception:
        traceback.print_exc()
        failed = units
    finally:
        training.extract_topk_batch = inner
    wall, cpu = time.perf_counter() - t0, cpu_s() - c0
    return {"wall": wall, "cpu": cpu, "sents": units, "attempted": units, "failed": failed,
            "rss_kb": peak_rss_kb(), "steps": [b - a for a, b in zip(marks, marks[1:])],
            "results": results}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- output checks -----------------------------------------------------------------


def gold_bleu(trainer, pair) -> float:
    from extractedit.metrics import corpus_bleu
    from extractedit.model import TGT

    decoded = []
    sources = [s for s, _ in pair.gold]
    for start in range(0, len(sources), 64):
        decoded.extend(trainer.model.translate_batch(sources[start:start + 64], TGT)[0])
    return corpus_bleu(decoded, [t for _, t in pair.gold]).bleu


def check_training(trainer, pair, workload: str, run: dict, rows_before: int,
                   engine_calls: int, scratch: Path) -> tuple[dict, dict]:
    import numpy as np

    from extractedit.checkpoint import load_tensors

    rows = trainer.state.metric_rows[rows_before:]
    checks = {
        "rows": len(rows) == run["attempted"] - run["failed"],
        "finite_losses": all(math.isfinite(float(r[2])) for r in rows),
    }
    if workload == "bt-train":
        checks["zero_engine_calls"] = engine_calls == 0
    else:
        checks["validated"] = all(math.isfinite(float(x)) for x in rows[-1][6:8])
        saved = load_tensors(scratch / "checkpoint" / "params.bin")
        live = {**trainer.model.named_parameters(), **trainer.evaluator.named_parameters()}
        checks["checkpoint_roundtrip"] = all(np.array_equal(saved[k], p.data)
                                             for k, p in live.items())
    digest = hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()
    quality = {"loss_digest": digest, "gold_bleu": gold_bleu(trainer, pair),
               "skipped_frac": sum(int(r[8]) for r in rows)
               / (2 * trainer.config.batch_size * max(len(rows), 1))}
    return checks, quality


def check_extraction(trainer, pair, run: dict, scratch: Path) -> tuple[dict, dict]:
    """Top-k against a brute-force stable-argsort oracle, plus the dump file."""
    import numpy as np

    from extractedit import tensor as T
    from extractedit.cipher import apply_cipher
    from extractedit.engine import read_extraction_dump
    from extractedit.metrics import corpus_bleu
    from extractedit.model import SRC, TGT

    results = run["results"]
    cfg = trainer.config
    corpus = trainer.corpora[SRC]
    rows = trainer.indexes[TGT].rows
    queries = []
    with T.no_grad():
        for start in range(0, len(results), cfg.batch_size):
            batch = [corpus[i] for i in range(start, min(start + cfg.batch_size, len(results)))]
            queries.append(trainer.model.encode_batch(batch)[1].data)
    queries = np.concatenate(queries)
    same_idx = same_dist = True
    for i, r in enumerate(results):
        dist = np.sqrt(((rows - queries[i]) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:cfg.k]
        same_idx &= r.source_index == i and np.array_equal(r.indices, order)
        same_dist &= bool(np.max(np.abs(r.distances - dist[order])) <= DIST_TOL)
    dump = read_extraction_dump(scratch / "dump.tsv", trainer.vocab)
    same_dump = len(dump) == len(results) and all(
        a.source_index == b.source_index and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.distances, b.distances)
        and len(a.edited) == len(b.edited) == cfg.k
        and all(np.array_equal(x, y) for x, y in zip(a.edited, b.edited))
        for a, b in zip(dump, results))
    checks = {"complete": len(results) == run["attempted"],
              "topk_indices": bool(same_idx), "topk_distances": bool(same_dist),
              "dump_roundtrip": bool(same_dump)}

    offset = pair.vocab.size - pair.spec.vocab_size
    refs = [apply_cipher(corpus[r.source_index] - offset, pair.dictionary,
                         pair.spec.window) + offset for r in results]
    tgt = trainer.corpora[TGT]
    quality = {
        "extract_bleu": corpus_bleu([tgt[int(r.indices[0])] for r in results], refs).bleu,
        "edit_bleu": corpus_bleu([r.edited[0] for r in results], refs).bleu,
    }
    return checks, quality


# -- context ------------------------------------------------------------------------


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extractedit" / "__init__.py").exists():
        print(f"perfbench: no program source at {SRC / 'extractedit'}", file=sys.stderr)
        return 2
    env_at_start = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    sys.path.insert(0, str(SRC))
    # extractedit is imported before numpy, as by the command-line tool,
    # so that its thread settings take effect (or not) exactly as there
    t0 = time.perf_counter()
    import extractedit
    import_s = time.perf_counter() - t0
    if Path(extractedit.__file__).resolve().parent != SRC / "extractedit":
        print(f"perfbench: imported {extractedit.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2

    if args.build_warm_start:
        build_warm_start(Path(args.build_warm_start))
        return 0

    from spans import Recorder, engine_calls, install, layer_metrics, thread_count

    workload = args.workload
    digest = src_hash()
    warm, warm_build_s = warm_start(digest)
    rec = Recorder()
    if args.trace or workload == "bt-train":
        # bt-train counts engine calls in every run; they must stay zero
        install(rec, engine_only=not args.trace)

    units = max(MIN_UNITS[workload], math.ceil(args.seconds / NOMINAL_S[workload]))
    setup_s = []
    rec.active = True
    for _ in range(SETUPS_BEFORE):
        pair = trainer = None  # drop the previous set-up before the next
        pair, trainer, took = timed_set_up(workload, args.seed, warm)
        setup_s.append(took)
    setup_span = (0, rec.mark())

    scratch = CACHE / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        rows_before = len(trainer.state.metric_rows)
        gc.collect()  # the set-ups' garbage is not the timed phase's
        lo = rec.mark()
        if workload == "extract-dump":
            run = run_extract_dump(trainer, units, scratch)
        else:
            run = run_training(trainer, workload, units, scratch)
        rec.active = False
        timed_span = (lo, rec.mark())
        if workload == "extract-dump":
            checks, quality = (check_extraction(trainer, pair, run, scratch)
                               if run["results"] is not None else ({"completed": False}, {}))
        else:
            checks, quality = check_training(trainer, pair, workload, run, rows_before,
                                             engine_calls(rec), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        for _ in range(SETUPS_AFTER):
            pair = trainer = None
            pair, trainer, took = timed_set_up(workload, args.seed, warm)
            setup_s.append(took)

    sents_per_s = run["sents"] / run["wall"]
    if args.trace:
        metrics = layer_metrics(rec, setup_span, timed_span, SETUPS_BEFORE,
                                quality.get("skipped_frac", 0.0))
        metrics["trace.sents_per_s"] = sents_per_s
        metrics["trace.wall_ms"] = run["wall"] * 1e3
        metrics["trace.unattributed_ms"] = run["wall"] * 1e3 - rec.top_level_ms(*timed_span)
        rec.dump(CACHE / f"spans-{workload}.npz")
    else:
        steps = run["steps"]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "sents_per_s": sents_per_s,
            "step_ms_p50": statistics.median(steps) * 1e3,
            "step_ms_p90": statistics.quantiles(steps, n=10)[-1] * 1e3,
            "cpu_ms_per_sent": run["cpu"] * 1e3 / run["sents"],
            "peak_rss_mb": run["rss_kb"] / 1024,
        }
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = run["failed"] == 0 and all(checks.values())
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}}
    context = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "blas": blas_info(),
        "blas_threads_observed": thread_count(), "env_at_start": env_at_start,
        "git_revision": git_revision(), "src_hash": digest,
        "warm_start_hash": hashlib.sha256((warm / "params.bin").read_bytes()).hexdigest(),
        "warm_build_s": warm_build_s,
        "import_s": import_s, "setup_s_samples": setup_s, "units": units,
        "timed_wall_s": run["wall"], "step_samples": len(run["steps"]),
    }
    if "rebuilds" in run:
        context["index_rebuilds"] = run["rebuilds"]
    record = {"perfbench": 1, "workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "context": context, "quality": quality,
              "checks": checks, "result": result}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
