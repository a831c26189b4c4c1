"""Command-line entry point.

``build_parser`` declares each subcommand once, with its handler: corpus
generation, training, translation, extraction, evaluation, and the one
experiment driver (pretrain once, fork every arm from that start, grade
each on the gold set). The commands that take ``--config FILE`` also take
each of their config keys as a ``--key=value`` option, write their
artifacts under a run directory (``--out``, or
``$EXTRACTEDIT_RUNS/<default name>``), and record a manifest; the exit
code is 0 exactly when the manifest records success. Translation and
extraction read every setting from the checkpoint.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat
from pathlib import Path

from .checkpoint import load_json, save_json
from .cipher import (
    CipherSpec,
    generate_cipher_pair,
    read_gold_pairs,
    token_inventory,
    vocab_dictionary,
    write_cipher_pair,
)
from .config import (COMMAND_KEYS, ConfigError, dataclass_from, format_config,
                     format_value, load_config)
from .engine import write_extraction_dump
from .metrics import grade, hits_at_k
from .model import SRC, TGT
from .text import Vocabulary, load_corpus, read_lines
from .training import STATE_FILE, TrainConfig, Trainer, load_checkpoint, read_state

ENV_OUT_ROOT = "EXTRACTEDIT_RUNS"


class CliError(RuntimeError):
    pass


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return "v" + version("extractedit")
    except Exception:
        return "unknown"


class RunManifest:
    """The run directory of a command that takes a config (``--out``, or
    ``default_name`` under $EXTRACTEDIT_RUNS), and what the command wrote
    there; saved as manifest.json.

    A context manager: leaving the block records success, or failure when
    an exception escapes it (which then propagates).
    """

    def __init__(self, args, cfg: dict, default_name: str):
        root = os.environ.get(ENV_OUT_ROOT)
        if not (args.out or root):
            raise CliError(f"--out is required (or set ${ENV_OUT_ROOT})")
        self.out_dir = Path(args.out) if args.out else Path(root) / default_name
        if self.out_dir.exists() and any(self.out_dir.iterdir()) and not args.overwrite:
            raise CliError(f"output directory {self.out_dir} is not empty (use --overwrite)")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.data = {
            "command": args.command,
            "config": dict(cfg),
            "seed": cfg.get("seed"),
            "build": _build_id(),
            "started": _now(),
            "finished": None,
            "success": False,
            "outputs": [],
            "checkpoints": [],
        }

    def add_output(self, path: Path) -> None:
        self.data["outputs"].append(str(path.relative_to(self.out_dir)))

    def remove_stale(self, pattern: str) -> None:
        """Delete the files matching ``pattern`` under the run directory that
        this run did not write, such as an earlier run's under --overwrite."""
        for path in self.out_dir.glob(pattern):
            if path.is_file() and str(path.relative_to(self.out_dir)) not in self.data["outputs"]:
                path.unlink()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.data["finished"] = _now()
        self.data["success"] = exc_type is None
        save_json(self.out_dir / "manifest.json", self.data)


# ---------------------------------------------------------------------------
# corpus loading shared by train/extract/evaluate


def _load_data(data_dir: Path, max_len: int):
    """Load a corpus directory: vocabulary, corpora and oracle dictionary.
    A gen-corpus directory's vocabulary and dictionary follow from the spec
    in its manifest; other directories have no dictionary. Validation sets
    are optional, but criterion D needs both: a directory with only one is
    refused, naming the missing one."""
    src_valid, tgt_valid = (data_dir / f"{side}.valid.txt" for side in ("src", "tgt"))
    if src_valid.exists() != tgt_valid.exists():
        missing = tgt_valid if src_valid.exists() else src_valid
        raise CliError(f"{missing}: missing; criterion D needs both validation sets")
    manifest_path = data_dir / "corpus_manifest.json"
    dictionary = None
    if manifest_path.exists():
        manifest = load_json(manifest_path)  # names the file if it is not a JSON object
        try:
            spec = CipherSpec(**manifest["spec"])
            spec.validate()
        except (KeyError, TypeError, ValueError) as e:
            raise CliError(f"{manifest_path}: bad cipher spec: {e!r}") from e
        vocab = Vocabulary(token_inventory(spec.vocab_size))
        dictionary = vocab_dictionary(spec)
    else:
        # arbitrary corpora: build one joint frequency vocabulary
        vocab = Vocabulary.from_lines(read_lines(data_dir / "src.train.txt")
                                      + read_lines(data_dir / "tgt.train.txt"))

    corpora = {}
    for name in ("src.train", "tgt.train", "src.valid", "tgt.valid"):
        path = data_dir / f"{name}.txt"
        if name.endswith("train") or path.exists():  # validation sets are optional
            corpora[name.replace(".", "_")] = load_corpus(path, vocab, max_len)
    return vocab, corpora, dictionary


def _make_trainer(tc: TrainConfig, data) -> Trainer:
    """A Trainer over what ``_load_data`` read with ``tc.max_len``."""
    vocab, corpora, dictionary = data
    return Trainer(tc, vocab, corpora["src_train"], corpora["tgt_train"],
                   corpora.get("src_valid"), corpora.get("tgt_valid"),
                   oracle_dictionary=dictionary)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_corpus(args, cfg: dict) -> int:
    with RunManifest(args, cfg, f"corpus-seed{cfg['seed']}") as manifest:
        out = manifest.out_dir
        spec = dataclass_from(CipherSpec, cfg)
        pair = generate_cipher_pair(spec)
        files = write_cipher_pair(pair, out)["files"]
        for name in files.values():
            manifest.add_output(out / name)
        manifest.add_output(out / "corpus_manifest.json")
    print(f"wrote cipher pair ({spec.n_train}/side) to {out}")
    return 0


def _checkpoint_table(trainer: Trainer, saved: list[Path], out: Path) -> list[dict]:
    """One entry per checkpoint directory this run saved, with its scores;
    whatever else ``out`` holds, say from an earlier run, is not listed."""
    d_by_step = {row[0]: (row[6], row[7]) for row in trainer.state.metric_rows if row[6]}
    table = []
    for path in saved:
        step = int(path.name.removeprefix("step_"))
        ds = d_by_step.get(str(step), ("", ""))
        entry = {"path": str(path.relative_to(out)), "step": step,
                 "d_s2t": float(ds[0]) if ds[0] else None,
                 "d_t2s": float(ds[1]) if ds[1] else None}
        entry["d_mean"] = (None if entry["d_s2t"] is None
                           else 0.5 * (entry["d_s2t"] + entry["d_t2s"]))
        table.append(entry)
    return table


def cmd_train(args, cfg: dict) -> int:
    with RunManifest(args, cfg, f"{cfg['mode']}-seed{cfg['seed']}") as manifest:
        out = manifest.out_dir
        tc = dataclass_from(TrainConfig, cfg)
        trainer = _make_trainer(tc, _load_data(Path(args.data), tc.max_len))
        (out / "config.txt").write_text(format_config(cfg), encoding="utf-8")
        manifest.add_output(out / "config.txt")

        if args.resume:
            trainer.restore(Path(args.resume))
        saved = trainer.run(checkpoint_dir=out / "checkpoints",
                            log=lambda step, row: print(f"step {step}: total={row[2]}"))

        (out / "metrics.csv").write_text(trainer.metrics_csv(), encoding="utf-8")
        manifest.add_output(out / "metrics.csv")
        for path in saved:
            manifest.add_output(path / STATE_FILE)
        table = _checkpoint_table(trainer, saved, out)
        manifest.data["checkpoints"] = table
        scored = [e for e in table if e["d_mean"] is not None]
        best = (max(scored, key=lambda e: e["d_mean"]) if scored
                else (table[-1] if table else None))
        manifest.data["best_checkpoint"] = best
    print(f"run complete; best checkpoint: {best['path'] if best else 'none'}")
    return 0


def cmd_translate(args, cfg: dict) -> int:
    model, _, vocab, _ = load_checkpoint(args.checkpoint)
    out_lang = TGT if args.direction == "s2t" else SRC
    sentences = [vocab.encode(line.split()[: model.config.max_len])
                 for line in read_lines(args.input, vocab)]
    out_lines = [" ".join(vocab.decode(ids)) for ids in model.translate(sentences, out_lang)]
    Path(args.output).write_text(
        "".join(line + "\n" for line in out_lines), encoding="utf-8")
    print(f"translated {len(out_lines)} sentences -> {args.output}")
    return 0


def cmd_extract(args, cfg: dict) -> int:
    _, tc, _ = read_state(args.checkpoint)
    trainer = _make_trainer(tc, _load_data(Path(args.data), tc.max_len))
    trainer.restore(args.checkpoint)
    results = trainer.extract_corpus(limit=args.limit)
    write_extraction_dump(args.out_file, results, trainer.vocab)
    print(f"wrote {len(results)} extraction records to {args.out_file}")
    return 0


def cmd_evaluate(args, cfg: dict) -> int:
    with RunManifest(args, cfg, "evaluation") as manifest:
        reports = manifest.out_dir / "reports"
        if args.metrics:
            model, evaluator, vocab, _ = load_checkpoint(args.checkpoint)
            data_dir = Path(args.data)
            gold = read_gold_pairs(data_dir / "gold.test.tsv", vocab)
            tables, text_lines = {}, []
            if "bleu" in args.metrics or "accuracy" in args.metrics:
                rep, acc = grade(model, gold)
                if "bleu" in args.metrics:
                    tables["bleu.csv"] = rep.rows()
                    text_lines.append(
                        f"BLEU {rep.bleu:.2f} (p={['%.3f' % p for p in rep.precisions]}, "
                        f"BP={rep.brevity_penalty:.3f})")
                if "accuracy" in args.metrics:
                    tables["accuracy.csv"] = [{"token_accuracy": acc}]
                    text_lines.append(f"token accuracy {acc:.4f}")
            if "hits" in args.metrics:
                pool = []
                if (data_dir / "distractors.txt").exists():
                    pool = load_corpus(data_dir / "distractors.txt", vocab,
                                       model.config.max_len)
                ks = cfg["hits_ks"]
                hits = hits_at_k(gold, pool, cfg["hits_noise_ratios"], model, evaluator, ks)
                tables["hits.csv"] = [row for rep in hits for row in rep.rows()]
                text_lines.extend(
                    "hits@k at {:.0%} noise: ".format(rep.noise_ratio)
                    + " ".join(f"{k}:{rep.hits[k]:.3f}" for k in ks) for rep in hits)
            reports.mkdir(exist_ok=True)  # only a run that writes reports has the directory
            for name, rows in tables.items():
                _write_csv(reports / name, rows)
                manifest.add_output(reports / name)
            (reports / "report.txt").write_text(
                "".join(line + "\n" for line in text_lines), encoding="utf-8")
            manifest.add_output(reports / "report.txt")
            for line in text_lines:
                print(line)
        manifest.remove_stale("reports/*")
        if reports.is_dir() and not any(reports.iterdir()):
            reports.rmdir()  # an earlier run's, emptied under --overwrite
    return 0


def _cpu_count() -> int:
    """The number of CPUs this process may run on (all of them where the
    system cannot say, as on macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_row(arm: str, trainer: Trainer, gold) -> dict:
    """A sweep.csv row: the arm's BLEU and token accuracy on the gold set,
    and its ``k``, blank unless the arm extracts."""
    bleu, acc = grade(trainer.model, gold)
    k = trainer.config.k if arm == "extract-edit" else ""
    return {"arm": arm, "k": k, "seed": trainer.config.seed, "bleu": bleu.bleu,
            "token_accuracy": acc}


def _run_arm(tc: TrainConfig, data, gold, pre_dir: Path) -> tuple[str, dict]:
    """One sweep-k arm, as a worker process runs it: a Trainer over
    ``_load_data``'s result ``data``, forked from the pretrained checkpoint
    ``pre_dir``, run, then graded on the ``gold`` pairs. Returns the arm's
    metrics.csv text and its sweep.csv row."""
    trainer = _make_trainer(tc, data)
    trainer.restore(pre_dir, require_same_config=False)
    trainer.run()
    return trainer.metrics_csv(), _sweep_row(tc.mode, trainer, gold)


def cmd_sweep_k(args, cfg: dict) -> int:
    """Pretrain once, fork every arm from that start, and grade each row on
    the gold set: pretrain-only, extract-edit at each k of ``sweep_ks``,
    then back-translation. Each arm sets its own mode, so sweep-k takes no
    ``mode`` key.

    The arms run side by side in worker processes, at most one per CPU,
    each with one BLAS thread (the package sets it as a worker imports
    it). Each worker takes the corpora and gold pairs this process read,
    so every arm trains and is graded on the bytes that were checked and
    pretrained on. Workers return their results, and this process writes
    them and prints the rows in arm order, so the outputs do not depend
    on the number of workers."""
    with RunManifest(args, cfg, f"{args.command}-seed{cfg['seed']}") as manifest:
        out = manifest.out_dir
        data_dir = Path(args.data)

        tc = dataclass_from(TrainConfig, {**cfg, "mode": "extract-edit"})
        arms = [(replace(tc, k=k), f"metrics_k{k}.csv") for k in sorted(cfg["sweep_ks"])]
        arms.append((replace(tc, mode="back-translation"), "metrics_back-translation.csv"))
        # every arm is built, and so checked, before the shared pretraining
        data = _load_data(data_dir, tc.max_len)
        pre_trainer = _make_trainer(replace(tc, main_steps=0), data)
        for arm_tc, _ in arms:
            _make_trainer(arm_tc, data)
        gold = read_gold_pairs(data_dir / "gold.test.tsv", pre_trainer.vocab)
        pre_trainer.run()
        pre_dir = pre_trainer.save_checkpoint(out / "pretrained")

        rows = []

        def report(row: dict) -> None:
            rows.append(row)
            k = f" k={row['k']}" if row["k"] else ""
            print(f"{row['arm']}{k}: BLEU {row['bleu']:.2f}, "
                  f"token accuracy {row['token_accuracy']:.4f}")

        report(_sweep_row("pretrain-only", pre_trainer, gold))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(len(arms), _cpu_count()), mp_context=spawn) as pool:
            results = pool.map(_run_arm, [arm_tc for arm_tc, _ in arms],
                               repeat(data), repeat(gold), repeat(pre_dir))
            for (_, metrics_name), (metrics, row) in zip(arms, results):
                report(row)
                (out / metrics_name).write_text(metrics, encoding="utf-8")
                manifest.add_output(out / metrics_name)
        _write_csv(out / "sweep.csv", rows)
        manifest.add_output(out / "sweep.csv")
        manifest.remove_stale("metrics_*.csv")
    return 0


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------


def metric_names(s: str) -> list[str]:
    names = [m for m in s.split(",") if m]
    unknown = [m for m in names if m not in ("bleu", "accuracy", "hits")]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown metric(s) {', '.join(unknown)}; "
                                         "expected names from bleu,accuracy,hits")
    return names


def build_parser() -> argparse.ArgumentParser:
    """The command line: each subcommand with its options and its handler.

    A command that takes a config also takes each of its config keys as an
    option (``--lambda=0.7``) that overrides the ``--config`` file, and
    writes its run directory under ``--out``. Abbreviation matching is off,
    so a key is only ever set by its full name: ``--pretrain=5`` is an
    error, not a shorthand for ``--pretrain_steps``.
    """
    parser = argparse.ArgumentParser(
        prog="extractedit",
        description="Desk-scale unsupervised translation experiments on cipher "
                    "language pairs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        if name in COMMAND_KEYS:
            p.add_argument("--config", default=None, help="key=value config file")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--overwrite", action="store_true",
                           help="replace existing outputs")
            keys = p.add_argument_group("config keys", "each overrides the --config file")
            for key, (parse, default, doc) in COMMAND_KEYS[name].items():
                keys.add_argument(f"--{key}", type=parse, default=argparse.SUPPRESS,
                                  help=f"{doc} (default: {format_value(default)})")
        return p

    add_cmd("gen-corpus", cmd_gen_corpus, "generate a cipher language pair")

    p = add_cmd("train", cmd_train, "pretrain then run the configured mode")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--resume", default=None, help="checkpoint directory to resume")

    p = add_cmd("translate", cmd_translate, "translate a file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--direction", choices=["s2t", "t2s"], default="s2t")

    p = add_cmd("extract", cmd_extract, "dump top-k extractions with edits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-file", required=True)
    p.add_argument("--limit", type=int, default=None)

    p = add_cmd("evaluate", cmd_evaluate, "score a checkpoint on the gold test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics", type=metric_names, default="bleu,accuracy",
                   help="comma list from: bleu,accuracy,hits (empty = manifest only)")

    p = add_cmd("sweep-k", cmd_sweep_k, "pretrain-only, extract-edit per k and "
                                        "back-translation from one pretrained start")
    p.add_argument("--data", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}
    if args.command in COMMAND_KEYS:
        try:
            cfg = load_config(args.command, args.config)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    try:
        return args.handler(args, cfg)
    except Exception as e:
        print(f"{args.command} failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
