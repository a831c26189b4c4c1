"""End-to-end command-line behavior on a micro-scale corpus."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from extractedit import cli
from extractedit.checkpoint import load_json, load_tensors, save_tensors
from extractedit.cli import _load_data, _make_trainer, build_parser, main
from extractedit.cipher import read_gold_pairs
from extractedit.config import COMMAND_KEYS, dataclass_from, format_value, load_config
from extractedit.model import SRC, TGT
from extractedit.training import TrainConfig, load_checkpoint

MICRO = [
    "vocab_size=30", "seed=1", "substitution_seed=2", "window=1",
    "n_train=150", "n_valid=24", "n_test=30", "n_distractor=270",
    "len_min=2", "len_max=6",
]

TRAIN = [
    "hidden_size=16", "layers=1", "eval_hidden=16", "eval_out=16",
    "batch_size=8", "k=3", "episode_len=25", "pretrain_steps=12",
    "main_steps=12", "valid_interval=6", "checkpoint_interval=12",
    "max_len=8", "lr=1e-3",
]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def exit_code(*argv) -> int:
    """``run``'s exit code, also where argparse exits on a parse error."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


def ov(pairs):
    return [f"--{p}" for p in pairs]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data") / "corpus"
    code = run("gen-corpus", "--out", out, *ov(MICRO))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir) -> Path:
    out = tmp_path_factory.mktemp("runs") / "ee"
    code = run("train", "--data", corpus_dir, "--out", out, *ov(TRAIN))
    assert code == 0
    return out


def checkpoint_of(run_dir: Path) -> Path:
    return sorted((run_dir / "checkpoints").iterdir())[-1]


class TestGenCorpus:
    def test_outputs_exist_and_line_counts_match(self, corpus_dir):
        manifest = load_json(corpus_dir / "manifest.json")
        assert manifest["success"] is True
        for rel in manifest["outputs"]:
            assert (corpus_dir / rel).exists(), rel
        lines = (corpus_dir / "src.train.txt").read_text().splitlines()
        assert len(lines) == 150

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-corpus", "--out", a, *ov(MICRO)) == 0
        assert run("gen-corpus", "--out", b, *ov(MICRO)) == 0
        for name in ["src.train.txt", "tgt.train.txt", "gold.test.tsv",
                     "oracle_dict.tsv", "distractors.txt"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_refuses_nonempty_dir_without_overwrite(self, tmp_path):
        out = tmp_path / "c"
        assert run("gen-corpus", "--out", out, *ov(MICRO)) == 0
        assert run("gen-corpus", "--out", out, *ov(MICRO)) == 1
        assert run("gen-corpus", "--out", out, "--overwrite", *ov(MICRO)) == 0

    def test_overwrite_without_distractors_removes_the_old_pool(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-corpus", "--out", out, *ov(MICRO)) == 0
        assert (out / "distractors.txt").exists()
        assert run("gen-corpus", "--out", out, "--overwrite", *ov(MICRO),
                   "--n_distractor=0") == 0
        assert not (out / "distractors.txt").exists()
        assert "distractors.txt" not in load_json(out / "manifest.json")["outputs"]

    def test_invalid_spec_fails_with_manifest(self, tmp_path):
        out = tmp_path / "bad"
        assert run("gen-corpus", "--out", out, "--vocab_size=5") == 1
        assert load_json(out / "manifest.json")["success"] is False

    @pytest.mark.parametrize("setting", [
        "n_valid=0", "n_valid=-1", "n_test=-5", "n_distractor=-1", "bigram_weight=nan",
        "bigram_weight=1.5", "zipf_exponent=nan", "zipf_exponent=inf", "seed=-1",
        "substitution_seed=-3"])
    def test_degenerate_spec_fails_before_writing(self, tmp_path, capsys, setting):
        """Specs that would write empty splits or break the sampler are
        refused by name, and only the failure manifest is written."""
        out = tmp_path / "bad"
        capsys.readouterr()
        assert run("gen-corpus", "--out", out, *ov(MICRO), f"--{setting}") == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestTrain:
    def test_layout_and_manifest(self, run_dir):
        manifest = load_json(run_dir / "manifest.json")
        assert manifest["success"] is True
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "config.txt").exists()
        assert manifest["checkpoints"], "no checkpoints recorded"
        assert manifest["best_checkpoint"] is not None
        for rel in manifest["outputs"]:
            assert (run_dir / rel).exists(), rel

    def test_metrics_schema(self, run_dir):
        header = (run_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,mode,loss_total,loss_lm,loss_com,loss_R,D_s2t,D_t2s,skipped"

    def test_determinism_byte_identical_metrics(self, tmp_path, corpus_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        args = TRAIN
        assert run("train", "--data", corpus_dir, "--out", a, *ov(args)) == 0
        assert run("train", "--data", corpus_dir, "--out", b, *ov(args)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_zero_main_steps_best_is_pretrained(self, tmp_path, corpus_dir):
        out = tmp_path / "pre"
        args = TRAIN + ["main_steps=0", "checkpoint_interval=0"]
        assert run("train", "--data", corpus_dir, "--out", out, *ov(args)) == 0
        manifest = load_json(out / "manifest.json")
        assert manifest["best_checkpoint"]["step"] == 12

    def test_back_translation_same_schema(self, tmp_path, corpus_dir):
        out = tmp_path / "bt"
        args = TRAIN + ["mode=back-translation"]
        assert run("train", "--data", corpus_dir, "--out", out, *ov(args)) == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,mode,loss_total,loss_lm,loss_com,loss_R,D_s2t,D_t2s,skipped"

    def test_stray_checkpoint_entries_are_ignored(self, tmp_path, corpus_dir, run_dir):
        out = tmp_path / "stray"
        (out / "checkpoints" / "notes").mkdir(parents=True)
        (out / "checkpoints" / "README.txt").write_text("kept by hand\n")
        (out / "checkpoints" / "step_0000012.tar").write_text("")
        args = TRAIN
        assert run("train", "--data", corpus_dir, "--out", out, "--overwrite",
                   *ov(args)) == 0
        got = load_json(out / "manifest.json")["checkpoints"]
        assert got == load_json(run_dir / "manifest.json")["checkpoints"]
        assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()

    def test_overwrite_lists_only_this_runs_checkpoints(self, tmp_path, corpus_dir):
        """A shorter run over an earlier one's --out records its own
        checkpoints only; the old ones stay on disk for --resume."""
        out = tmp_path / "again"
        args = TRAIN + ["checkpoint_interval=5"]
        assert run("train", "--data", corpus_dir, "--out", out,
                   *ov(args + ["main_steps=8"])) == 0
        assert run("train", "--data", corpus_dir, "--out", out, "--overwrite",
                   *ov(args + ["pretrain_steps=5", "main_steps=0"])) == 0
        manifest = load_json(out / "manifest.json")
        assert [e["step"] for e in manifest["checkpoints"]] == [5]
        assert manifest["best_checkpoint"]["path"] == "checkpoints/step_0000005"
        assert [p for p in manifest["outputs"] if p.startswith("checkpoints/")] == [
            "checkpoints/step_0000005/state.json"]
        assert (out / "checkpoints" / "step_0000020").is_dir()

    def test_k_larger_than_corpus_fails_before_training(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "bigk"
        capsys.readouterr()
        assert run("train", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                   "--k=500", "--checkpoint_interval=6") == 1  # 6: a pretraining save
        assert "k must be in [1, 150]" in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False
        assert not (out / "checkpoints").exists()

    @pytest.mark.parametrize("setting", ["p_drop=1.0", "shuffle_window=-1", "seed=-2"])
    def test_bad_noise_setting_fails_before_training(self, tmp_path, corpus_dir, capsys,
                                                     setting):
        out = tmp_path / "noise"
        capsys.readouterr()
        assert run("train", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                   f"--{setting}") == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("setting,key", [
        ("lr=nan", "lr"), ("lr_evaluator=inf", "lr_evaluator"), ("omega_lm=inf", "omega_lm"),
        ("omega_com=nan", "omega_com"), ("lambda=inf", "lam")])
    def test_non_finite_setting_fails_before_training(self, tmp_path, corpus_dir, capsys,
                                                      setting, key):
        out = tmp_path / "nonfinite"
        capsys.readouterr()
        assert run("train", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                   f"--{setting}") == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_oracle_dictionary_comes_from_the_spec(self, tmp_path, corpus_dir, run_dir,
                                                   damage):
        """oracle_dict.tsv is written for people to read, never read back: a
        gen-corpus directory whose copy is truncated or gone trains the same
        bytes, because the dictionary follows from the manifest's spec."""
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        path = data / "oracle_dict.tsv"
        if damage == "truncated":
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
        else:
            path.unlink()
        out = tmp_path / "run"
        assert run("train", "--data", data, "--out", out, *ov(TRAIN)) == 0
        assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()

    def test_plain_corpus_directory(self, tmp_path, corpus_dir, capsys):
        """Corpora without a corpus manifest get a frequency vocabulary and
        no oracle dictionary: random init trains, and its checkpoint extracts
        and is graded on gold pairs made of training tokens; oracle init is
        refused."""
        plain = tmp_path / "plain"
        plain.mkdir()
        for name in ("src.train.txt", "tgt.train.txt", "src.valid.txt", "tgt.valid.txt"):
            shutil.copy(corpus_dir / name, plain / name)
        src, tgt = ((plain / f"{side}.train.txt").read_text().splitlines()[:5]
                    for side in ("src", "tgt"))
        (plain / "gold.test.tsv").write_text("".join(f"{s}\t{t}\n" for s, t in zip(src, tgt)))
        out = tmp_path / "random"
        assert run("train", "--data", plain, "--out", out, "--init_mode=random",
                   *ov(TRAIN)) == 0
        assert (out / "metrics.csv").exists()
        dump = tmp_path / "extractions.tsv"
        assert run("extract", "--checkpoint", checkpoint_of(out), "--data", plain,
                   "--out-file", dump, "--limit", 4) == 0
        assert len(dump.read_text().splitlines()) == 4
        graded = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", checkpoint_of(out), "--data", plain,
                   "--out", graded, "--metrics", "bleu,accuracy") == 0
        assert (graded / "reports" / "bleu.csv").exists()
        assert (graded / "reports" / "accuracy.csv").exists()

        out = tmp_path / "oracle"
        capsys.readouterr()
        assert run("train", "--data", plain, "--out", out, *ov(TRAIN)) == 1
        assert "oracle dictionary" in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False

    def test_divergence_names_the_training_step(self, tmp_path, corpus_dir, capsys):
        """A loss weight that overflows the first pretraining loss fails the
        run naming step 1, and writes no metrics."""
        out = tmp_path / "diverged"
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert run("train", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                       "--omega_lm=1e308") == 1
        assert "train failed: step 1: mul produced non-finite values" in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False
        assert not (out / "metrics.csv").exists()

    def test_resume_matches_uninterrupted(self, tmp_path, corpus_dir, run_dir):
        ckpt = checkpoint_of(run_dir)  # saved at step 12 (pretrain boundary)
        out = tmp_path / "resumed"
        args = TRAIN
        assert run("train", "--data", corpus_dir, "--out", out, "--resume",
                   sorted((run_dir / "checkpoints").iterdir())[0], *ov(args)) == 0
        full = (run_dir / "metrics.csv").read_text()
        resumed = (out / "metrics.csv").read_text()
        assert resumed == full


class TestTranslate:
    def test_empty_input_empty_output(self, tmp_path, run_dir):
        src = tmp_path / "in.txt"
        src.write_text("", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert run("translate", "--checkpoint", checkpoint_of(run_dir),
                   "--input", src, "--output", dst) == 0
        assert dst.read_text() == ""

    def test_deterministic_output(self, tmp_path, corpus_dir, run_dir):
        src = corpus_dir / "src.valid.txt"
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        ck = checkpoint_of(run_dir)
        assert run("translate", "--checkpoint", ck, "--input", src, "--output", out1) == 0
        assert run("translate", "--checkpoint", ck, "--input", src, "--output", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 24

    @pytest.mark.parametrize("direction, input_name, lang, out_lang",
                             [("s2t", "src.valid.txt", SRC, TGT),
                              ("t2s", "tgt.valid.txt", TGT, SRC)])
    def test_loads_the_weights_restore_loads(self, direction, input_name, lang, out_lang,
                                             tmp_path, corpus_dir, run_dir):
        """translate decodes exactly as a Trainer restored from the same
        checkpoint does, in either direction."""
        ck = checkpoint_of(run_dir)
        dst = tmp_path / "out.txt"
        assert run("translate", "--checkpoint", ck, "--direction", direction,
                   "--input", corpus_dir / input_name, "--output", dst) == 0
        tc = TrainConfig(**load_json(ck / "state.json")["config"])
        trainer = _make_trainer(tc, _load_data(corpus_dir, tc.max_len))
        trainer.restore(ck)
        decoded, _ = trainer.model.translate_batch(trainer.valid[lang], out_lang)
        assert len(decoded) == 24
        assert dst.read_text().splitlines() == [" ".join(trainer.vocab.decode(ids))
                                                for ids in decoded]

    def test_parameter_shape_mismatch_names_the_tensor(self, tmp_path, corpus_dir,
                                                       run_dir, capsys):
        """A params.bin array whose shape disagrees with the checkpoint's
        config is refused, even where numpy would broadcast or index it."""
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_of(run_dir), ck)
        params = load_tensors(ck / "params.bin")
        tag = params["decoder.lang_tag"]
        params["decoder.lang_tag"] = np.vstack([tag, tag[:1]])
        save_tensors(ck / "params.bin", params)
        capsys.readouterr()
        assert run("translate", "--checkpoint", ck, "--input", corpus_dir / "src.valid.txt",
                   "--output", tmp_path / "out.txt") == 1
        assert "decoder.lang_tag" in capsys.readouterr().err

    def test_missing_tensor_is_named(self, tmp_path, run_dir):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_of(run_dir), ck)
        params = load_tensors(ck / "params.bin")
        del params["decoder.attn.b"], params["encoder.l0.w_hh"]
        save_tensors(ck / "params.bin", params)
        with pytest.raises(ValueError, match=r"missing tensors \['decoder.attn.b', "
                                             r"'encoder.l0.w_hh'\], extra tensors \[\]"):
            load_checkpoint(ck)

    def test_extra_tensor_is_named(self, tmp_path, run_dir):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_of(run_dir), ck)
        params = load_tensors(ck / "params.bin")
        params["encoder.l9.w_hh"] = np.zeros(3)
        save_tensors(ck / "params.bin", params)
        with pytest.raises(ValueError, match=r"missing tensors \[\], "
                                             r"extra tensors \['encoder.l9.w_hh'\]"):
            load_checkpoint(ck)

    def test_blank_line_names_its_line(self, tmp_path, corpus_dir, run_dir, capsys):
        lines = (corpus_dir / "src.valid.txt").read_text(encoding="utf-8").splitlines()
        src = tmp_path / "in.txt"
        src.write_text(f"{lines[0]}\n \n{lines[1]}\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        capsys.readouterr()
        assert run("translate", "--checkpoint", checkpoint_of(run_dir),
                   "--input", src, "--output", dst) == 1
        assert "line 2: empty sentence" in capsys.readouterr().err
        assert not dst.exists()

    def test_reserved_token_is_refused_by_name(self, tmp_path, corpus_dir, run_dir, capsys):
        """The checkpoint's vocabulary holds the reserved tokens, but a
        sentence holds text only."""
        lines = (corpus_dir / "src.valid.txt").read_text(encoding="utf-8").splitlines()
        src = tmp_path / "in.txt"
        src.write_text(f"{lines[0]}\n<pad> <eos> <bos>\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        capsys.readouterr()
        assert run("translate", "--checkpoint", checkpoint_of(run_dir),
                   "--input", src, "--output", dst) == 1
        assert "in.txt: line 2: token '<pad>' is reserved, not text" in capsys.readouterr().err
        assert not dst.exists()

    def test_vocabulary_mismatch_is_explicit_error(self, tmp_path, run_dir):
        src = tmp_path / "bad.txt"
        src.write_text("definitely_not_a_token\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert run("translate", "--checkpoint", checkpoint_of(run_dir),
                   "--input", src, "--output", dst) == 1


class TestExtractAndEvaluate:
    def test_extract_dump_roundtrips(self, tmp_path, corpus_dir, run_dir):
        dump = tmp_path / "extractions.tsv"
        assert run("extract", "--checkpoint", checkpoint_of(run_dir),
                   "--data", corpus_dir, "--out-file", dump, "--limit", 20) == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 20
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert len(first[1].split()) == 3  # k target indices
        assert len(first) == 3 + 3  # header cols + k edited sentences

    def test_extract_negative_limit_fails(self, tmp_path, corpus_dir, run_dir):
        dump = tmp_path / "extractions.tsv"
        assert run("extract", "--checkpoint", checkpoint_of(run_dir),
                   "--data", corpus_dir, "--out-file", dump, "--limit", -5) == 1
        assert not dump.exists()

    def test_extract_after_non_default_lambda(self, tmp_path, corpus_dir):
        """extract rebuilds the trainer from the checkpoint's own config,
        including keys whose command-line name differs (lambda -> lam)."""
        out = tmp_path / "lam"
        args = TRAIN + ["lambda=1.0", "main_steps=2", "valid_interval=0"]
        assert run("train", "--data", corpus_dir, "--out", out, *ov(args)) == 0
        dump = tmp_path / "d.tsv"
        assert run("extract", "--checkpoint", checkpoint_of(out),
                   "--data", corpus_dir, "--out-file", dump, "--limit", 5) == 0
        assert len(dump.read_text().splitlines()) == 5

    def test_evaluate_writes_reports(self, tmp_path, corpus_dir, run_dir):
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", checkpoint_of(run_dir),
                   "--data", corpus_dir, "--out", out,
                   "--metrics", "bleu,accuracy,hits") == 0
        manifest = load_json(out / "manifest.json")
        assert manifest["success"] is True
        assert (out / "reports" / "bleu.csv").exists()
        assert (out / "reports" / "accuracy.csv").exists()
        assert (out / "reports" / "hits.csv").exists()
        hits = (out / "reports" / "hits.csv").read_text().splitlines()
        assert hits[0] == "noise_ratio,k,hits,queries,candidates"
        assert len(hits) == 1 + 3 * 7  # three ratios, seven cutoffs

    def test_evaluate_unknown_metric_fails_and_names_it(self, tmp_path, corpus_dir,
                                                         run_dir, capsys):
        """--metrics is checked as it is parsed: exit 2, nothing written."""
        out = tmp_path / "evalbad"
        capsys.readouterr()
        assert exit_code("evaluate", "--checkpoint", checkpoint_of(run_dir),
                         "--data", corpus_dir, "--out", out, "--metrics", "bleu,foo") == 2
        assert "unknown metric(s) foo" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_overwrite_removes_reports_it_did_not_write(self, tmp_path, corpus_dir,
                                                                  run_dir):
        out = tmp_path / "eval"
        argv = ["--checkpoint", checkpoint_of(run_dir), "--data", corpus_dir, "--out", out]
        assert run("evaluate", *argv, "--metrics", "bleu,accuracy,hits") == 0
        (out / "notes.txt").write_text("kept\n")
        assert run("evaluate", *argv, "--metrics", "bleu", "--overwrite") == 0
        written = load_json(out / "manifest.json")["outputs"]
        assert sorted(written) == ["reports/bleu.csv", "reports/report.txt"]
        assert sorted(p.name for p in (out / "reports").iterdir()) == ["bleu.csv",
                                                                        "report.txt"]
        assert (out / "notes.txt").exists()

    def test_evaluate_no_metrics_manifest_only(self, tmp_path, corpus_dir, run_dir):
        out = tmp_path / "eval0"
        assert run("evaluate", "--checkpoint", checkpoint_of(run_dir),
                   "--data", corpus_dir, "--out", out, "--metrics", "") == 0
        assert load_json(out / "manifest.json")["success"] is True

    def test_evaluate_no_metrics_writes_no_reports_directory(self, tmp_path, corpus_dir,
                                                             run_dir):
        """Neither in a new run directory nor over an earlier run's reports."""
        out = tmp_path / "eval0"
        argv = ["--checkpoint", checkpoint_of(run_dir), "--data", corpus_dir, "--out", out]
        for earlier in ([], ["--metrics", "bleu"]):
            if earlier:
                assert run("evaluate", *argv, *earlier, "--overwrite") == 0
                assert (out / "reports" / "bleu.csv").exists()
            assert run("evaluate", *argv, "--metrics", "", "--overwrite") == 0
            assert load_json(out / "manifest.json")["outputs"] == []
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_evaluate_refuses_a_corpus_the_checkpoint_cannot_read(self, tmp_path, run_dir,
                                                                 capsys):
        """Gold pairs of a wider vocabulary than the checkpoint's are an
        error, as they are for extract, not a score over UNKs."""
        wide = tmp_path / "wide"
        assert run("gen-corpus", "--out", wide, *ov(MICRO), "--vocab_size=60") == 0
        out = tmp_path / "eval"
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", checkpoint_of(run_dir), "--data", wide,
                   "--out", out, "--metrics", "bleu,accuracy,hits") == 1
        err = capsys.readouterr().err
        assert re.search(r"gold\.test\.tsv: line \d+: token '\w+' is not in the vocabulary",
                         err), err
        manifest = load_json(out / "manifest.json")
        assert manifest["success"] is False and manifest["outputs"] == []
        assert not (out / "reports").exists()

    def test_extract_refuses_a_later_state_format(self, tmp_path, corpus_dir, run_dir,
                                                  capsys):
        ckpt = tmp_path / "ck"
        shutil.copytree(checkpoint_of(run_dir), ckpt)
        state = load_json(ckpt / "state.json")
        state["format"] = 2
        (ckpt / "state.json").write_text(json.dumps(state))
        dump = tmp_path / "d.tsv"
        capsys.readouterr()
        assert run("extract", "--checkpoint", ckpt, "--data", corpus_dir,
                   "--out-file", dump) == 1
        assert "checkpoint format 2 is not supported" in capsys.readouterr().err
        assert not dump.exists()


# each command given an input that does not exist; the last field says
# whether the command writes a manifest under --out
FAILURES = {
    "train": (lambda tmp, data: ["--data", tmp / "missing", "--out", tmp / "out",
                                 *ov(TRAIN)], True),
    "evaluate": (lambda tmp, data: ["--checkpoint", tmp / "missing", "--data", data,
                                    "--out", tmp / "out"], True),
    "sweep-k": (lambda tmp, data: ["--data", tmp / "missing", "--out", tmp / "out",
                                   "--sweep_ks=1", *ov(TRAIN)], True),
    "translate": (lambda tmp, data: ["--checkpoint", tmp / "missing",
                                     "--input", data / "src.valid.txt",
                                     "--output", tmp / "out.txt"], False),
    "extract": (lambda tmp, data: ["--checkpoint", tmp / "missing", "--data", data,
                                   "--out-file", tmp / "dump.tsv"], False),
}


@pytest.mark.parametrize("command", list(FAILURES))
def test_failure_returns_1_names_command_and_records_it(command, tmp_path, corpus_dir,
                                                        capsys):
    argv, has_manifest = FAILURES[command]
    capsys.readouterr()
    assert run(command, *argv(tmp_path, corpus_dir)) == 1
    assert capsys.readouterr().err.startswith(f"{command} failed: ")
    manifest = tmp_path / "out" / "manifest.json"
    if has_manifest:
        data = load_json(manifest)
        assert data["success"] is False and data["finished"] is not None
    else:
        assert not manifest.exists()


# each text input, as the file read and the command that reads it from a
# copy of the micro corpus; the copy read for "plain src.train.txt" has no
# corpus manifest, so its vocabulary is built from its training corpora
TEXT_INPUTS = {
    "plain src.train.txt": ("src.train.txt", lambda data, ck, out: [
        "train", "--data", data, "--out", out, *ov(TRAIN)]),
    "tgt.valid.txt": ("tgt.valid.txt", lambda data, ck, out: [
        "train", "--data", data, "--out", out, *ov(TRAIN)]),
    "gold.test.tsv": ("gold.test.tsv", lambda data, ck, out: [
        "evaluate", "--checkpoint", ck, "--data", data, "--out", out]),
    "distractors.txt": ("distractors.txt", lambda data, ck, out: [
        "evaluate", "--checkpoint", ck, "--data", data, "--out", out, "--metrics", "hits"]),
    "translate --input": ("src.valid.txt", lambda data, ck, out: [
        "translate", "--checkpoint", ck, "--input", data / "src.valid.txt", "--output", out]),
}

TEXT_FAULTS = {
    "malformed UTF-8": lambda line: b"\xff" + line,
    "reserved token": lambda line: line + b" <unk>",
    "reserved token after a form feed": lambda line: line.replace(b" ", b"\x0c", 1) + b" <unk>",
    "no token": lambda line: b" \t",
}


@pytest.mark.parametrize("fault", list(TEXT_FAULTS))
@pytest.mark.parametrize("text_input", list(TEXT_INPUTS))
def test_text_fault_names_file_and_line(text_input, fault, tmp_path, corpus_dir, run_dir,
                                        capsys):
    """A fault in line 2 of any text input exits 1 naming the file and the
    line, and writes nothing but a failure manifest."""
    name, argv = TEXT_INPUTS[text_input]
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    if text_input.startswith("plain"):
        (data / "corpus_manifest.json").unlink()
    lines = (data / name).read_bytes().split(b"\n")
    lines[1] = TEXT_FAULTS[fault](lines[1])
    (data / name).write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    args = argv(data, checkpoint_of(run_dir), out)
    capsys.readouterr()
    assert run(*args) == 1
    assert f"{name}: line 2: " in capsys.readouterr().err
    if args[0] == "translate":
        assert not out.exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert load_json(out / "manifest.json")["success"] is False


def rewrite_json(edit):
    """Damage that applies ``edit`` to a JSON file's object in place."""
    def damage(b: bytes) -> bytes:
        payload = json.loads(b)
        edit(payload)
        return json.dumps(payload).encode()
    return damage


def rewrite_tensors(edit):
    """Damage that applies ``edit`` to a tensor file's dict of arrays."""
    def damage(b: bytes) -> bytes:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.bin"
            path.write_bytes(b)
            tensors = load_tensors(path)
            edit(tensors)
            save_tensors(path, tensors)
            return path.read_bytes()
    return damage


def rewrite_manifest(edit):
    """Damage that applies ``edit`` to a tensor file's list of manifest lines."""
    def damage(b: bytes) -> bytes:
        head, body = b.split(b"\n\n", 1)
        lines = edit(head.decode("utf-8").split("\n"))
        return "\n".join(lines).encode("utf-8") + b"\n\n" + body
    return damage


def non_finite(name: str, value: float):
    """Damage that fills tensor ``name`` of a tensor file with ``value``."""
    return rewrite_tensors(lambda t: t.update({name: np.full(t[name].shape, value)}))


# a damaged file, the command that reads it, and the damage
DAMAGED_FILES = [
    pytest.param("state.json", "extract", lambda b: b[:len(b) // 2], id="state.json"),
    pytest.param("corpus_manifest.json", "train", lambda b: b[:9], id="corpus_manifest.json"),
    pytest.param("params.bin", "translate", lambda b: b"tensors x 1" + b[b.index(b"\n"):],
                 id="params.bin"),
    pytest.param("state.json", "extract", lambda b: b"[]", id="state.json-list-extract"),
    pytest.param("state.json", "translate", lambda b: b"[]", id="state.json-list-translate"),
    pytest.param("state.json", "evaluate", rewrite_json(lambda s: s.pop("vocab_content")),
                 id="state.json-no-vocab"),
    pytest.param("state.json", "extract", rewrite_json(lambda s: s["config"].update(foo=1)),
                 id="state.json-config-key"),
    pytest.param("corpus_manifest.json", "train", lambda b: b"{}",
                 id="corpus_manifest.json-no-spec"),
    pytest.param("corpus_manifest.json", "train",
                 rewrite_json(lambda m: m["spec"].update(foo=1)),
                 id="corpus_manifest.json-spec-key"),
    pytest.param("corpus_manifest.json", "train",
                 rewrite_json(lambda m: m["spec"].update(vocab_size="30")),
                 id="corpus_manifest.json-string-vocab-size"),
    pytest.param("corpus_manifest.json", "train",
                 rewrite_json(lambda m: m["spec"].update(len_min=9, len_max=5)),
                 id="corpus_manifest.json-inverted-lengths"),
    pytest.param("state.json", "extract", rewrite_json(lambda s: s.pop("opt_gen_steps")),
                 id="state.json-no-opt-steps"),
    pytest.param("params.bin", "extract",
                 rewrite_tensors(lambda t: t.update({"decoder.proj.b": np.zeros(3)})),
                 id="params.bin-shape"),
    pytest.param("optim.bin", "extract", rewrite_tensors(lambda t: t.pop("gen.m.embedding")),
                 id="optim.bin-missing"),
    pytest.param("optim.bin", "extract",
                 rewrite_tensors(lambda t: t.update({"eval.v.evaluator.b3": np.zeros(5)})),
                 id="optim.bin-shape"),
    pytest.param("index.bin", "extract",
                 rewrite_tensors(lambda t: t.update({"index.tgt": t["index.tgt"][:, :5]})),
                 id="index.bin-narrow"),
    pytest.param("state.json", "extract", rewrite_json(lambda s: s["index_episodes"].pop("tgt")),
                 id="state.json-no-index-episode"),
    pytest.param("state.json", "extract",
                 rewrite_json(lambda s: s["index_corpus_sha256"].pop("tgt")),
                 id="state.json-no-index-digest"),
    pytest.param("params.bin", "translate", lambda b: b[:b.index(b"\n\n")],
                 id="params.bin-no-terminator"),
    pytest.param("optim.bin", "extract",
                 rewrite_manifest(lambda ls: [ls[0].replace("tensors 1 ", "tensors 2 "),
                                              *ls[1:]]),
                 id="optim.bin-version"),
    pytest.param("index.bin", "extract", rewrite_manifest(lambda ls: ls[:-1]),
                 id="index.bin-count"),
    pytest.param("params.bin", "evaluate",
                 rewrite_manifest(lambda ls: [*ls[:-1], ls[-1].replace("\t", " ")]),
                 id="params.bin-manifest-line"),
    pytest.param("params.bin", "extract",
                 rewrite_manifest(lambda ls: [ls[0], ls[1].rsplit("\t", 1)[0] + "\tx",
                                              *ls[2:]]),
                 id="params.bin-offset"),
    pytest.param("params.bin", "translate", non_finite("embedding", np.nan),
                 id="params.bin-nan-translate"),
    pytest.param("params.bin", "extract", non_finite("embedding", np.nan),
                 id="params.bin-nan-extract"),
    pytest.param("optim.bin", "extract", non_finite("gen.v.embedding", np.inf),
                 id="optim.bin-inf"),
    pytest.param("index.bin", "extract", non_finite("index.tgt", np.nan), id="index.bin-nan"),
]


@pytest.mark.parametrize("name, command, damage", DAMAGED_FILES)
def test_damaged_file_is_named(name, command, damage, tmp_path, corpus_dir, run_dir, capsys):
    """A truncated JSON file, a JSON file of the wrong shape or content, a
    tensor file with a malformed manifest, or one whose tensors are not the
    live arrays' names and shapes or hold NaN or Inf, exits 1 naming the
    file."""
    data, ckpt = tmp_path / "data", tmp_path / "ck"
    shutil.copytree(corpus_dir, data)
    shutil.copytree(checkpoint_of(run_dir), ckpt)
    path = (data if name == "corpus_manifest.json" else ckpt) / name
    path.write_bytes(damage(path.read_bytes()))
    argv = {"extract": ["--checkpoint", ckpt, "--data", data, "--out-file", tmp_path / "d"],
            "train": ["--data", data, "--out", tmp_path / "out", *ov(TRAIN)],
            "translate": ["--checkpoint", ckpt, "--input", data / "src.valid.txt",
                          "--output", tmp_path / "t.txt"],
            "evaluate": ["--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out"]
            }[command]
    capsys.readouterr()
    assert run(command, *argv) == 1
    assert f"{command} failed: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, missing", [("train", "tgt.valid.txt"),
                                              ("sweep-k", "src.valid.txt")])
def test_half_a_validation_set_fails_naming_it_before_any_work(command, missing, tmp_path,
                                                              corpus_dir, capsys):
    """Criterion D translates both validation sets, so a directory with only
    one is refused, naming the other, before any work."""
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    (data / missing).unlink()
    out = tmp_path / "out"
    argv = {"train": [], "sweep-k": ["--sweep_ks=1"]}[command]
    capsys.readouterr()
    assert run(command, "--data", data, "--out", out, *ov(TRAIN), "--init_mode=random",
               "--valid_interval=2", *argv) == 1
    assert f"{command} failed: {data / missing}: missing" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command", ["sweep-k", "evaluate"])
def test_empty_gold_set_fails_naming_it_before_any_work(command, tmp_path, corpus_dir,
                                                       run_dir, capsys):
    """An empty gold set is refused by name before any work: sweep-k writes no
    pretrained/ checkpoint for a gold set it cannot grade."""
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    (data / "gold.test.tsv").write_text("")
    out = tmp_path / "out"
    argv = {"sweep-k": ["--sweep_ks=1", *ov(TRAIN)],
            "evaluate": ["--checkpoint", checkpoint_of(run_dir)]}[command]
    capsys.readouterr()
    assert run(command, "--data", data, "--out", out, *argv) == 1
    assert "gold.test.tsv: empty gold set" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestSweepK:
    @pytest.fixture(scope="class")
    def fork_dir(self, tmp_path_factory, corpus_dir) -> Path:
        """sweep-k at k = 3 (the arms set their own modes)."""
        out = tmp_path_factory.mktemp("sweep") / "fork"
        assert run("sweep-k", "--data", corpus_dir, "--out", out, "--sweep_ks=3",
                   *ov(TRAIN)) == 0
        return out

    def test_rows_sorted_single_and_multi(self, tmp_path, corpus_dir):
        out = tmp_path / "sweep"
        args = TRAIN + ["main_steps=6", "checkpoint_interval=0",
                        "valid_interval=0", "sweep_ks=3,1"]
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(args)) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "arm,k,seed,bleu,token_accuracy"
        arms = [r.split(",")[:3] for r in rows[1:]]
        assert arms == [["pretrain-only", "", "0"], ["extract-edit", "1", "0"],
                        ["extract-edit", "3", "0"], ["back-translation", "", "0"]]
        for name in ("metrics_k1.csv", "metrics_k3.csv", "metrics_back-translation.csv"):
            assert (out / name).exists(), name

    def test_single_k_single_row(self, tmp_path, corpus_dir):
        out = tmp_path / "sweep1"
        args = TRAIN + ["main_steps=4", "checkpoint_interval=0",
                        "valid_interval=0", "sweep_ks=2"]
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(args)) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows[1:]].count("extract-edit") == 1

    def test_k_beyond_corpus_fails_before_pretraining(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                   "--sweep_ks=1,500") == 1
        assert "k must be in [1, 150]" in capsys.readouterr().err
        assert load_json(out / "manifest.json")["success"] is False
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_repeated_k_fails_before_pretraining(self, tmp_path, corpus_dir, capsys):
        """A repeated k is a parse error: exit 2, nothing written."""
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert exit_code("sweep-k", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                         "--sweep_ks=3,1,3") == 2
        assert "--sweep_ks" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_divergence_reaches_the_parent_naming_the_step(self, tmp_path,
                                                                  corpus_dir, capsys):
        """An evaluator learning rate that blows up the first extract-edit step
        in a worker process fails the sweep naming step 13, the step after
        pretraining, and writes no sweep.csv."""
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(TRAIN),
                   "--sweep_ks=1", "--lr_evaluator=1e300") == 1
        assert ("sweep-k failed: step 13: cosine produced non-finite values"
                in capsys.readouterr().err)
        assert load_json(out / "manifest.json")["success"] is False
        assert not (out / "sweep.csv").exists()

    def test_overwrite_removes_an_earlier_runs_arms(self, tmp_path, corpus_dir):
        out = tmp_path / "sweep"
        args = TRAIN + ["pretrain_steps=2", "main_steps=2", "checkpoint_interval=0",
                        "valid_interval=0"]
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(args),
                   "--sweep_ks=1,3") == 0
        assert (out / "metrics_k3.csv").exists()
        assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(args),
                   "--sweep_ks=1", "--overwrite") == 0
        assert sorted(p.name for p in out.glob("metrics_*.csv")) == [
            "metrics_back-translation.csv", "metrics_k1.csv"]
        assert (out / "pretrained").is_dir()

    def test_evaluate_reproduces_the_pretrain_only_row(self, tmp_path, corpus_dir,
                                                       fork_dir):
        """evaluate on the saved pretrained checkpoint writes the BLEU and
        token accuracy of sweep.csv's pretrain-only row, float for float."""
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", fork_dir / "pretrained", "--data", corpus_dir,
                   "--out", out, "--metrics", "bleu,accuracy") == 0
        with open(fork_dir / "sweep.csv", encoding="utf-8") as f:
            row = next(r for r in csv.DictReader(f) if r["arm"] == "pretrain-only")
        with open(out / "reports" / "bleu.csv", encoding="utf-8") as f:
            (bleu,) = csv.DictReader(f)
        with open(out / "reports" / "accuracy.csv", encoding="utf-8") as f:
            (acc,) = csv.DictReader(f)
        assert float(bleu["bleu"]) == float(row["bleu"])
        assert float(acc["token_accuracy"]) == float(row["token_accuracy"])

    def test_one_worker_and_two_write_the_same_bytes(self, tmp_path, corpus_dir,
                                                      monkeypatch):
        """Two arms on one worker process, in turn, and on two side by side:
        every output file has the same bytes, the manifest apart from its
        times and build."""
        args = TRAIN + ["pretrain_steps=6", "main_steps=6", "valid_interval=3",
                        "checkpoint_interval=0", "sweep_ks=1"]
        pools, digests = [], []
        executor = cli.ProcessPoolExecutor

        def pool(workers, **kw):
            pools.append(workers)
            return executor(workers, **kw)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
            out = tmp_path / f"workers{workers}"
            assert run("sweep-k", "--data", corpus_dir, "--out", out, *ov(args)) == 0
            manifest = load_json(out / "manifest.json")
            for key in ("started", "finished", "build"):
                del manifest[key]
            files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            files["manifest.json"] = manifest
            digests.append(files)
        assert pools == [1, 2]
        assert len(digests[0]) > 5 and "metrics_back-translation.csv" in digests[0]
        assert digests[0] == digests[1]

    def test_arm_reads_no_corpus_file(self, tmp_path, corpus_dir, fork_dir):
        """An arm trains and is graded on the corpora and gold pairs it is
        handed: with the directory they were read from gone, it returns the
        metrics text and sweep.csv row of the sweep over that directory."""
        data_dir = tmp_path / "data"
        shutil.copytree(corpus_dir, data_dir)
        cfg = {**load_json(fork_dir / "manifest.json")["config"], "mode": "extract-edit"}
        tc = dataclass_from(TrainConfig, cfg)
        data = _load_data(data_dir, tc.max_len)
        gold = read_gold_pairs(data_dir / "gold.test.tsv", data[0])
        shutil.rmtree(data_dir)
        metrics, row = cli._run_arm(tc, data, gold, fork_dir / "pretrained")
        assert metrics == (fork_dir / "metrics_k3.csv").read_text(encoding="utf-8")
        with open(fork_dir / "sweep.csv", encoding="utf-8") as f:
            (want,) = [r for r in csv.DictReader(f) if r["arm"] == "extract-edit"]
        assert {key: str(value) for key, value in row.items()} == want

    @pytest.mark.parametrize("mode,metrics_name", [
        ("extract-edit", "metrics_k3.csv"),
        ("back-translation", "metrics_back-translation.csv"),
    ])
    def test_forked_arm_matches_uninterrupted_train(self, tmp_path, corpus_dir, fork_dir,
                                                    mode, metrics_name):
        """An arm forked from the saved pretrained checkpoint logs the same
        bytes as one train run that pretrains and continues in place
        (valid_interval divides pretrain_steps, so both validate at the
        pretraining boundary)."""
        out = tmp_path / mode
        assert run("train", "--data", corpus_dir, "--out", out, f"--mode={mode}",
                   *ov(TRAIN)) == 0
        assert (fork_dir / metrics_name).read_bytes() == (out / "metrics.csv").read_bytes()


def test_readme_command_lines_parse():
    """Every ``extractedit ...`` line of the README's command-line block
    parses, config keys included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    parser = build_parser()
    seen = set()
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "extractedit":
            seen.add(parser.parse_args(argv[1:]).command)
    assert seen == {"gen-corpus", "train", "translate", "extract", "evaluate", "sweep-k"}


class TestCommandLine:
    def test_key_beats_config_file_beats_default(self, tmp_path, corpus_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 4\nlambda = 0.25\n", encoding="utf-8")
        out = tmp_path / "run"
        args = TRAIN + ["pretrain_steps=0", "main_steps=0", "checkpoint_interval=0"]
        assert run("train", "--data", corpus_dir, "--out", out, "--config", cfg, *ov(args),
                   "--k=5") == 0
        got = load_config("train", out / "config.txt")  # config.txt is a train config
        assert got["k"] == 5  # the command line beats the file (and TRAIN's k=3)
        assert got["lambda"] == 0.25  # the file beats the default
        assert got["omega_com"] == COMMAND_KEYS["train"]["omega_com"][1]
        assert load_json(out / "manifest.json")["config"] == got

    @pytest.mark.parametrize("arg", ["--k=three", "--mystery=1", "--pretrain=5"])
    def test_bad_key_or_value_exits_2_before_any_output(self, tmp_path, corpus_dir, capsys,
                                                         arg):
        out = tmp_path / "run"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run("train", "--data", corpus_dir, "--out", out, arg)
        assert exit_.value.code == 2
        assert arg.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_utf8_config_exits_2_naming_its_line(self, tmp_path, corpus_dir,
                                                          capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 3\n\xff = 1\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("train", "--data", corpus_dir, "--out", out, "--config", cfg) == 2
        assert "run.cfg: line 2: malformed UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_config_line_without_equals_exits_2_naming_its_line(self, tmp_path, corpus_dir,
                                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nlr 0.1\n", encoding="utf-8")
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("train", "--data", corpus_dir, "--out", out, "--config", cfg) == 2
        assert "run.cfg: line 2 is not key = value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-corpus", "train", "evaluate", "sweep-k"])
    def test_help_lists_every_key_with_its_description(self, command, capsys, monkeypatch):
        """--help lists each key the command takes, with its description and
        default, and no key of another command."""
        monkeypatch.setenv("COLUMNS", "1000")  # no description wrapped mid-word
        capsys.readouterr()
        assert exit_code(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        keys = COMMAND_KEYS[command]
        for key, (_, default, doc) in keys.items():
            assert f"--{key} {key.upper()} {doc} (default: {format_value(default)})" in text, key
        foreign = {key for table in COMMAND_KEYS.values() for key in table} - set(keys)
        for key in foreign:
            assert not re.search(rf"--{key}\b", text), key

    @pytest.mark.parametrize("command,setting", [
        # a key of another command
        ("gen-corpus", "lr=1e-3"), ("gen-corpus", "hits_ks=1"), ("train", "vocab_size=30"),
        ("train", "sweep_ks=1"), ("evaluate", "hidden_size=3"), ("evaluate", "k=1"),
        ("sweep-k", "mode=back-translation"), ("sweep-k", "substitution_seed=none"),
        # a bad value of a list key
        ("sweep-k", "sweep_ks=a"), ("sweep-k", "sweep_ks=0,3"), ("sweep-k", "sweep_ks=1,1"),
        ("sweep-k", "sweep_ks="), ("evaluate", "hits_ks=2.5"), ("evaluate", "hits_ks=3,3"),
        ("evaluate", "hits_noise_ratios=x"), ("evaluate", "hits_noise_ratios=0.5,1"),
        ("evaluate", "hits_noise_ratios=nan")])
    @pytest.mark.parametrize("where", ["option", "config"])
    def test_foreign_key_or_bad_list_value_exits_2_before_any_output(
            self, command, setting, where, tmp_path, capsys):
        """A key the command does not take, or a bad list value, is an
        error as an option or as a --config line, and leaves no run
        directory."""
        out = tmp_path / "run"
        argv = {"gen-corpus": [], "train": ["--data", tmp_path],
                "evaluate": ["--checkpoint", tmp_path, "--data", tmp_path],
                "sweep-k": ["--data", tmp_path]}[command]
        if where == "config":
            (tmp_path / "run.cfg").write_text(setting.replace("=", " = ") + "\n")
            argv += ["--config", tmp_path / "run.cfg"]
        else:
            argv += [f"--{setting}"]
        capsys.readouterr()
        assert exit_code(command, "--out", out, *argv) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_commands_own_keys_and_seed(self, tmp_path, corpus_dir,
                                                             run_dir):
        """gen-corpus records its spec's seed (--seed=1 in MICRO), train its
        training seed, evaluate none; each records only the keys it takes."""
        corpus = load_json(corpus_dir / "manifest.json")
        assert corpus["seed"] == 1
        assert load_json(corpus_dir / "corpus_manifest.json")["spec"]["seed"] == 1
        assert list(corpus["config"]) == sorted(COMMAND_KEYS["gen-corpus"])
        train = load_json(run_dir / "manifest.json")
        assert train["seed"] == 0
        assert list(train["config"]) == sorted(COMMAND_KEYS["train"])
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", checkpoint_of(run_dir), "--data", corpus_dir,
                   "--out", out, "--metrics", "", "--hits_ks=2,1") == 0
        evaluation = load_json(out / "manifest.json")
        assert evaluation["seed"] is None
        assert evaluation["config"] == {"hits_ks": [2, 1], "hits_noise_ratios": [0.0, 0.5, 0.9]}

    @pytest.mark.parametrize("command", ["translate", "extract"])
    @pytest.mark.parametrize("arg", ["--k=1", "--config=run.cfg"])
    def test_checkpoint_commands_take_no_config(self, command, arg, tmp_path, capsys):
        """translate and extract read every setting from the checkpoint, so
        a key or a config file would be ignored: both are parse errors."""
        argv = {"translate": ["--input", tmp_path / "in.txt", "--output", tmp_path / "o.txt"],
                "extract": ["--data", tmp_path, "--out-file", tmp_path / "d.tsv"]}[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run(command, "--checkpoint", tmp_path, *argv, arg)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {arg}" in capsys.readouterr().err


class TestOutRoot:
    def test_env_var_provides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXTRACTEDIT_RUNS", str(tmp_path / "root"))
        assert run("gen-corpus", *ov(MICRO)) == 0
        assert (tmp_path / "root" / "corpus-seed1" / "manifest.json").exists()

    def test_missing_out_and_env_is_error(self, monkeypatch):
        monkeypatch.delenv("EXTRACTEDIT_RUNS", raising=False)
        assert run("gen-corpus", *ov(MICRO)) == 1
