"""Config file parsing and structured-config construction."""

from __future__ import annotations

from dataclasses import fields

import pytest

from extractedit.cipher import CipherSpec
from extractedit.config import (
    CONFIG_KEYS,
    ConfigError,
    dataclass_from,
    default_config,
    format_config,
    load_config,
)
from extractedit.training import TrainConfig

PLUMBING = ["sweep_ks", "hits_noise_ratios", "hits_ks"]


def test_defaults_cover_every_key():
    cfg = default_config()
    assert set(cfg) == set(CONFIG_KEYS)
    assert cfg["k"] == 10
    assert cfg["lambda"] == 0.5
    assert cfg["omega_lm"] == 1.0 and cfg["omega_com"] == 1.0
    assert cfg["batch_size"] == 32


def test_file_roundtrip(tmp_path):
    cfg = default_config()
    cfg["k"] = 5
    cfg["mode"] = "back-translation"
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg), encoding="utf-8")
    back = load_config(path)
    assert back == cfg


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# heading\n\nk = 3\n  # indented comment\n", encoding="utf-8")
    assert load_config(path)["k"] == 3


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_structured_configs():
    cfg = default_config()
    cfg["window"] = 2
    cfg["lambda"] = 0.7
    spec = dataclass_from(CipherSpec, cfg)
    assert spec.window == 2 and spec.vocab_size == 100
    tc = dataclass_from(TrainConfig, cfg)
    assert tc.lam == 0.7 and tc.k == 10
    tc.validate()


def test_keys_are_the_dataclass_fields():
    """One key per CipherSpec field, then one per TrainConfig field (seed
    and lam under their command-line names), then the plumbing keys; the
    defaults build the dataclasses' own defaults."""
    renamed = {(CipherSpec, "seed"): "data_seed", (TrainConfig, "lam"): "lambda"}
    expected = [renamed.get((cls, f.name), f.name)
                for cls in (CipherSpec, TrainConfig) for f in fields(cls)]
    assert list(CONFIG_KEYS) == expected + PLUMBING
    assert dataclass_from(CipherSpec, default_config()) == CipherSpec()
    assert dataclass_from(TrainConfig, default_config()) == TrainConfig()


def test_seed_keys_reach_their_own_dataclass():
    cfg = default_config()
    cfg["data_seed"], cfg["seed"] = 7, 3
    assert dataclass_from(CipherSpec, cfg).seed == 7
    assert dataclass_from(TrainConfig, cfg).seed == 3


def test_every_key_documented():
    for key, (_, _, doc) in CONFIG_KEYS.items():
        assert isinstance(doc, str) and doc, f"{key} lacks a description"
