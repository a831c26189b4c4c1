"""Config file parsing and structured-config construction."""

from __future__ import annotations

from dataclasses import fields

import pytest

from extractedit.cipher import CipherSpec
from extractedit.config import (
    COMMAND_KEYS,
    ConfigError,
    dataclass_from,
    format_config,
    load_config,
)
from extractedit.training import TrainConfig


def test_defaults_cover_every_key():
    for command, keys in COMMAND_KEYS.items():
        assert list(load_config(command)) == list(keys), command
    cfg = load_config("train")
    assert cfg["k"] == 10
    assert cfg["lambda"] == 0.5
    assert cfg["omega_lm"] == 1.0 and cfg["omega_com"] == 1.0
    assert cfg["batch_size"] == 32
    assert load_config("sweep-k")["sweep_ks"] == (1, 3, 5, 8, 10)
    assert load_config("evaluate") == {"hits_noise_ratios": (0.0, 0.5, 0.9),
                                       "hits_ks": (1, 3, 5, 8, 10, 15, 20)}


def test_file_roundtrip(tmp_path):
    for command, changes in [
        ("gen-corpus", {"seed": 7, "substitution_seed": None, "zipf_exponent": 1.5}),
        ("train", {"k": 5, "mode": "back-translation", "lambda": 0.25}),
        ("evaluate", {"hits_noise_ratios": (0.25,), "hits_ks": (3, 1)}),
        ("sweep-k", {"sweep_ks": (10, 2), "seed": 4}),
    ]:
        cfg = {**load_config(command), **changes}
        path = tmp_path / f"{command}.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert load_config(command, path) == cfg, command


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# heading\n\nk = 3\n  # indented comment\n", encoding="utf-8")
    assert load_config("train", path)["k"] == 3


def test_unknown_key_rejected(tmp_path):
    """A key is unknown to every command that does not take it."""
    path = tmp_path / "c.cfg"
    for command, line in [
        ("train", "mystery = 1"), ("train", "vocab_size = 30"), ("train", "sweep_ks = 1"),
        ("gen-corpus", "lr = 0.001"), ("evaluate", "k = 1"), ("sweep-k", "mode = extract-edit"),
    ]:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{command} takes no key '{line.split()[0]}'"):
            load_config(command, path)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029", "\r"], ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_ends_at_newline_only(tmp_path, char):
    """A fault is reported on the line an editor shows: the characters other
    than ``\\n`` at which ``str.splitlines`` breaks end no line."""
    path = tmp_path / "c.cfg"
    path.write_bytes(f"k = 3{char} \nlr = x\n".encode("utf-8"))
    with pytest.raises(ConfigError, match=r"c\.cfg: line 2: bad value for lr"):
        load_config("train", path)


def test_structured_configs():
    spec = dataclass_from(CipherSpec, {**load_config("gen-corpus"), "window": 2})
    assert spec.window == 2 and spec.vocab_size == 100
    tc = dataclass_from(TrainConfig, {**load_config("train"), "lambda": 0.7})
    assert tc.lam == 0.7 and tc.k == 10
    tc.validate()


def test_keys_are_the_dataclass_fields():
    """gen-corpus takes one key per CipherSpec field and train one per
    TrainConfig field (lam under its command-line name, lambda); sweep-k
    takes train's keys but mode, plus sweep_ks; evaluate takes the two hits
    settings. The defaults build the dataclasses' own defaults."""
    train_keys = ["lambda" if f.name == "lam" else f.name for f in fields(TrainConfig)]
    assert list(COMMAND_KEYS["gen-corpus"]) == [f.name for f in fields(CipherSpec)]
    assert list(COMMAND_KEYS["train"]) == train_keys
    assert list(COMMAND_KEYS["sweep-k"]) == [k for k in train_keys if k != "mode"] + [
        "sweep_ks"]
    assert list(COMMAND_KEYS["evaluate"]) == ["hits_noise_ratios", "hits_ks"]
    assert {c: len(keys) for c, keys in COMMAND_KEYS.items()} == {
        "gen-corpus": 14, "train": 22, "evaluate": 2, "sweep-k": 22}
    assert dataclass_from(CipherSpec, load_config("gen-corpus")) == CipherSpec()
    assert dataclass_from(TrainConfig, load_config("train")) == TrainConfig()


def test_seed_keys_reach_their_own_dataclass():
    assert dataclass_from(CipherSpec, {**load_config("gen-corpus"), "seed": 7}).seed == 7
    assert dataclass_from(TrainConfig, {**load_config("train"), "seed": 3}).seed == 3


def test_every_key_documented():
    for command, keys in COMMAND_KEYS.items():
        for key, (_, _, doc) in keys.items():
            assert isinstance(doc, str) and doc, f"{command} {key} lacks a description"
