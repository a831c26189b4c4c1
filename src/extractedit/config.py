"""Flat key=value configuration shared by the commands that take one.

One text file, one namespace: corpus-generation keys feed CipherSpec,
training keys feed TrainConfig, and the rest steer individual commands.
The keys, their parsers and their defaults come from the two dataclasses'
fields; this module adds only a description per key and the command-line
names of the two fields whose names clash or are reserved words.
``parse_value`` reads a key from the file with the same parser that
``cli.build_parser`` gives the key's ``--key`` option.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .cipher import CipherSpec
from .training import TrainConfig

__all__ = ["ConfigError", "CONFIG_KEYS", "default_config", "load_config",
           "parse_value", "dataclass_from", "format_config"]


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


def int_or_none(s: str):
    return None if s.lower() in ("none", "") else int(s)


_PARSERS = {"int": int, "float": float, "str": str, "int | None": int_or_none}

# (dataclass, field) -> config key, where the two differ: both dataclasses
# have a ``seed``, and ``lambda`` is a Python keyword
_RENAMED = {(CipherSpec, "seed"): "data_seed", (TrainConfig, "lam"): "lambda"}

# keys that steer individual commands: (default, description)
_PLUMBING = {
    "sweep_ks": ("1,3,5,8,10", "k values of the extract-edit arms of sweep-k"),
    "hits_noise_ratios": ("0,0.5,0.9", "distractor ratios for the hits report"),
    "hits_ks": ("1,3,5,8,10,15,20", "rank cutoffs for the hits report"),
}

_DESCRIPTIONS = {
    # cipher corpus generation (CipherSpec)
    "vocab_size": "content tokens in the shared inventory",
    "data_seed": "RNG seed for corpus sampling",
    "substitution_seed": "seed of the substitution permutation; 'none' = identity",
    "window": "local reordering window of the cipher",
    "reorder_rule": "deterministic reordering rule",
    "n_train": "training sentences per side",
    "n_valid": "held-out monolingual sentences per side",
    "n_test": "gold parallel test pairs",
    "n_distractor": "extra cipher sentences for retrieval noise pools",
    "len_min": "minimum sentence length",
    "len_max": "maximum sentence length",
    "zipf_exponent": "unigram frequency skew",
    "bigram_weight": "probability of drawing a preferred successor",
    "parallel_fraction": "fraction of true parallels injected into training",
    # model and training (TrainConfig)
    "mode": "extract-edit | back-translation",
    "seed": "training seed (init, batching, noise)",
    "hidden_size": "hidden and embedding width",
    "layers": "recurrent layers in encoder and decoder",
    "eval_hidden": "evaluation-network hidden width",
    "eval_out": "evaluation-network output width",
    "max_len": "sentence length cap, also the decode budget",
    "batch_size": "sentences per direction per step",
    "lr": "Adam learning rate, encoder/decoder group",
    "lr_evaluator": "Adam learning rate, evaluation network",
    "omega_lm": "language-modeling loss weight",
    "omega_com": "comparative / reconstruction loss weight",
    "lambda": "inverse temperature of the ranking softmax",
    "k": "extracted sentences per source",
    "episode_len": "steps between embedding-index rebuilds",
    "pretrain_steps": "language-modeling pretraining steps",
    "main_steps": "steps of the configured mode after pretraining",
    "p_drop": "word-drop probability of the noise model",
    "shuffle_window": "local shuffle window of the noise model",
    "init_mode": "oracle = mix dictionary word translation into pretraining",
    "valid_interval": "steps between model-selection scoring",
    "checkpoint_interval": "steps between checkpoints",
}


def _key(cls, name: str) -> str:
    return _RENAMED.get((cls, name), name)


# name -> (parser, default, description); cipher keys, then training keys,
# then plumbing keys, which is also the line order of a formatted config
CONFIG_KEYS: dict[str, tuple] = {
    **{_key(cls, f.name): (_PARSERS[f.type], f.default, _DESCRIPTIONS[_key(cls, f.name)])
       for cls in (CipherSpec, TrainConfig) for f in fields(cls)},
    **{k: (str, default, doc) for k, (default, doc) in _PLUMBING.items()},
}


def default_config() -> dict:
    return {k: v[1] for k, v in CONFIG_KEYS.items()}


def parse_value(key: str, raw: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    parser = CONFIG_KEYS[key][0]
    try:
        return parser(raw.strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key}: {raw!r}") from e


def load_config(path=None) -> dict:
    """Defaults, optionally overlaid with a key=value file."""
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {i} is not key = value")
        key, raw = stripped.split("=", 1)
        cfg[key.strip()] = parse_value(key.strip(), raw)
    return cfg


def format_config(cfg: dict) -> str:
    lines = [f"{k} = {'none' if cfg[k] is None else cfg[k]}" for k in CONFIG_KEYS]
    return "\n".join(lines) + "\n"


def dataclass_from(cls, cfg: dict):
    """Build ``cls`` (CipherSpec or TrainConfig) from its keys of a flat config."""
    return cls(**{f.name: cfg[_key(cls, f.name)] for f in fields(cls)})
