"""Flat key=value configuration, one namespace per command.

``gen-corpus`` takes the fields of CipherSpec, ``train`` those of
TrainConfig, ``sweep-k`` those but ``mode`` plus ``sweep_ks``, and
``evaluate`` the settings of its hits report. A field's key, parser and
default come from the field (``lambda`` names ``TrainConfig.lam``, a
Python keyword); this module adds a description per key. A ``--key``
option and a ``load_config`` file line parse a value with the same parser.
"""

from __future__ import annotations

from dataclasses import fields

from .cipher import CipherSpec
from .text import decode_lines
from .training import TrainConfig


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


def int_or_none(s: str):
    return None if s.lower() in ("none", "") else int(s)


def k_list(s: str) -> tuple[int, ...]:
    """Comma-separated distinct values of k, each >= 1."""
    ks = tuple(int(x) for x in s.split(","))
    if min(ks) < 1 or len(set(ks)) < len(ks):
        raise ValueError(s)
    return ks


def ratio_list(s: str) -> tuple[float, ...]:
    """Comma-separated ratios, each in [0, 1)."""
    ratios = tuple(float(x) for x in s.split(","))
    if not all(0.0 <= r < 1.0 for r in ratios):
        raise ValueError(s)
    return ratios


_PARSERS = {"int": int, "float": float, "str": str, "int | None": int_or_none}
_RENAMED = {"lam": "lambda"}  # field -> key, where the field name is a Python keyword

# dataclass -> field -> description
_DESCRIPTIONS = {
    CipherSpec: {
        "vocab_size": "content tokens in the shared inventory",
        "seed": "RNG seed for corpus sampling",
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
    },
    TrainConfig: {
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
        "lam": "inverse temperature of the ranking softmax",
        "k": "extracted sentences per source",
        "episode_len": "steps between embedding-index rebuilds",
        "pretrain_steps": "language-modeling pretraining steps",
        "main_steps": "steps of the configured mode after pretraining",
        "p_drop": "word-drop probability of the noise model",
        "shuffle_window": "local shuffle window of the noise model",
        "init_mode": "oracle = mix dictionary word translation into pretraining",
        "valid_interval": "steps between model-selection scoring",
        "checkpoint_interval": "steps between checkpoints",
    },
}


def _keys(cls, skip=()) -> dict:
    return {_RENAMED.get(f.name, f.name):
            (_PARSERS[f.type], f.default, _DESCRIPTIONS[cls][f.name])
            for f in fields(cls) if f.name not in skip}


# command -> key -> (parser, default, description), in the line order of a
# formatted config
COMMAND_KEYS: dict[str, dict[str, tuple]] = {
    "gen-corpus": _keys(CipherSpec),
    "train": _keys(TrainConfig),
    "evaluate": {
        "hits_noise_ratios": (ratio_list, (0.0, 0.5, 0.9),
                              "distractor ratios for the hits report"),
        "hits_ks": (k_list, (1, 3, 5, 8, 10, 15, 20), "rank cutoffs for the hits report"),
    },
    "sweep-k": {**_keys(TrainConfig, skip=("mode",)),
                "sweep_ks": (k_list, (1, 3, 5, 8, 10),
                             "k values of the extract-edit arms")},
}


def load_config(command: str, path=None) -> dict:
    """The command's defaults, optionally overlaid with a key=value file."""
    keys = COMMAND_KEYS[command]
    cfg = {key: default for key, (_, default, _) in keys.items()}
    if path is None:
        return cfg
    for i, line in enumerate(decode_lines(path, ConfigError), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {i} is not key = value")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}: line {i}: {command} takes no key {key!r}")
        try:
            cfg[key] = keys[key][0](raw)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{path}: line {i}: bad value for {key}: {raw!r}") from e
    return cfg


def format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def format_config(cfg: dict) -> str:
    return "".join(f"{key} = {format_value(value)}\n" for key, value in cfg.items())


def dataclass_from(cls, cfg: dict):
    """Build ``cls`` (CipherSpec or TrainConfig) from its keys of a flat config."""
    return cls(**{f.name: cfg[_RENAMED.get(f.name, f.name)] for f in fields(cls)})
