"""Isolate mapping decay: LM-only continuation vs EE vs BT after pretraining."""
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from extractedit.cipher import CipherSpec, full_vocab_dictionary, generate_cipher_pair
from extractedit.metrics import token_accuracy
from extractedit.model import TGT
from extractedit.training import TrainConfig, Trainer

lr = float(sys.argv[1]) if len(sys.argv) > 1 else 3e-4

spec = CipherSpec(vocab_size=100, seed=200, substitution_seed=7, window=1,
                  n_train=1000, n_valid=100, n_test=300, len_min=3, len_max=10)
pair = generate_cipher_pair(spec)
table = full_vocab_dictionary(pair)

def accuracy(trainer):
    srcs = [s for s, _ in pair.gold]
    refs = [t for _, t in pair.gold]
    decoded = trainer.model.translate(srcs, TGT)
    return token_accuracy(decoded, refs)

base = dict(seed=0, hidden_size=32, layers=1, eval_hidden=32, eval_out=32,
            batch_size=32, lam=0.5, k=10, episode_len=50, pretrain_steps=800,
            main_steps=800, p_drop=0.1, shuffle_window=3, max_len=12,
            lr=lr, lr_evaluator=lr, valid_interval=0, checkpoint_interval=0,
            init_mode="oracle")

def make(**kw):
    cfg = TrainConfig(**{**base, **kw})
    return Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train,
                   pair.src_valid, pair.tgt_valid, oracle_dictionary=table)

tmp = Path(tempfile.mkdtemp())
pre = make(main_steps=0)
pre.run()
ck = pre.save_checkpoint(tmp / "pre")
print(f"[decay lr={lr}] pretrain acc={accuracy(pre):.3f}", flush=True)

for label, kw in [("lm-only", dict(mode="extract-edit", omega_com=0.0)),
                  ("extract-edit", dict(mode="extract-edit")),
                  ("back-translation", dict(mode="back-translation"))]:
    tr = make(**kw)
    tr.restore(ck, require_same_config=False)
    accs = []
    for chunk in range(4):
        for _ in range(200):
            tr.main_step()
        accs.append(accuracy(tr))
    print(f"[decay lr={lr}] {label}: " +
          " ".join(f"{a:.3f}" for a in accs), flush=True)
