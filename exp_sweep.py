"""Smaller-harness probe for the k-sweep shape: k=1 vs k=10."""
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from extractedit.cipher import CipherSpec, full_vocab_dictionary, generate_cipher_pair
from extractedit.metrics import token_accuracy
from extractedit.model import TGT
from extractedit.training import TrainConfig, Trainer

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0

spec = CipherSpec(vocab_size=100, seed=200 + seed, substitution_seed=7, window=1,
                  n_train=1000, n_valid=100, n_test=300, len_min=3, len_max=10)
pair = generate_cipher_pair(spec)
table = full_vocab_dictionary(pair)

def accuracy(trainer):
    srcs = [s for s, _ in pair.gold]
    refs = [t for _, t in pair.gold]
    decoded = trainer.model.translate(srcs, TGT)
    return token_accuracy(decoded, refs)

base = dict(seed=seed, hidden_size=32, layers=1, eval_hidden=32, eval_out=32,
            batch_size=32, lam=0.5, episode_len=50, pretrain_steps=800,
            main_steps=800, p_drop=0.1, shuffle_window=3, max_len=12,
            lr=1e-3, lr_evaluator=1e-3, valid_interval=0, checkpoint_interval=0,
            init_mode="oracle")

tmp = Path(tempfile.mkdtemp())
t0 = time.time()
pre = Trainer(TrainConfig(**{**base, "main_steps": 0, "k": 1}), pair.vocab,
              pair.src_train, pair.tgt_train, pair.src_valid, pair.tgt_valid,
              oracle_dictionary=table)
pre.run()
ck = pre.save_checkpoint(tmp / "pre")
print(f"[sweep seed={seed}] pretrain acc={accuracy(pre):.3f} ({time.time()-t0:.0f}s)",
      flush=True)
for k in (1, 3, 10):
    t1 = time.time()
    tr = Trainer(TrainConfig(**{**base, "k": k}), pair.vocab, pair.src_train,
                 pair.tgt_train, pair.src_valid, pair.tgt_valid,
                 oracle_dictionary=table)
    tr.restore(ck, require_same_config=False)
    tr.run()
    print(f"[sweep seed={seed}] k={k}: acc={accuracy(tr):.3f} ({time.time()-t1:.0f}s)",
          flush=True)
