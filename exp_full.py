"""Full-scale probe: pretrain baseline vs extract-edit vs back-translation.

Usage: python3 exp_full.py SEED [WINDOW] [MAIN_STEPS]
"""
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from extractedit.cipher import CipherSpec, full_vocab_dictionary, generate_cipher_pair
from extractedit.metrics import corpus_bleu, token_accuracy
from extractedit.model import TGT
from extractedit.training import TrainConfig, Trainer

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
window = int(sys.argv[2]) if len(sys.argv) > 2 else 1
main_steps = int(sys.argv[3]) if len(sys.argv) > 3 else 3000

spec = CipherSpec(vocab_size=100, seed=100 + seed, substitution_seed=7, window=window,
                  n_train=2000, n_valid=200, n_test=500, len_min=3, len_max=12)
pair = generate_cipher_pair(spec)
table = full_vocab_dictionary(pair)

def accuracy(trainer):
    srcs = [s for s, _ in pair.gold]
    refs = [t for _, t in pair.gold]
    decoded = trainer.model.translate(srcs, TGT)
    return token_accuracy(decoded, refs), corpus_bleu(decoded, refs).bleu

base = dict(seed=seed, hidden_size=64, layers=2, eval_hidden=64, eval_out=64,
            batch_size=32, k=10, lam=0.5, episode_len=50, pretrain_steps=2000,
            main_steps=main_steps, p_drop=0.1, shuffle_window=3, max_len=14,
            lr=3e-4, lr_evaluator=3e-4, valid_interval=500, checkpoint_interval=0,
            init_mode="oracle")

def make(mode, **kw):
    cfg = TrainConfig(**{**base, **kw, "mode": mode})
    return Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train,
                   pair.src_valid, pair.tgt_valid, oracle_dictionary=table)

tmp = Path(tempfile.mkdtemp())
t0 = time.time()
pre = make("extract-edit", main_steps=0)
pre.run()
ck = pre.save_checkpoint(tmp / "pretrained")
acc0, bleu0 = accuracy(pre)
print(f"[w={window} seed={seed}] pretrain-only: acc={acc0:.3f} bleu={bleu0:.2f} "
      f"({time.time()-t0:.0f}s)", flush=True)

for mode in ("extract-edit", "back-translation"):
    t1 = time.time()
    tr = make(mode)
    tr.restore(ck, require_same_config=False)
    tr.run()
    acc, bleu = accuracy(tr)
    print(f"[w={window} seed={seed}] {mode}: acc={acc:.3f} bleu={bleu:.2f} "
          f"D={tr.state.best_d:.3f}@{tr.state.best_step} ({time.time()-t1:.0f}s)",
          flush=True)
    if mode == "extract-edit":
        mid = [r for r in tr.state.metric_rows if r[6]]
        for r in mid:
            print(f"   step {r[0]}: D_s2t={float(r[6]):.3f} D_t2s={float(r[7]):.3f}",
                  flush=True)
