"""Compare extract-edit against back-translation on a small cipher task.

Both modes start from the same pretrained weights (same seed) and run the
same number of steps; gold pairs grade the result. Expect a few minutes.

Run with: python demos/04_training_modes.py
"""

from extractedit import CipherSpec, generate_cipher_pair
from extractedit.cipher import full_vocab_dictionary
from extractedit.metrics import grade
from extractedit.training import TrainConfig, Trainer

spec = CipherSpec(vocab_size=60, seed=21, substitution_seed=9, window=1,
                  n_train=800, n_valid=80, n_test=200, len_min=3, len_max=10)
pair = generate_cipher_pair(spec)
table = full_vocab_dictionary(pair)


def report(trainer, label):
    bleu, acc = grade(trainer.model, pair.gold)
    print(f"{label:>18}: token accuracy {acc:.3f}, BLEU {bleu.bleu:.2f}")


def make(mode, main_steps):
    cfg = TrainConfig(mode=mode, seed=0, hidden_size=48, layers=1, eval_hidden=48,
                      eval_out=48, batch_size=32, k=8, episode_len=50,
                      pretrain_steps=800, main_steps=main_steps, max_len=12,
                      valid_interval=400, checkpoint_interval=0, lr=1e-3,
                      lr_evaluator=1e-3)
    return Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train,
                   pair.src_valid, pair.tgt_valid, oracle_dictionary=table)


print("pretraining baseline...")
baseline = make("extract-edit", main_steps=0)
baseline.run()
report(baseline, "pretrain only")

print("\nextract-edit training...")
ee = make("extract-edit", main_steps=1000)
ee.run()
report(ee, "extract-edit")
scored = [row for row in ee.state.metric_rows if row[6]]  # rows with D_s2t, D_t2s
best = max(scored, key=lambda row: float(row[6]) + float(row[7]))
print(f"{'':>18}  model-selection D peaked at step {best[0]}")

print("\nback-translation training...")
bt = make("back-translation", main_steps=1000)
bt.run()
report(bt, "back-translation")
