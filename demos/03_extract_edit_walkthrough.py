"""Walk one sentence through extract -> edit -> evaluate.

Pretrains a small model briefly so the embeddings mean something, then
shows the retrieval set M, the edited set M', and the ranking
distribution over the edited candidates plus the model's own translation.

Run with: python demos/03_extract_edit_walkthrough.py  (about a minute)
"""

import numpy as np

from extractedit.cipher import CipherSpec, full_vocab_dictionary, generate_cipher_pair
from extractedit.engine import (
    build_index,
    edit_batch,
    extract_topk_batch,
    score_candidates_batch,
)
from extractedit.model import TGT
from extractedit.tensor import Tensor
from extractedit.training import TrainConfig, Trainer

spec = CipherSpec(vocab_size=40, seed=3, substitution_seed=5, window=1,
                  n_train=400, n_valid=40, n_test=40, len_min=3, len_max=8)
pair = generate_cipher_pair(spec)
cfg = TrainConfig(seed=0, hidden_size=32, layers=1, eval_hidden=32, eval_out=32,
                  batch_size=16, k=5, pretrain_steps=600, main_steps=0,
                  valid_interval=0, max_len=10, lr=1e-3)
trainer = Trainer(cfg, pair.vocab, pair.src_train, pair.tgt_train,
                  pair.src_valid, pair.tgt_valid,
                  oracle_dictionary=full_vocab_dictionary(pair))
print("pretraining a small model...")
trainer.run()

vocab = pair.vocab
source = pair.gold[0][0]
print("\nsource sentence: ", " ".join(vocab.decode(source)))
print("gold translation:", " ".join(vocab.decode(pair.gold[0][1])))

# extract: top-k real target sentences by L2 distance in embedding space
index = build_index(pair.tgt_train, trainer.model, episode=0)
_, e_s, _ = trainer.model.encode_batch([source])
idx, dist = extract_topk_batch(e_s.data, index, k=5)
print("\nextracted set M:")
for i, d in zip(idx[0], dist[0]):
    print(f"   [{i}] d={d:.3f}  ", " ".join(vocab.decode(pair.tgt_train[int(i)])))

# edit: max-pool each extraction's embedding (its index row) with the
# source's, re-decode
print("\nedited set M':")
edited = edit_batch(np.repeat(e_s.data, 5, axis=0), index.rows[idx[0]], trainer.model, TGT)
for t_new in edited:
    print("   ", " ".join(vocab.decode(t_new)))

# evaluate: rank the model's own translation among the edited candidates
t_star, _ = trainer.model.translate_batch([source], TGT)
print("\nmodel translation t*:", " ".join(vocab.decode(t_star[0])))
_, cands, _ = trainer.model.encode_batch(edited + [t_star[0]])
logp = score_candidates_batch(e_s, Tensor(cands.data[None]), trainer.evaluator, 0.5)
probs = np.exp(logp.data[0])
print("ranking distribution over M' + {t*}:", np.array2string(probs, precision=3))
print(f"P(t*) = {probs[-1]:.3f}")
