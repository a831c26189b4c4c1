"""Build a cipher language pair and poke at its ground truth.

Run with: python demos/02_cipher_corpus.py
"""

import numpy as np

from extractedit.cipher import CipherSpec, generate_cipher_pair, invert_cipher

spec = CipherSpec(vocab_size=40, seed=11, substitution_seed=5, window=1,
                  n_train=300, n_valid=40, n_test=50, len_min=3, len_max=8)
pair = generate_cipher_pair(spec)
vocab = pair.vocab
offset = vocab.size - spec.vocab_size

print("a few source training sentences:")
for i in range(3):
    print("  ", " ".join(vocab.decode(pair.src_train[i])))

print("\ntarget side is a different (enciphered) sample:")
for i in range(3):
    print("  ", " ".join(vocab.decode(pair.tgt_train[i])))

print("\ngold pairs (source <-> cipher image):")
for s, t in pair.gold[:3]:
    print("  ", " ".join(vocab.decode(s)), " <-> ", " ".join(vocab.decode(t)))

# the cipher is bijective: decoding a gold target recovers its source
s, t = pair.gold[0]
back = invert_cipher(t - offset, pair.dictionary, spec.window) + offset
assert np.array_equal(back, s)
print("\ninverse cipher recovers the source exactly")

print("\noracle dictionary (first 5 entries):")
from extractedit.cipher import token_inventory
inv = token_inventory(spec.vocab_size)
for i in range(5):
    print(f"   {inv[i]} -> {inv[int(pair.dictionary[i])]}")
