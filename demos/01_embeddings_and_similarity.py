"""Embeddings and similarity: the hash encoder, cosine scoring, and caching.

Run:  python3 demos/01_embeddings_and_similarity.py
"""

import numpy as np

from poem import CachingEncoder, Embedding, HashEncoder, cosine_similarity

# The hash encoder is the offline stand-in for a sentence-embedding service:
# token n-grams hash to pseudo-random directions, summed and normalized.
# Same (dim, seed, text) always gives the same vector, on any machine.
encoder = HashEncoder(dim=64, seed=0)

texts = [
    "the cat sat on the mat",
    "the cat sat on the mat.",      # near-duplicate
    "a dog slept in the sun",
    "quarterly revenue fell sharply",
]
vectors = encoder.encode(texts)
print("dim:", vectors[0].dim, " norm:", round(float(np.linalg.norm(vectors[0].values)), 6))

print("\npairwise cosine similarity:")
for i, a in enumerate(texts):
    for j in range(i + 1, len(texts)):
        sim = cosine_similarity(vectors[i], vectors[j])
        print(f"  {a!r:<34} vs {texts[j]!r:<34} -> {sim:+.4f}")

# Near-duplicates score far above unrelated sentences, which is all the
# retrieval machinery needs. Determinism is bit-level:
again = encoder.encode([texts[0]])[0]
print("\nbit-identical on repeat:", bool(np.array_equal(again.values, vectors[0].values)))

# Hand-built embeddings work the same way; cosine is direction-only.
a = Embedding(np.array([1.0, 0.0]))
b = Embedding(np.array([1.0, 1.0]))
print("cos((1,0),(1,1)) =", cosine_similarity(a, b))
print("scale invariance:", cosine_similarity(Embedding(np.array([100.0, 0.0])), b))

# The caching wrapper memoizes per exact text; the few-shot loops re-encode
# the same handful of strings constantly, so this is the default posture.
cached = CachingEncoder(HashEncoder(dim=64, seed=0))
cached.encode(texts)
cached.encode(texts)
print("cache entries after two identical batches:", len(cached))
