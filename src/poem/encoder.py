"""Text embeddings and similarity scoring.

The query state is the embedding of its text, produced by a pluggable
encoder backend. Two backends ship with the package: a remote HTTP client
for production embedding services, and a deterministic hash encoder that
needs no model or network and is the workhorse for offline runs and tests.
Similarity is plain cosine; vectors are stored exactly as the backend
returned them and normalization happens only inside the similarity
computation, so snapshots round-trip backend output unchanged.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import wire
from .errors import BackendError, InvalidInputError, ProtocolError


@dataclass(frozen=True)
class Embedding:
    """A fixed-length vector of finite floats with nonzero Euclidean norm."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("embedding must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("embedding contains non-finite entries")
        if not np.any(arr):
            raise InvalidInputError("embedding has zero norm")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other):
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __hash__(self):
        return hash(self.values.tobytes())


class EncoderBackend(Protocol):
    """Anything that deterministically turns texts into fixed-dim embeddings."""

    def encode(self, texts: Sequence[str]) -> list[Embedding]: ...


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Cosine of the angle between two embeddings, in [-1, 1].

    Symmetric in its arguments bit-for-bit; raises on dimension mismatch.
    Each vector is pre-scaled by its peak magnitude (cosine is scale
    invariant) so squaring cannot underflow or overflow.
    """
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch: {a.dim} != {b.dim}")
    peak_a = float(np.max(np.abs(a.values)))
    peak_b = float(np.max(np.abs(b.values)))
    va = a.values / peak_a
    vb = b.values / peak_b
    return float(np.dot(va, vb)) / (float(np.linalg.norm(va)) * float(np.linalg.norm(vb)))


def scaled_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows pre-scaled as cosine_similarity scales a vector, and their norms. A row's
    results depend on that row alone, bit for bit, whatever matrix it sits in."""
    rows = vectors / np.max(np.abs(vectors), axis=1, keepdims=True)
    return rows, np.sqrt(np.einsum("ij,ij->i", rows, rows))


def similarities(rows: np.ndarray, norms: np.ndarray, s: Embedding) -> np.ndarray:
    """cosine_similarity(s, v) for each v that scaled_rows made rows and norms of. One
    einsum, not `rows @ q`: einsum scores equal rows bit-equal wherever they sit."""
    if rows.shape[1] != s.dim:
        raise InvalidInputError(f"dimension mismatch: {s.dim} != {rows.shape[1]}")
    q, q_norm = scaled_rows(s.values[None, :])
    return np.einsum("ij,j->i", rows, q[0]) / (norms * q_norm[0])


def _ngram_features(text: str) -> list[str]:
    # word unigrams + bigrams of the lowercased text; duplicates keep their weight
    tokens = text.lower().split()
    feats = [f"u:{t}" for t in tokens]
    feats += [f"b:{a} {b}" for a, b in zip(tokens, tokens[1:])]
    return feats


class HashEncoder:
    """Offline deterministic encoder: hashed token n-grams mapped to random directions.

    Each n-gram feature hashes (with the seed) to a pseudo-random Gaussian
    direction; a text's embedding is the normalized sum of its feature
    directions. Texts sharing n-grams land near each other, which is all the
    retrieval and ordering machinery needs for desk-scale runs.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 2:
            raise InvalidInputError(f"hash encoder needs dim >= 2, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)
        self._directions: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def encode(self, texts: Sequence[str]) -> list[Embedding]:
        return [self._encode_one(t) for t in texts]

    def _encode_one(self, text: str) -> Embedding:
        feats = _ngram_features(text)
        if not feats:
            raise InvalidInputError("cannot encode empty text")
        total = np.zeros(self.dim)
        for feat in feats:
            total += self._direction(feat)
        norm = np.linalg.norm(total)
        if norm == 0.0:  # astronomically unlikely cancellation
            raise InvalidInputError(f"degenerate embedding for text {text!r}")
        return Embedding(total / norm)

    def _direction(self, feat: str) -> np.ndarray:
        with self._lock:
            cached = self._directions.get(feat)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            feat.encode("utf-8"),
            digest_size=8,
            key=self.seed.to_bytes(8, "little", signed=True),
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        direction = rng.standard_normal(self.dim)
        with self._lock:
            self._directions.setdefault(feat, direction)
        return direction


class CachingEncoder:
    """Memoizes a backend per exact text; semantically invisible wrapper.

    The few-shot regime re-encodes the same handful of texts constantly, so
    the cache pays for itself immediately. Safe for concurrent callers.
    """

    def __init__(self, backend: EncoderBackend):
        self.backend = backend
        self._cache: dict[str, Embedding] = {}
        self._lock = threading.Lock()

    def encode(self, texts: Sequence[str]) -> list[Embedding]:
        with self._lock:
            missing = [t for t in dict.fromkeys(texts) if t not in self._cache]
        if missing:
            fresh = self.backend.encode(missing)
            if len(fresh) != len(missing):
                raise ProtocolError(
                    f"backend {type(self.backend).__name__} returned {len(fresh)} embeddings "
                    f"for {len(missing)} texts"
                )
            with self._lock:
                self._cache.update(zip(missing, fresh))
        with self._lock:
            return [self._cache[t] for t in texts]

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


class RemoteEncoder(wire.Endpoint):
    """HTTP embedding backend.

    Wire contract: POST {"texts": ["...", ...]} to the endpoint; the service
    answers {"embeddings": [[f, ...], ...], "dim": n}. Non-200 statuses and
    dimension mismatches are backend errors; malformed payloads are protocol
    errors. The endpoint comes from the constructor or POEM_EMBED_URL.
    """

    url_env = "POEM_EMBED_URL"
    service = "embedding"

    def encode(self, texts: Sequence[str]) -> list[Embedding]:
        texts = list(texts)
        data = self.post({"texts": texts})
        rows = data.get("embeddings")
        dim = data.get("dim")
        if not isinstance(rows, list) or not isinstance(dim, int):
            raise ProtocolError(
                f"embedding response must carry 'embeddings' (list) and 'dim' (int), "
                f"got keys {sorted(data)}"
            )
        if len(rows) != len(texts):
            raise ProtocolError(
                f"embedding response has {len(rows)} rows for {len(texts)} texts"
            )
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise BackendError(
                    f"embedding row {i} has length "
                    f"{len(row) if isinstance(row, list) else 'n/a'}, expected dim {dim}"
                )
            try:
                out.append(Embedding(np.asarray(row, dtype=np.float64)))
            except (InvalidInputError, TypeError, ValueError) as exc:
                raise ProtocolError(f"embedding row {i} is not a finite vector: {exc}") from exc
        return out
