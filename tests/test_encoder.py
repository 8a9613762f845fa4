import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poem import (
    CachingEncoder,
    Embedding,
    HashEncoder,
    cosine_similarity,
)
from poem.encoder import scaled_rows, similarities
from poem.errors import InvalidInputError


def emb(*values):
    return Embedding(np.array(values, dtype=np.float64))


class TestEmbedding:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Embedding(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInputError):
            Embedding(np.array([np.inf, 0.0]))

    def test_rejects_zero_norm(self):
        with pytest.raises(InvalidInputError):
            Embedding(np.zeros(4))

    def test_rejects_non_vector(self):
        with pytest.raises(InvalidInputError):
            Embedding(np.ones((2, 2)))

    def test_values_are_immutable(self):
        e = emb(1.0, 2.0)
        with pytest.raises(ValueError):
            e.values[0] = 5.0

    def test_dim(self):
        assert emb(1.0, 2.0, 3.0).dim == 3


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        for v in [emb(1.0, 0.0), emb(3.0, -4.0), emb(0.1, 0.2, 0.3)]:
            assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(emb(1.0, 0.0), emb(0.0, 1.0)) == 0.0

    def test_hand_value(self):
        # independent oracle: scalar arithmetic on the dot-product formula
        expected = (1.0 * 1.0 + 0.0 * 1.0) / (math.sqrt(1.0) * math.sqrt(2.0))
        got = cosine_similarity(emb(1.0, 0.0), emb(1.0, 1.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cosine_similarity(emb(1.0, 0.0), emb(1.0, 0.0, 0.0))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pair(draw):
    dim = draw(st.integers(min_value=2, max_value=16))
    a = draw(st.lists(finite, min_size=dim, max_size=dim))
    b = draw(st.lists(finite, min_size=dim, max_size=dim))
    assume(any(x != 0.0 for x in a) and any(x != 0.0 for x in b))
    return emb(*a), emb(*b)


class TestCosineProperties:
    @settings(max_examples=1000, deadline=None)
    @given(vector_pair())
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        value = cosine_similarity(a, b)
        assert abs(value) <= 1.0 + 1e-9
        assert value == cosine_similarity(b, a)  # exact, bit for bit

    @settings(max_examples=300, deadline=None)
    @given(vector_pair(), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, pair, scale):
        a, b = pair
        # a subnormal entry can underflow to 0 when scaled, and a zero vector is no embedding
        assume(np.all((a.values == 0.0) | (np.abs(a.values * scale) >= np.finfo(float).tiny)))
        scaled = Embedding(a.values * scale)
        assert cosine_similarity(scaled, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )


def reference_cosine(a, b):
    """cosine_similarity as written before each embedding cached its scale."""
    va = a.values / float(np.max(np.abs(a.values)))
    vb = b.values / float(np.max(np.abs(b.values)))
    return float(np.dot(va, vb)) / (float(np.linalg.norm(va)) * float(np.linalg.norm(vb)))


def reference_similarities(rows, norms, s):
    """similarities as written before: the query scaled by scaled_rows on every call."""
    q, q_norm = scaled_rows(s.values[None, :])
    return np.einsum("ij,j->i", rows, q[0]) / (norms * q_norm[0])


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()  # tells -0.0 from 0.0


any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def related_vectors(draw, count):
    """`count` nonzero vectors of one dim, each drawn fresh or made from an earlier one as
    a scaled copy, an antipode or an axis vector, so exact ties and -1 cosines occur."""
    dim = draw(st.sampled_from([2, 3, 7, 64]))
    out = []
    for i in range(count):
        kind = draw(st.sampled_from(["fresh", "scaled", "antipode", "axis"] if i else ["fresh"]))
        if kind == "fresh" and dim < 64:
            v = np.array(draw(st.lists(any_finite, min_size=dim, max_size=dim)))
        elif kind == "fresh":  # a seeded draw keeps hypothesis' input small
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            magnitude = draw(st.sampled_from([1.0, 1e-300, 1e-5, 1e5, 1e300]))
            v = rng.standard_normal(dim) * magnitude * (rng.random(dim) < 0.8)
        elif kind == "axis":
            v = np.zeros(dim)
            v[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([1.0, -2.5, 5e-324, 1e308]))
        else:
            base = out[draw(st.integers(0, len(out) - 1))]
            factor = -1.0 if kind == "antipode" else draw(st.sampled_from([2.0, 0.5, 3.0, 1e-3]))
            with np.errstate(over="ignore", under="ignore"):
                v = base * factor
            if not (np.all(np.isfinite(v)) and np.any(v)):
                v = base  # a duplicate instead
        if not np.any(v):
            v[0] = 1.0
        out.append(v)
    return [Embedding(v) for v in out]


class TestCachedScaleAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(related_vectors(2))
    def test_cosine_bit_for_bit(self, pair):
        a, b = pair
        assert bits(cosine_similarity(a, b)) == bits(reference_cosine(a, b))
        assert bits(cosine_similarity(b, a)) == bits(reference_cosine(b, a))
        assert bits(cosine_similarity(a, a)) == bits(reference_cosine(a, a))

    @settings(max_examples=300, deadline=None)
    @given(related_vectors(6))
    def test_similarities_bit_for_bit(self, vectors):
        *pool, query = vectors
        rows, norms = scaled_rows(np.stack([v.values for v in pool]))
        for s in (query, *pool):
            expected = reference_similarities(rows, norms, s)
            assert bits(similarities(rows, norms, s)) == bits(expected)

    def test_filled_cache_changes_no_equality_or_hash(self):
        values = np.array([3.0, -4.0, 0.5])
        used, fresh = Embedding(values), Embedding(values)
        cosine_similarity(used, used)
        assert "_scale" in vars(used) and "_scale" not in vars(fresh)
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert {used: 1}[fresh] == 1
        assert "_scale" not in vars(dataclasses.replace(used))
        assert [f.name for f in dataclasses.fields(Embedding)] == ["values"]


class TestHashEncoder:
    def test_deterministic_across_instances(self):
        a = HashEncoder(32, seed=1).encode(["good movie"])[0]
        b = HashEncoder(32, seed=1).encode(["good movie"])[0]
        assert np.array_equal(a.values, b.values)

    def test_repeated_call_bit_identical(self):
        enc = HashEncoder(32, seed=1)
        first = enc.encode(["good movie"])[0]
        second = enc.encode(["good movie"])[0]
        assert np.array_equal(first.values, second.values)

    def test_seed_changes_vectors(self):
        a = HashEncoder(32, seed=1).encode(["abc"])[0]
        b = HashEncoder(32, seed=2).encode(["abc"])[0]
        assert not np.array_equal(a.values, b.values)

    def test_output_is_unit_norm(self):
        e = HashEncoder(48, seed=3).encode(["several words in here"])[0]
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-9)

    def test_batch_order_and_arity(self):
        enc = HashEncoder(24, seed=0)
        texts = ["first text", "second text", "third text"]
        batch = enc.encode(texts)
        assert len(batch) == 3
        for text, got in zip(texts, batch):
            assert np.array_equal(got.values, enc.encode([text])[0].values)

    def test_distinct_texts_not_identical(self):
        enc = HashEncoder(32, seed=5)
        a, b = enc.encode(["the weather is nice", "stock markets tumbled"])
        assert cosine_similarity(a, b) < 1.0

    def test_near_duplicates_beat_unrelated_probes(self):
        enc = HashEncoder(64, seed=9)
        base, near = enc.encode(["the cat sat", "the cat sat."])
        probes = enc.encode(
            [
                "quarterly revenue fell sharply",
                "metals conduct electricity well",
                "the orchestra tuned quietly backstage",
            ]
        )
        near_sim = cosine_similarity(base, near)
        assert all(near_sim > cosine_similarity(base, p) for p in probes)

    def test_dim_guard(self):
        with pytest.raises(InvalidInputError):
            HashEncoder(1, seed=0)

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInputError):
            HashEncoder(16, seed=0).encode([""])


class _CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.texts_seen = 0

    def encode(self, texts):
        self.calls += 1
        self.texts_seen += len(texts)
        return self.inner.encode(texts)


class TestCachingEncoder:
    def test_semantically_invisible(self):
        plain = HashEncoder(32, seed=4)
        cached = CachingEncoder(HashEncoder(32, seed=4))
        texts = ["alpha beta", "gamma delta", "alpha beta"]
        for raw, wrapped in zip(plain.encode(texts), cached.encode(texts)):
            assert np.array_equal(raw.values, wrapped.values)

    def test_backend_called_once_per_unique_text(self):
        counting = _CountingBackend(HashEncoder(32, seed=4))
        cached = CachingEncoder(counting)
        cached.encode(["same text", "same text", "other text"])
        cached.encode(["same text"])
        cached.encode(["other text", "same text"])
        assert counting.texts_seen == 2
        assert len(cached) == 2
