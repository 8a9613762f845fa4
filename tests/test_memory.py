import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poem import (
    Action,
    Embedding,
    EpisodicMemory,
    StateRecord,
    action_key,
    enumerate_actions,
    identity_action,
    parse_action_key,
)
from poem.errors import InvalidInputError, SnapshotError
from poem.memory import SIMILARITY_FLOOR, state_id_for


def emb(*values):
    return Embedding(np.array(values, dtype=np.float64))


def record(text, *values):
    return StateRecord.from_text(text, emb(*values))


A12 = Action((1, 2))
A21 = Action((2, 1))


class TestWrite:
    def test_first_write_stores_value(self):
        mem = EpisodicMemory(capacity=4, m=2)
        s = record("alpha", 1.0, 0.0)
        mem.write(s, A12, 0.5)
        assert mem.read(s, A12, k=1) == 0.5

    def test_lower_write_keeps_stored_max(self):
        mem = EpisodicMemory(capacity=4, m=2)
        s = record("alpha", 1.0, 0.0)
        mem.write(s, A12, 0.5)
        mem.write(s, A12, 0.3)
        assert mem.read(s, A12, k=1) == 0.5
        mem.write(s, A12, 0.9)
        assert mem.read(s, A12, k=1) == 0.9

    def test_non_finite_reward_rejected(self):
        mem = EpisodicMemory(capacity=4, m=2)
        s = record("alpha", 1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                mem.write(s, A12, bad)

    def test_wrong_m_rejected(self):
        mem = EpisodicMemory(capacity=4, m=2)
        with pytest.raises(InvalidInputError):
            mem.write(record("alpha", 1.0, 0.0), Action((1, 2, 3)), 0.5)

    def test_lru_eviction_by_hand(self):
        # A written first, then B; inserting C at capacity 2 must evict A
        mem = EpisodicMemory(capacity=2, m=2)
        a, b, c = record("A", 1.0, 0.0), record("B", 0.0, 1.0), record("C", 1.0, 1.0)
        mem.write(a, A12, 0.1)
        mem.write(b, A12, 0.2)
        mem.write(c, A12, 0.3)
        ids = {rec.state_id for rec, _ in mem.entries()}
        assert ids == {b.state_id, c.state_id}

    def test_write_refreshes_recency(self):
        mem = EpisodicMemory(capacity=2, m=2)
        a, b, c = record("A", 1.0, 0.0), record("B", 0.0, 1.0), record("C", 1.0, 1.0)
        mem.write(a, A12, 0.1)
        mem.write(b, A12, 0.2)
        mem.write(a, A21, 0.3)  # A becomes most recent; B is now the LRU
        mem.write(c, A12, 0.4)
        ids = {rec.state_id for rec, _ in mem.entries()}
        assert ids == {a.state_id, c.state_id}

    def test_read_as_neighbor_refreshes_recency(self):
        mem = EpisodicMemory(capacity=2, m=2)
        a, b = record("A", 1.0, 0.0), record("B", 0.0, 1.0)
        mem.write(a, A12, 0.1)
        mem.write(b, A12, 0.2)
        # consulting A as the nearest neighbor touches it; B becomes the LRU
        mem.read(record("A-like", 1.0, 0.05), A12, k=1)
        mem.write(record("C", 1.0, 1.0), A12, 0.3)
        ids = {rec.state_id for rec, _ in mem.entries()}
        assert a.state_id in ids and b.state_id not in ids


class TestRead:
    def test_exact_hit_returns_stored_value(self):
        mem = EpisodicMemory(capacity=4, m=2)
        s = record("alpha", 1.0, 0.0)
        mem.write(s, A12, 0.7)
        mem.write(record("noise", 0.9, 0.1), A12, 0.0)  # a near neighbor to ignore
        assert mem.read(s, A12, k=4) == 0.7

    def test_weighted_two_neighbors(self):
        # similarities to the query are 0.8 and 0.2 by construction;
        # hand evaluation: 1.0*0.8/(0.8+0.2) + 0.0*0.2/(0.8+0.2) = 0.8
        mem = EpisodicMemory(capacity=4, m=2)
        n1 = record("n1", 0.8, 0.6)
        n2 = record("n2", 0.2, math.sqrt(1 - 0.04))
        mem.write(n1, A12, 1.0)
        mem.write(n2, A12, 0.0)
        query = record("query", 1.0, 0.0)
        assert mem.read(query, A12, k=2) == pytest.approx(0.8, abs=1e-9)

    def test_single_state_normalizes_to_one(self):
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(record("only", 0.6, 0.8), A12, 0.4)
        query = record("query", 1.0, 0.0)
        for k in (1, 3, 10):
            assert mem.read(query, A12, k=k) == pytest.approx(0.4, abs=1e-12)

    def test_undefined_when_no_neighbor_has_action(self):
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(record("n1", 0.8, 0.6), A12, 1.0)
        assert mem.read(record("query", 1.0, 0.0), A21, k=2) is None

    def test_empty_memory_undefined(self):
        mem = EpisodicMemory(capacity=4, m=2)
        assert mem.read(record("query", 1.0, 0.0), A12, k=3) is None

    def test_weights_sum_to_one_with_negative_similarity(self):
        # one neighbor has negative cosine; the clamp keeps the combination convex
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(record("pos", 1.0, 0.0), A12, 1.0)
        mem.write(record("neg", -1.0, 0.0), A12, 1.0)
        got = mem.read(record("query", 1.0, 0.0), A12, k=2)
        assert got == pytest.approx(1.0, abs=1e-9)  # both rewards 1.0 -> convex sum is 1.0

    def test_neighbors_chosen_before_action_filter(self):
        # the k=1 nearest neighbor lacks the action, so the estimate is
        # undefined even though a farther state holds it
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(record("near", 1.0, 0.1), A21, 0.9)
        mem.write(record("far", 0.0, 1.0), A12, 0.5)
        query = record("query", 1.0, 0.0)
        assert mem.read(query, A12, k=1) is None
        assert mem.read(query, A12, k=2) == pytest.approx(0.5)


class TestBestAction:
    def test_exact_hit_argmax_over_all_actions(self):
        mem = EpisodicMemory(capacity=4, m=3)
        s = record("alpha", 1.0, 0.0)
        rng = np.random.default_rng(5)
        rewards = {a: float(rng.uniform(-1, 1)) for a in enumerate_actions(3)}
        for a, r in rewards.items():
            mem.write(s, a, r)
        expected = max(sorted(rewards, key=lambda a: a.ranks), key=lambda a: rewards[a])
        assert mem.best_action(s, k=1) == expected

    def test_heavier_neighbor_wins(self):
        # weights 0.9 / 0.1 by construction; neighbor 1 prefers A12,
        # neighbor 2 prefers A21; hand evaluation gives A12 est 0.9, A21 est 0.1
        mem = EpisodicMemory(capacity=4, m=2)
        n1 = record("n1", 0.9, math.sqrt(1 - 0.81))
        n2 = record("n2", 0.1, math.sqrt(1 - 0.01))
        mem.write(n1, A12, 1.0)
        mem.write(n1, A21, 0.0)
        mem.write(n2, A12, 0.0)
        mem.write(n2, A21, 1.0)
        assert mem.best_action(record("query", 1.0, 0.0), k=2) == A12

    def test_only_defined_action_wins(self):
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(record("n1", 0.8, 0.6), A21, -5.0)
        assert mem.best_action(record("query", 1.0, 0.0), k=2) == A21

    def test_empty_memory_warns_and_falls_back(self):
        mem = EpisodicMemory(capacity=4, m=3)
        with pytest.warns(RuntimeWarning):
            assert mem.best_action(record("query", 1.0, 0.0), k=1) == identity_action(3)

    def test_tie_breaks_lexicographically(self):
        mem = EpisodicMemory(capacity=4, m=2)
        s = record("alpha", 1.0, 0.0)
        mem.write(s, A21, 0.5)
        mem.write(s, A12, 0.5)
        assert mem.best_action(s, k=1) == A12

    def test_k1_training_state_equals_per_state_argmax(self):
        mem = EpisodicMemory(capacity=8, m=3)
        rng = np.random.default_rng(9)
        states = [record(f"s{i}", *rng.standard_normal(3)) for i in range(4)]
        per_state = {}
        for s in states:
            rewards = {}
            for a in enumerate_actions(3):
                r = float(rng.uniform(0, 1))
                mem.write(s, a, r)
                rewards[a] = r
            per_state[s.state_id] = max(
                sorted(rewards, key=lambda a: a.ranks), key=lambda a: rewards[a]
            )
        for s in states:
            assert mem.best_action(s, k=1) == per_state[s.state_id]

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(31)

        def build(scale):
            mem = EpisodicMemory(capacity=8, m=3)
            r = np.random.default_rng(7)
            for i in range(5):
                s = StateRecord.from_text(f"s{i}", Embedding(rng_vectors[i]))
                for a in enumerate_actions(3):
                    if r.random() < 0.6:
                        mem.write(s, a, float(r.uniform(-2, 2)) * scale)
            return mem

        rng_vectors = [rng.standard_normal(4) for _ in range(5)]
        base = build(1.0)
        scaled = build(3.7)
        for i in range(6):
            q = StateRecord.from_text(f"q{i}", Embedding(rng.standard_normal(4)))
            assert base.best_action(q, k=3) == scaled.best_action(q, k=3)


class _ReferenceLRU:
    """Dead-simple model: dict of dicts plus an explicit recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.values = {}
        self.recency = []  # oldest first

    def touch(self, sid):
        if sid in self.recency:
            self.recency.remove(sid)
        self.recency.append(sid)

    def write(self, sid, key, r):
        if sid not in self.values:
            if len(self.values) >= self.capacity:
                victim = self.recency.pop(0)
                del self.values[victim]
            self.values[sid] = {}
        old = self.values[sid].get(key)
        self.values[sid][key] = r if old is None else max(old, r)
        self.touch(sid)


class TestMemoryLaws:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=1),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_random_write_sequences(self, capacity, ops):
        mem = EpisodicMemory(capacity=capacity, m=2)
        ref = _ReferenceLRU(capacity)
        actions = [A12, A21]
        vectors = {i: (math.cos(i), math.sin(i)) for i in range(8)}
        best_seen: dict[tuple[str, int], float] = {}
        for state_i, action_i, r in ops:
            s = record(f"s{state_i}", *vectors[state_i])
            if s.state_id not in ref.values:  # fresh residency starts fresh maxima
                best_seen = {k: v for k, v in best_seen.items() if k[0] != s.state_id}
            mem.write(s, actions[action_i], r)
            ref.write(s.state_id, action_i, r)
            key = (s.state_id, action_i)
            best_seen[key] = max(best_seen.get(key, -math.inf), r)
            stored = mem.read(s, actions[action_i], k=1)
            assert stored == best_seen[key]  # never decreases
            assert len(mem) <= capacity
        got = {rec.state_id for rec, _ in mem.entries()}
        assert got == set(ref.values)
        # recency order matches the reference simulation
        got_order = [rec.state_id for rec, _ in mem.entries()]
        assert got_order == ref.recency


SNAPSHOT_M = 3


def _populated_memory():
    mem = EpisodicMemory(capacity=16, m=SNAPSHOT_M)
    rng = np.random.default_rng(17)
    for i in range(16):
        s = record(f"state {i}", *rng.standard_normal(6))
        for a in enumerate_actions(SNAPSHOT_M):
            if rng.random() < 0.7:
                # awkward floats on purpose: bit-exactness is the contract
                mem.write(s, a, float(rng.uniform(-1, 1)) * (0.1 + 0.2))
    return mem


class TestSnapshot:
    def test_roundtrip_bit_exact(self, tmp_path):
        mem = _populated_memory()
        path = tmp_path / "mem.json"
        mem.snapshot(path)
        restored = EpisodicMemory.restore(path)
        assert restored.capacity == mem.capacity and restored.m == mem.m
        original = {rec.state_id: (rec, acts) for rec, acts in mem.entries()}
        for rec, acts in restored.entries():
            orig_rec, orig_acts = original[rec.state_id]
            assert acts == orig_acts  # float equality, not approx
            assert np.array_equal(rec.embedding.values, orig_rec.embedding.values)
            assert rec.source_text == orig_rec.source_text
            assert rec.last_touch == orig_rec.last_touch
        # snapshotting the restored memory reproduces the file byte for byte
        path2 = tmp_path / "mem2.json"
        restored.snapshot(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_restore_preserves_recency_order(self, tmp_path):
        mem = EpisodicMemory(capacity=2, m=2)
        a, b = record("A", 1.0, 0.0), record("B", 0.0, 1.0)
        mem.write(a, A12, 0.1)
        mem.write(b, A12, 0.2)
        mem.write(a, A21, 0.3)  # A most recent
        path = tmp_path / "mem.json"
        mem.snapshot(path)
        restored = EpisodicMemory.restore(path)
        restored.write(record("C", 1.0, 1.0), A12, 0.4)  # must evict B, the LRU
        ids = {rec.state_id for rec, _ in restored.entries()}
        assert ids == {a.state_id, state_id_for("C")}

    def test_snapshot_after_eviction_excludes_evicted(self, tmp_path):
        mem = EpisodicMemory(capacity=2, m=2)
        mem.write(record("A", 1.0, 0.0), A12, 0.1)
        mem.write(record("B", 0.0, 1.0), A12, 0.2)
        mem.write(record("C", 1.0, 1.0), A12, 0.3)
        path = tmp_path / "mem.json"
        mem.snapshot(path)
        doc = json.loads(path.read_text())
        texts = {st["text"] for st in doc["states"]}
        assert texts == {"B", "C"}

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "mem.json"
        path.write_text(json.dumps({"version": 99, "m": 2, "capacity": 4, "states": []}))
        with pytest.raises(SnapshotError, match="version"):
            EpisodicMemory.restore(path)

    def test_malformed_file_names_field(self, tmp_path):
        path = tmp_path / "mem.json"
        doc = {
            "version": 1,
            "dim": 2,
            "m": 2,
            "capacity": 4,
            "states": [{"state_id": "x", "text": "t", "embedding": [1.0, 0.0], "touch": 1,
                        "actions": {"9-9": 0.5}}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match=r"states\[0\].actions"):
            EpisodicMemory.restore(path)

    def test_non_canonical_action_key_rejected(self, tmp_path):
        # "01-2" parses to the action (1, 2) but is not its key; kept, it
        # would compete with "1-2" as a separate candidate in best_action
        path = tmp_path / "mem.json"
        doc = {
            "version": 1,
            "dim": 2,
            "m": 2,
            "capacity": 4,
            "states": [{"state_id": "x", "text": "t", "embedding": [1.0, 0.0], "touch": 1,
                        "actions": {"1-2": 0.1, "01-2": 0.5}}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match=r"states\[0\].actions: bad action key '01-2'"):
            EpisodicMemory.restore(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "mem.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError, match="line"):
            EpisodicMemory.restore(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            EpisodicMemory.restore(tmp_path / "nope.json")


# -- the read path against a scalar reference ----------------------------------
#
# _ref_read and _ref_best_action restate the per-action read path: every one
# of the m! actions is estimated by its own pass over the k nearest states.
# They share only _nearest and _touch_record with the memory, so the
# estimates, the argmax, the tie rule and the touches are all checked.


def _ref_estimate(neighbors, key):
    defined = [(actions[key], sim) for _, actions, sim in neighbors if key in actions]
    if not defined:
        return None
    clamped = [max(sim, SIMILARITY_FLOOR) for _, sim in defined]
    total = sum(clamped)
    return sum(reward * weight / total for (reward, _), weight in zip(defined, clamped))


def _ref_read(mem, s_t, a, k):
    key = action_key(a)
    exact = mem._entries.get(s_t.state_id)
    if exact is not None and key in exact[1]:
        mem._touch_record(exact[0])
        return exact[1][key]
    if not mem._entries:
        return None
    neighbors = mem._nearest(s_t, k)
    for rec, _, _ in neighbors:
        mem._touch_record(rec)
    return _ref_estimate(neighbors, key)


def _ref_best_action(mem, s_t, k):
    if not mem._entries:
        return identity_action(mem.m)
    exact = mem._entries.get(s_t.state_id)
    neighbors = mem._nearest(s_t, k)
    if exact is not None:
        mem._touch_record(exact[0])
    for rec, _, _ in neighbors:
        if exact is None or rec.state_id != exact[0].state_id:
            mem._touch_record(rec)
    best, best_value = None, -math.inf
    for a in enumerate_actions(mem.m):
        key = action_key(a)
        if exact is not None and key in exact[1]:
            value = exact[1][key]
        else:
            value = _ref_estimate(neighbors, key)
            if value is None:
                continue
        if best is None or value > best_value:
            best, best_value = a, value
    return best if best is not None else identity_action(mem.m)


# few distinct directions, so exact duplicates, equal cosines at the k
# boundary, antipodes and negative cosines are all common
_VECTORS = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
            (1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (0.0, -1.0, 1.0), (0.5, -0.5, 0.5)]
_REWARDS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                     st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def _memory_and_queries(draw):
    m = draw(st.integers(1, 3))
    keys = [action_key(a) for a in enumerate_actions(m)]
    n = draw(st.integers(0, 7))
    touches = draw(st.permutations(range(1, n + 1)))
    states = []
    for i in range(n):
        # an empty action table only comes from a snapshot; it defines nothing
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        states.append({
            "state_id": state_id_for(f"s{i}"),
            "text": f"s{i}",
            "embedding": list(draw(st.sampled_from(_VECTORS))),
            "actions": {key: draw(_REWARDS) for key in chosen},
            "touch": touches[i],
        })
    doc = {"version": 1, "dim": 3, "m": m, "capacity": max(n, 1), "states": states}
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        stored = draw(st.integers(-1, n - 1))  # -1: a novel state, else an exact hit
        text = f"s{stored}" if stored >= 0 else "query"
        vector = states[stored]["embedding"] if stored >= 0 else draw(st.sampled_from(_VECTORS))
        action = parse_action_key(draw(st.sampled_from(keys)))
        op = draw(st.sampled_from(["read", "best_action"]))
        queries.append((op, record(text, *vector), action, draw(st.integers(1, n + 2))))
    return doc, queries


def _recency(mem):
    return [(rec.state_id, rec.last_touch) for rec, _ in mem.entries()]


class TestReadPathAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_memory_and_queries())
    def test_matches_per_action_reference(self, case):
        doc, queries = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mem.json"
            path.write_text(json.dumps(doc))
            mem, ref = EpisodicMemory.restore(path), EpisodicMemory.restore(path)
        for op, query, action, k in queries:
            if op == "read":
                got, want = mem.read(query, action, k), _ref_read(ref, query, action, k)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got, want = mem.best_action(query, k), _ref_best_action(ref, query, k)
            assert got == want  # bit-identical floats and the same action
            assert _recency(mem) == _recency(ref)

    def test_best_action_touches_exact_state_then_neighbors(self):
        # "twin" duplicates the exact state's vector and has the smaller
        # state id, so it ranks first among the neighbors; the exact state
        # is still touched first
        mem = EpisodicMemory(capacity=8, m=2)
        for s in (record("far", 0.0, 1.0), record("mid", 1.0, 1.0), record("twin", 1.0, 0.0),
                  record("exact", 1.0, 0.0), record("near", 1.0, 0.1)):
            mem.write(s, A12, 0.5)
        assert state_id_for("twin") < state_id_for("exact")
        mem.best_action(record("exact", 1.0, 0.0), k=3)  # neighbors: twin, exact, near
        order = [rec.source_text for rec, _ in mem.entries()]
        assert order == ["far", "mid", "exact", "twin", "near"]

    def test_read_miss_touches_every_neighbor_in_similarity_order(self):
        mem = EpisodicMemory(capacity=8, m=2)
        for s in (record("near", 1.0, 0.1), record("far", 0.0, 1.0), record("mid", 1.0, 1.0),
                  record("other", -1.0, 0.0)):
            mem.write(s, A12, 0.5)
        assert mem.read(record("query", 1.0, 0.0), A21, k=3) is None
        order = [rec.source_text for rec, _ in mem.entries()]
        assert order == ["other", "near", "mid", "far"]

    def test_best_action_beyond_enumeration_ceiling_raises(self):
        mem = EpisodicMemory(capacity=2, m=9)
        with pytest.warns(RuntimeWarning):  # empty: identity, no enumeration needed
            assert mem.best_action(record("q", 1.0, 0.0), k=1) == identity_action(9)
        mem.write(record("s", 1.0, 0.0), identity_action(9), 1.0)
        with pytest.raises(InvalidInputError, match="ceiling of 8"):
            mem.best_action(record("q", 1.0, 0.0), k=1)
