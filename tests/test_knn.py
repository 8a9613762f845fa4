"""The array read paths against scalar references.

`EpisodicMemory._nearest` and `select_examples` score every row with one
einsum. Here they are checked against a scalar `cosine_similarity` per row
followed by a Python sort: the same ids in the same order and similarities
within 1e-12. The order may only differ where two reference cosines lie
within 1e-12 of each other and the vectors are not exact scaled copies, whose
cosines must tie bit for bit. Also here: restored rows equal written rows bit
for bit, a huge declared capacity allocates nothing, and a failed snapshot
leaves the previous file intact. Last, `best_action`'s bincount over action
ordinals and `select_examples`' label masks are checked against the per-key
dict and the list-based balancing they replace.
"""

import functools
import json
import math
import operator
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poem import Action, Embedding, EpisodicMemory, Example, InContextSet, StateRecord, select_examples
from poem.actions import (action_key, action_keys, enumerate_actions, identity_action,
                          parse_action_key)
from poem.encoder import cosine_similarity, similarities
from poem.errors import SelectionError, SnapshotError
from poem.memory import SIMILARITY_FLOOR, _estimates, state_id_for

A12 = Action((1, 2))
TOL = 1e-12


def _scaled(emb):
    return (emb.values / np.max(np.abs(emb.values))).tobytes()


def _ambiguous(items, query):
    """True when two reference cosines lie within TOL and their vectors scale apart."""
    sims = [(cosine_similarity(query, emb), _scaled(emb)) for emb in items]
    return any(
        abs(a - b) <= TOL and va != vb
        for i, (a, va) in enumerate(sims) for b, vb in sims[i + 1:]
    )


def _vectors(draw, dim):
    """Inside a composite strategy: a function that draws an embedding from a few base
    directions, their power-of-two multiples and antipodes, and odd ones out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.standard_normal((draw(st.integers(1, 4)), dim))
    if draw(st.booleans()):
        bases[0, 1:] = 0.0  # an axis: many zero products
    scale = st.sampled_from([1.0, 2.0, 0.25, -1.0, -8.0])

    def one():
        if draw(st.integers(0, 5)) == 0:
            return Embedding(rng.standard_normal(dim))
        return Embedding(bases[draw(st.integers(0, len(bases) - 1))] * draw(scale))

    return one


_DIMS = st.sampled_from([2, 3, 7, 64])


# -- _nearest ----------------------------------------------------------------


def _ref_nearest(mem, query, k):
    scored = [(rec.state_id, cosine_similarity(query, rec.embedding))
              for rec, _ in mem._entries.values()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def _check_nearest(mem, query, k):
    got = [(rec.state_id, sim) for rec, _, sim in mem._nearest(StateRecord("q", query, ""), k)]
    want = _ref_nearest(mem, query, k)
    assert len(got) == len(want)
    ref = dict(_ref_nearest(mem, query, len(mem)))
    for (gid, gsim), (_, wsim) in zip(got, want):
        assert type(gsim) is float
        assert abs(gsim - ref[gid]) <= TOL and abs(gsim - wsim) <= TOL
    if not _ambiguous([rec.embedding for rec, _ in mem._entries.values()], query):
        assert [sid for sid, _ in got] == [sid for sid, _ in want]
    # equal scaled vectors score bit-equal, so the tie goes by state id
    by_vector = {}
    for sid, sim in got:
        by_vector.setdefault(_scaled(mem._entries[sid][0].embedding), []).append((sid, sim))
    for group in by_vector.values():
        assert len({sim for _, sim in group}) == 1
        assert [sid for sid, _ in group] == sorted(sid for sid, _ in group)
    return got


@st.composite
def _written_memory(draw):
    """A memory filled by writes and reads, with evictions once capacity is reached."""
    one = _vectors(draw, draw(_DIMS))
    mem = EpisodicMemory(capacity=draw(st.integers(1, 9)), m=2)
    for i in range(draw(st.integers(1, 24))):
        text = f"s{draw(st.integers(0, 14))}"
        if draw(st.integers(0, 3)) == 0:
            mem.best_action(StateRecord.from_text(text, one()), k=draw(st.integers(1, 4)))
        else:
            known = mem._entries.get(state_id_for(text))
            emb = known[0].embedding if known else one()
            mem.write(StateRecord.from_text(text, emb), A12, draw(st.floats(-1, 1)))
    queries = [(one(), draw(st.integers(1, len(mem) + 2))) for _ in range(draw(st.integers(1, 4)))]
    return mem, queries


@pytest.mark.filterwarnings("ignore:episodic memory is empty")
class TestNearestAgainstScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(_written_memory())
    def test_same_ranking_and_similarities(self, case):
        mem, queries = case
        n = len(mem)
        # rows reused after evictions still line up with the table
        assert sorted(mem._ids) == sorted(mem._entries) and len(mem._ids) == n
        for i, sid in enumerate(mem._ids):
            emb = mem._entries[sid][0].embedding
            assert np.array_equal(mem._rows[i], emb.values / np.max(np.abs(emb.values)))
        assert len(mem._rows) <= mem.capacity
        for query, k in queries:
            _check_nearest(mem, query, k)

    @settings(max_examples=150, deadline=None)
    @given(_written_memory())
    def test_restored_memory_reads_bit_for_bit(self, case):
        mem, queries = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mem.json"
            mem.snapshot(path)
            restored = EpisodicMemory.restore(path)
        for query, k in queries:
            s = StateRecord("q", query, "")
            got = [(rec.state_id, sim) for rec, _, sim in restored._nearest(s, k)]
            assert got == [(rec.state_id, sim) for rec, _, sim in mem._nearest(s, k)]

    def test_duplicates_at_every_row_position_tie_by_id(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(64)
        mem = EpisodicMemory(capacity=40, m=2)
        for i in range(40):
            vector = base * 2.0 if i % 7 == 0 else rng.standard_normal(64)
            mem.write(StateRecord.from_text(f"s{i}", Embedding(vector)), A12, 0.0)
        query = Embedding(base)
        got = _check_nearest(mem, query, 6)
        twins = sorted(state_id_for(f"s{i}") for i in range(0, 40, 7))
        assert [sid for sid, _ in got] == twins

    def test_tie_at_the_kth_value_goes_by_id(self):
        mem = EpisodicMemory(capacity=8, m=2)
        for i, vec in enumerate([(1.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 0.5), (-1.0, 0.0)]):
            mem.write(StateRecord.from_text(f"s{i}", Embedding(np.array(vec))), A12, 0.0)
        query = Embedding(np.array([2.0, 1.0]))
        got = _check_nearest(mem, query, 2)
        ties = sorted(state_id_for(f"s{i}") for i in (1, 2, 3))
        assert [sid for sid, _ in got] == [state_id_for("s0"), ties[0]]

    def test_antipode_scores_negated_and_clamped_in_estimates(self):
        mem = EpisodicMemory(capacity=4, m=2)
        vec = np.array([0.3, -1.7, 2.2])
        mem.write(StateRecord.from_text("a", Embedding(vec)), A12, 1.0)
        mem.write(StateRecord.from_text("b", Embedding(-vec)), A12, 0.0)
        got = _check_nearest(mem, Embedding(vec), 2)
        assert got[0][1] == -got[1][1] and got[1][1] < SIMILARITY_FLOOR
        # the antipode's weight is the floor, so the estimate sits next to a's reward
        estimate = mem.read(StateRecord.from_text("c", Embedding(vec)), A12, 2)
        assert estimate == pytest.approx(got[0][1] / (got[0][1] + SIMILARITY_FLOOR))

    def test_dimension_mismatch_message(self):
        mem = EpisodicMemory(capacity=4, m=2)
        mem.write(StateRecord.from_text("a", Embedding(np.ones(3))), A12, 1.0)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 != 3$"):
            mem.best_action(StateRecord.from_text("b", Embedding(np.ones(2))), 1)


class TestMatrixSize:
    def test_huge_declared_capacity_allocates_nothing_large(self, tmp_path):
        path = tmp_path / "mem.json"
        doc = {"version": 1, "dim": 3, "m": 2, "capacity": 10**12, "states": [
            {"state_id": "a", "text": "a", "embedding": [1.0, 2.0, 3.0],
             "actions": {"1-2": 0.5}, "touch": 1}]}
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            mem = EpisodicMemory.restore(path)
            mem.write(StateRecord.from_text("b", Embedding(np.ones(3))), A12, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(mem._rows) == 8 and mem.dim == 3

    def test_growth_stops_at_capacity(self):
        mem = EpisodicMemory(capacity=11, m=2)
        sizes = []
        for i in range(30):
            mem.write(StateRecord.from_text(f"s{i}", Embedding(np.ones(2) + i)), A12, 0.0)
            sizes.append(len(mem._rows))
        assert sorted(set(sizes)) == [8, 11]


# -- select_examples -----------------------------------------------------------


def _ref_select(s, ic, m):
    sims = {ex.index: cosine_similarity(s, ex.embedding) for ex in ic.examples}
    ranked = sorted(ic.examples, key=lambda ex: (-sims[ex.index], ex.index))
    if ic.label_space is None:
        chosen = ranked[:m]
    else:
        quota = max(m // len(ic.label_space), 1)
        chosen = []
        for lab in ic.label_space[: m // quota]:
            chosen.extend([ex for ex in ranked if ex.label == lab][:quota])
        used = {ex.index for ex in chosen}
        chosen += [ex for ex in ranked if ex.index not in used][: m - len(chosen)]
    return sorted(chosen, key=lambda ex: (-sims[ex.index], ex.index))


@st.composite
def _pool_and_queries(draw):
    one = _vectors(draw, draw(_DIMS))
    n = draw(st.integers(1, 30))
    labels = draw(st.sampled_from([None, ("a", "b"), ("a", "b", "c")]))
    order = draw(st.permutations(range(n)))  # indices unrelated to row positions
    examples = [
        Example(index=order[i] * 3, fields={"text": f"t{i}"},
                label=None if labels is None else labels[i % len(labels)], embedding=one())
        for i in range(n)
    ]
    ic = InContextSet(examples, ["text"], labels)
    most = n if labels is None else len(labels) * (n // len(labels))
    queries = [(one(), draw(st.integers(1, max(most, 1)))) for _ in range(draw(st.integers(1, 4)))]
    return ic, queries


class TestSelectAgainstScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(_pool_and_queries())
    def test_same_examples_in_the_same_order(self, case):
        ic, queries = case
        for query, m in queries:
            got = [ex.index for ex in select_examples(query, ic, m)]
            if not _ambiguous([ex.embedding for ex in ic.examples], query):
                assert got == [ex.index for ex in _ref_select(query, ic, m)]
            sims = [cosine_similarity(query, ex.embedding) for ex in ic.examples]
            _, rows, norms = ic._pool
            assert np.max(np.abs(similarities(rows, norms, query) - sims)) <= TOL

    def test_duplicate_embeddings_tie_by_index(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(64)
        examples = [Example(index=i, fields={"text": f"t{i}"},
                            embedding=Embedding(base * 4.0 if i % 5 == 2 else rng.standard_normal(64)))
                    for i in (9, 3, 12, 7, 0, 5, 2, 14, 1, 8, 4, 6)]
        ic = InContextSet(list(reversed(examples)), ["text"])
        got = [ex.index for ex in select_examples(Embedding(base), ic, 2)]
        assert got == sorted(ex.index for ex in examples if ex.index % 5 == 2)[:2]

    def test_pool_is_built_at_first_select(self):
        ic = InContextSet([Example(0, {"text": "t"}, embedding=Embedding(np.ones(2)))], ["text"])
        assert "_pool" not in vars(ic)
        select_examples(Embedding(np.ones(2)), ic, 1)
        assert "_pool" in vars(ic)


# -- snapshot writes ------------------------------------------------------------


def _memory():
    mem = EpisodicMemory(capacity=4, m=2)
    mem.write(StateRecord.from_text("a", Embedding(np.array([1.0, 0.5]))), A12, 0.25)
    return mem


class TestAtomicSnapshot:
    def test_failed_write_keeps_the_old_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "mem.json"
        _memory().snapshot(path)
        before = path.read_bytes()
        bigger = _memory()
        bigger.write(StateRecord.from_text("b", Embedding(np.array([0.0, 1.0]))), A12, 0.5)

        def crash(doc, fh, **kwargs):
            fh.write('{"version": 1, "sta')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", crash)
        with pytest.raises(OSError, match="disk full"):
            bigger.snapshot(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["mem.json"]

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "mem.json"
        _memory().snapshot(path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError("read-only")

        monkeypatch.setattr("poem.memory.os.replace", refuse)
        with pytest.raises(PermissionError):
            _memory().snapshot(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["mem.json"]

    def test_bytes_match_one_shot_encoding(self, tmp_path):
        mem = _memory()
        path = tmp_path / "mem.json"
        mem.snapshot(path)
        doc = json.loads(path.read_text())
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestRestoreKeyCheck:
    """Keys outside the canonical set still fail with today's messages, for any m."""

    @pytest.mark.parametrize("m, key, message", [
        (3, "2-1", "key '2-1' has m=2, snapshot declares m=3"),
        (3, "1-1-3", "bad action key '1-1-3': ranks must be a permutation of 1..m, got (1, 1, 3)"),
        (3, "a-b", "bad action key 'a-b': malformed action key 'a-b'"),
        (9, "1-2", "key '1-2' has m=2, snapshot declares m=9"),
        (9, "1-2-3-4-5-6-7-9-9", "bad action key '1-2-3-4-5-6-7-9-9': ranks must be a "
                                 "permutation of 1..m, got (1, 2, 3, 4, 5, 6, 7, 9, 9)"),
    ])
    def test_non_canonical_keys(self, tmp_path, m, key, message):
        path = tmp_path / "mem.json"
        path.write_text(json.dumps({"version": 1, "dim": 2, "m": m, "capacity": 1, "states": [
            {"state_id": "a", "text": "a", "embedding": [1.0, 0.0], "actions": {key: 0.5},
             "touch": 1}]}))
        with pytest.raises(SnapshotError) as err:
            EpisodicMemory.restore(path)
        assert str(err.value) == f"{path}: states[0].actions: {message}"

    def test_canonical_keys_restore_for_every_enumerable_m(self, tmp_path):
        for m in range(1, 9):
            key = "-".join(map(str, range(m, 0, -1)))
            path = tmp_path / f"m{m}.json"
            path.write_text(json.dumps({"version": 1, "dim": 2, "m": m, "capacity": 1, "states": [
                {"state_id": "a", "text": "a", "embedding": [1.0, 0.0], "actions": {key: 0.5},
                 "touch": 1}]}))
            assert EpisodicMemory.restore(path).entries()[0][1] == {key: 0.5}


# -- best_action's bincount and select_examples' label masks ----------------------
#
# _dict_best_action and _list_select restate the read path as a per-key dict of
# (reward, weight) lists and a list-based label balancing. The memory runs beside
# a twin that the reference reads, with the same writes, so every estimate, every
# argmax, the tie rule and every touch are compared bit for bit.


def _add(values):
    """Left-to-right float addition from 0: what sum() does up to Python 3.11 (3.12
    compensates float sums), and the order np.bincount adds in."""
    return functools.reduce(operator.add, values, 0)


def _dict_estimates(neighbors):
    tried = {}
    for _, actions, sim in neighbors:
        weight = max(sim, SIMILARITY_FLOOR)
        for key, reward in actions.items():
            tried.setdefault(key, []).append((reward, weight))
    estimates = {}
    for key, pairs in tried.items():
        total = _add(weight for _, weight in pairs)
        estimates[key] = _add(reward * weight / total for reward, weight in pairs)
    return estimates


def _bincount_estimates(mem, s_t, k):
    """memory._estimates and the dict reference over s_t's neighbours, by key; touches nothing."""
    neighbors = mem._nearest(s_t, k)
    ordinal = action_keys(mem.m)
    keys = [key for _, actions, _ in neighbors for key in actions]
    values = _estimates(neighbors, np.array([ordinal[key] for key in keys], np.intp), len(ordinal))
    return {key: values[ordinal[key]] for key in keys}, _dict_estimates(neighbors)


def _dict_read(mem, s_t, a, k):
    key = action_key(a)
    exact = mem._entries.get(s_t.state_id)
    if exact is not None and key in exact[1]:
        mem._touch_record(exact[0])
        return exact[1][key]
    neighbors = mem._nearest(s_t, k)
    for record, _, _ in neighbors:
        mem._touch_record(record)
    return _dict_estimates(neighbors).get(key)


def _dict_best_action(mem, s_t, k):
    """The chosen action and the estimates it was chosen from."""
    if not mem._entries:
        return identity_action(mem.m), {}
    exact = mem._entries.get(s_t.state_id)
    neighbors = mem._nearest(s_t, k)
    if exact is not None:
        mem._touch_record(exact[0])
    for record, _, _ in neighbors:
        if record.state_id != s_t.state_id:
            mem._touch_record(record)
    values = _dict_estimates(neighbors)
    if exact is not None:
        values.update(exact[1])
    if not values:
        return identity_action(mem.m), values
    return parse_action_key(max(sorted(values), key=values.__getitem__)), values


_REWARDS = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                     st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def _memory_ops(draw):
    """m, capacity and a list of writes, reads and best_action calls on a few texts. Few
    vectors (with scaled copies and antipodes), few actions and few rewards, so ties,
    exact hits, max-updates after reads and evictions that reuse rows are common."""
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    one = _vectors(draw, draw(st.sampled_from([2, 3, 7])))
    actions = [Action(tuple(p)) for p in draw(st.lists(
        st.permutations(range(1, m + 1)), min_size=1, max_size=6))]
    texts = [f"s{i}" for i in range(draw(st.integers(1, 9)))]
    negative = draw(st.booleans())  # all rewards below 0: untried actions must not win
    records, ops = {}, []
    for _ in range(draw(st.integers(1, 30))):
        text = draw(st.sampled_from(texts))
        if text not in records:
            records[text] = StateRecord.from_text(text, one())
        op = draw(st.sampled_from(["write", "write", "read", "best"]))
        action = draw(st.sampled_from(actions))
        reward = draw(_REWARDS)
        ops.append((op, records[text], action,
                    -abs(reward) - 0.125 if negative else reward, draw(st.integers(1, 5))))
    return m, draw(st.integers(1, 6)), ops


def _recency(mem):
    return [(rec.state_id, rec.last_touch) for rec, _ in mem.entries()]


@pytest.mark.filterwarnings("ignore:episodic memory is empty")
class TestBestActionAgainstDictReference:
    @settings(max_examples=400, deadline=None)
    @given(_memory_ops())
    def test_same_choices_estimates_and_touches(self, case):
        m, capacity, ops = case
        mem, twin = EpisodicMemory(capacity, m), EpisodicMemory(capacity, m)
        for op, s, action, reward, k in ops:
            if op == "write":
                mem.write(s, action, reward)
                twin.write(s, action, reward)
            elif op == "read":
                assert mem.read(s, action, k) == _dict_read(twin, s, action, k)
            else:
                got_values, want_values = _bincount_estimates(mem, s, k)
                assert got_values == want_values  # every float bit-identical
                got = mem.best_action(s, k)
                want, values = _dict_best_action(twin, s, k)
                assert got == want
                # read gives the value best_action maximised, bit for bit
                value = mem.read(s, got, k)
                assert value == _dict_read(twin, s, got, k)
                assert value == values.get(action_key(got))
            assert _recency(mem) == _recency(twin)
        assert mem._ids == twin._ids

    def test_tied_estimates_go_to_the_lowest_key(self):
        mem = EpisodicMemory(capacity=4, m=3)
        for ranks in [(3, 2, 1), (2, 1, 3), (1, 3, 2)]:
            mem.write(StateRecord.from_text("a", Embedding(np.array([1.0, 0.0]))),
                      Action(ranks), 0.5)
        query = StateRecord.from_text("q", Embedding(np.array([1.0, 0.2])))
        assert mem.best_action(query, 1) == Action((1, 3, 2))

    def test_untried_actions_never_win_over_negative_estimates(self):
        mem = EpisodicMemory(capacity=4, m=3)
        mem.write(StateRecord.from_text("a", Embedding(np.array([1.0, 0.0]))),
                  Action((3, 2, 1)), -0.75)
        mem.write(StateRecord.from_text("a", Embedding(np.array([1.0, 0.0]))),
                  Action((2, 3, 1)), -0.5)
        query = StateRecord.from_text("q", Embedding(np.array([1.0, 0.2])))
        assert mem.best_action(query, 1) == Action((2, 3, 1))

    def test_exact_rewards_replace_the_neighbours_estimates(self):
        mem = EpisodicMemory(capacity=4, m=2)
        exact = StateRecord.from_text("e", Embedding(np.array([1.0, 0.0])))
        near = StateRecord.from_text("n", Embedding(np.array([1.0, 0.1])))
        mem.write(exact, A12, 0.25)
        mem.write(near, A12, 1.0)
        mem.write(near, Action((2, 1)), 0.5)
        # the neighbours' mean for 1-2 beats 2-1, but the exact state's own 0.25 does not
        assert mem.best_action(exact, 2) == Action((2, 1))
        assert mem.read(exact, A12, 2) == 0.25

    def test_only_an_exact_state_with_no_neighbour_rewards(self):
        # the nearest state tried nothing, so the estimates come from the exact state alone
        doc = {"version": 1, "dim": 2, "m": 2, "capacity": 2, "states": [
            {"state_id": state_id_for("e"), "text": "e", "embedding": [1.0, 0.0],
             "actions": {"1-2": 0.0, "2-1": 0.5}, "touch": 1},
            {"state_id": "0", "text": "z", "embedding": [1.0, 0.0], "actions": {}, "touch": 2}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mem.json"
            path.write_text(json.dumps(doc))
            mem = EpisodicMemory.restore(path)
        exact = StateRecord.from_text("e", Embedding(np.array([1.0, 0.0])))
        assert mem.best_action(exact, 1) == Action((2, 1))

    def test_many_weights_add_in_neighbour_order(self):
        rng = np.random.default_rng(7)
        mem, twin = EpisodicMemory(64, 3), EpisodicMemory(64, 3)
        actions = enumerate_actions(3)
        for i in range(64):
            s = StateRecord.from_text(f"s{i}", Embedding(rng.standard_normal(5)))
            for j in rng.choice(6, size=3, replace=False):
                reward = float(rng.normal())
                mem.write(s, actions[j], reward)
                twin.write(s, actions[j], reward)
        for i in range(40):
            q = StateRecord.from_text(f"q{i}", Embedding(rng.standard_normal(5)))
            got_values, want_values = _bincount_estimates(mem, q, 50)
            assert got_values == want_values
            got, (want, values) = mem.best_action(q, 50), _dict_best_action(twin, q, 50)
            assert got == want
            for a in actions:
                assert mem.read(q, a, 50) == values.get(action_key(a))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_action_keys_order_like_enumerate_actions(self, m):
        table = action_keys(m)
        assert list(table) == [action_key(a) for a in enumerate_actions(m)]
        assert list(table.values()) == list(range(math.factorial(m)))
        assert action_keys(m) is table


def _list_select(s, ic, m):
    """select_examples with list-based label balancing, on the same similarity ranking."""
    indices, rows, norms = ic._pool
    ranked = [ic.examples[i] for i in np.lexsort((indices, -similarities(rows, norms, s)))]
    if ic.label_space is None:
        return ranked[:m]
    quota = max(m // len(ic.label_space), 1)
    chosen = []
    for lab in ic.label_space[: m // quota]:
        pool = [ex for ex in ranked if ex.label == lab][:quota]
        if len(pool) < quota:
            raise SelectionError(f"label {lab!r} has only {len(pool)} examples, need {quota}")
        chosen.extend(pool)
    used = {ex.index for ex in chosen}
    chosen += [ex for ex in ranked if ex.index not in used][: m - len(chosen)]
    position = {ex.index: i for i, ex in enumerate(ranked)}
    return sorted(chosen, key=lambda ex: position[ex.index])


def _outcome(select, *args):
    try:
        return [ex.index for ex in select(*args)]
    except SelectionError as exc:
        return str(exc)


@st.composite
def _labelled_pool(draw):
    one = _vectors(draw, draw(_DIMS))
    labels = tuple(f"g{i}" for i in range(draw(st.integers(1, 6))))
    n = draw(st.integers(1, 30))
    order = draw(st.permutations(range(n)))
    examples = [Example(index=order[i], fields={"text": f"t{i}"},
                        label=draw(st.sampled_from(labels)), embedding=one()) for i in range(n)]
    queries = [(one(), draw(st.integers(1, min(n, 9)))) for _ in range(draw(st.integers(1, 4)))]
    return InContextSet(examples, ["text"], labels), queries


def _labelled(labels):
    rng = np.random.default_rng(3)
    return InContextSet([Example(i, {"text": f"t{i}"}, lab, Embedding(rng.standard_normal(4)))
                         for i, lab in enumerate(labels)], ["text"], sorted(set(labels)))


class TestSelectAgainstListReference:
    @settings(max_examples=300, deadline=None)
    @given(_labelled_pool())
    def test_same_examples_or_the_same_error(self, case):
        ic, queries = case
        for query, m in queries:
            assert _outcome(select_examples, query, ic, m) == _outcome(_list_select, query, ic, m)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("groups", [2, 3, 4, 5])
    def test_fewer_equal_and_more_slots_than_labels(self, m, groups):
        ic = _labelled([f"g{i % groups}" for i in range(24)])
        rng = np.random.default_rng(m * 10 + groups)
        for _ in range(10):
            query = Embedding(rng.standard_normal(4))
            got = _outcome(select_examples, query, ic, m)
            assert got == _outcome(_list_select, query, ic, m) and isinstance(got, list)

    def test_a_label_short_of_its_quota(self):
        ic = _labelled(["a"] * 5 + ["b"])
        with pytest.raises(SelectionError) as err:
            select_examples(Embedding(np.ones(4)), ic, 4)
        assert str(err.value) == "label 'b' has only 1 examples, need 2"

    def test_labels_that_differ_only_in_a_trailing_nul(self):
        # numpy string arrays drop trailing NULs when they compare; Python strings do not
        ic = _labelled(["a", "a\x00"] * 6)
        rng = np.random.default_rng(5)
        for m in range(1, 9):
            query = Embedding(rng.standard_normal(4))
            got = _outcome(select_examples, query, ic, m)
            assert got == _outcome(_list_select, query, ic, m) and isinstance(got, list)
            labels = [ic.examples[i].label for i in got]
            assert labels.count("a") >= max(m // 2, 1) and labels.count("a\x00") >= m // 2
        short = _labelled(["a"] * 5 + ["a\x00"])
        with pytest.raises(SelectionError) as err:
            select_examples(Embedding(np.ones(4)), short, 4)
        assert str(err.value) == "label 'a\\x00' has only 1 examples, need 2"
