"""The array read paths against scalar references.

`EpisodicMemory._nearest` and `select_examples` score every row with one
einsum. Here they are checked against a scalar `cosine_similarity` per row
followed by a Python sort: the same ids in the same order and similarities
within 1e-12. The order may only differ where two reference cosines lie
within 1e-12 of each other and the vectors are not exact scaled copies, whose
cosines must tie bit for bit. Also here: restored rows equal written rows bit
for bit, a huge declared capacity allocates nothing, and a failed snapshot
leaves the previous file intact.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poem import Action, Embedding, EpisodicMemory, Example, InContextSet, StateRecord, select_examples
from poem.encoder import cosine_similarity, similarities
from poem.errors import SnapshotError
from poem.memory import SIMILARITY_FLOOR, state_id_for

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
