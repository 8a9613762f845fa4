"""Episodic memory: best-observed reward per (state, action).

The memory is a two-level table: state id -> {action key -> reward}, where
the stored reward only ever increases (max-update on write). Lookups for
novel states fall back to a similarity-weighted average over the k nearest
stored states, so what we learned on training queries transfers to unseen
ones. When the table is full the least recently used state is discarded;
both writes and reads that consult a state count as use.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .actions import DEFAULT_MAX_M, Action, action_key, action_keys, check_enumerable
from .actions import identity_action, parse_action_key
from .encoder import Embedding, scaled_rows, similarities
from .errors import InvalidInputError, SnapshotError, read_json_object

SNAPSHOT_VERSION = 1

# Negative cosines would wreck the weight normalization; clamping keeps the
# neighbor weights a convex combination.
SIMILARITY_FLOOR = 1e-6


def state_id_for(text: str) -> str:
    """Stable id for a state: hash of the exact source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class StateRecord:
    """A stored query: id, embedding, source text, and a recency counter."""

    state_id: str
    embedding: Embedding
    source_text: str
    last_touch: int = 0

    @classmethod
    def from_text(cls, text: str, embedding: Embedding) -> "StateRecord":
        return cls(state_id=state_id_for(text), embedding=embedding, source_text=text)


class EpisodicMemory:
    """Bounded (state, action) -> best-reward table with kNN reading.

    Row i of a matrix beside the table holds state _ids[i]'s vector as scaled_rows
    scales it, so a kNN read is one einsum; a new state takes an evicted state's row.

    Thread model: one lock serializes mutations; reads also take it briefly
    because consulting a state updates its recency. snapshot() holds the
    lock while it copies the table, so it always sees a consistent one.
    """

    def __init__(self, capacity: int, m: int):
        if capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {capacity}")
        if m < 1:
            raise InvalidInputError(f"m must be >= 1, got {m}")
        self.capacity = int(capacity)
        self.m = int(m)
        self._entries: dict[str, tuple[StateRecord, dict[str, float]]] = {}
        self._ids: list[str] = []
        self._rows = np.empty((0, 0))
        self._norms = np.empty(0)
        self._touch = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def dim(self) -> int | None:
        with self._lock:
            return self._rows.shape[1] if self._ids else None

    def filled_pairs(self) -> int:
        """Total number of (state, action) rewards currently stored."""
        with self._lock:
            return sum(len(actions) for _, actions in self._entries.values())

    def entries(self) -> list[tuple[StateRecord, dict[str, float]]]:
        """Copy of the table for inspection, oldest touch first."""
        with self._lock:
            items = sorted(self._entries.values(), key=lambda e: e[0].last_touch)
            return [(replace(rec), dict(actions)) for rec, actions in items]

    # -- writing ---------------------------------------------------------

    def write(self, s: StateRecord, a: Action, r: float) -> None:
        """Store max(old, r) for (s, a); inserting a new state may evict the LRU one."""
        r = float(r)
        if not math.isfinite(r):
            raise InvalidInputError(f"reward must be finite, got {r!r}")
        if a.m != self.m:
            raise InvalidInputError(f"action has m={a.m}, memory expects m={self.m}")
        with self._lock:
            entry = self._entries.get(s.state_id)
            if entry is None:
                if self._entries and s.embedding.dim != self.dim:
                    raise InvalidInputError(
                        f"embedding dim {s.embedding.dim} != memory dim {self.dim}"
                    )
                full = len(self._entries) >= self.capacity
                row = self._evict_lru() if full else self._new_row(s.embedding.dim)
                rows, norms = scaled_rows(s.embedding.values[None, :])
                self._ids[row], self._rows[row], self._norms[row] = s.state_id, rows[0], norms[0]
                record = StateRecord(s.state_id, s.embedding, s.source_text)
                entry = (record, {})
                self._entries[s.state_id] = entry
            record, actions = entry
            key = action_key(a)
            old = actions.get(key)
            actions[key] = r if old is None else max(old, r)
            self._touch_record(record)

    def _new_row(self, dim: int) -> int:
        """Index of the next unused row; a full matrix grows geometrically up to capacity."""
        n = len(self._ids)
        if n == len(self._norms):
            size = min(self.capacity, max(8, 2 * n))
            self._rows = np.concatenate([self._rows.reshape(n, dim), np.empty((size - n, dim))])
            self._norms = np.concatenate([self._norms, np.empty(size - n)])
        self._ids.append("")
        return n

    def _evict_lru(self) -> int:
        """Drop the least recently used state; returns the matrix row it frees."""
        victim = min(self._entries.values(), key=lambda e: e[0].last_touch)
        del self._entries[victim[0].state_id]
        return self._ids.index(victim[0].state_id)

    def _touch_record(self, record: StateRecord) -> None:
        self._touch += 1
        record.last_touch = self._touch

    # -- reading ---------------------------------------------------------

    def read(self, s_t: StateRecord, a: Action, k: int) -> float | None:
        """Estimated reward of action a for state s_t, or None if undefinable.

        An exact (state, action) hit returns the stored value. Otherwise the
        k most similar stored states are selected, those holding a value for
        a are kept, and their rewards are averaged with weights proportional
        to max(cosine, floor) so the weights always sum to one. None means no
        selected neighbor has tried a (or the memory is empty).
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        if a.m != self.m:
            raise InvalidInputError(f"action has m={a.m}, memory expects m={self.m}")
        key = action_key(a)
        with self._lock:
            exact = self._entries.get(s_t.state_id)
            if exact is not None and key in exact[1]:
                self._touch_record(exact[0])
                return exact[1][key]
            neighbors = self._nearest(s_t, k)
            for record, _, _ in neighbors:
                self._touch_record(record)
        tried = [(record, {key: actions[key]}, sim) for record, actions, sim in neighbors
                 if key in actions]
        if not tried:
            return None
        return float(_estimates(tried, np.zeros(len(tried), np.intp), 1)[0])

    def best_action(self, s_t: StateRecord, k: int) -> Action:
        """argmax of the read() estimate over the actions it defines.

        Those are the actions the exact state or the k nearest states tried;
        two bincounts over their lexicographic ordinals estimate them all, and
        the exact state's rewards replace its ordinals' estimates. Exact ties
        go to the lexicographically smallest action. With nothing defined (or
        an empty memory, which additionally warns) the identity action is
        returned: descending similarity is the strongest orderless heuristic.
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        with self._lock:
            if not self._entries:
                warnings.warn(
                    "episodic memory is empty; falling back to the identity ordering",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return identity_action(self.m)
            exact = self._entries.get(s_t.state_id)
            neighbors = self._nearest(s_t, k)
            if exact is not None:
                self._touch_record(exact[0])
            for record, _, _ in neighbors:
                if record.state_id != s_t.state_id:
                    self._touch_record(record)
            check_enumerable(self.m)
            ordinal = action_keys(self.m)
            keys = [key for _, actions, _ in neighbors for key in actions]
            n = len(keys)  # keys[n:] are the exact state's
            if exact is not None:
                keys += exact[1]
            if not keys:
                return identity_action(self.m)
            ords = np.fromiter(map(ordinal.__getitem__, keys), np.intp, len(keys))
            values = _estimates(neighbors, ords[:n], len(ordinal))
            if exact is not None:
                values[ords[n:]] = list(exact[1].values())
            defined = np.zeros(len(ordinal), bool)
            defined[ords] = True
            candidates = np.flatnonzero(defined)  # ascending ordinals: ties go to the first
            best = candidates[np.argmax(values[candidates])]
            return parse_action_key(keys[int(np.argmax(ords == best))])

    def _nearest(self, s_t: StateRecord, k: int):
        """The k stored states most similar to s_t as (record, actions, cosine), ties by id."""
        n = len(self._ids)
        if n == 0:
            return []
        sims = similarities(self._rows[:n], self._norms[:n], s_t.embedding)
        rows = range(n)
        if k < n:  # the top k, and every row tied with the k-th
            rows = np.flatnonzero(sims >= sims[np.argpartition(-sims, k - 1)[k - 1]])
        scored = sorted(((-sims[i], self._ids[i]) for i in rows))[:k]
        return [(*self._entries[state_id], -float(sim)) for sim, state_id in scored]

    # -- persistence -----------------------------------------------------

    def snapshot(self, path: str | Path) -> None:
        """Write a versioned JSON snapshot; floats round-trip bit-exactly. It streams into a
        temporary file that then replaces the target, so a failed write keeps the old one."""
        path = Path(path)
        with self._lock:
            states = [
                {
                    "state_id": record.state_id,
                    "text": record.source_text,
                    "embedding": record.embedding.values.tolist(),
                    "actions": dict(sorted(actions.items())),
                    "touch": record.last_touch,
                }
                for record, actions in sorted(self._entries.values(), key=lambda e: e[0].last_touch)
            ]
            doc = {
                "version": SNAPSHOT_VERSION,
                "dim": self.dim,
                "m": self.m,
                "capacity": self.capacity,
                "states": states,
            }
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def restore(cls, path: str | Path) -> "EpisodicMemory":
        """Load a snapshot, reproducing rewards and recency order exactly."""
        path = Path(path)
        doc = read_json_object(path, "snapshot", SnapshotError)
        version = doc.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path}: unsupported snapshot version {version!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )

        m = doc.get("m")
        capacity = doc.get("capacity")
        if not isinstance(m, int) or m < 1:
            raise SnapshotError(f"{path}: field 'm' must be a positive integer")
        if not isinstance(capacity, int) or capacity < 1:
            raise SnapshotError(f"{path}: field 'capacity' must be a positive integer")
        states = doc.get("states")
        if not isinstance(states, list):
            raise SnapshotError(f"{path}: field 'states' must be a list")
        if len(states) > capacity:
            raise SnapshotError(
                f"{path}: {len(states)} states exceed the declared capacity {capacity}"
            )
        mem = cls(capacity=capacity, m=m)
        canonical = action_keys(m) if m <= DEFAULT_MAX_M else frozenset()
        dim, max_touch = None, 0
        for i, st in enumerate(states):
            where = f"{path}: states[{i}]"
            if not isinstance(st, dict):
                raise SnapshotError(f"{where}: must be an object")
            state_id = st.get("state_id")
            text = st.get("text")
            vector = st.get("embedding")
            touch = st.get("touch")
            raw_actions = st.get("actions")
            if not isinstance(state_id, str) or not state_id:
                raise SnapshotError(f"{where}.state_id: must be a non-empty string")
            if state_id in mem._entries:
                raise SnapshotError(f"{where}.state_id: duplicate id {state_id!r}")
            if not isinstance(text, str):
                raise SnapshotError(f"{where}.text: must be a string")
            if not isinstance(vector, list):
                raise SnapshotError(f"{where}.embedding: must be a list of floats")
            if not isinstance(touch, int) or touch < 0:
                raise SnapshotError(f"{where}.touch: must be a non-negative integer")
            if not isinstance(raw_actions, dict):
                raise SnapshotError(f"{where}.actions: must be an object")
            try:
                embedding = Embedding(np.asarray(vector, dtype=np.float64))
            except (InvalidInputError, ValueError) as exc:
                raise SnapshotError(f"{where}.embedding: {exc}") from exc
            declared_dim = doc.get("dim")
            if declared_dim is not None and embedding.dim != declared_dim:
                raise SnapshotError(
                    f"{where}.embedding: dim {embedding.dim} != declared dim {declared_dim}"
                )
            if dim not in (None, embedding.dim):
                raise SnapshotError(
                    f"{where}.embedding: dim {embedding.dim} != dim {dim} of earlier states"
                )
            dim = embedding.dim
            actions: dict[str, float] = {}
            for key, reward in raw_actions.items():
                try:
                    key_m = m if key in canonical else parse_action_key(key).m
                except InvalidInputError as exc:
                    raise SnapshotError(f"{where}.actions: bad action key {key!r}: {exc}") from exc
                if key_m != m:
                    raise SnapshotError(
                        f"{where}.actions: key {key!r} has m={key_m}, snapshot declares m={m}"
                    )
                if not isinstance(reward, (int, float)) or not math.isfinite(reward):
                    raise SnapshotError(
                        f"{where}.actions[{key!r}]: reward must be a finite number"
                    )
                actions[key] = float(reward)
            record = StateRecord(state_id, embedding, text, last_touch=touch)
            mem._entries[state_id] = (record, actions)
            max_touch = max(max_touch, touch)
        mem._touch = max_touch
        if mem._entries:
            mem._ids = list(mem._entries)
            vectors = np.array([record.embedding.values for record, _ in mem._entries.values()])
            mem._rows, mem._norms = scaled_rows(vectors)
        return mem


def _estimates(
    neighbors: list[tuple[StateRecord, dict[str, float], float]], ords: np.ndarray, size: int
) -> np.ndarray:
    """Per action ordinal, the neighbors' mean reward for it, weighted by max(cosine, floor).

    ords holds the ordinals of the neighbors' action keys in iteration order. Both bincounts
    add in that order starting from 0, so each estimate is bit-equal to a Python loop over
    its (reward, weight) pairs. Ordinals no neighbor tried read 0.
    """
    counts = [len(actions) for _, actions, _ in neighbors]
    weights = np.repeat([max(sim, SIMILARITY_FLOOR) for _, _, sim in neighbors], counts)
    rewards = np.fromiter((r for _, actions, _ in neighbors for r in actions.values()),
                          np.float64, len(ords))
    total = np.bincount(ords, weights, minlength=size)
    values = np.bincount(ords, rewards * weights / total[ords], minlength=size)
    return values.astype(np.float64, copy=False)  # a bincount over no pairs counts in ints
