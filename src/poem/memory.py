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
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .actions import Action, action_key, check_enumerable, identity_action, parse_action_key
from .encoder import Embedding, cosine_similarity
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

    Thread model: one lock serializes mutations; reads also take it briefly
    because consulting a state updates its recency. snapshot() holds the
    lock for its duration, so it always sees a consistent table.
    """

    def __init__(self, capacity: int, m: int):
        if capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {capacity}")
        if m < 1:
            raise InvalidInputError(f"m must be >= 1, got {m}")
        self.capacity = int(capacity)
        self.m = int(m)
        self._entries: dict[str, tuple[StateRecord, dict[str, float]]] = {}
        self._touch = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def dim(self) -> int | None:
        with self._lock:
            for record, _ in self._entries.values():
                return record.embedding.dim
        return None

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
                if len(self._entries) >= self.capacity:
                    self._evict_lru()
                record = StateRecord(s.state_id, s.embedding, s.source_text)
                entry = (record, {})
                self._entries[s.state_id] = entry
            record, actions = entry
            key = action_key(a)
            old = actions.get(key)
            actions[key] = r if old is None else max(old, r)
            self._touch_record(record)

    def _evict_lru(self) -> None:
        victim = min(self._entries.values(), key=lambda e: e[0].last_touch)
        del self._entries[victim[0].state_id]

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
            return _estimates(neighbors).get(key)

    def best_action(self, s_t: StateRecord, k: int) -> Action:
        """argmax of the read() estimate over the actions it defines.

        Those are the actions the exact state or the k nearest states tried;
        one pass over the neighbors estimates them all. Exact ties go to the
        lexicographically smallest action. With nothing defined (or an empty
        memory, which additionally warns) the identity action is returned:
        descending similarity is the strongest orderless heuristic.
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
            check_enumerable(self.m)  # keys sort like their rank vectors only up to m = 9
            values = _estimates(neighbors)
            if exact is not None:
                values.update(exact[1])
            if not values:
                return identity_action(self.m)
            return parse_action_key(max(sorted(values), key=values.__getitem__))

    def _nearest(self, s_t: StateRecord, k: int):
        scored = []
        for record, actions in self._entries.values():
            sim = cosine_similarity(s_t.embedding, record.embedding)
            scored.append((record, actions, sim))
        scored.sort(key=lambda item: (-item[2], item[0].state_id))
        return scored[: min(k, len(scored))]

    # -- persistence -----------------------------------------------------

    def snapshot(self, path: str | Path) -> None:
        """Write a versioned JSON snapshot; floats round-trip bit-exactly."""
        path = Path(path)
        with self._lock:
            states = []
            for record, actions in sorted(
                self._entries.values(), key=lambda e: e[0].last_touch
            ):
                states.append(
                    {
                        "state_id": record.state_id,
                        "text": record.source_text,
                        "embedding": [float(x) for x in record.embedding.values],
                        "actions": dict(sorted(actions.items())),
                        "touch": record.last_touch,
                    }
                )
            doc = {
                "version": SNAPSHOT_VERSION,
                "dim": self.dim,
                "m": self.m,
                "capacity": self.capacity,
                "states": states,
            }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

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
        max_touch = 0
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
            if mem._entries and embedding.dim != mem.dim:
                raise SnapshotError(
                    f"{where}.embedding: dim {embedding.dim} != dim {mem.dim} of earlier states"
                )
            actions: dict[str, float] = {}
            for key, reward in raw_actions.items():
                try:
                    parsed = parse_action_key(key)
                except InvalidInputError as exc:
                    raise SnapshotError(f"{where}.actions: bad action key {key!r}: {exc}") from exc
                if parsed.m != m:
                    raise SnapshotError(
                        f"{where}.actions: key {key!r} has m={parsed.m}, snapshot declares m={m}"
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
        return mem


def _estimates(neighbors: list[tuple[StateRecord, dict[str, float], float]]) -> dict[str, float]:
    """Per action key, the neighbors' mean reward for it, weighted by max(cosine, floor)."""
    tried: dict[str, list[tuple[float, float]]] = {}
    for _, actions, sim in neighbors:
        weight = max(sim, SIMILARITY_FLOOR)
        for key, reward in actions.items():
            tried.setdefault(key, []).append((reward, weight))
    estimates = {}
    for key, pairs in tried.items():
        total = sum(weight for _, weight in pairs)
        estimates[key] = sum(reward * weight / total for reward, weight in pairs)
    return estimates
