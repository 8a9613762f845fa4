"""Scaling sweep for the traced run: microseconds per call against input size.

``best_action`` is timed at memory size N x m, and ``select_examples`` at
pool size x embedding dim, the axes an episodic-memory kNN read scales with.
Memories are filled by writing seeded rewards, not by training, so the sweep
stays short: each m has one memory that grows through the N values.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from poem.actions import enumerate_actions
from poem.encoder import Embedding
from poem.memory import EpisodicMemory, StateRecord
from poem.selection import Example, InContextSet, select_examples

MEMORY_SIZES = (256, 1024, 4096)
MS = (4, 5, 6)
POOLS = (200, 1000)
DIMS = (64, 384)
FILLED = 24  # actions with a stored reward per state (all of them at m=4)
DIM = 64
K = 10


def _median_us(fn, queries) -> float:
    times = []
    for q in queries:
        start = time.perf_counter()
        fn(q)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run(seed: int, *, sizes=MEMORY_SIZES, ms=MS, pools=POOLS, dims=DIMS, reps=5) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for m in ms:
        actions = enumerate_actions(m)
        filled = min(FILLED, len(actions))
        memory = EpisodicMemory(capacity=max(sizes), m=m)
        for n in sizes:
            for i in range(len(memory), n):
                record = StateRecord.from_text(f"sweep state {i}", Embedding(rng.standard_normal(DIM)))
                picks = rng.choice(len(actions), size=filled, replace=False)
                for j, reward in zip(picks, rng.normal(size=filled)):
                    memory.write(record, actions[int(j)], float(reward))
            queries = [StateRecord.from_text(f"sweep query {i}", Embedding(rng.standard_normal(DIM)))
                       for i in range(reps)]
            out[f"memory.best_action.us.n{n}-m{m}"] = _median_us(
                lambda q: memory.best_action(q, K), queries)
    labels = tuple(f"g{i}" for i in range(4))
    for pool in pools:
        for dim in dims:
            examples = [Example(i, {"text": f"pool {i}"}, labels[i % 4],
                                Embedding(rng.standard_normal(dim))) for i in range(pool)]
            ic = InContextSet(examples, ["text"], labels)
            queries = [Embedding(rng.standard_normal(dim)) for _ in range(reps)]
            out[f"selection.select.us.pool{pool}-d{dim}"] = _median_us(
                lambda q: select_examples(q, ic, 4), queries)
    return out
