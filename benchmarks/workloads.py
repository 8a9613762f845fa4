"""The benchmark's four workloads.

Each workload makes its inputs from a seed (``prepare``, untimed), then does
what a user does before the first request (``setup``, timed; the harness
repeats it), then runs identical *cycles* of a user session against the
public ``poem`` API: train a memory, evaluate it against the heuristic
baselines, serve order queries from it. A cycle records its timings, the
operations it attempted, its checks and a fingerprint of its outputs.

Every workload is a closed loop with one caller. ``in_flight`` (poem's own
concurrent scoring) is capped at the number of usable cores.

Engine calls go through the module (``engine.train``, not a bound name) so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from poem import config, engine, selection, simenv
from poem.actions import action_key, enumerate_actions
from poem.memory import EpisodicMemory, StateRecord
from poem.selection import retrieval_text

IN_FLIGHT = min(2, len(os.sched_getaffinity(0)))

# Order queries per cycle whose prompt is checked against select_examples.
ORDER_CHECKS = 8

_PROBE_VECTOR = np.linspace(0.5, 1.5, 64)

# host_probe's time at full speed on the reference host (the 5th percentile
# of 35k probes on a 2-vCPU x86_64 VM, Python 3.11, numpy 2.4)
PROBE_FULL_SPEED_S = 0.00035


def host_probe() -> float:
    """Seconds a fixed reference computation takes right now (0.35 ms at full speed).

    It is the kind of work poem's hot paths do (numpy on short vectors,
    Python floats). Timed next to each piece of measured work, it tells how
    fast the host ran at that moment; see ``run.end_to_end_metrics``.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.dot(_PROBE_VECTOR, _PROBE_VECTOR)) / float(np.linalg.norm(_PROBE_VECTOR))
    return time.perf_counter() - start


def no_probe() -> float:
    """Stands in for host_probe where a timing is to stay unscaled.

    That is a traced run, whose cycle timings are not reported, and work
    that mostly waits on a server: a neighbour's load does not stretch a
    wait the way it stretches computation.
    """
    return PROBE_FULL_SPEED_S


@dataclass
class Cycle:
    """What one cycle did; the harness turns a list of these into metrics."""

    # Timings are (seconds, host_probe seconds next to them) pairs, kept per
    # *slot*: the same piece of work in every cycle (a training iteration, an
    # evaluate call, an order query), so the harness can compare a slot's
    # repetitions across the run.
    probe: Callable[[], float] = host_probe
    train_slots: list[tuple[float, float]] = field(default_factory=list)  # per iteration
    train_episodes: int = 0
    eval_slots: list[tuple[float, float]] = field(default_factory=list)  # per evaluate call
    eval_episodes: int = 0  # (query, baseline) pairs scored
    eval_queries: int = 0  # test queries evaluated
    order_slots: list[list[tuple[float, float]]] = field(default_factory=list)  # per query
    poem_metric: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    deferred: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)
    snapshot_sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    eval_sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    wall_s: float = 0.0
    layers: dict[str, float] | None = None

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def defer(self, what: str, fn: Callable[[], bool]) -> None:
        """A check the harness runs after the cycle, outside timing and tracing."""
        self.deferred.append((what, fn))

    def run_deferred(self) -> None:
        for what, fn in self.deferred:
            self.check(fn(), what)
        self.deferred.clear()

    @property
    def operations(self) -> int:
        return self.train_episodes + self.eval_episodes + sum(map(len, self.order_slots))

    def fingerprint(self) -> dict[str, str]:
        return {"snapshot": self.snapshot_sha.hexdigest(), "eval": self.eval_sha.hexdigest()}


class Data(NamedTuple):
    train: list
    ic: selection.InContextSet
    test: list
    encoder: object
    oracle: object
    scorer: object
    prompt_spec: object


def synthetic_data(task: simenv.SyntheticTask) -> Data:
    return Data(task.train, task.ic, task.test, task.encoder,
                simenv.SyntheticOracle(task.landscape), simenv.SyntheticEvalScorer(task.landscape),
                config.SYNTHETIC_PROMPT)


# -- session phases ------------------------------------------------------------


def train_phase(cyc: Cycle, cfg: engine.TrainConfig, data: Data, memory: EpisodicMemory,
                probe=None) -> None:
    probe = probe or cyc.probe
    before = [probe()]
    started = [time.perf_counter()]

    def iteration_done(t, mem):
        seconds = time.perf_counter() - started[0]
        after = probe()
        cyc.train_slots.append((seconds, (before[0] + after) / 2))
        before[0] = after
        started[0] = time.perf_counter()

    _, report = engine.train(cfg, data.train, data.ic, data.encoder, data.oracle, memory,
                             data.prompt_spec, on_iteration=iteration_done)
    cyc.train_episodes += report.writes
    expected = cfg.iterations * min(cfg.minibatch_size, len(data.train))
    cyc.check(report.writes == expected, f"train wrote {report.writes} episodes, expected {expected}")


def eval_phase(cyc: Cycle, cfg: engine.TrainConfig, data: Data, memory: EpisodicMemory,
               seed: int, baselines=engine.BASELINES, repeats: int = 1,
               probe=None) -> engine.EvalReport:
    """Evaluate `repeats` times (each gives the same table) so the phase spans enough time."""
    probe = probe or cyc.probe
    for _ in range(repeats):
        before = probe()
        start = time.perf_counter()
        table = engine.evaluate(memory, data.test, data.ic, data.encoder, cfg, data.prompt_spec,
                                data.scorer, baselines=baselines, seed=seed)
        seconds = time.perf_counter() - start
        cyc.eval_slots.append((seconds, (before + probe()) / 2))
        cyc.eval_episodes += sum(row.n for row in table.rows)
        cyc.eval_queries += len(data.test)
        cyc.eval_sha.update(table.to_json().encode("utf-8"))
    cyc.poem_metric.append(table.row("poem").metric)
    return table


def order_phase(cyc: Cycle, cfg: engine.TrainConfig, data: Data, memory: EpisodicMemory,
                queries, reference: EpisodicMemory | None = None, repeats: int = 1) -> None:
    """Serve each query as ``poem order`` does, `repeats` times over; check the first few."""
    queries = list(queries)
    slots = [[] for _ in queries]
    cyc.order_slots += slots
    before = cyc.probe()
    for i, query in enumerate(queries * repeats):
        start = time.perf_counter()
        res = engine.infer(memory, query, data.ic, data.encoder, cfg, data.prompt_spec)
        seconds = time.perf_counter() - start
        after = cyc.probe()
        slots[i % len(queries)].append((seconds, (before + after) / 2))
        before = after
        cyc.eval_sha.update(action_key(res.action).encode("ascii"))
        if i < ORDER_CHECKS:
            cyc.defer(f"order query {i}: prompt is a permutation of select_examples",
                      lambda q=query, r=res: _is_selection(data, cfg, q, r))
            if reference is not None:
                cyc.defer(f"order query {i}: restored memory agrees with the original",
                          lambda q=query, r=res: _reference_action(data, cfg, reference, q)
                          == r.action)


def _record(data: Data, query) -> StateRecord:
    text = retrieval_text(query.fields, data.ic.retrieval_fields)
    return StateRecord.from_text(text, data.encoder.encode([text])[0])


def _is_selection(data: Data, cfg, query, res) -> bool:
    chosen = selection.select_examples(_record(data, query).embedding, data.ic, cfg.m)
    return sorted(ex.index for ex in res.ordered) == sorted(ex.index for ex in chosen)


def _reference_action(data: Data, cfg, reference: EpisodicMemory, query):
    return reference.best_action(_record(data, query), cfg.k)


def snapshot_phase(cyc: Cycle, memory: EpisodicMemory, path: Path) -> bytes:
    memory.snapshot(path)
    raw = path.read_bytes()
    cyc.snapshot_sha.update(raw)
    cyc.counts["memory.snapshot.bytes"] = cyc.counts.get("memory.snapshot.bytes", 0) + len(raw)
    return raw


def _same_after_restore(path: Path, raw: bytes) -> bool:
    again = path.with_suffix(".again.json")
    EpisodicMemory.restore(path).snapshot(again)
    return again.read_bytes() == raw


# -- workloads -----------------------------------------------------------------


class ScenarioSim:
    """The three bundled scenarios, each trained then evaluated as ``poem simulate`` does.

    The scenarios fix their own training seeds: README's optimal match of
    1.0 holds for those seeds, so ``--seed`` only seeds evaluate's random
    baseline here.
    """

    name = "scenario_sim"
    setup_repeats = 9
    exact = ("descending_small", "ascending_small")  # optimal match must be 1.0

    def __init__(self, root: Path, seed: int, workdir: Path, *,
                 scenarios=("descending_small", "ascending_small", "noisy_medium")):
        self.scenario_dir = root / "scenarios"
        self.seed = seed
        self.workdir = workdir
        self.scenarios = scenarios

    def prepare(self) -> None:
        pass

    def setup(self):
        sessions = []
        for name in self.scenarios:
            doc = simenv.load_scenario(self.scenario_dir / f"{name}.json")
            raw = dict(doc.get("train", {}))
            raw.setdefault("m", doc["m"])
            raw["in_flight"] = IN_FLIGHT
            sessions.append((name, simenv.task_from_scenario(doc), config.parse_train(raw, name)))
        return sessions

    def cycle(self, sessions, cyc: Cycle) -> None:
        for name, task, cfg in sessions:
            data = synthetic_data(task)
            memory = EpisodicMemory(capacity=len(task.train), m=cfg.m)
            train_phase(cyc, cfg, data, memory)
            match = eval_phase(cyc, cfg, data, memory, self.seed, repeats=4).row("poem").metric
            if name in self.exact:
                cyc.check(match == 1.0, f"{name}: poem optimal_match {match} != 1.0")
            order_phase(cyc, cfg, data, memory, task.test, repeats=8)
            snapshot_phase(cyc, memory, self.workdir / f"{name}.json")

    def close(self) -> None:
        pass


class TrainLarge:
    """Many states, a large pool and a small memory: selection, kNN reads and LRU writes."""

    name = "train_large"
    setup_repeats = 5

    def __init__(self, root: Path, seed: int, workdir: Path, *, train=1024, pool=200, test=128,
                 eval_queries=64, capacity=256, iterations=20, minibatch=32):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {"train": train, "ic": pool, "test": test}
        self.n_eval = eval_queries
        self.capacity = capacity
        self.iterations = iterations
        self.minibatch = minibatch

    def prepare(self) -> None:
        pass

    def setup(self):
        landscape = simenv.BiasLandscape.descending(4, noise_sigma=0.05, seed=self.seed)
        task = simenv.generate_task(self.seed, self.sizes, 4, dim=64, m=4, landscape=landscape)
        cfg = engine.TrainConfig(iterations=self.iterations, minibatch_size=self.minibatch, m=4,
                                 k=10, seed=self.seed, in_flight=1)
        return task, cfg

    def cycle(self, ctx, cyc: Cycle) -> None:
        task, cfg = ctx
        data = synthetic_data(task)
        memory = EpisodicMemory(capacity=self.capacity, m=cfg.m)
        written: set[str] = set()

        def write(s, a, r):  # class lookup at call time, so a traced write is used
            written.add(s.state_id)
            return EpisodicMemory.write(memory, s, a, r)

        memory.write = write
        train_phase(cyc, cfg, data, memory)
        eval_phase(cyc, cfg, data._replace(test=task.test[: self.n_eval]), memory, self.seed,
                   repeats=2)
        order_phase(cyc, cfg, data, memory, task.test, repeats=2)
        path = self.workdir / "train_large.json"
        raw = snapshot_phase(cyc, memory, path)
        cyc.check(len(memory) == self.capacity,
                  f"memory holds {len(memory)} states, capacity is {self.capacity}")
        # the memory never exceeds capacity, so more distinct states than that means evictions
        cyc.check(len(written) > self.capacity,
                  f"only {len(written)} distinct states written; nothing was evicted")
        cyc.defer("snapshot -> restore -> snapshot gives identical bytes",
                  lambda: _same_after_restore(path, raw))

    def close(self) -> None:
        pass


class OrderServe:
    """Serving from a large restored memory: kNN scan plus the m!-action estimate loop.

    Set-up builds a 1024-state, m=5 memory from seeded rewards (24 of the
    120 actions per state), snapshots it and restores it. Each cycle
    restores that snapshot again, serves a fixed set of fresh test queries,
    evaluates the served memory, then fine-tunes it with a short greedy
    training run, so the read path dominates all three phases.
    """

    name = "order_serve"
    setup_repeats = 3
    m = 5
    filled = 24

    def __init__(self, root: Path, seed: int, workdir: Path, *, states=1024, pool=200,
                 queries=104, eval_queries=16, iterations=8, minibatch=8):
        self.seed = seed
        self.workdir = workdir
        self.states, self.pool = states, pool
        self.n_queries, self.n_eval = queries, eval_queries
        self.iterations, self.minibatch = iterations, minibatch

    def prepare(self) -> None:
        landscape = simenv.BiasLandscape.descending(self.m, noise_sigma=0.05, seed=self.seed)
        sizes = {"train": self.states, "ic": self.pool, "test": self.n_queries}
        self.task = simenv.generate_task(self.seed, sizes, 4, dim=64, m=self.m, landscape=landscape)
        # greedy fine-tuning: every episode reads the memory, whatever the seed's draws
        self.cfg = engine.TrainConfig(iterations=self.iterations, minibatch_size=self.minibatch,
                                      epsilon_initial=0.0, epsilon_final=0.0, m=self.m, k=10,
                                      seed=self.seed, in_flight=1)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        actions = enumerate_actions(self.m)
        original = EpisodicMemory(capacity=self.states, m=self.m)
        for ex in self.task.train:
            record = StateRecord.from_text(retrieval_text(ex.fields, ["text"]), ex.embedding)
            picks = rng.choice(len(actions), size=self.filled, replace=False)
            for j, reward in zip(picks, rng.normal(size=self.filled)):
                original.write(record, actions[int(j)], float(reward))
        path = self.workdir / "order_serve.json"
        original.snapshot(path)
        EpisodicMemory.restore(path)  # what `poem order` pays; each cycle restores its own copy
        return original, path

    def cycle(self, ctx, cyc: Cycle) -> None:
        original, path = ctx
        memory = EpisodicMemory.restore(path)
        data = synthetic_data(self.task)
        order_phase(cyc, self.cfg, data, memory, self.task.test, reference=original, repeats=2)
        eval_phase(cyc, self.cfg, data._replace(test=self.task.test[: self.n_eval]), memory,
                   self.seed, repeats=3)
        train_phase(cyc, self.cfg, data, memory)
        snapshot_phase(cyc, memory, self.workdir / "order_serve.tuned.json")

    def close(self) -> None:
        pass


POSITIVE = "charming tender delightful moving brilliant warm witty gorgeous".split()
NEGATIVE = "tedious clumsy bland dull messy shallow grating lifeless".split()
NEUTRAL = ("the film story cast plot score ending scene director pacing script camera "
           "dialogue music lead").split()


def review_rows(rng: np.random.Generator, n: int, seen: set[str]) -> list[dict]:
    """n distinct labelled review sentences, alternating labels."""
    rows = []
    while len(rows) < n:
        label = ("positive", "negative")[len(rows) % 2]
        words = list(rng.choice(NEUTRAL, size=6)) + list(
            rng.choice(POSITIVE if label == "positive" else NEGATIVE, size=3))
        rng.shuffle(words)
        sentence = " ".join(words)
        if sentence not in seen:
            seen.add(sentence)
            rows.append({"index": len(rows), "fields": {"sentence": sentence}, "label": label})
    return rows


class RemoteLm:
    """A dataset-mode task scored over HTTP: one LM request per episode.

    The remote encoder (behind build_runtime's CachingEncoder) and RemoteLM
    point at the local servers in ``servers.py``, started once as a child
    process; the LM server waits 10 ms per request. The pool and the memory
    are small, so the wire, not memory and selection, carries the time.
    """

    name = "remote_lm"
    setup_repeats = 5

    def __init__(self, root: Path, seed: int, workdir: Path, *, train=64, ic=16, test=128,
                 eval_queries=32, iterations=20, minibatch=16):
        self.src = root / "src"
        self.seed = seed
        self.workdir = workdir
        self.sizes = {"train": train, "ic": ic, "test": test}
        self.n_eval = eval_queries
        self.iterations, self.minibatch = iterations, minibatch
        self.proc: subprocess.Popen | None = None

    def prepare(self) -> None:
        script = Path(__file__).with_name("servers.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script), "--src", str(self.src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the fake servers did not start")
        self.urls = json.loads(line)
        rng = np.random.default_rng(self.seed)
        seen: set[str] = set()
        for split, n in self.sizes.items():
            with open(self.workdir / f"{split}.jsonl", "w", encoding="utf-8") as fh:
                for row in review_rows(rng, n, seen):
                    fh.write(json.dumps(row) + "\n")
        doc = {
            "name": "bench-remote-lm",
            "datasets": {split: f"{split}.jsonl" for split in self.sizes},
            "fields": ["sentence"],
            "retrieval_field": "sentence",
            "label_space": ["negative", "positive"],
            "templates": {
                "example": "Review: {sentence}\nSentiment: {label}",
                "task_description": "Classify the sentiment of each movie review.",
                "answer_choices": {"positive": "great", "negative": "terrible"},
            },
            "reward": {"kind": "classification"},
            "capacity": self.sizes["train"],
            "encoder": {"backend": "remote", "url": self.urls["embed"]},
            "lm": {"backend": "remote", "url": self.urls["lm"]},
            "train": {"iterations": self.iterations, "minibatch_size": self.minibatch, "m": 4,
                      "k": 10, "seed": self.seed, "in_flight": IN_FLIGHT},
        }
        self.config_path = self.workdir / "task.json"
        self.config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")

    def setup(self):
        return config.build_runtime(config.load_task_config(self.config_path))

    def stats(self) -> dict[str, dict]:
        out = {}
        for name, url in self.urls.items():
            with urllib.request.urlopen(url + "stats", timeout=10) as resp:
                out[name] = json.load(resp)
        return out

    def cycle(self, runtime, cyc: Cycle) -> None:
        cfg = runtime.config.train
        data = Data(runtime.d_train, runtime.ic, runtime.d_test, runtime.encoder, runtime.oracle,
                    runtime.scorer, runtime.prompt_spec)
        before = self.stats()
        memory = EpisodicMemory(capacity=runtime.capacity, m=cfg.m)
        # training and evaluation mostly wait on the LM server: their times stay unscaled
        train_phase(cyc, cfg, data, memory, probe=no_probe)
        eval_phase(cyc, cfg, data._replace(test=runtime.d_test[: self.n_eval]), memory, self.seed,
                   runtime.config.eval_baselines, repeats=2, probe=no_probe)
        order_phase(cyc, cfg, data, memory, runtime.d_test, repeats=2)
        snapshot_phase(cyc, memory, self.workdir / "remote_lm.json")
        after = self.stats()
        delta = {f"{name}.{key}": after[name][key] - before[name][key]
                 for name in after for key in after[name]}
        scored = cyc.train_episodes + cyc.eval_episodes
        cyc.check(delta["lm.ok"] == scored,
                  f"LM server answered {delta['lm.ok']} requests for {scored} scored episodes")
        cyc.counts["wire.connections"] = delta["lm.connections"] + delta["embed.connections"]
        cyc.counts["wire.server_requests"] = delta["lm.requests"] + delta["embed.requests"]

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


WORKLOADS = {cls.name: cls for cls in (ScenarioSim, TrainLarge, OrderServe, RemoteLm)}
