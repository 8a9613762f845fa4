"""Acceptance suite: every shipping criterion, one test each.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or on
failure), and the bundled descending-optimal scenario provides the fixed
seeds the quantitative checks rely on.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from poem import (
    Action,
    Embedding,
    EpisodicMemory,
    RemoteEncoder,
    RemoteLM,
    RewardConfig,
    ScoreRequest,
    StateRecord,
    SyntheticOracle,
    TrainConfig,
    aggregate_reports,
    brute_force_best,
    classification_reward,
    enumerate_actions,
    epsilon_at,
    evaluate,
    infer,
    reorder,
    score_prompt,
    select_examples,
    task_from_scenario,
    train,
)
from poem.config import SYNTHETIC_PROMPT
from poem.errors import BackendError, ProtocolError

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "descending_small.json"


def _check(number, description, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_formula_fidelity():
    def body():
        cfg = TrainConfig()  # published defaults: N=60, eps 1.0 -> 0.0001
        assert epsilon_at(0, cfg) == 1.0
        assert epsilon_at(cfg.iterations, cfg) == 0.0001

        mem = EpisodicMemory(capacity=4, m=2)
        n1 = StateRecord.from_text("n1", Embedding(np.array([0.8, 0.6])))
        n2 = StateRecord.from_text("n2", Embedding(np.array([0.2, math.sqrt(1 - 0.04)])))
        a = Action((1, 2))
        mem.write(n1, a, 1.0)
        mem.write(n2, a, 0.0)
        query = StateRecord.from_text("q", Embedding(np.array([1.0, 0.0])))
        assert abs(mem.read(query, a, k=2) - 0.8) <= 1e-9

        reward = classification_reward(
            RewardConfig(), "truth", {"truth": -0.1, "other": -2.3}
        )
        assert abs(reward - 3.94) <= 1e-9

    _check(1, "formula fidelity (epsilon endpoints, memory read, classification reward)", body)


def test_criterion_2_memory_laws():
    def body():
        rng = np.random.default_rng(2024)
        actions = [Action((1, 2)), Action((2, 1))]
        vectors = {i: (math.cos(0.7 * i + 0.1), math.sin(0.7 * i + 0.1)) for i in range(10)}
        for _ in range(1000):  # independent random write sequences
            capacity = int(rng.integers(1, 6))
            mem = EpisodicMemory(capacity=capacity, m=2)
            reference: dict[str, dict[int, float]] = {}
            recency: list[str] = []
            best: dict[tuple[str, int], float] = {}
            for _ in range(int(rng.integers(3, 16))):
                i = int(rng.integers(10))
                ai = int(rng.integers(2))
                r = float(rng.uniform(-5, 5))
                s = StateRecord.from_text(f"s{i}", Embedding(np.array(vectors[i])))
                mem.write(s, actions[ai], r)
                # reference LRU simulation; a fresh residency starts fresh maxima
                if s.state_id not in reference:
                    if len(reference) >= capacity:
                        victim = recency.pop(0)
                        del reference[victim]
                    reference[s.state_id] = {}
                    best = {k: v for k, v in best.items() if k[0] != s.state_id}
                old = reference[s.state_id].get(ai)
                reference[s.state_id][ai] = r if old is None else max(old, r)
                if s.state_id in recency:
                    recency.remove(s.state_id)
                recency.append(s.state_id)
                key = (s.state_id, ai)
                best[key] = max(best.get(key, -math.inf), r)
                assert mem.read(s, actions[ai], k=1) == best[key]  # non-decreasing
                assert len(mem) <= capacity
            assert [rec.state_id for rec, _ in mem.entries()] == recency

        # snapshot/restore bit-exactness on a populated memory
        mem = EpisodicMemory(capacity=8, m=2)
        for i in range(8):
            s = StateRecord.from_text(f"s{i}", Embedding(np.array(vectors[i])))
            for ai, a in enumerate(actions):
                mem.write(s, a, float(rng.uniform(-1, 1)) * (0.1 + 0.2))
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a.json"
            second = Path(tmp) / "b.json"
            mem.snapshot(first)
            EpisodicMemory.restore(first).snapshot(second)
            assert first.read_bytes() == second.read_bytes()

    _check(2, "memory laws (max-update, capacity, LRU order, snapshot bit-exactness)", body)


def test_criterion_3_action_algebra():
    def body():
        for m in (1, 2, 3, 4):
            actions = enumerate_actions(m)
            assert len(actions) == math.factorial(m)
            assert len({a.ranks for a in actions}) == len(actions)
        items = ["e1", "e2", "e3", "e4"]
        actions = enumerate_actions(4)
        outputs = {tuple(reorder(items, a)) for a in actions}
        assert len(outputs) == 24  # injective
        assert reorder(items, Action((1, 2, 3, 4))) == items  # identity-preserving

    _check(3, "action algebra (m! enumeration, injective + identity-preserving reorder)", body)


def _exhaustive_run(task):
    cfg = TrainConfig(m=4, k=1, seed=7, exploration_mode="exhaustive")
    memory = EpisodicMemory(capacity=len(task.train), m=4)
    memory, report = train(
        cfg, task.train, task.ic, task.encoder,
        SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
    )
    return memory, cfg, report


def test_criterion_4_oracle_equivalence():
    def body():
        task = task_from_scenario(SCENARIO)  # L=16 states, m=4, noiseless descending
        memory, cfg, report = _exhaustive_run(task)
        assert report.final_fill_ratio == 1.0
        matches = 0
        for x in task.train:
            result = infer(memory, x, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT)
            t_s = select_examples(x.embedding, task.ic, cfg.m)
            matches += result.action == brute_force_best(task.landscape, x.embedding, t_s)
        assert matches == 16, f"only {matches}/16 training states match the brute force"

    _check(4, "oracle equivalence (exhaustive training, k=1: 16/16 brute-force matches)", body)


def _greedy_pipeline(seed):
    task = task_from_scenario(SCENARIO)
    cfg = TrainConfig(
        iterations=120, minibatch_size=16, epsilon_initial=1.0, epsilon_final=0.0001,
        m=4, k=10, seed=seed,
    )
    memory = EpisodicMemory(capacity=len(task.train), m=4)
    memory, report = train(
        cfg, task.train, task.ic, task.encoder,
        SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
    )
    table = evaluate(
        memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
        SyntheticOracle(task.landscape), seed=seed,
    )
    return report, table


def test_criterion_5_generalization():
    def body():
        _, table = _greedy_pipeline(seed=7)  # fixed shipped seed
        poem = table.row("poem")
        descending = table.row("descending")
        random_row = table.row("random")
        assert poem.n == 32
        assert poem.mean_reward >= descending.mean_reward
        assert poem.metric >= 0.80, f"poem optimal-match rate {poem.metric}"
        assert random_row.metric <= 0.20, f"random optimal-match rate {random_row.metric}"

    _check(5, "generalization (poem >= descending reward; >=80% optimal matches; random <=20%)", body)


def test_criterion_6_ordering_table_shape():
    def body():
        reports = [_greedy_pipeline(seed)[1] for seed in (7, 8, 9, 10)]
        agg = aggregate_reports(reports)
        assert {r.baseline for r in agg.rows} == {
            "poem", "descending", "ascending", "random", "zero_shot",
        }
        ranking = agg.ranking()
        assert "poem" in ranking[:2], f"poem ranked {ranking.index('poem') + 1} in {ranking}"
        text = agg.to_text()
        assert all(name in text for name in ("poem", "zero_shot", "random"))

    _check(6, "ordering table (poem vs zero-shot/random/ascending/descending, poem in top 2)", body)


def test_criterion_7_determinism():
    def body():
        snapshots = []
        for _ in range(2):
            memory, cfg, report = _exhaustive_run(task_from_scenario(SCENARIO))
            _, table = _greedy_pipeline(seed=7)
            agg = aggregate_reports([_greedy_pipeline(seed)[1] for seed in (7, 8)])
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                snap = Path(tmp) / "memory.json"
                memory.snapshot(snap)
                snapshot_bytes = snap.read_bytes()
            snapshots.append(
                (
                    report.to_json().encode(),
                    snapshot_bytes,
                    table.to_json().encode(),
                    agg.to_json().encode(),
                )
            )
        assert snapshots[0] == snapshots[1]

    _check(7, "determinism (criteria 4-6 pipelines twice: byte-identical JSON reports)", body)


def test_criterion_8_wire_contracts(fake_server):
    def body():
        # embedding service: transient failures then success, within 4 attempts
        def embed_handler(payload):
            rows = [[1.0, 0.0, 0.5, -0.5] for _ in payload["texts"]]
            return 200, {"embeddings": rows, "dim": 4}

        flaky_embed = fake_server(embed_handler, fail_first=3)
        enc = RemoteEncoder(flaky_embed.url, backoff=0.001, max_attempts=4)
        assert enc.encode(["hello"])[0].dim == 4
        assert flaky_embed.calls == 4

        # dim mismatch is a backend error
        broken_embed = fake_server(lambda p: (200, {"embeddings": [[1.0]], "dim": 4}))
        with pytest.raises(BackendError):
            RemoteEncoder(broken_embed.url).encode(["hello"])

        # LM service: retry then success, protocol error on missing field
        def lm_handler(payload):
            return 200, {"per_label_logprob": {lab: -1.0 for lab in payload["labels"]}}

        flaky_lm = fake_server(lm_handler, fail_first=3)
        lm = RemoteLM(flaky_lm.url, backoff=0.001, max_attempts=4)
        request = ScoreRequest(prompt="p", mode="classify", labels=("a", "b"), truth="a")
        assert score_prompt(lm, request).per_label_logprob == {"a": -1.0, "b": -1.0}
        assert flaky_lm.calls == 4

        missing_field = fake_server(lambda p: (200, {"generated_text": "x"}))
        with pytest.raises(ProtocolError):  # not a crash: a typed protocol error
            score_prompt(RemoteLM(missing_field.url), request)

        exhausted = fake_server(lm_handler, fail_first=99)
        with pytest.raises(BackendError) as err:
            RemoteLM(exhausted.url, backoff=0.001, max_attempts=4).score(request)
        assert err.value.attempts == 4 and err.value.status == 500

    _check(8, "wire contracts (retries, protocol errors, success paths on fake servers)", body)
