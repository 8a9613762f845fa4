import dataclasses
import hashlib
import math
import threading
import time

import numpy as np
import pytest

from poem import (
    BiasLandscape,
    Embedding,
    EpisodicMemory,
    LMOracle,
    RewardConfig,
    ScoreResponse,
    SyntheticOracle,
    TrainConfig,
    aggregate_reports,
    brute_force_best,
    enumerate_actions,
    epsilon_at,
    epsilon_greedy,
    evaluate,
    generate_task,
    identity_action,
    infer,
    select_examples,
    train,
)
from poem.config import SYNTHETIC_PROMPT
from poem.errors import BackendError, InvalidInputError

SIZES = {"train": 8, "ic": 12, "test": 8}


def make_task(seed=3, **kwargs):
    return generate_task(seed, SIZES, 2, **kwargs)


def fresh_memory(task, m=4):
    return EpisodicMemory(capacity=len(task.train), m=m)


class TestEpsilonSchedule:
    def test_endpoints_exact_with_defaults(self):
        cfg = TrainConfig()
        assert epsilon_at(0, cfg) == 1.0
        assert epsilon_at(cfg.iterations, cfg) == 0.0001

    def test_midpoint(self):
        cfg = TrainConfig()
        assert epsilon_at(30, cfg) == pytest.approx(0.50005, abs=1e-12)

    def test_linear_in_t(self):
        cfg = TrainConfig(iterations=10, epsilon_initial=0.8, epsilon_final=0.2)
        values = [epsilon_at(t, cfg) for t in range(11)]
        diffs = {round(a - b, 12) for a, b in zip(values, values[1:])}
        assert len(diffs) == 1  # constant decrement

    def test_out_of_range(self):
        cfg = TrainConfig(iterations=10)
        with pytest.raises(InvalidInputError):
            epsilon_at(-1, cfg)
        with pytest.raises(InvalidInputError):
            epsilon_at(11, cfg)

    def test_config_bounds_validated(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epsilon_initial=0.2, epsilon_final=0.5)
        with pytest.raises(InvalidInputError):
            TrainConfig(epsilon_initial=1.2)


class TestEpsilonGreedyPolicy:
    def test_pure_exploration_is_uniform_within_3_sigma(self):
        actions = enumerate_actions(4)
        rng = np.random.default_rng(123)
        draws = 10_000
        counts = {a: 0 for a in actions}
        for _ in range(draws):
            a, explored = epsilon_greedy(rng, 1.0, actions, lambda: None)
            assert explored
            counts[a] += 1
        p = 1.0 / len(actions)
        mean = draws * p
        sigma = math.sqrt(draws * p * (1 - p))
        for a, c in counts.items():
            assert abs(c - mean) <= 3 * sigma, f"{a} count {c} outside 3 sigma"

    def test_pure_exploitation_calls_exploit(self):
        actions = enumerate_actions(2)
        rng = np.random.default_rng(0)
        a, explored = epsilon_greedy(rng, 0.0, actions, lambda: actions[1])
        assert a == actions[1] and not explored


class TestTrain:
    def test_deterministic_given_seed(self, tmp_path):
        outputs = []
        for _ in range(2):
            task = make_task()
            cfg = TrainConfig(iterations=20, minibatch_size=4, m=4, k=5, seed=42)
            memory = fresh_memory(task)
            memory, report = train(
                cfg, task.train, task.ic, task.encoder,
                SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
            )
            snap = tmp_path / f"{len(outputs)}.json"
            memory.snapshot(snap)
            outputs.append((report.to_json(), snap.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_exhaustive_mode_fills_everything(self):
        task = generate_task(5, {"train": 4, "ic": 8, "test": 4}, 2, m=3,
                             landscape=BiasLandscape.descending(3))
        cfg = TrainConfig(m=3, k=2, seed=1, exploration_mode="exhaustive")
        memory = EpisodicMemory(capacity=4, m=3)
        memory, report = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        assert report.final_fill_ratio == 1.0
        assert report.writes == 4 * 6
        assert memory.filled_pairs() == 24
        assert report.note and "exhaustive" in report.note

    def test_fill_ratio_monotone_and_bounded(self):
        task = make_task()
        cfg = TrainConfig(iterations=30, minibatch_size=8, m=4, k=5, seed=2)
        memory = fresh_memory(task)
        memory, report = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        fills = report.fill_ratio_per_iteration
        assert all(b >= a for a, b in zip(fills, fills[1:]))
        assert all(0.0 <= f <= 1.0 for f in fills)
        assert len(memory) <= min(len(task.train), memory.capacity)

    def test_memory_bounded_by_small_capacity(self):
        task = make_task()
        cfg = TrainConfig(iterations=15, minibatch_size=8, m=4, k=5, seed=2)
        memory = EpisodicMemory(capacity=3, m=4)
        memory, report = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        assert len(memory) <= 3
        assert all(0.0 <= f <= 1.0 for f in report.fill_ratio_per_iteration)

    def test_single_step_episode_one_write_per_visit(self):
        task = make_task()
        cfg = TrainConfig(iterations=10, minibatch_size=4, m=4, k=5, seed=2)
        memory = fresh_memory(task)
        memory, report = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        assert report.writes == 10 * 4

    def test_empty_training_set_rejected(self):
        task = make_task()
        cfg = TrainConfig(m=4)
        with pytest.raises(InvalidInputError):
            train(cfg, [], task.ic, task.encoder, SyntheticOracle(task.landscape),
                  fresh_memory(task), SYNTHETIC_PROMPT)

    def test_memory_m_mismatch_rejected(self):
        task = make_task()
        cfg = TrainConfig(m=4)
        with pytest.raises(InvalidInputError):
            train(cfg, task.train, task.ic, task.encoder,
                  SyntheticOracle(task.landscape), EpisodicMemory(capacity=8, m=3),
                  SYNTHETIC_PROMPT)

    def test_on_iteration_callback(self):
        task = make_task()
        cfg = TrainConfig(iterations=5, minibatch_size=4, m=4, k=5, seed=2)
        seen = []
        train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), fresh_memory(task), SYNTHETIC_PROMPT,
            on_iteration=lambda t, mem: seen.append((t, len(mem))),
        )
        assert [t for t, _ in seen] == list(range(5))

    def test_backend_failure_carries_context_and_preserves_memory(self):
        task = make_task()
        inner = SyntheticOracle(task.landscape)

        class FlakyOracle:
            id = "flaky"
            calls = 0

            def reward(self, **kwargs):
                FlakyOracle.calls += 1
                if FlakyOracle.calls > 10:
                    from poem.errors import BackendError

                    raise BackendError("scoring service went away", status=503)
                return inner.reward(**kwargs)

        cfg = TrainConfig(iterations=20, minibatch_size=4, m=4, k=5, seed=2, in_flight=1)
        memory = fresh_memory(task)
        from poem.errors import BackendError

        with pytest.raises(BackendError, match=r"iteration \d+, sample index \d+") as err:
            train(cfg, task.train, task.ic, task.encoder, FlakyOracle(), memory,
                  SYNTHETIC_PROMPT)
        assert err.value.status == 503  # backend detail survives the context wrap
        assert memory.filled_pairs() >= 8  # completed iterations' writes are intact

    def test_in_process_scorer_scores_on_calling_thread(self):
        task = make_task()
        threads = set()

        class RecordingOracle(SyntheticOracle):
            def reward(self, **kwargs):
                threads.add(threading.get_ident())
                return super().reward(**kwargs)

        cfg = TrainConfig(iterations=4, minibatch_size=8, m=4, k=5, seed=9, in_flight=4)
        train(cfg, task.train, task.ic, task.encoder, RecordingOracle(task.landscape),
              fresh_memory(task), SYNTHETIC_PROMPT)
        assert threads == {threading.get_ident()}

    def test_concurrent_scoring_matches_serial(self):
        # a scorer that waits on its backend still overlaps requests, and the
        # overlap changes nothing in the report
        results, overlap = [], []
        for in_flight in (1, 4):
            task = make_task()
            backend = _SlowLM()
            scorer = LMOracle(backend, RewardConfig("classification"), labels=("g0", "g1"))
            cfg = TrainConfig(iterations=4, minibatch_size=8, m=4, k=5, seed=9,
                              in_flight=in_flight)
            _, report = train(cfg, task.train, task.ic, task.encoder, scorer,
                              fresh_memory(task), SYNTHETIC_PROMPT)
            results.append(report.to_json())
            overlap.append(backend.max_active)
        assert overlap[0] == 1 and overlap[1] > 1
        assert results[0] == results[1]


class _SlowLM:
    """In-process scoring backend: waits a few ms, log-probs hashed from the prompt."""

    def __init__(self):
        self.active = self.max_active = 0
        self._lock = threading.Lock()

    def score(self, request):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.005)
        with self._lock:
            self.active -= 1
        digest = hashlib.sha256(request.prompt.encode("utf-8")).digest()
        return ScoreResponse(per_label_logprob={
            label: -digest[i] / 64.0 for i, label in enumerate(request.labels)
        })


class TestInfer:
    def _exhaustive_memory(self, task):
        cfg = TrainConfig(m=4, k=1, seed=1, exploration_mode="exhaustive")
        memory = fresh_memory(task)
        memory, _ = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        return memory, cfg

    def test_training_states_recover_brute_force_optimum(self):
        task = make_task()
        memory, cfg = self._exhaustive_memory(task)
        for x in task.train:
            result = infer(memory, x, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT)
            t_s = select_examples(x.embedding, task.ic, cfg.m)
            assert result.action == brute_force_best(task.landscape, x.embedding, t_s)

    def test_empty_memory_falls_back_to_identity(self):
        task = make_task()
        cfg = TrainConfig(m=4, k=3)
        memory = fresh_memory(task)
        with pytest.warns(RuntimeWarning):
            result = infer(memory, task.test[0], task.ic, task.encoder, cfg, SYNTHETIC_PROMPT)
        assert result.action == identity_action(4)
        # prompt demos are in descending-similarity order
        t_s = select_examples(task.test[0].embedding, task.ic, 4)
        assert [e.index for e in result.ordered] == [e.index for e in t_s]

    def test_equidistant_neighbors_average_their_rewards(self):
        # two stored states symmetric about the query; single shared action:
        # weights are 1/2 each so the estimate is the arithmetic mean
        memory = EpisodicMemory(capacity=4, m=2)
        from poem import Action, StateRecord

        n1 = StateRecord.from_text("n1", Embedding(np.array([1.0, 0.2])))
        n2 = StateRecord.from_text("n2", Embedding(np.array([1.0, -0.2])))
        a = Action((1, 2))
        memory.write(n1, a, 1.0)
        memory.write(n2, a, 0.0)
        query = StateRecord.from_text("q", Embedding(np.array([1.0, 0.0])))
        assert memory.read(query, a, k=2) == pytest.approx(0.5, abs=1e-12)


def _scorer(task):
    return SyntheticOracle(task.landscape)


class TestEvaluate:
    def test_rows_and_shapes(self):
        task = make_task()
        cfg = TrainConfig(iterations=15, minibatch_size=8, m=4, k=5, seed=4)
        memory = fresh_memory(task)
        memory, _ = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        report = evaluate(
            memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
            _scorer(task), seed=4,
        )
        assert [r.baseline for r in report.rows] == [
            "poem", "descending", "ascending", "random", "zero_shot",
        ]
        for row in report.rows:
            assert row.n == len(task.test)
        assert report.row("zero_shot").metric is None
        assert report.row("zero_shot").mean_reward == 0.0
        text = report.to_text()
        assert "poem" in text and "optimal_match" in text
        csv_out = report.to_csv()
        assert csv_out.splitlines()[0] == "baseline,mean_reward,optimal_match,n"

    def test_random_baseline_reproducible(self):
        task = make_task()
        cfg = TrainConfig(iterations=5, minibatch_size=4, m=4, k=5, seed=4)
        memory = fresh_memory(task)
        memory, _ = train(
            cfg, task.train, task.ic, task.encoder,
            SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
        )
        a = evaluate(memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
                     _scorer(task), baselines=("random",), seed=99)
        b = evaluate(memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
                     _scorer(task), baselines=("random",), seed=99)
        assert a.to_json() == b.to_json()

    def test_concurrent_scoring_matches_serial(self):
        # evaluate honours in_flight like train: requests overlap, the report does not change
        task = make_task()
        cfg = TrainConfig(iterations=4, minibatch_size=8, m=4, k=5, seed=9)
        memory, _ = train(cfg, task.train, task.ic, task.encoder,
                          SyntheticOracle(task.landscape), fresh_memory(task), SYNTHETIC_PROMPT)
        results, overlap = [], []
        for in_flight in (1, 4):
            backend = _SlowLM()
            scorer = LMOracle(backend, RewardConfig("classification"), labels=("g0", "g1"))
            report = evaluate(memory, task.test, task.ic, task.encoder,
                              dataclasses.replace(cfg, in_flight=in_flight), SYNTHETIC_PROMPT,
                              scorer, seed=3)
            results.append(report.to_json())
            overlap.append(backend.max_active)
        assert overlap[0] == 1 and overlap[1] > 1
        assert results[0] == results[1]

    def test_backend_failure_names_baseline_and_test_index(self):
        class FailingLM:
            calls = 0

            def score(self, request):
                FailingLM.calls += 1
                if FailingLM.calls == 3:
                    raise BackendError("scoring service went away", status=503)
                return ScoreResponse(per_label_logprob={"g0": -1.0, "g1": -2.0})

        task = make_task()
        cfg = TrainConfig(m=4, k=5, in_flight=1)
        scorer = LMOracle(FailingLM(), RewardConfig("classification"), labels=("g0", "g1"))
        with pytest.raises(BackendError, match=r"^baseline descending, test index 2: ") as err:
            evaluate(fresh_memory(task), task.test, task.ic, task.encoder, cfg,
                     SYNTHETIC_PROMPT, scorer, baselines=("descending",))
        assert err.value.status == 503

    def test_in_process_scorer_scores_on_calling_thread(self):
        task = make_task()
        threads = set()

        class RecordingOracle(SyntheticOracle):
            def score(self, **kwargs):
                threads.add(threading.get_ident())
                return super().score(**kwargs)

        cfg = TrainConfig(m=4, k=5, in_flight=4)
        evaluate(fresh_memory(task), task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
                 RecordingOracle(task.landscape), baselines=("descending", "random"))
        assert threads == {threading.get_ident()}

    def test_unknown_baseline_rejected(self):
        task = make_task()
        cfg = TrainConfig(m=4)
        with pytest.raises(InvalidInputError):
            evaluate(fresh_memory(task), task.test, task.ic, task.encoder, cfg,
                     SYNTHETIC_PROMPT, _scorer(task), baselines=("poem", "bogus"))

    def test_aggregate_over_seeds(self):
        task = make_task()
        reports = []
        for seed in (1, 2, 3):
            cfg = TrainConfig(iterations=10, minibatch_size=8, m=4, k=5, seed=seed)
            memory = fresh_memory(task)
            memory, _ = train(
                cfg, task.train, task.ic, task.encoder,
                SyntheticOracle(task.landscape), memory, SYNTHETIC_PROMPT,
            )
            reports.append(
                evaluate(memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT,
                         _scorer(task), seed=seed)
            )
        agg = aggregate_reports(reports)
        assert agg.seeds == [1, 2, 3]
        assert set(agg.ranking()) == set(
            ["poem", "descending", "ascending", "random", "zero_shot"]
        )
        row = agg.row("descending")
        manual = [rep.row("descending").mean_reward for rep in reports]
        assert row.mean_reward == pytest.approx(float(np.mean(manual)))
        assert row.reward_std == pytest.approx(float(np.std(manual, ddof=1)))
        assert "descending" in agg.to_text()
        assert agg.to_csv().splitlines()[0].startswith("baseline,mean_reward,reward_std")
