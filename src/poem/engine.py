"""Training and inference loops.

Training visits minibatches of training queries, picks an ordering per
query with a linearly decaying epsilon-greedy policy (uniform random action
with probability epsilon, otherwise the memory's current best), scores the
resulting prompt, and max-writes the reward into the episodic memory. Each
visit is a one-step episode: the return is just the reward. Inference reads
the memory (kNN-weighted) to order demonstrations for unseen queries, and
the evaluator compares that policy against the fixed heuristic orderings.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .actions import (Action, action_key, check_enumerable, enumerate_actions, identity_action,
                      reorder, reversal_action)
from .encoder import Embedding, EncoderBackend
from .errors import InvalidInputError, PoemError, check_field_types
from .memory import EpisodicMemory, StateRecord
from .prompts import PromptSpec, build_prompt
from .selection import Example, InContextSet, retrieval_text, select_examples

EXPLORATION_MODES = ("epsilon_greedy", "exhaustive")

BASELINES = ("poem", "descending", "ascending", "random", "zero_shot")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 60
    minibatch_size: int = 16
    epsilon_initial: float = 1.0
    epsilon_final: float = 0.0001
    m: int = 4
    k: int = 10
    seed: int = 0
    exploration_mode: str = "epsilon_greedy"
    in_flight: int = 4  # concurrent requests of a scorer that waits on I/O

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("iterations", 1), ("minibatch_size", 1), ("k", 1), ("seed", 0),
                          ("in_flight", 1)):
            if getattr(self, name) < low:
                raise InvalidInputError(f"{name} must be >= {low}")
        check_enumerable(self.m)
        if not (0.0 <= self.epsilon_final <= self.epsilon_initial <= 1.0):
            raise InvalidInputError(
                "need 0 <= epsilon_final <= epsilon_initial <= 1, got "
                f"{self.epsilon_final} / {self.epsilon_initial}"
            )
        if self.exploration_mode not in EXPLORATION_MODES:
            raise InvalidInputError(
                f"exploration_mode must be one of {EXPLORATION_MODES}, "
                f"got {self.exploration_mode!r}"
            )


def epsilon_at(t: int, cfg: TrainConfig) -> float:
    """Linearly decayed epsilon at iteration t (epsilon_initial at 0, epsilon_final at N).

    Evaluated as the convex blend eps_i*(1-t/N) + eps_f*(t/N), which is
    algebraically the straight-line decay but keeps both endpoints exact in
    floating point.
    """
    if not 0 <= t <= cfg.iterations:
        raise InvalidInputError(f"t={t} outside 0..{cfg.iterations}")
    frac = t / cfg.iterations
    return cfg.epsilon_initial * (1.0 - frac) + cfg.epsilon_final * frac


def epsilon_greedy(
    rng: np.random.Generator,
    epsilon: float,
    actions: Sequence[Action],
    exploit: Callable[[], Action],
) -> tuple[Action, bool]:
    """Uniform random action with probability epsilon, else exploit().

    Returns (action, explored). Consumes one uniform draw always and one
    integer draw only on exploration, so downstream draws stay aligned.
    """
    if rng.random() < epsilon:
        return actions[int(rng.integers(len(actions)))], True
    return exploit(), False


class Scorer(Protocol):
    """Scores episodes for one reward backend (an LM client or the synthetic env).

    reward() is the training signal; score() is the evaluation view of the
    same episode: its reward plus task-metric correctness (None when the
    metric does not apply), named by metric_name. A scorer that never waits on
    I/O sets the class constant waits_on_io = False and runs on the caller's thread.
    """

    metric_name: str

    def reward(self, *, prompt: str, state: Embedding, ordered: Sequence[Example],
               truth: str | None) -> float: ...

    def score(self, *, prompt: str, state: Embedding, ordered: Sequence[Example],
              action: Action | None, truth: str | None) -> tuple[float, bool | None]: ...


@dataclass
class RunReport:
    """What a training run did, in numbers. Timing is excluded from the
    deterministic JSON form so reports from identical seeds compare byte-equal."""

    seed: int
    iterations: int
    exploration_mode: str
    mean_reward_per_iteration: list[float]
    fill_ratio_per_iteration: list[float]
    final_fill_ratio: float
    states_stored: int
    writes: int
    wall_clock_seconds: float
    note: str | None = None

    def to_dict(self, *, include_timing: bool = False) -> dict:
        doc = asdict(self)
        if not self.note:
            del doc["note"]
        if not include_timing:
            del doc["wall_clock_seconds"]
        return doc

    def to_json(self, *, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2, sort_keys=True)


def _state_records(
    samples: Sequence[Example], ic: InContextSet, encoder: EncoderBackend
) -> list[StateRecord]:
    texts = [retrieval_text(x.fields, ic.retrieval_fields) for x in samples]
    embeddings = encoder.encode(texts)
    return [StateRecord.from_text(t, e) for t, e in zip(texts, embeddings)]


def _with_context(exc: PoemError, context: str) -> PoemError:
    clone = type(exc)(f"{context}: {exc}")
    clone.__dict__.update(exc.__dict__)
    return clone


def _job(prompt_spec: PromptSpec, record: StateRecord, selected: Sequence[Example],
         action: Action | None, query: dict[str, str], truth: str | None, context: str) -> dict:
    """One episode to score. Its "episode" holds the keywords both scorer calls take:
    the examples in the action's order (none for zero-shot), the prompt, state and truth."""
    ordered = [] if action is None else reorder(selected, action)
    episode = {"prompt": build_prompt(prompt_spec, ordered, query), "state": record.embedding,
               "ordered": ordered, "truth": truth}
    return {"record": record, "action": action, "context": context, "episode": episode}


def _score_jobs(scorer: Scorer, call: Callable[[dict], object], jobs: list[dict],
                in_flight: int) -> list:
    """call(job) for every job, results in job order; up to in_flight at a time
    when the scorer waits on I/O. A PoemError gains the job's error context."""
    def one(job: dict):
        try:
            return call(job)
        except PoemError as exc:
            # failures carry where they happened; earlier writes stay intact
            raise _with_context(exc, job["context"]) from exc

    if in_flight <= 1 or len(jobs) <= 1 or not getattr(scorer, "waits_on_io", True):
        return [one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        return list(pool.map(one, jobs))


def _episode_plan(
    cfg: TrainConfig,
    d_train: Sequence[Example],
    records: Sequence[StateRecord],
    actions: Sequence[Action],
    memory: EpisodicMemory,
):
    """Per iteration, the episodes to score as (training position, action, error context).

    exhaustive mode takes one state per iteration with every action.
    epsilon_greedy mode draws a minibatch per iteration (uniformly without
    replacement) and picks each action with the decaying policy. Being a
    generator, it makes an iteration's choices only after the previous
    iteration's writes, all against that batch-start memory.
    """
    if cfg.exploration_mode == "exhaustive":
        for i, sample in enumerate(d_train):
            context = f"exhaustive sweep, state {i} (index {sample.index}), action "
            yield [(i, a, context + action_key(a)) for a in actions]
        return
    rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.minibatch_size, len(d_train))
    for t in range(cfg.iterations):
        eps = epsilon_at(t, cfg)
        batch = [int(i) for i in rng.choice(len(d_train), size=batch_size, replace=False)]
        yield [
            (
                i,
                epsilon_greedy(rng, eps, actions, lambda: memory.best_action(records[i], cfg.k))[0],
                f"iteration {t}, sample index {d_train[i].index}",
            )
            for i in batch
        ]


def train(
    cfg: TrainConfig,
    d_train: Sequence[Example],
    ic: InContextSet,
    encoder: EncoderBackend,
    scorer: Scorer,
    memory: EpisodicMemory,
    prompt_spec: PromptSpec,
    *,
    on_iteration: Callable[[int, EpisodicMemory], None] | None = None,
) -> tuple[EpisodicMemory, RunReport]:
    """Fill the episodic memory from training queries.

    epsilon_greedy mode follows the decaying policy over cfg.iterations
    minibatches (sampled uniformly without replacement, reshuffled each
    iteration). exhaustive mode instead sweeps every (state, action) pair
    exactly once; that is a harness extension for coverage-guaranteed tests,
    not the published procedure, and the report says so. Action choices for
    a minibatch are made up front against the batch-start memory; scorers
    that wait on I/O run concurrently (cfg.in_flight); writes land in order.
    """
    if not d_train:
        raise InvalidInputError("training set is empty")
    if memory.m != cfg.m:
        raise InvalidInputError(f"memory.m={memory.m} but cfg.m={cfg.m}")
    actions = enumerate_actions(cfg.m)
    records = _state_records(d_train, ic, encoder)
    denominator = min(len(d_train), memory.capacity) * len(actions)
    started = time.perf_counter()
    mean_rewards: list[float] = []
    fill_ratios: list[float] = []
    selected: dict[int, list[Example]] = {}  # training position -> its examples
    writes = 0

    for t, episodes in enumerate(_episode_plan(cfg, d_train, records, actions, memory)):
        jobs = []
        for i, action, context in episodes:
            if i not in selected:
                selected[i] = select_examples(records[i].embedding, ic, cfg.m)
            jobs.append(_job(prompt_spec, records[i], selected[i], action,
                             d_train[i].fields, d_train[i].label, context))
        rewards = _score_jobs(scorer, lambda j: float(scorer.reward(**j["episode"])),
                              jobs, cfg.in_flight)
        for job, r in zip(jobs, rewards):
            memory.write(job["record"], job["action"], r)
            writes += 1
        mean_rewards.append(float(np.mean(rewards)))
        fill_ratios.append(memory.filled_pairs() / denominator)
        if on_iteration is not None:
            on_iteration(t, memory)

    report = RunReport(
        seed=cfg.seed,
        iterations=len(mean_rewards),
        exploration_mode=cfg.exploration_mode,
        mean_reward_per_iteration=mean_rewards,
        fill_ratio_per_iteration=fill_ratios,
        final_fill_ratio=fill_ratios[-1] if fill_ratios else 0.0,
        states_stored=len(memory),
        writes=writes,
        wall_clock_seconds=time.perf_counter() - started,
        note=(
            "exhaustive sweep over every (state, action) pair; "
            "harness extension, not the epsilon-greedy procedure"
            if cfg.exploration_mode == "exhaustive" else None
        ),
    )
    return memory, report


@dataclass(frozen=True)
class InferenceResult:
    action: Action
    ordered: tuple[Example, ...]
    prompt: str


def infer(
    memory: EpisodicMemory,
    x_t: Example | dict[str, str],
    ic: InContextSet,
    encoder: EncoderBackend,
    cfg: TrainConfig,
    prompt_spec: PromptSpec,
) -> InferenceResult:
    """Order demonstrations for one query via memory reading and build its prompt.

    The prediction itself is left to the caller's LM backend. An empty
    memory falls back to the identity (descending-similarity) ordering.
    """
    fields = x_t.fields if isinstance(x_t, Example) else dict(x_t)
    text = retrieval_text(fields, ic.retrieval_fields)
    embedding = encoder.encode([text])[0]
    record = StateRecord.from_text(text, embedding)
    action = memory.best_action(record, cfg.k)
    t_s = select_examples(record.embedding, ic, cfg.m)
    ordered = reorder(t_s, action)
    prompt = build_prompt(prompt_spec, ordered, fields)
    return InferenceResult(action=action, ordered=tuple(ordered), prompt=prompt)


@dataclass
class EvalRow:
    baseline: str
    mean_reward: float
    metric: float | None  # None when the metric does not apply (e.g. zero-shot match rate)
    n: int


class _Table:
    """Row lookup and the JSON/text/CSV renderings shared by the report tables.

    COLUMNS holds (row attribute, text header, text alignment and width,
    text number format) per column. The "metric" column is headed by the
    report's metric name; other CSV headers are the attribute names. Text
    ranks rows by mean reward, best first; CSV keeps row order. A missing
    value shows as "-" in text and as an empty CSV cell.
    """

    COLUMNS: tuple[tuple[str, str | None, str, str], ...] = ()
    metric_name: str
    rows: list

    def row(self, baseline: str):
        for r in self.rows:
            if r.baseline == baseline:
                return r
        raise KeyError(baseline)

    def ranking(self) -> list[str]:
        """Baselines ordered by mean reward, best first."""
        return [r.baseline for r in sorted(self.rows, key=lambda r: -r.mean_reward)]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        header = [format(self.metric_name if text is None else text, width)
                  for _, text, width, _ in self.COLUMNS]
        lines = [" ".join(header)]
        for r in sorted(self.rows, key=lambda r: -r.mean_reward):
            cells = []
            for attr, _, width, number in self.COLUMNS:
                value = getattr(r, attr)
                cells.append(format("-", width) if value is None else format(value, width + number))
            lines.append(" ".join(cells))
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.metric_name if attr == "metric" else attr for attr, *_ in self.COLUMNS)
        for r in self.rows:
            writer.writerow("" if getattr(r, attr) is None else getattr(r, attr)
                            for attr, *_ in self.COLUMNS)
        return buf.getvalue()


@dataclass
class EvalReport(_Table):
    metric_name: str
    seed: int
    rows: list[EvalRow]

    COLUMNS = (
        ("baseline", "baseline", "<12", ""),
        ("mean_reward", "mean_reward", ">12", ".6f"),
        ("metric", None, ">14", ".4f"),
        ("n", "n", ">6", ""),
    )

    def to_dict(self) -> dict:
        rows = [asdict(r) for r in self.rows]
        return {"metric": self.metric_name, "seed": self.seed, "rows": rows}


def evaluate(
    memory: EpisodicMemory,
    d_test: Sequence[Example],
    ic: InContextSet,
    encoder: EncoderBackend,
    cfg: TrainConfig,
    prompt_spec: PromptSpec,
    scorer: Scorer,
    *,
    baselines: Sequence[str] = BASELINES,
    seed: int = 0,
) -> EvalReport:
    """Score the memory-guided ordering against the heuristic baselines.

    Baselines: poem (memory reading), descending (identity action),
    ascending (reversal), random (seeded uniform action per query), and
    zero_shot (no demonstrations at all). A baseline's actions are all
    chosen first; scoring them touches neither the memory nor the rng, and
    scorers that wait on I/O run concurrently (cfg.in_flight).
    """
    if not d_test:
        raise InvalidInputError("test set is empty")
    for name in baselines:
        if name not in BASELINES:
            raise InvalidInputError(f"unknown baseline {name!r}; pick from {BASELINES}")
    actions = enumerate_actions(cfg.m)
    records = _state_records(d_test, ic, encoder)
    selected = [select_examples(rec.embedding, ic, cfg.m) for rec in records]
    rng = np.random.default_rng(seed)
    rows = []
    for baseline in baselines:
        jobs = []
        for sample, record, t_s in zip(d_test, records, selected):
            if baseline == "zero_shot":
                action: Action | None = None
            elif baseline == "poem":
                action = memory.best_action(record, cfg.k)
            elif baseline == "descending":
                action = identity_action(cfg.m)
            elif baseline == "ascending":
                action = reversal_action(cfg.m)
            else:  # random
                action = actions[int(rng.integers(len(actions)))]
            jobs.append(_job(prompt_spec, record, t_s, action, sample.fields, sample.label,
                             f"baseline {baseline}, test index {sample.index}"))
        scores = _score_jobs(scorer, lambda j: scorer.score(action=j["action"], **j["episode"]),
                             jobs, cfg.in_flight)
        hits = [bool(correct) for _, correct in scores if correct is not None]
        rows.append(
            EvalRow(
                baseline=baseline,
                mean_reward=float(np.mean([float(reward) for reward, _ in scores])),
                metric=float(np.mean(hits)) if hits else None,
                n=len(scores),
            )
        )
    return EvalReport(metric_name=scorer.metric_name, seed=seed, rows=rows)


@dataclass
class AggregateRow:
    baseline: str
    mean_reward: float
    reward_std: float
    metric: float | None
    metric_std: float | None
    seeds: int


@dataclass
class AggregateReport(_Table):
    """Per-baseline mean and seed spread over several evaluation runs."""

    metric_name: str
    seeds: list[int]
    per_seed: list[EvalReport]
    rows: list[AggregateRow]

    COLUMNS = (
        ("baseline", "baseline", "<12", ""),
        ("mean_reward", "mean_reward", ">12", ".6f"),
        ("reward_std", "+/-", ">10", ".6f"),
        ("metric", None, ">14", ".4f"),
        ("metric_std", "+/-", ">10", ".4f"),
        ("seeds", "seeds", ">6", ""),
    )

    def to_dict(self) -> dict:
        return {
            "metric": self.metric_name,
            "seeds": self.seeds,
            "rows": [asdict(r) for r in self.rows],
            "per_seed": [rep.to_dict() for rep in self.per_seed],
        }


def aggregate_reports(reports: Sequence[EvalReport]) -> AggregateReport:
    """Combine per-seed evaluation reports into mean +/- spread rows."""
    if not reports:
        raise InvalidInputError("no reports to aggregate")
    metric_name = reports[0].metric_name
    baselines = [row.baseline for row in reports[0].rows]
    rows = []
    for baseline in baselines:
        rewards = [rep.row(baseline).mean_reward for rep in reports]
        metrics = [rep.row(baseline).metric for rep in reports]
        have_metric = [m for m in metrics if m is not None]
        rows.append(
            AggregateRow(
                baseline=baseline,
                mean_reward=float(np.mean(rewards)),
                reward_std=float(np.std(rewards, ddof=1)) if len(rewards) > 1 else 0.0,
                metric=float(np.mean(have_metric)) if have_metric else None,
                metric_std=(
                    float(np.std(have_metric, ddof=1)) if len(have_metric) > 1 else
                    (0.0 if have_metric else None)
                ),
                seeds=len(reports),
            )
        )
    return AggregateReport(
        metric_name=metric_name,
        seeds=[rep.seed for rep in reports],
        per_seed=list(reports),
        rows=rows,
    )
