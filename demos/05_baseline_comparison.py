"""Baseline comparison across seeds: the evaluate/aggregate pipeline.

Reproduces the shape of the heuristic-comparison tables: the learned
ordering against zero-shot, random, ascending, and descending, with mean
and seed spread. On the ascending scenario the weights are flipped, so the
descending heuristic is the one that suffers and the memory has something
real to learn.

Run:  python3 demos/05_baseline_comparison.py
"""

from pathlib import Path

from poem import (
    EpisodicMemory,
    SyntheticOracle,
    TrainConfig,
    aggregate_reports,
    evaluate,
    task_from_scenario,
    train,
)
from poem.config import SYNTHETIC_PROMPT

ROOT = Path(__file__).resolve().parent.parent


def run_seed(task, seed):
    cfg = TrainConfig(iterations=120, minibatch_size=16, m=4, k=10, seed=seed)
    memory = EpisodicMemory(capacity=len(task.train), m=cfg.m)
    scorer = SyntheticOracle(task.landscape)  # trains on reward(), evaluates with score()
    memory, _ = train(
        cfg, task.train, task.ic, task.encoder, scorer, memory, SYNTHETIC_PROMPT,
    )
    return evaluate(
        memory, task.test, task.ic, task.encoder, cfg, SYNTHETIC_PROMPT, scorer, seed=seed,
    )


for name in ("descending_small", "ascending_small"):
    task = task_from_scenario(ROOT / "scenarios" / f"{name}.json")
    reports = [run_seed(task, seed) for seed in (7, 8, 9, 10)]
    agg = aggregate_reports(reports)
    print(f"\n=== {name} (position weights {task.landscape.position_weights}) ===")
    print(agg.to_text())
    print("ranking by mean reward:", " > ".join(agg.ranking()))
