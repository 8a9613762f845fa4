"""Tiny-size smoke test of the benchmark itself.

    python -m pytest benchmarks/test_smoke.py

Runs every workload at a few dozen states, untraced and traced, and checks
the result's shape against BENCHMARK.json, the repeatability of the
fingerprint, the CLI's result line, and that the CLI refuses to run
without the program's sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import poem.engine  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "scenario_sim": dict(scenarios=("descending_small",)),
    "train_large": dict(train=48, pool=24, test=8, capacity=16, iterations=4, minibatch=8),
    "order_serve": dict(states=48, pool=24, queries=8, eval_queries=4, iterations=2, minibatch=4),
    "remote_lm": dict(train=24, ic=12, test=8, iterations=3, minibatch=4),
}
TINY_SWEEP = dict(sizes=(16, 32), ms=(4,), pools=(16,), dims=(8,), reps=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(run, "MIN_ORDER_QUERIES", 1)


def tiny(name: str, seed: int, workdir: Path):
    return workloads.WORKLOADS[name](ROOT, seed, workdir, **TINY[name])


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_and_checks_pass(name, trace, tmp_path):
    original_train = poem.engine.train
    record = run.run_workload(tiny(name, 1, tmp_path), seconds=0, trace=trace, out_dir=tmp_path,
                              sweep_kwargs=TINY_SWEEP)
    assert record["failures"] == []
    assert record["attempted"] > record["cycles"] >= run.MIN_CYCLES * (2 if trace else 1)
    assert poem.engine.train is original_train  # the tracer put everything back
    metrics = record["metrics"]
    if trace:
        assert metrics["trace.spans"] > 0
        assert metrics["memory.best_action.us.n32-m4"] > 0
        assert (tmp_path / f"{name}-seed1-spans.jsonl.gz").exists()
    else:
        assert set(metrics) == set(run.END_TO_END)
        assert all(value > 0 for value in metrics.values())


def test_fingerprint_repeats_for_a_seed(tmp_path):
    def fingerprint(seed, sub):
        (tmp_path / sub).mkdir()
        return run.run_workload(tiny("train_large", seed, tmp_path / sub), seconds=0,
                                trace=False, out_dir=tmp_path)["fingerprint"]

    assert fingerprint(5, "a") == fingerprint(5, "b") != fingerprint(6, "c")


def test_cli_prints_the_result_line(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "remote_lm",
                        functools.partial(workloads.RemoteLm, **TINY["remote_lm"]))
    code = run.main(["--workload", "remote_lm", "--seed", "3", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END


def test_cli_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
