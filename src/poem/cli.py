"""Command-line interface: train, order, eval, inspect-memory, simulate.

Exit codes: 0 on success, 1 on runtime failures (backends, snapshots), 2 on
validation failures (bad config, bad flags). All output is reproducible
byte-for-byte given the same config, seed, and snapshot with synthetic
backends; timing therefore never appears in command output.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click

from .actions import action_key
from .config import build_runtime, load_task_config, parse_task_config
from .engine import EXPLORATION_MODES, aggregate_reports, evaluate, infer, train
from .errors import ConfigError, PoemError
from .memory import EpisodicMemory
from .selection import load_examples

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
_SEED = click.IntRange(min=0)  # the random generators take no negative seed


def _friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except PoemError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)

    return wrapper


@click.group()
def main():
    """Order in-context examples with an episodic memory."""


def _train(runtime, cfg, on_iteration=None):
    """Train a fresh memory sized for the runtime; returns (memory, report)."""
    memory = EpisodicMemory(capacity=runtime.capacity, m=cfg.m)
    return train(
        cfg, runtime.d_train, runtime.ic, runtime.encoder, runtime.scorer,
        memory, runtime.prompt_spec, on_iteration=on_iteration,
    )


def _echo_train_report(report, as_json: bool):
    if as_json:
        click.echo(report.to_json())
        return
    click.echo(f"iterations:       {report.iterations} ({report.exploration_mode})")
    click.echo(f"states stored:    {report.states_stored}")
    click.echo(f"writes:           {report.writes}")
    click.echo(f"final fill ratio: {report.final_fill_ratio:.4f}")
    if report.mean_reward_per_iteration:
        click.echo(f"last mean reward: {report.mean_reward_per_iteration[-1]:.6f}")
    if report.note:
        click.echo(f"note: {report.note}")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Task config JSON.")
@click.option("--out", "out_path", default="memory.json", show_default=True,
              type=click.Path(), help="Where to write the memory snapshot.")
@click.option("--seed", type=_SEED, default=None, help="Override the config's training seed.")
@click.option("--snapshot-every", type=int, default=0, show_default=True,
              help="Also snapshot the memory every N iterations (0 = off).")
@click.option("--json", "as_json", is_flag=True, help="Emit the run report as JSON.")
@_friendly_errors
def cmd_train(config_path, out_path, seed, snapshot_every, as_json):
    """Fill an episodic memory from the training split and snapshot it."""
    config = load_task_config(config_path)
    runtime = build_runtime(config)
    cfg = config.train if seed is None else replace(config.train, seed=seed)
    out = Path(out_path)

    on_iteration = None
    if snapshot_every > 0:
        def on_iteration(t, mem):
            if (t + 1) % snapshot_every == 0:
                mem.snapshot(out.with_name(f"{out.stem}.iter{t + 1:04d}{out.suffix}"))

    memory, report = _train(runtime, cfg, on_iteration)
    memory.snapshot(out)
    _echo_train_report(report, as_json)
    if not as_json:
        click.echo(f"memory snapshot written to {out}")


@main.command("order")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Task config JSON.")
@click.option("--memory", "memory_path", required=True, type=click.Path(), help="Memory snapshot.")
@click.option("--query", "queries", multiple=True,
              help="Query text for the retrieval field (repeatable).")
@click.option("--file", "query_file", type=click.Path(), default=None,
              help="JSONL file of queries (same format as datasets).")
@click.option("--json", "as_json", is_flag=True, help="Emit results as JSON.")
@_friendly_errors
def cmd_order(config_path, memory_path, queries, query_file, as_json):
    """Pick the demonstration ordering for each query and print its prompt."""
    config = load_task_config(config_path)
    runtime = build_runtime(config, need_scoring=False)
    memory = _restore_memory(memory_path, config)

    query_fields: list[dict[str, str]] = []
    if query_file is not None:
        for ex in load_examples(query_file):
            query_fields.append(ex.fields)
    retrieval = runtime.ic.retrieval_fields
    for text in queries:
        if len(retrieval) != 1:
            raise ConfigError(
                "--query needs a single retrieval field; this task declares "
                f"{retrieval}, use --file with full field objects instead"
            )
        query_fields.append({retrieval[0]: text})
    if not query_fields:
        raise ConfigError("no queries: pass --query TEXT or --file QUERIES.jsonl")

    results = []
    for fields in query_fields:
        res = infer(memory, fields, runtime.ic, runtime.encoder, config.train,
                    runtime.prompt_spec)
        results.append(
            {
                "query_fields": fields,
                "action": action_key(res.action),
                "indices": [ex.index for ex in res.ordered],
                "prompt": res.prompt,
            }
        )
    if as_json:
        click.echo(json.dumps({"queries": results}, indent=2, sort_keys=True))
        return
    for res in results:
        click.echo(f"query:   {res['query_fields']}")
        click.echo(f"action:  {res['action']}")
        click.echo(f"indices: {res['indices']}")
        click.echo("prompt:")
        click.echo(res["prompt"])
        click.echo("")


def _restore_memory(memory_path, config) -> EpisodicMemory:
    memory = EpisodicMemory.restore(memory_path)
    if memory.m != config.train.m:
        raise ConfigError(
            f"snapshot has m={memory.m} but the config trains with m={config.train.m}"
        )
    return memory


def _eval_once(runtime, cfg, memory, seed):
    return evaluate(
        memory, runtime.d_test, runtime.ic, runtime.encoder, cfg,
        runtime.prompt_spec, runtime.scorer,
        baselines=runtime.config.eval_baselines, seed=seed,
    )


@main.command("eval")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Task config JSON.")
@click.option("--memory", "memory_path", type=click.Path(), default=None,
              help="Evaluate this snapshot instead of retraining per seed.")
@click.option("--seed", type=_SEED, default=None, help="Base seed (default: config train.seed).")
@click.option("--seeds", type=int, default=1, show_default=True,
              help="Number of seeds; each retrains unless --memory is given.")
@click.option("--json", "as_json", is_flag=True, help="Emit the full report as JSON.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit the aggregate table as CSV.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Also write the JSON report to this path.")
@_friendly_errors
def cmd_eval(config_path, memory_path, seed, seeds, as_json, as_csv, out_path):
    """Compare the learned ordering against heuristic baselines on the test split."""
    if seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    config = load_task_config(config_path)
    runtime = build_runtime(config)
    if runtime.d_test is None:
        raise ConfigError(f"{config.path}: no 'test' split configured")
    base_seed = config.train.seed if seed is None else seed

    fixed_memory = _restore_memory(memory_path, config) if memory_path else None
    reports = []
    for i in range(seeds):
        run_seed = base_seed + i
        if fixed_memory is not None:
            memory = fixed_memory
        else:
            memory, _ = _train(runtime, replace(config.train, seed=run_seed))
        reports.append(_eval_once(runtime, config.train, memory, run_seed))
    aggregate = aggregate_reports(reports)

    if out_path:
        Path(out_path).write_text(aggregate.to_json() + "\n", encoding="utf-8")
    if as_json:
        click.echo(aggregate.to_json())
    elif as_csv:
        click.echo(aggregate.to_csv(), nl=False)
    else:
        click.echo(aggregate.to_text())


@main.command("inspect-memory")
@click.option("--memory", "memory_path", required=True, type=click.Path(), help="Memory snapshot.")
@click.option("--json", "as_json", is_flag=True, help="Emit the summary as JSON.")
@_friendly_errors
def cmd_inspect_memory(memory_path, as_json):
    """Summarize a memory snapshot: states, coverage, best action per state."""
    memory = EpisodicMemory.restore(memory_path)
    total_actions = math.factorial(memory.m)
    entries = memory.entries()
    states = []
    for record, actions in entries:
        best_key = max(sorted(actions), key=lambda key: actions[key]) if actions else None
        states.append(
            {
                "state_id": record.state_id[:12],
                "text": record.source_text,
                "actions_filled": len(actions),
                "best_action": best_key,
                "best_reward": actions[best_key] if best_key is not None else None,
            }
        )
    summary = {
        "states": len(entries),
        "capacity": memory.capacity,
        "m": memory.m,
        "dim": memory.dim,
        "filled_pairs": memory.filled_pairs(),
        "per_state_fill": (
            memory.filled_pairs() / (len(entries) * total_actions) if entries else 0.0
        ),
        "state_table": states,
    }
    if as_json:
        click.echo(json.dumps(summary, indent=2, sort_keys=True))
        return
    click.echo(
        f"states {summary['states']}/{summary['capacity']}  m={summary['m']}  "
        f"dim={summary['dim']}  filled pairs {summary['filled_pairs']}  "
        f"per-state fill {summary['per_state_fill']:.4f}"
    )
    for st in states:
        best = (
            f"{st['best_action']} ({st['best_reward']:.6f})"
            if st["best_action"] is not None
            else "-"
        )
        click.echo(
            f"  {st['state_id']}  actions {st['actions_filled']:>4}/{total_actions}  "
            f"best {best}  {st['text'][:48]}"
        )


@main.command("simulate")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(),
              help="Scenario JSON describing the synthetic task.")
@click.option("--seed", type=_SEED, default=None, help="Override the scenario's training seed.")
@click.option("--iterations", type=int, default=None, help="Override training iterations.")
@click.option("--exploration", type=click.Choice(EXPLORATION_MODES),
              default=None, help="Override the exploration mode.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Also snapshot the trained memory here.")
@click.option("--json", "as_json", is_flag=True, help="Emit report and table as JSON.")
@_friendly_errors
def cmd_simulate(scenario_path, seed, iterations, exploration, out_path, as_json):
    """Run the full loop (train + eval) on a synthetic scenario, end to end."""
    overrides = {"seed": seed, "iterations": iterations, "exploration_mode": exploration}
    path = Path(scenario_path)
    config = parse_task_config(
        {
            "synthetic": {"scenario": path.name},
            "train": {key: value for key, value in overrides.items() if value is not None},
        },
        path,
    )
    runtime = build_runtime(config)
    memory, report = _train(runtime, config.train)
    if out_path:
        memory.snapshot(out_path)
    table = _eval_once(runtime, config.train, memory, config.train.seed)
    if as_json:
        click.echo(json.dumps(
            {"report": report.to_dict(), "eval": table.to_dict()}, indent=2, sort_keys=True
        ))
        return
    _echo_train_report(report, as_json=False)
    click.echo("")
    click.echo(table.to_text())


if __name__ == "__main__":
    main()
