#!/usr/bin/env python3
"""Run one workload of the poem benchmark and print its metrics.

    python3 benchmarks/run.py --workload train_large --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``poem`` from its
``src/`` directory; nothing needs installing. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it say the same for
a reader, with the environment, checks and behaviour fingerprints, and a
JSON record of all of it goes to ``.bench_out/`` in the checkout (with the
trace's spans, for a traced run). Exit status 0 means every check passed.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HELD_OUT_SEED = 9001  # never used while tuning; validates later claims
MIN_CYCLES = 3  # every slot gets at least 3 timings; cycles must also repeat exactly
MIN_ORDER_QUERIES = 100  # p90 then has at least ten queries above it

END_TO_END = {
    "setup_s": "s",
    "train_episodes_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "order_p50_ms": "ms",
    "order_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name, unit, better, value from one traced cycle's counters (a Counter: missing is 0)
PER_LAYER = [
    ("encoder.cosine.calls", "count", "lower", lambda d: d["encoder.cosine.calls"]),
    ("encoder.cosine.self_s", "s", "lower", lambda d: d["encoder.cosine.self_s"]),
    ("encoder.encode.calls", "count", "lower", lambda d: d["encoder.encode.calls"]),
    ("encoder.encode.texts", "count", "lower", lambda d: d["encoder.texts"]),
    ("encoder.cache_hit_ratio", "ratio", "higher",
     lambda d: _ratio(d["encoder.cached_texts"] - d["encoder.remote_texts"], d["encoder.cached_texts"])),
    ("selection.select.calls", "count", "lower", lambda d: d["selection.select.calls"]),
    ("selection.select.self_s", "s", "lower", lambda d: d["selection.select.self_s"]),
    ("memory.best_action.calls", "count", "lower", lambda d: d["memory.best_action.calls"]),
    ("memory.best_action.self_s", "s", "lower", lambda d: d["memory.best_action.self_s"]),
    ("memory.write.calls", "count", "lower", lambda d: d["memory.write.calls"]),
    ("memory.write.self_s", "s", "lower", lambda d: d["memory.write.self_s"]),
    ("memory.evictions", "count", "lower", lambda d: d["memory.evict.calls"]),
    ("memory.snapshot.bytes", "B", "lower", lambda d: d["memory.snapshot.bytes"]),
    ("actions.enumerate.calls", "count", "lower", lambda d: d["actions.enumerate.calls"]),
    ("actions.built", "count", "lower", lambda d: d["actions.built"]),
    ("actions.reorder.calls", "count", "lower", lambda d: d["actions.reorder.calls"]),
    ("prompts.build.calls", "count", "lower", lambda d: d["prompts.build.calls"]),
    ("prompts.build.self_s", "s", "lower", lambda d: d["prompts.build.self_s"]),
    ("prompts.chars", "count", "lower", lambda d: d["prompts.chars"]),
    ("simenv.reward.calls", "count", "lower", lambda d: d["simenv.reward.calls"]),
    ("simenv.reward.self_s", "s", "lower", lambda d: d["simenv.reward.self_s"]),
    ("simenv.brute_force.per_query", "ratio", "lower",
     lambda d: _ratio(d["simenv.brute_force.calls"], d["eval.queries"])),
    ("rewards.score_prompt.calls", "count", "lower", lambda d: d["rewards.score_prompt.calls"]),
    ("rewards.score_prompt.self_s", "s", "lower", lambda d: d["rewards.score_prompt.self_s"]),
    ("wire.post.calls", "count", "lower", lambda d: d["wire.post.calls"]),
    ("wire.post.wait_s", "s", "lower", lambda d: d["wire.post.total_s"]),
    ("wire.attempts", "count", "lower", lambda d: d["wire.attempt.calls"]),
    ("wire.retries", "count", "lower", lambda d: d["wire.attempt.calls"] - d["wire.post.calls"]),
    ("wire.errors", "count", "lower", lambda d: d["wire.post.errors"]),
    ("wire.connections", "count", "lower", lambda d: d["wire.connections"]),
    ("wire.requests_per_connection", "ratio", "higher",
     lambda d: _ratio(d["wire.server_requests"], d["wire.connections"])),
    ("engine.train.self_s", "s", "lower", lambda d: d["engine.train.self_s"]),
    ("engine.explore_ratio", "ratio", "lower",
     lambda d: _ratio(d["engine.explored"], d["engine.choose.calls"])),
    ("eval.poem_metric", "ratio", "higher", lambda d: d["eval.poem_metric"]),
    ("trace.spans", "count", "lower", lambda d: d["trace.spans"]),
]

# medians of single span durations over the whole traced run, set-up included
SPAN_DURATIONS = {
    "memory.snapshot.s": "memory.snapshot",
    "memory.restore.s": "memory.restore",
    "config.build_runtime_s": "config.build_runtime",
}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _percentile(sorted_values, q: float) -> float | None:
    """Nearest-rank percentile."""
    if not sorted_values:
        return None
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


def run_cycles(workload, ctx, seconds: float, *, probe, tracer=None) -> list:
    """Repeat the workload's cycle for about `seconds`, and at least MIN_CYCLES times.

    Another cycle starts only if it is expected to end nearer the deadline
    than stopping now would, so a run lasts about `seconds` on average.
    """
    from workloads import Cycle
    from tracing import summarize

    cycles: list = []
    started = time.perf_counter()
    while (len(cycles) < MIN_CYCLES
           or time.perf_counter() - started + cycles[-1].wall_s / 2 < seconds):
        cyc = Cycle(probe=probe)
        if tracer is not None:
            tracer.take_counts()
            mark = len(tracer.spans)
        start = time.perf_counter()
        try:
            workload.cycle(ctx, cyc)
        except Exception as exc:  # the run's boundary: record the failure and stop
            traceback.print_exc()
            cyc.failures.append(f"cycle raised {type(exc).__name__}: {exc}")
            cycles.append(cyc)
            break
        cyc.wall_s = time.perf_counter() - start
        if tracer is not None:
            layers = summarize(tracer.spans[mark:], tracer.take_counts())
            layers.update(cyc.counts)
            layers["eval.queries"] = cyc.eval_queries
            layers["eval.poem_metric"] = _median(cyc.poem_metric) or 0.0
            cyc.layers = layers
            tracer.pause()
        try:
            cyc.run_deferred()
        finally:
            if tracer is not None:
                tracer.resume()
        cycles.append(cyc)
    return cycles


def end_to_end_metrics(setup_times, cycles, *, scaled: bool = True) -> dict:
    """Wall-clock metrics, each timing taken at the reference host's full speed.

    On a shared host the same work can take ~1.7x longer while a neighbour
    is busy, in bursts from under a second to a whole run, so a plain
    median flips between two speeds from run to run. Every timing comes
    paired with a ``host_probe`` timed right next to it, and is scaled by
    PROBE_FULL_SPEED_S / that probe: the time the work takes on the
    reference host when its core is not shared. Then a slot (a training
    iteration, an evaluate call, an order query) counts with its best
    scaled repetition, and set-up with the median of its. With ``scaled``
    false the same statistics are taken of the plain wall-clock times.
    """
    from workloads import PROBE_FULL_SPEED_S

    done = [c for c in cycles if c.wall_s > 0]
    if not done:
        return dict.fromkeys(END_TO_END)

    def at_full_speed(seconds: float, probe: float) -> float:
        return seconds * PROBE_FULL_SPEED_S / probe if scaled else seconds

    def best(repetitions) -> float:
        return min(at_full_speed(*timing) for timing in repetitions)

    train_s = sum(best(slot) for slot in zip(*(c.train_slots for c in done)))
    eval_s = sum(best(slot) for slot in zip(*(c.eval_slots for c in done)))
    per_query = sorted(best(serve for serves in slot for serve in serves)
                       for slot in zip(*(c.order_slots for c in done)))
    enough = len(per_query) >= MIN_ORDER_QUERIES
    return {
        "setup_s": statistics.median(at_full_speed(*timing) for timing in setup_times),
        "train_episodes_per_s": done[0].train_episodes / train_s,
        "eval_queries_per_s": done[0].eval_episodes / eval_s,
        "order_p50_ms": _percentile(per_query, 50) * 1e3 if enough else None,
        "order_p90_ms": _percentile(per_query, 90) * 1e3 if enough else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def host_slowdown(cycles) -> float:
    """Median order-query probe over PROBE_FULL_SPEED_S: about 1.0 on a quiet reference host."""
    from workloads import PROBE_FULL_SPEED_S

    probes = [probe for c in cycles for serves in c.order_slots for _, probe in serves]
    return statistics.median(probes) / PROBE_FULL_SPEED_S


def per_layer_metrics(untraced, traced, spans, sweep_result) -> dict:
    done = [c for c in traced if c.layers is not None]
    out = {name: _median(fn(Counter(c.layers)) for c in done) for name, _, _, fn in PER_LAYER}
    for metric, span_name in SPAN_DURATIONS.items():
        out[metric] = _median(s[3] - s[2] for s in spans if s[1] == span_name) or 0.0
    plain = _median(c.wall_s for c in untraced if c.wall_s > 0)
    with_trace = _median(c.wall_s for c in done)
    if plain is not None and with_trace is not None:
        out["trace.overhead_s"] = with_trace - plain
        out["trace.overhead_ratio"] = (with_trace - plain) / plain
    out.update(sweep_result)
    return out


def per_layer_units() -> dict:
    """Unit of every per-layer metric, sweep entries included."""
    import sweep

    units = {name: unit for name, unit, _, _ in PER_LAYER}
    units.update({name: "s" for name in SPAN_DURATIONS})
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for n in sweep.MEMORY_SIZES:
        for m in sweep.MS:
            units[f"memory.best_action.us.n{n}-m{m}"] = "us"
    for pool in sweep.POOLS:
        for dim in sweep.DIMS:
            units[f"selection.select.us.pool{pool}-d{dim}"] = "us"
    return units


def run_workload(workload, *, seconds: float, trace: bool, out_dir: Path, sweep_kwargs=None) -> dict:
    """Set up, measure and check one workload; return everything the run found."""
    import sweep
    from tracing import Tracer
    from workloads import host_probe, no_probe

    record: dict = {"workload": workload.name, "seed": workload.seed, "trace": int(trace)}
    try:
        workload.prepare()
        for _ in range(20):  # the first probes in a process run cold and slow
            host_probe()
        setup_times = []
        for _ in range(workload.setup_repeats):
            probe = host_probe()
            start = time.perf_counter()
            ctx = workload.setup()
            setup_times.append((time.perf_counter() - start, probe))
        # a traced run reports no end-to-end times, so neither of its halves probes the host
        cycles = run_cycles(workload, ctx, seconds / 2 if trace else seconds,
                            probe=no_probe if trace else host_probe)
        traced: list = []
        if not trace:
            record["metrics"] = end_to_end_metrics(setup_times, cycles)
            record["unscaled"] = end_to_end_metrics(setup_times, cycles, scaled=False)
        elif any(c.failures for c in cycles):
            record["metrics"] = dict.fromkeys(per_layer_units())
        else:
            tracer = Tracer().install()
            try:
                workload.setup()  # traced once for its spans; the warmed-up context stays in use
                traced = run_cycles(workload, ctx, seconds / 2, probe=no_probe, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(out_dir / f"{workload.name}-seed{workload.seed}-spans.jsonl.gz")
            record["metrics"] = per_layer_metrics(
                cycles, traced, tracer.spans, sweep.run(workload.seed, **(sweep_kwargs or {})))
    finally:
        workload.close()

    every = cycles + traced
    failures = [f for c in every for f in c.failures]
    prints = {json.dumps(c.fingerprint(), sort_keys=True) for c in every if not c.failures}
    if len(prints) > 1:
        failures.append(f"cycles disagree: {len(prints)} distinct fingerprints")
    record.update(
        cycles=len(every),
        order_queries=len(cycles[0].order_slots) if cycles else 0,
        attempted=sum(c.operations + c.checks for c in every) + 1,
        failed=len(failures),
        failures=failures,
        fingerprint=every[0].fingerprint() if every else None,
        poem_metric=_median(x for c in every for x in c.poem_metric),
        setup_times=setup_times,
        host_slowdown=None if trace else host_slowdown(cycles),
        cycle_wall_s=[c.wall_s for c in every],
    )
    return record


def _print_report(record: dict, units: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cycles {record['cycles']}  order queries {record['order_queries']}")
    env = record["env"]
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"seeds workload={record['seed']}  held-out={HELD_OUT_SEED}")
    if record["host_slowdown"] is not None:
        print(f"host slowdown {record['host_slowdown']:.3f} "
              "(median host_probe time over its full-speed time)")
        print("unscaled wall clock, same statistics: " + "  ".join(
            f"{k}={v:.6g}" for k, v in record["unscaled"].items() if v is not None))
    for name, value in record["metrics"].items():
        print(f"  {name:<40} {value!s:>24} {units.get(name, '')}")
    rate = record["failed"] / record["attempted"]
    print(f"error_rate {rate:.6f} ({record['failed']} failed of {record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(f"poem metric (optimal match or accuracy, median over sessions) {record['poem_metric']}")
    fp = record["fingerprint"] or {}
    print(f"fingerprint snapshot={fp.get('snapshot')} eval={fp.get('eval')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one poem benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "poem" / "__init__.py").is_file():
        print(f"error: no poem package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        workload = WORKLOADS[args.workload](root, args.seed, Path(workdir))
        record = run_workload(workload, seconds=args.seconds, trace=bool(args.trace),
                              out_dir=out_dir)
    record["env"] = environment(nproc)
    record["held_out_seed"] = HELD_OUT_SEED
    units = END_TO_END if not args.trace else per_layer_units()
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_report(record, units)
    correct = record["failed"] == 0 and all(v is not None for v in record["metrics"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
