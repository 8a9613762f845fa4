"""Time a change against a parent commit with alternating benchmark runs.

Usage: python tools/bench_pairs.py --ref REF [--workload W ...] [--pairs N]
                                   [--out BENCH_topic.json]

Unpacks commit REF with ``git archive`` into a temporary directory and runs
``benchmarks/run.py --trace 0`` on it and on the checkout this script lives
in, one process at a time, each for BENCHMARK.json's ``run_seconds``. Pair i
runs seed SEEDS[i % len(SEEDS)] on both trees; even pairs run REF first, odd
pairs the checkout first, so a host that drifts in speed hurts neither side
more. Each tree runs its own ``benchmarks/``.

Per workload and end-to-end metric it reports both sides' median and
quartiles (``statistics.quantiles(method='inclusive')``), the pairs the
checkout won and tied, every pair's values, failed and attempted operations,
and whether the behaviour fingerprints agree per seed. It gives no verdict:
the benchmark's rules are applied to these statistics. With ``--out`` it
writes this as the ``workloads`` block of a ``BENCH_<topic>.json`` (with
``method`` and ``environment``), keeping the file's other keys and other
workloads (``make bench-pairs REF=HEAD~1 W=order_serve PAIRS=10 OUT=BENCH_x.json``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5, 9001)
HELD_OUT_SEED = 9001


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` in tree root: its summary line, fingerprint line, env line and status."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}

    def line(prefix: str) -> str | None:
        return next((x[len(prefix):] for x in lines if x.startswith(prefix)), None)

    return {**summary, "exit": done.returncode, "fingerprint": line("fingerprint "),
            "env": line("env ")}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def compare(pairs: list[tuple[int, dict, dict]], spec: dict) -> dict:
    """One metric over (seed, parent run, change run) pairs; spec is its BENCHMARK.json entry."""
    name, lower = spec["name"], spec["better"] == "lower"
    both = [(seed, p["metrics"][name]["value"], c["metrics"][name]["value"])
            for seed, p, c in pairs
            if p["metrics"].get(name, {}).get("value") is not None
            and c["metrics"].get(name, {}).get("value") is not None]
    if not both:
        return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], "n": 0}
    parent, change = _spread([b[1] for b in both]), _spread([b[2] for b in both])
    wins = sum((c < p) if lower else (c > p) for _, p, c in both)
    ties = sum(c == p for _, p, c in both)
    ratio = change["median"] / parent["median"] if parent["median"] else None
    iqr = parent["q3"] - parent["q1"]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": parent, "change": change,
        "change_over_parent_median": ratio,
        "change_wins_pairs": f"{wins}/{len(both)}",
        "tied_pairs": ties,
        "parent_iqr_over_median": iqr / parent["median"] if parent["median"] else None,
        f"seed{HELD_OUT_SEED}": [{"parent": p, "change": c}
                                 for seed, p, c in both if seed == HELD_OUT_SEED],
        "pairs_seed_parent_change": [list(b) for b in both],
    }


def summarize(pairs: list[tuple[int, dict, dict]], specs: list[dict]) -> dict:
    """The workloads-block entry for one workload's pairs."""
    prints: dict[int, dict[str, set]] = {}
    for seed, p, c in pairs:
        sides = prints.setdefault(seed, {"parent": set(), "change": set()})
        sides["parent"].add(p["fingerprint"])
        sides["change"].add(c["fingerprint"])
    runs = [run for _, p, c in pairs for run in (p, c)]
    return {
        "runs": len(runs),
        "failed_ops": {"parent": sum(p["failed"] for _, p, _ in pairs),
                       "change": sum(c["failed"] for _, _, c in pairs)},
        "attempted_ops": {"parent": sum(p["attempted"] for _, p, _ in pairs),
                          "change": sum(c["attempted"] for _, _, c in pairs)},
        "exit_nonzero": sum(run["exit"] != 0 for run in runs),
        "fingerprints_equal_per_seed": all(
            sides["parent"] == sides["change"] and None not in sides["parent"]
            for sides in prints.values()),
        "metrics": {spec["name"]: compare(pairs, spec) for spec in specs},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="the parent commit to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="BENCH_<topic>.json to write or update")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode("utf-8", "replace"))
        return 1
    block, env = {}, None
    with tempfile.TemporaryDirectory(prefix="poem-bench-ref-") as ref_root:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(ref_root, filter="data")
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = SEEDS[i % len(SEEDS)]
                order = [("parent", Path(ref_root)), ("change", ROOT)]
                runs = {side: run_once(root, workload, seed, bench["run_seconds"])
                        for side, root in (order if i % 2 == 0 else order[::-1])}
                pairs.append((seed, runs["parent"], runs["change"]))
                env = env or runs["change"]["env"]
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
                    f"{side} exit {run['exit']} failed {run['failed']}"
                    for side, run in runs.items()), file=sys.stderr)
            block[workload] = summarize(pairs, bench["end_to_end"])

    if args.out is None:
        print(json.dumps(block, indent=2, sort_keys=True))
        return 0
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["method"] = (
        f"python3 tools/bench_pairs.py --ref {args.ref} --pairs {args.pairs}: "
        f"benchmarks/run.py --seconds {bench['run_seconds']} --trace 0 on a git archive of the "
        f"parent and on the change, one process at a time; pair i runs seed "
        f"{list(SEEDS)}[i % {len(SEEDS)}], even pairs parent first, odd pairs change first.")
    doc.setdefault("environment", {})["run_py_env"] = env
    doc["workloads"] = {**doc.get("workloads", {}), **block}
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
