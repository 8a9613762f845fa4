"""Print a sha256 fingerprint of every output of a fixed set of poem CLI runs.

Usage: python tools/cli_fingerprint.py

Runs the CLI of the checkout this script lives in (its ``src/`` first on
PYTHONPATH) into a temporary directory, so nothing is written into the
checkout. Prints one ``sha256 name`` line per command's stdout and per
written snapshot. Two checkouts behave byte-identically on this set when
the outputs of this script on both are equal, e.g.

    diff <(python a/tools/cli_fingerprint.py) <(python b/tools/cli_fingerprint.py)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("descending_small", "ascending_small", "noisy_medium")
CONFIGS = ("synthetic_small", "sentiment_offline")


def runs():
    """(name, CLI arguments, snapshot file the run writes or None), in order."""
    for name in SCENARIOS:
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        yield (f"simulate-{name}", ["simulate", "--scenario", scenario, "--json",
                                    "--out", f"sim-{name}.json"], f"sim-{name}.json")
    yield ("simulate-exhaustive", ["simulate", "--scenario",
                                   str(ROOT / "scenarios" / "descending_small.json"),
                                   "--exploration", "exhaustive"], None)
    for name in CONFIGS:
        config = str(ROOT / "demos" / "configs" / f"{name}.json")
        memory = f"mem-{name}.json"
        yield (f"train-{name}", ["train", "--config", config, "--json", "--out", memory], memory)
        for flag in ("text", "--csv", "--json"):
            extra = [] if flag == "text" else [flag]
            yield (f"eval-seeds2-{flag.lstrip('-')}-{name}",
                   ["eval", "--config", config, "--seeds", "2", *extra], None)
        yield (f"eval-memory-{name}", ["eval", "--config", config, "--memory", memory], None)
        yield (f"inspect-memory-{name}", ["inspect-memory", "--memory", memory, "--json"], None)
    yield ("order-sentiment_offline",
           ["order", "--config", str(ROOT / "demos" / "configs" / "sentiment_offline.json"),
            "--memory", "mem-sentiment_offline.json", "--json",
            "--file", str(ROOT / "demos" / "data" / "sentiment_test.jsonl")], None)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="poem-fingerprint-") as tmp:
        for name, args, snapshot in runs():
            done = subprocess.run([sys.executable, "-m", "poem.cli", *args], cwd=tmp, env=env,
                                  capture_output=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode("utf-8", "replace"))
                print(f"{name}: exit status {done.returncode}", file=sys.stderr)
                return 1
            print(hashlib.sha256(done.stdout).hexdigest(), name)
            if snapshot is not None:
                digest = hashlib.sha256(Path(tmp, snapshot).read_bytes()).hexdigest()
                print(digest, f"{name}:snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
