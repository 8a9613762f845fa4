"""Print a sha256 fingerprint of every output of a fixed set of poem CLI runs.

Usage: python tools/cli_fingerprint.py [--diff REF]

Runs the CLI of the checkout this script lives in (its ``src/`` first on
PYTHONPATH) into a temporary directory, so nothing is written into the
checkout. Prints one ``sha256 name`` line per command's stdout and per
written snapshot. Two checkouts behave byte-identically on this set when
the outputs of this script on both are equal.

With ``--diff REF`` the same set also runs on a ``git archive`` of commit
REF, unpacked into a temporary directory, each checkout with its own
scenarios and configs. It prints the name of every output that differs
between REF and the working tree and exits 1 if any does
(``make fingerprint-diff REF=HEAD~1``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("descending_small", "ascending_small", "noisy_medium")
CONFIGS = ("synthetic_small", "sentiment_offline")


def runs(root: Path):
    """(name, CLI arguments, snapshot file the run writes or None), in order."""
    for name in SCENARIOS:
        scenario = str(root / "scenarios" / f"{name}.json")
        yield (f"simulate-{name}", ["simulate", "--scenario", scenario, "--json",
                                    "--out", f"sim-{name}.json"], f"sim-{name}.json")
    yield ("simulate-exhaustive", ["simulate", "--scenario",
                                   str(root / "scenarios" / "descending_small.json"),
                                   "--exploration", "exhaustive"], None)
    for name in CONFIGS:
        config = str(root / "demos" / "configs" / f"{name}.json")
        memory = f"mem-{name}.json"
        yield (f"train-{name}", ["train", "--config", config, "--json", "--out", memory], memory)
        for flag in ("text", "--csv", "--json"):
            extra = [] if flag == "text" else [flag]
            yield (f"eval-seeds2-{flag.lstrip('-')}-{name}",
                   ["eval", "--config", config, "--seeds", "2", *extra], None)
        yield (f"eval-memory-{name}", ["eval", "--config", config, "--memory", memory], None)
        yield (f"inspect-memory-{name}", ["inspect-memory", "--memory", memory, "--json"], None)
        yield (f"inspect-memory-text-{name}", ["inspect-memory", "--memory", memory], None)
    order = ["order", "--config", str(root / "demos" / "configs" / "sentiment_offline.json"),
             "--memory", "mem-sentiment_offline.json",
             "--file", str(root / "demos" / "data" / "sentiment_test.jsonl")]
    yield ("order-sentiment_offline", [*order, "--json"], None)
    yield ("order-text-sentiment_offline", order, None)


def fingerprints(root: Path):
    """Yield (sha256, name) per output of the set, run with root's src/ and data.

    A run that exits non-zero ends the process with status 1 after echoing its stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="poem-fingerprint-") as tmp:
        for name, args, snapshot in runs(root):
            done = subprocess.run([sys.executable, "-m", "poem.cli", *args], cwd=tmp, env=env,
                                  capture_output=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode("utf-8", "replace"))
                sys.exit(f"{root}: {name}: exit status {done.returncode}")
            yield hashlib.sha256(done.stdout).hexdigest(), name
            if snapshot is not None:
                digest = hashlib.sha256(Path(tmp, snapshot).read_bytes()).hexdigest()
                yield digest, f"{name}:snapshot"


def diff(ref: str) -> int:
    """Print the names whose fingerprints differ between commit ref and the working tree."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode("utf-8", "replace"))
        return 1
    with tempfile.TemporaryDirectory(prefix="poem-fingerprint-ref-") as ref_root:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(ref_root, filter="data")
        before = {name: digest for digest, name in fingerprints(Path(ref_root))}
    after = {name: digest for digest, name in fingerprints(ROOT)}
    differ = [name for name in {**before, **after} if before.get(name) != after.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(after)} outputs differ from {ref}", file=sys.stderr)
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="REF",
                        help="compare with commit REF; print the outputs that differ")
    args = parser.parse_args()
    if args.diff is not None:
        return diff(args.diff)
    for digest, name in fingerprints(ROOT):
        print(digest, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
