"""The demos stay runnable: their poem imports resolve, and the quick ones run clean."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# 05 trains four seeds on two scenarios (about 20 s); it gets the import check only
RUN = [d for d in DEMOS if not d.name.startswith("05_")]


def poem_imports(path):
    """(module, name) for every `from poem... import name` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "poem":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 6
    assert len(RUN) == len(DEMOS) - 1


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_poem_imports_resolve(demo):
    names = list(poem_imports(demo))
    assert names, f"{demo.name} imports nothing from poem"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo.name}: cannot import {missing}"


@pytest.mark.parametrize("demo", RUN, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
