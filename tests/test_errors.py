"""Every JSON document and dataset poem reads fails the same way: class and exact message."""

import errno
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from poem.actions import identity_action
from poem.cli import main
from poem.config import load_task_config
from poem.encoder import Embedding
from poem.errors import ConfigError, InvalidInputError, SnapshotError, read_json_object
from poem.memory import EpisodicMemory, StateRecord
from poem.selection import load_examples
from poem.simenv import load_scenario

READERS = {
    "config": (load_task_config, ConfigError),
    "scenario": (load_scenario, ConfigError),
    "snapshot": (EpisodicMemory.restore, SnapshotError),
}

CASES = {
    "missing": (None, "{path}: no such {kind} file"),
    "invalid": (
        '{"version": 1,\n}\n',
        "{path}: invalid JSON at line 2: Expecting property name enclosed in double quotes",
    ),
    "array": ("[1, 2]\n", "{path}: {kind} must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_document_errors_are_exact(tmp_path, kind, case):
    read, error_cls = READERS[kind]
    text, template = CASES[case]
    path = tmp_path / f"{kind}.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error_cls) as err:
        read(path)
    assert str(err.value) == template.format(path=path, kind=kind)


# Files that are not readable JSON text: each kind fails with its own class and
# names the path and the kind, and the CLI prints `error:` and exits with the
# class's status (ConfigError 2, SnapshotError 1), never a traceback.
UNREADABLE = {
    "deep": lambda path: path.write_text("[" * 100000, encoding="utf-8"),
    "not-utf8": lambda path: path.write_bytes(b'{"version": 1, "\xff\xfe": 2}'),
    "directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_unreadable_documents_raise_the_readers_error(tmp_path, kind, case):
    read, error_cls = READERS[kind]
    path = tmp_path / f"{kind}.json"
    UNREADABLE[case](path)
    with pytest.raises(error_cls) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: ") and kind in str(err.value)


def test_any_os_error_names_path_and_kind(tmp_path, monkeypatch):
    def broken(self, encoding=None):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(Path, "read_text", broken)
    path = tmp_path / "x.json"
    with pytest.raises(SnapshotError) as err:
        read_json_object(path, "snapshot", SnapshotError)
    assert str(err.value) == f"{path}: cannot read snapshot file: Input/output error"


CLI = {
    "config": (["train", "--config", "{path}", "--out", "{tmp}/m.json"], 2),
    "scenario": (["simulate", "--scenario", "{path}"], 2),
    "snapshot": (["inspect-memory", "--memory", "{path}"], 1),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("kind", sorted(CLI))
def test_cli_reports_unreadable_documents(tmp_path, kind, case):
    args, status = CLI[kind]
    path = tmp_path / f"{kind}.json"
    UNREADABLE[case](path)
    result = CliRunner().invoke(main, [a.format(path=path, tmp=tmp_path) for a in args])
    assert result.exit_code == status, (result.output, result.exception)
    assert f"error: {path}: " in result.output


# A JSON Lines dataset (a split of a dataset config, or `poem order --file`) fails
# the same way as the JSON documents above: load_examples raises InvalidInputError
# naming the path and the kind, and the CLI prints `error:` and exits 1.
ROOT = Path(__file__).resolve().parent.parent
OFFLINE_CONFIG = ROOT / "demos" / "configs" / "sentiment_offline.json"
DATASETS = {
    "missing": (lambda path: None, "{path}: no such dataset file"),
    "not-utf8": (lambda path: path.write_bytes(b'{"fields": {"\xff\xfe": "x"}}\n'),
                 "{path}: dataset file is not UTF-8 text"),
    "directory": (lambda path: path.mkdir(), "{path}: cannot read dataset file: Is a directory"),
}


@pytest.mark.parametrize("case", sorted(DATASETS))
def test_unreadable_dataset_raises_invalid_input(tmp_path, case):
    make, message = DATASETS[case]
    path = tmp_path / "data.jsonl"
    make(path)
    with pytest.raises(InvalidInputError) as err:
        load_examples(path)
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize("case", sorted(DATASETS))
def test_cli_order_reports_an_unreadable_query_file(tmp_path, case):
    make, message = DATASETS[case]
    path = tmp_path / "queries.jsonl"
    make(path)
    memory = EpisodicMemory(capacity=1, m=4)
    memory.write(StateRecord.from_text("q", Embedding(np.ones(64))), identity_action(4), 0.5)
    memory.snapshot(tmp_path / "mem.json")
    result = CliRunner().invoke(main, ["order", "--config", str(OFFLINE_CONFIG), "--memory",
                                       str(tmp_path / "mem.json"), "--file", str(path)])
    assert result.exit_code == 1, (result.output, result.exception)
    assert result.stderr == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("case", ["not-utf8", "directory"])  # a missing split fails validation
def test_cli_reports_an_unreadable_dataset_split(tmp_path, case):
    make, message = DATASETS[case]
    path = tmp_path / "train.jsonl"
    make(path)
    config = json.loads(OFFLINE_CONFIG.read_text(encoding="utf-8"))
    config["datasets"] = {"train": str(path),
                          "ic": str(ROOT / "demos" / "data" / "sentiment_ic.jsonl")}
    config["lm"]["scenario"] = str(ROOT / "scenarios" / "descending_small.json")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result = CliRunner().invoke(main, ["train", "--config", str(config_path),
                                       "--out", str(tmp_path / "mem.json")])
    assert result.exit_code == 1, (result.output, result.exception)
    assert result.stderr == f"error: {message.format(path=path)}\n"


# A dataset line nested past the parser's recursion limit is an input error with the
# path and line number, as a too-deep JSON document is, not a RecursionError traceback.
def _deep_dataset(path):
    path.write_text('{"fields": {"text": "fine"}}\n' + "[" * 100000 + "\n", encoding="utf-8")
    return f"{path}:2: dataset line nests too deeply"


def test_a_deeply_nested_dataset_line_raises_invalid_input(tmp_path):
    message = _deep_dataset(tmp_path / "data.jsonl")
    with pytest.raises(InvalidInputError) as err:
        load_examples(tmp_path / "data.jsonl")
    assert str(err.value) == message


def test_cli_order_reports_a_deeply_nested_query_line(tmp_path):
    path = tmp_path / "queries.jsonl"
    message = _deep_dataset(path)
    memory = EpisodicMemory(capacity=1, m=4)
    memory.write(StateRecord.from_text("q", Embedding(np.ones(64))), identity_action(4), 0.5)
    memory.snapshot(tmp_path / "mem.json")
    result = CliRunner().invoke(main, ["order", "--config", str(OFFLINE_CONFIG), "--memory",
                                       str(tmp_path / "mem.json"), "--file", str(path)])
    assert result.exit_code == 1, (result.output, result.exception)
    assert result.stderr == f"error: {message}\n"
