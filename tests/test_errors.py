"""Every JSON document poem reads fails the same way: class and exact message."""

import errno
from pathlib import Path

import pytest
from click.testing import CliRunner

from poem.cli import main
from poem.config import load_task_config
from poem.errors import ConfigError, SnapshotError, read_json_object
from poem.memory import EpisodicMemory
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
