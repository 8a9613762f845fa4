"""Every JSON document poem reads fails the same way: class and exact message."""

import pytest

from poem.config import load_task_config
from poem.errors import ConfigError, SnapshotError
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
