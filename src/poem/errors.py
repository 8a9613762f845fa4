"""Exception hierarchy shared across the package, the JSON reader and the field type check."""

import dataclasses
import json
import numbers
from pathlib import Path


class PoemError(Exception):
    """Base class for every error this library raises on purpose."""


class InvalidInputError(PoemError, ValueError):
    """An argument violates a documented precondition."""


class SelectionError(PoemError):
    """Example retrieval cannot satisfy the request (message names the deficient label)."""


class RenderError(PoemError):
    """A template placeholder cannot be resolved."""


class BackendError(PoemError):
    """A remote backend is unreachable or answered with a failure status."""

    def __init__(self, message: str, *, attempts: int | None = None, status: int | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.status = status


class ProtocolError(PoemError):
    """A backend answered, but the payload violates the wire contract."""


class SnapshotError(PoemError):
    """A memory snapshot file cannot be loaded."""


class ConfigError(PoemError):
    """A task configuration or scenario file failed validation."""


def read_json_object(path: str | Path, kind: str, error_cls: type[PoemError]) -> dict:
    """Read a JSON file whose top level must be an object.

    Any failure raises `error_cls` naming the path and the document's kind.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error_cls(f"{path}: no such {kind} file") from None
    except json.JSONDecodeError as exc:
        raise error_cls(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise error_cls(f"{path}: {kind} must be a JSON object")
    return doc


def check_field_types(obj) -> None:
    """Raise InvalidInputError for a dataclass field whose value is not of its annotated
    type, one of the strings "int", "float", "bool" or "str"; a bool is no number."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        kind = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}.get(field.type, str)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise InvalidInputError(f"{field.name} must be {field.type}, got {value!r}")
