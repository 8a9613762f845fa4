"""Retrieval of in-context examples: nearest neighbors with label balancing.

Given a query embedding, the m most useful demonstrations are the
semantically closest ones. For classification tasks the pool is balanced
across labels so the prompt does not tilt toward whichever class happens to
sit nearby. The returned list is always sorted by descending similarity;
that canonical order is what defines rank 1 for the action encoding.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import Embedding, EncoderBackend, scaled_rows, similarities
from .errors import InvalidInputError, SelectionError, read_text


@dataclass
class Example:
    """One dataset row: text fields, an optional label, and a stable index."""

    index: int
    fields: dict[str, str]
    label: str | None = None
    embedding: Embedding | None = None


def retrieval_text(example_fields: dict[str, str], retrieval_fields: Sequence[str]) -> str:
    """Text used for similarity: the declared fields joined by a single space."""
    parts = []
    for name in retrieval_fields:
        value = example_fields.get(name)
        if not value:
            raise InvalidInputError(f"retrieval field {name!r} is missing or empty")
        parts.append(value)
    return " ".join(parts)


@dataclass
class InContextSet:
    """The pool demonstrations are drawn from, embedded and label-checked."""

    examples: list[Example]
    retrieval_fields: list[str]
    label_space: tuple[str, ...] | None = None  # kept sorted: the fixed label order

    def __post_init__(self):
        if not self.examples:
            raise InvalidInputError("in-context set is empty")
        seen: set[int] = set()
        dim = None
        for ex in self.examples:
            if ex.index in seen:
                raise InvalidInputError(f"duplicate example index {ex.index}")
            seen.add(ex.index)
            if ex.embedding is None:
                raise InvalidInputError(f"example {ex.index} has no embedding")
            if dim is None:
                dim = ex.embedding.dim
            elif ex.embedding.dim != dim:
                raise InvalidInputError(
                    f"example {ex.index} has dim {ex.embedding.dim}, expected {dim}"
                )
        if self.label_space is not None:
            self.label_space = tuple(sorted(self.label_space))
            allowed = set(self.label_space)
            for ex in self.examples:
                if ex.label not in allowed:
                    raise InvalidInputError(
                        f"example {ex.index} has label {ex.label!r} outside the label space"
                    )

    @functools.cached_property
    def _pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The examples' indices and their vectors as scaled_rows makes them, built at first use."""
        vectors = np.array([ex.embedding.values for ex in self.examples])
        return (np.array([ex.index for ex in self.examples]), *scaled_rows(vectors))

    @functools.cached_property
    def _label_codes(self) -> np.ndarray:
        """Each example's label as its position in label_space, built at the first labelled
        select. Positions compare labels as Python strings do; a numpy string array would
        not tell 'a' from 'a\\x00'."""
        return np.array([self.label_space.index(ex.label) for ex in self.examples], np.intp)


def build_in_context_set(
    examples: Sequence[Example],
    encoder: EncoderBackend,
    retrieval_fields: Sequence[str],
    label_space: Sequence[str] | None = None,
) -> InContextSet:
    """Embed each example's retrieval text and assemble the pool."""
    texts = [retrieval_text(ex.fields, retrieval_fields) for ex in examples]
    embeddings = encoder.encode(texts)
    embedded = [replace(ex, embedding=emb) for ex, emb in zip(examples, embeddings)]
    return InContextSet(
        examples=embedded,
        retrieval_fields=list(retrieval_fields),
        label_space=tuple(label_space) if label_space is not None else None,
    )


def select_examples(s: Embedding, ic: InContextSet, m: int) -> list[Example]:
    """Pick the m demonstrations for a query state.

    Without a label space this is plain nearest-neighbor retrieval. With G
    labels, the first m // quota labels in sorted order each give their
    quota = max(m // G, 1) closest examples (one each from the first m when
    G >= m), and the globally closest unused ones fill any remaining slots.
    The result is sorted by descending similarity (ties by ascending index),
    which defines the rank-1-first canonical order downstream.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if m > len(ic.examples):
        raise SelectionError(
            f"need {m} examples but the in-context set holds {len(ic.examples)}"
        )
    indices, rows, norms = ic._pool
    order = np.lexsort((indices, -similarities(rows, norms, s)))  # by (-sim, index)
    if ic.label_space is None:
        return [ic.examples[i] for i in order[:m]]
    quota = max(m // len(ic.label_space), 1)
    ranked_codes = ic._label_codes[order]
    taken = np.zeros(len(order), bool)
    for lab in ic.label_space[: m // quota]:
        ranks = np.flatnonzero(ranked_codes == ic.label_space.index(lab))[:quota]
        if len(ranks) < quota:
            raise SelectionError(
                f"label {lab!r} has only {len(ranks)} examples, need {quota}"
            )
        taken[ranks] = True
    taken[np.flatnonzero(~taken)[: m - np.count_nonzero(taken)]] = True  # closest unused fill
    return [ic.examples[i] for i in order[taken]]


def load_examples(path: str | Path) -> list[Example]:
    """Read a JSON Lines dataset: {"index": n, "fields": {...}, "label": "..."} per line.

    "index" defaults to the 0-based position of the line; "label" is optional.
    Errors are InvalidInputErrors that carry the file path, and the line number
    where there is one.
    """
    path = Path(path)
    out: list[Example] = []
    seen: set[int] = set()
    position = 0
    text = read_text(path, "dataset", InvalidInputError)
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("fields"), dict):
            raise InvalidInputError(
                f"{path}:{lineno}: each line needs a 'fields' object"
            )
        fields = {}
        for key, value in obj["fields"].items():
            if not isinstance(value, str):
                raise InvalidInputError(
                    f"{path}:{lineno}: field {key!r} must be a string"
                )
            fields[key] = value
        index = obj.get("index", position)
        if not isinstance(index, int) or index < 0:
            raise InvalidInputError(
                f"{path}:{lineno}: 'index' must be a non-negative integer"
            )
        if index in seen:
            raise InvalidInputError(f"{path}:{lineno}: duplicate index {index}")
        seen.add(index)
        label = obj.get("label")
        if label is not None and not isinstance(label, str):
            raise InvalidInputError(f"{path}:{lineno}: 'label' must be a string")
        out.append(Example(index=index, fields=fields, label=label))
        position += 1
    if not out:
        raise InvalidInputError(f"{path}: dataset is empty")
    return out
