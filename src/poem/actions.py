"""Ordering actions: permutations of similarity ranks.

A prompt with m demonstrations is described by which similarity rank lands
in each slot, not by which concrete example does. Rank 1 is the example
closest to the query; slot 0 is the first demonstration in the prompt. The
identity action (1, 2, ..., m) therefore reads "closest first", i.e. the
descending-similarity heuristic, and (m, ..., 2, 1) is ascending.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Sequence, TypeVar

from .errors import InvalidInputError

# m! explodes quickly; 8! = 40320 is the most actions we enumerate or rank.
DEFAULT_MAX_M = 8

_ACTION_KEY = re.compile(r"[1-9][0-9]*(?:-[1-9][0-9]*)*")

T = TypeVar("T")


@dataclass(frozen=True, order=True)
class Action:
    """ranks[i] is the similarity rank of the example placed at prompt slot i."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if not ranks or sorted(ranks) != list(range(1, len(ranks) + 1)):
            raise InvalidInputError(f"ranks must be a permutation of 1..m, got {self.ranks!r}")
        object.__setattr__(self, "ranks", ranks)

    @property
    def m(self) -> int:
        return len(self.ranks)


def identity_action(m: int) -> Action:
    """(1, 2, ..., m): demonstrations in descending-similarity order."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    return Action(tuple(range(1, m + 1)))


def reversal_action(m: int) -> Action:
    """(m, ..., 2, 1): demonstrations in ascending-similarity order."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    return Action(tuple(range(m, 0, -1)))


def check_enumerable(m: int) -> None:
    """Raise InvalidInputError unless 1 <= m <= DEFAULT_MAX_M."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if m > DEFAULT_MAX_M:
        raise InvalidInputError(
            f"m={m} exceeds the enumeration ceiling of {DEFAULT_MAX_M} (m! actions)"
        )


def enumerate_actions(m: int) -> list[Action]:
    """All m! actions in lexicographic order of their rank vectors."""
    check_enumerable(m)
    return [Action(perm) for perm in itertools.permutations(range(1, m + 1))]


def reorder(canonical: Sequence[T], action: Action) -> list[T]:
    """Rearrange a canonically ordered list (rank 1 first) according to an action.

    Output slot i receives the element whose similarity rank is
    action.ranks[i]; the identity action returns the input order.
    """
    if len(canonical) != action.m:
        raise InvalidInputError(
            f"action covers {action.m} slots but got {len(canonical)} examples"
        )
    return [canonical[rank - 1] for rank in action.ranks]


def action_key(action: Action) -> str:
    """Canonical string form, e.g. (1,2,3,4) -> "1-2-3-4". Injective."""
    return "-".join(str(r) for r in action.ranks)


def parse_action_key(key: str) -> Action:
    """Inverse of action_key; raises InvalidInputError on anything else."""
    if not _ACTION_KEY.fullmatch(key):  # also "01-2" and " 1-2", which action_key never makes
        raise InvalidInputError(f"malformed action key {key!r}")
    return Action(tuple(map(int, key.split("-"))))
