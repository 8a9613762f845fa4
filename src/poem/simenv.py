"""Synthetic order-sensitive environment with an exact brute-force oracle.

Every algorithmic claim in this package can be checked offline against this
environment: it scores an ordering directly as a position-weighted sum of
query/demonstration affinities, so the optimal permutation is known in
closed form (rearrangement: sort affinities against the weights). With
strictly decreasing positive weights the unique noiseless optimum is the
identity action; flip the weights and the optimum reverses. Generated tasks
plant clustered embeddings so nearest-neighbor transfer from training
states to test states is meaningful.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .actions import DEFAULT_MAX_M, Action, enumerate_actions
from .encoder import Embedding, cosine_similarity
from .errors import ConfigError, InvalidInputError, read_json_object
from .selection import Example, InContextSet

SCENARIO_VERSION = 1

PREFERENCES = ("descending", "ascending", "custom")


def _finite(value) -> bool:  # a bool is not a number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class BiasLandscape:
    """How much each prompt slot matters, plus optional evaluation noise."""

    position_weights: tuple[float, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        weights = self.position_weights
        if isinstance(weights, str) or not isinstance(weights, Sequence) or not weights \
                or not all(map(_finite, weights)):
            raise InvalidInputError("position_weights must be a non-empty list of finite numbers")
        if not _finite(self.noise_sigma) or self.noise_sigma < 0:
            raise InvalidInputError("noise_sigma must be a finite number >= 0")
        # the noise hash packs the seed as a signed 64-bit integer
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or not -2**63 <= self.seed < 2**63:
            raise InvalidInputError(f"seed must be a 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "position_weights", tuple(float(w) for w in weights))
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))

    @property
    def m(self) -> int:
        return len(self.position_weights)

    @classmethod
    def descending(cls, m: int, *, noise_sigma: float = 0.0, seed: int = 0) -> "BiasLandscape":
        """Slot 0 matters most: the identity (closest-first) action is optimal."""
        return cls(range(m, 0, -1), noise_sigma, seed)

    @classmethod
    def ascending(cls, m: int, *, noise_sigma: float = 0.0, seed: int = 0) -> "BiasLandscape":
        """Slot m-1 matters most: the reversal (farthest-first) action is optimal."""
        return cls(range(1, m + 1), noise_sigma, seed)


def noiseless_reward(landscape: BiasLandscape, s: Embedding, ordered: Sequence[Example]) -> float:
    """Position-weighted sum of cosine affinities between the query and each slot."""
    if len(ordered) != landscape.m:
        raise InvalidInputError(
            f"landscape covers {landscape.m} slots but got {len(ordered)} examples"
        )
    total = 0.0
    for weight, example in zip(landscape.position_weights, ordered):
        total += weight * cosine_similarity(s, example.embedding)
    return total


def noise_component(landscape: BiasLandscape, s: Embedding, ordered: Sequence[Example]) -> float:
    """Seeded Gaussian noise, a pure function of (landscape, state, ordering)."""
    if landscape.noise_sigma == 0.0:
        return 0.0
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(struct.pack("<q", landscape.seed))
    hasher.update(s.values.tobytes())
    for example in ordered:
        hasher.update(struct.pack("<q", example.index))
    rng = np.random.default_rng(int.from_bytes(hasher.digest(), "little"))
    return float(rng.normal(0.0, landscape.noise_sigma))


def synth_reward(landscape: BiasLandscape, s: Embedding, ordered: Sequence[Example]) -> float:
    """Reward of presenting `ordered` for state s; deterministic even with noise."""
    return noiseless_reward(landscape, s, ordered) + noise_component(landscape, s, ordered)


def brute_force_best(
    landscape: BiasLandscape, s: Embedding, t_s: Sequence[Example]
) -> Action:
    """Exact noiseless argmax over all m! orderings; the test oracle.

    The supplied examples are canonicalized (descending similarity, ties by
    ascending index) first, so the result does not depend on their order.
    Exact ties go to the lexicographically smallest action.
    """
    if len(t_s) != landscape.m:
        raise InvalidInputError(
            f"landscape covers {landscape.m} slots but got {len(t_s)} examples"
        )
    sims = {ex.index: cosine_similarity(s, ex.embedding) for ex in t_s}
    canonical = sorted(t_s, key=lambda ex: (-sims[ex.index], ex.index))
    by_rank = np.array([sims[ex.index] for ex in canonical])
    ranks = _rank_table(landscape.m)
    # each action's value, summed slot by slot in the order a scalar loop adds them;
    # huge weights overflow to +-inf as Python floats do, without a warning
    values = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, slot_ranks in zip(landscape.position_weights, ranks):
            values = values + weight * by_rank[slot_ranks]
    # A scalar scan keeps the first action unless a later value is strictly greater,
    # so a NaN (an inf - inf row) wins only in column 0; argmax takes the first maximum.
    later = values[1:]
    later[np.isnan(later)] = -np.inf
    return Action(tuple(ranks[:, int(np.argmax(values))] + 1))


@functools.cache
def _rank_table(m: int) -> np.ndarray:
    """(m, m!) array: column j holds the 0-based ranks of the j-th action in lexicographic
    order, slot by slot. Built once per m; read it, never change it."""
    table = np.array([action.ranks for action in enumerate_actions(m)]).T.copy() - 1
    table.setflags(write=False)
    return table


class PlantedEncoder:
    """Returns pre-assigned vectors by exact text; the generated tasks' encoder."""

    def __init__(self, table: dict[str, Embedding]):
        if not table:
            raise InvalidInputError("planted encoder needs a non-empty table")
        self._table = dict(table)

    def encode(self, texts: Sequence[str]) -> list[Embedding]:
        out = []
        for text in texts:
            emb = self._table.get(text)
            if emb is None:
                raise InvalidInputError(f"no planted embedding for text {text!r}")
            out.append(emb)
        return out


@dataclass
class SyntheticTask:
    """A fully generated train/ic/test split with planted embeddings."""

    landscape: BiasLandscape
    train: list[Example]
    ic: InContextSet
    test: list[Example]
    encoder: PlantedEncoder

    @property
    def m(self) -> int:
        return self.landscape.m


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_task(
    seed: int,
    sizes: dict[str, int],
    g_labels: int,
    *,
    dim: int = 16,
    m: int = 4,
    landscape: BiasLandscape | None = None,
    cluster_spread: float = 0.25,
    test_spread: float = 0.1,
) -> SyntheticTask:
    """Deterministically build a clustered synthetic task.

    One unit-sphere cluster per label; train and in-context examples scatter
    around their label's center with `cluster_spread`, and each test state is
    a `test_spread` perturbation of a random training state, so its nearest
    stored neighbors share its local reward structure.
    """
    for key in ("train", "ic", "test"):
        if key not in sizes or int(sizes[key]) < 1:
            raise InvalidInputError(f"sizes[{key!r}] must be a positive integer")
    if g_labels < 1:
        raise InvalidInputError("g_labels must be >= 1")
    if landscape is None:
        landscape = BiasLandscape.descending(m)
    if landscape.m != m:
        raise InvalidInputError(
            f"landscape covers {landscape.m} slots but m={m} was requested"
        )

    rng = np.random.default_rng(seed)
    labels = tuple(f"g{i}" for i in range(g_labels))
    centers = [_unit(rng.standard_normal(dim)) for _ in range(g_labels)]

    def sample_near(center: np.ndarray, spread: float) -> Embedding:
        return Embedding(_unit(center + spread * rng.standard_normal(dim)))

    table: dict[str, Embedding] = {}

    def make(split: str, i: int, label: str, emb: Embedding) -> Example:
        text = f"{split} sample {i:03d} ({label})"
        table[text] = emb
        return Example(index=i, fields={"text": text}, label=label, embedding=emb)

    train = []
    for i in range(int(sizes["train"])):
        label = labels[i % g_labels]
        train.append(make("train", i, label, sample_near(centers[i % g_labels], cluster_spread)))

    ic_examples = []
    for i in range(int(sizes["ic"])):
        label = labels[i % g_labels]
        ic_examples.append(make("ic", i, label, sample_near(centers[i % g_labels], cluster_spread)))

    test = []
    for i in range(int(sizes["test"])):
        anchor = train[int(rng.integers(len(train)))]
        test.append(make("test", i, anchor.label, sample_near(anchor.embedding.values, test_spread)))

    ic = InContextSet(
        examples=ic_examples,
        retrieval_fields=["text"],
        label_space=labels if g_labels > 1 else None,
    )
    return SyntheticTask(
        landscape=landscape,
        train=train,
        ic=ic,
        test=test,
        encoder=PlantedEncoder(table),
    )


# -- scenario files ----------------------------------------------------------


def load_scenario(path: str | Path) -> dict:
    """Read and validate a scenario JSON document; the landscape is checked by building it."""
    path = Path(path)
    doc = read_json_object(path, "scenario", ConfigError)
    if doc.get("version") != SCENARIO_VERSION:
        raise ConfigError(
            f"{path}: unsupported scenario version {doc.get('version')!r} "
            f"(this build reads version {SCENARIO_VERSION})"
        )
    # exact JSON types: a bool is not a number here; numpy's generator takes no negative seed
    for key, low in (("seed", 0), ("dim", 1), ("labels", 1), ("m", 1)):
        if type(doc.get(key)) is not int:
            raise ConfigError(f"{path}: field {key!r} must be int")
        if doc[key] < low:
            raise ConfigError(f"{path}: field {key!r} must be >= {low}")
    if doc["m"] > DEFAULT_MAX_M:  # no train.m can match it; do not build its landscape
        raise ConfigError(f"{path}: field 'm' must be <= {DEFAULT_MAX_M}")
    sizes = doc.get("sizes")
    if not isinstance(sizes, dict) or not all(
        type(sizes.get(split)) is int and sizes[split] >= 1 for split in ("train", "ic", "test")
    ):
        raise ConfigError(f"{path}: 'sizes' must map train/ic/test to positive integers")
    if not isinstance(doc.get("train", {}), dict):
        raise ConfigError(f"{path}: 'train' must be an object")
    for key in ("cluster_spread", "test_spread"):
        if not _finite(doc.get(key, 0.0)):
            raise ConfigError(f"{path}: {key!r} must be a finite number")
    if not isinstance(doc.get("landscape"), dict):
        raise ConfigError(f"{path}: 'landscape' must be an object")
    try:
        landscape_from_scenario(doc)
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: landscape.{exc}") from exc
    return doc


def landscape_from_scenario(doc: dict) -> BiasLandscape:
    """The landscape a scenario describes; InvalidInputError names the field at fault."""
    land = doc["landscape"]
    m = doc["m"]
    sigma = land.get("noise_sigma", 0.0)
    seed = land.get("seed", doc["seed"])
    preference = land.get("preference", "custom")
    if preference not in PREFERENCES:
        raise InvalidInputError(f"preference must be one of {PREFERENCES}, got {preference!r}")
    if "position_weights" in land:
        weights = land["position_weights"]
        if not isinstance(weights, list) or len(weights) != m:
            raise InvalidInputError(f"position_weights must be a list of m={m} numbers")
        return BiasLandscape(weights, sigma, seed)
    if preference == "descending":
        return BiasLandscape.descending(m, noise_sigma=sigma, seed=seed)
    if preference == "ascending":
        return BiasLandscape.ascending(m, noise_sigma=sigma, seed=seed)
    raise InvalidInputError("position_weights: a custom landscape needs an explicit list")


def task_from_scenario(source: str | Path | dict) -> SyntheticTask:
    """Build the SyntheticTask a scenario file describes."""
    doc = source if isinstance(source, dict) else load_scenario(source)
    return generate_task(
        seed=int(doc["seed"]),
        sizes=doc["sizes"],
        g_labels=int(doc["labels"]),
        dim=int(doc["dim"]),
        m=int(doc["m"]),
        landscape=landscape_from_scenario(doc),
        cluster_spread=float(doc.get("cluster_spread", 0.25)),
        test_spread=float(doc.get("test_spread", 0.1)),
    )


# -- engine adapters ---------------------------------------------------------


class SyntheticOracle:
    """Scorer over the landscape: scores the ordering, ignores the prompt.

    Training rewards carry the landscape's noise. Evaluation scores the
    noiseless reward and whether the action is the exact optimum; that
    optimum is found once per (state, example set) and kept for the
    scorer's lifetime, so its memo grows with the distinct states scored.
    """

    metric_name = "optimal_match"
    waits_on_io = False

    def __init__(self, landscape: BiasLandscape):
        self.landscape = landscape
        self._best: dict[tuple, Action] = {}

    def reward(self, *, prompt: str, state: Embedding, ordered: Sequence[Example],
               truth: str | None) -> float:
        return synth_reward(self.landscape, state, ordered)

    def score(self, *, prompt: str, state: Embedding, ordered: Sequence[Example],
              action: Action | None, truth: str | None) -> tuple[float, bool | None]:
        if not ordered:  # zero-shot: no slots, no signal
            return 0.0, None
        reward = noiseless_reward(self.landscape, state, ordered)
        key = (state, frozenset((ex.index, ex.embedding) for ex in ordered))
        if key not in self._best:
            self._best[key] = brute_force_best(self.landscape, state, ordered)
        return reward, action == self._best[key]


# the evaluation scorer's former name, kept for code written against it
SyntheticEvalScorer = SyntheticOracle
