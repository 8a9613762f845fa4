"""Task configuration: one JSON document describing data, prompts, backends, training.

Two modes. Dataset mode points at JSON Lines splits, declares the field
schema, templates, reward, and backends. Synthetic mode just references a
scenario file; data, encoder, and scoring all come from the generated
environment. Validation is strictly offline: a config with an unresolvable
template placeholder or a missing file is rejected before any network call.
"""

from __future__ import annotations

import dataclasses
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .encoder import CachingEncoder, EncoderBackend, HashEncoder, RemoteEncoder
from .engine import BASELINES, Scorer, TrainConfig
from .errors import ConfigError, InvalidInputError, PoemError, read_json_object
from .prompts import LABEL_PLACEHOLDER, PromptSpec, Template, placeholders
from .rewards import LMOracle, RemoteLM, RewardConfig
from .selection import Example, InContextSet, build_in_context_set, load_examples
from .simenv import SyntheticOracle, landscape_from_scenario, load_scenario, task_from_scenario

_TRAIN_KEYS = {field.name for field in dataclasses.fields(TrainConfig)}


@dataclass
class TaskConfig:
    """A validated configuration document plus its resolved pieces."""

    path: Path
    train: TrainConfig
    capacity: int | None
    eval_baselines: tuple[str, ...]
    # the parsed scenario: the task in synthetic mode, a synthetic LM's landscape otherwise
    scenario: dict | None = None
    # dataset mode
    dataset_paths: dict[str, Path] | None = None
    retrieval_fields: tuple[str, ...] | None = None
    label_space: tuple[str, ...] | None = None
    prompt_spec: PromptSpec | None = None
    reward: RewardConfig | None = None
    encoder_spec: dict | None = None
    lm_spec: dict | None = None

    @property
    def synthetic(self) -> bool:
        return self.dataset_paths is None


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p)


def parse_train(raw: dict, where: str) -> TrainConfig:
    unknown = set(raw) - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown train keys {sorted(unknown)}")
    try:
        return TrainConfig(**raw)
    except InvalidInputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_templates(raw: dict, fields: Sequence[str], where: str) -> PromptSpec:
    if not isinstance(raw.get("example"), str):
        raise ConfigError(f"{where}: templates.example must be a string")
    answer_choices = raw.get("answer_choices")
    if answer_choices is not None and (
        not isinstance(answer_choices, dict)
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in answer_choices.items())
    ):
        raise ConfigError(f"{where}: templates.answer_choices must map labels to strings")
    allowed = set(fields) | {LABEL_PLACEHOLDER}

    def checked(pattern: str, label: str) -> Template:
        try:
            names = placeholders(pattern)
        except PoemError as exc:
            raise ConfigError(f"{where}: templates.{label}: {exc}") from exc
        bad = [n for n in names if n not in allowed]
        if bad:
            raise ConfigError(
                f"{where}: templates.{label} uses placeholders {bad} "
                f"not among the declared fields {sorted(fields)}"
            )
        return Template(pattern, answer_choices=answer_choices)

    template = checked(raw["example"], "example")
    query_template = None
    if raw.get("query") is not None:
        if not isinstance(raw["query"], str):
            raise ConfigError(f"{where}: templates.query must be a string")
        query_template = checked(raw["query"], "query")
    task_description = raw.get("task_description")
    if task_description is not None and not isinstance(task_description, str):
        raise ConfigError(f"{where}: templates.task_description must be a string")
    separator = raw.get("separator", "\n")
    if not isinstance(separator, str) or separator == "":
        raise ConfigError(f"{where}: templates.separator must be a non-empty string")
    return PromptSpec(
        template=template,
        query_template=query_template,
        task_description=task_description,
        separator=separator,
    )


def load_task_config(path: str | Path) -> TaskConfig:
    """Read and fully validate a task configuration document."""
    return parse_task_config(read_json_object(path, "config", ConfigError), path)


def parse_task_config(raw: dict, path: str | Path) -> TaskConfig:
    """Validate a configuration document; its relative paths resolve against path's folder."""
    path = Path(path)
    base = path.parent
    if not isinstance(raw.get("name", ""), str):
        raise ConfigError(f"{path}: 'name' must be a string")

    train_raw = raw.get("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError(f"{path}: 'train' must be an object")

    capacity = raw.get("capacity")
    if capacity is not None and (type(capacity) is not int or capacity < 1):
        raise ConfigError(f"{path}: 'capacity' must be a positive integer")

    eval_raw = raw.get("eval", {})
    if not isinstance(eval_raw, dict):
        raise ConfigError(f"{path}: 'eval' must be an object")
    baselines = eval_raw.get("baselines", list(BASELINES))
    if not isinstance(baselines, list):
        raise ConfigError(f"{path}: eval.baselines must be a list of baseline names")
    for b in baselines:
        if b not in BASELINES:
            raise ConfigError(f"{path}: eval.baselines: unknown baseline {b!r}")
    common = {"path": path, "capacity": capacity, "eval_baselines": tuple(baselines)}

    if "synthetic" in raw:
        if "datasets" in raw:
            raise ConfigError(f"{path}: give either 'synthetic' or 'datasets', not both")
        synth = raw["synthetic"]
        if not isinstance(synth, dict) or not isinstance(synth.get("scenario"), str):
            raise ConfigError(f"{path}: 'synthetic.scenario' must be a path string")
        scenario = load_scenario(_resolve(base, synth["scenario"]))
        scenario_train = dict(scenario.get("train", {}))
        scenario_train.setdefault("m", scenario["m"])
        scenario_train.update(train_raw)
        train = parse_train(scenario_train, str(path))
        if train.m != scenario["m"]:
            raise ConfigError(
                f"{path}: train.m={train.m} does not match the scenario's m={scenario['m']}"
            )
        return TaskConfig(**common, train=train, scenario=scenario)

    # dataset mode
    datasets = raw.get("datasets")
    if not isinstance(datasets, dict) or not isinstance(datasets.get("train"), str) \
            or not isinstance(datasets.get("ic"), str):
        raise ConfigError(f"{path}: 'datasets' must declare at least 'train' and 'ic' paths")
    dataset_paths = {}
    for split, rel in datasets.items():
        if split not in ("train", "ic", "test"):
            raise ConfigError(f"{path}: datasets.{split}: unknown split")
        if not isinstance(rel, str):
            raise ConfigError(f"{path}: datasets.{split} must be a path string")
        resolved = _resolve(base, rel)
        if not resolved.exists():
            raise ConfigError(f"{path}: datasets.{split}: no such file: {resolved}")
        dataset_paths[split] = resolved

    fields = raw.get("fields")
    if not isinstance(fields, list) or not fields \
            or not all(isinstance(f, str) for f in fields):
        raise ConfigError(f"{path}: 'fields' must be a non-empty list of field names")

    retrieval = raw.get("retrieval_field")
    if isinstance(retrieval, str):
        retrieval_fields = (retrieval,)
    elif isinstance(retrieval, list) and retrieval \
            and all(isinstance(f, str) for f in retrieval):
        retrieval_fields = tuple(retrieval)
    else:
        raise ConfigError(f"{path}: 'retrieval_field' must be a field name or list of them")
    for f in retrieval_fields:
        if f not in fields:
            raise ConfigError(f"{path}: retrieval_field {f!r} is not a declared field")

    label_space = raw.get("label_space")
    if label_space is not None:
        if not isinstance(label_space, list) or len(label_space) < 1 \
                or not all(isinstance(l, str) for l in label_space):
            raise ConfigError(f"{path}: 'label_space' must be a list of label strings")
        if len(set(label_space)) != len(label_space):
            raise ConfigError(f"{path}: 'label_space' has duplicate labels")
        label_space = tuple(sorted(label_space))

    templates = raw.get("templates")
    if not isinstance(templates, dict):
        raise ConfigError(f"{path}: 'templates' must be an object")
    prompt_spec = _parse_templates(templates, fields, str(path))

    reward_raw = raw.get("reward", {})
    if not isinstance(reward_raw, dict):
        raise ConfigError(f"{path}: 'reward' must be an object")
    try:
        reward = RewardConfig(**reward_raw)
    except (TypeError, InvalidInputError) as exc:
        raise ConfigError(f"{path}: reward: {exc}") from exc

    encoder_spec = raw.get("encoder", {"backend": "hash", "dim": 64, "seed": 0})
    if not isinstance(encoder_spec, dict) or encoder_spec.get("backend") not in ("hash", "remote"):
        raise ConfigError(f"{path}: encoder.backend must be 'hash' or 'remote'")
    if encoder_spec["backend"] == "hash":
        dim = encoder_spec.get("dim", 64)
        if not isinstance(dim, int) or dim < 2:
            raise ConfigError(f"{path}: encoder.dim must be an integer >= 2")
        seed = encoder_spec.get("seed", 0)
        if type(seed) is not int or not -2**63 <= seed < 2**63:
            raise ConfigError(f"{path}: encoder.seed must be a 64-bit integer")

    lm_spec = raw.get("lm")
    if not isinstance(lm_spec, dict) or lm_spec.get("backend") not in ("remote", "synthetic"):
        raise ConfigError(f"{path}: lm.backend must be 'remote' or 'synthetic'")
    for section, spec in (("encoder", encoder_spec), ("lm", lm_spec)):
        url = spec.get("url")
        if not isinstance(url, (str, type(None))):
            raise ConfigError(f"{path}: {section}.url must be a string")
        if url is not None and not _http_url(url):
            raise ConfigError(f"{path}: {section}.url must be an http(s) URL with a host, "
                              f"got {url!r}")
    scenario = None
    if lm_spec["backend"] == "synthetic":
        if not isinstance(lm_spec.get("scenario"), str):
            raise ConfigError(f"{path}: lm.scenario must point at a scenario file")
        scenario = load_scenario(_resolve(base, lm_spec["scenario"]))
    elif reward.kind == "classification" and label_space is None:
        # the remote scorer needs the label strings to request log-probs for
        raise ConfigError(f"{path}: classification reward needs a 'label_space'")

    train = parse_train(train_raw, str(path))
    return TaskConfig(
        **common,
        train=train,
        scenario=scenario,
        dataset_paths=dataset_paths,
        retrieval_fields=retrieval_fields,
        label_space=label_space,
        prompt_spec=prompt_spec,
        reward=reward,
        encoder_spec=encoder_spec,
        lm_spec=lm_spec,
    )


def _http_url(url: str) -> bool:
    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError:  # an unclosed IPv6 bracket, say
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


# A neutral prompt shape for synthetic runs: the raw text per segment.
SYNTHETIC_PROMPT = PromptSpec(template=Template("{text}"))


@dataclass
class TaskRuntime:
    """Everything the engine needs, constructed from a TaskConfig."""

    config: TaskConfig
    d_train: list[Example]
    ic: InContextSet
    d_test: list[Example] | None
    encoder: EncoderBackend
    scorer: Scorer | None
    prompt_spec: PromptSpec

    @property
    def oracle(self) -> Scorer | None:
        """The scorer, under the name training code uses for it."""
        return self.scorer

    @property
    def capacity(self) -> int:
        return self.config.capacity or len(self.d_train)


def build_runtime(config: TaskConfig, *, need_scoring: bool = True) -> TaskRuntime:
    """Load data and construct backends for a validated config.

    With need_scoring=False the LM side is skipped entirely (no endpoint
    required), which is all prompt-ordering commands need.
    """
    if config.synthetic:
        task = task_from_scenario(config.scenario)
        d_train, ic, d_test, encoder = task.train, task.ic, task.test, task.encoder
        scorer: Scorer | None = SyntheticOracle(task.landscape)
        prompt_spec = SYNTHETIC_PROMPT
    else:
        d_train = load_examples(config.dataset_paths["train"])
        ic_examples = load_examples(config.dataset_paths["ic"])
        d_test = (
            load_examples(config.dataset_paths["test"])
            if "test" in config.dataset_paths
            else None
        )
        spec = config.encoder_spec
        if spec["backend"] == "hash":
            encoder: EncoderBackend = HashEncoder(spec.get("dim", 64), spec.get("seed", 0))
        else:
            encoder = RemoteEncoder(spec.get("url"))
        encoder = CachingEncoder(encoder)
        ic = build_in_context_set(ic_examples, encoder, config.retrieval_fields, config.label_space)
        scorer = _lm_scorer(config) if need_scoring else None
        prompt_spec = config.prompt_spec
    return TaskRuntime(config, d_train, ic, d_test, encoder, scorer, prompt_spec)


def _lm_scorer(config: TaskConfig) -> Scorer:
    if config.lm_spec["backend"] == "synthetic":
        scenario = config.scenario
        if int(scenario["m"]) != config.train.m:
            raise ConfigError(
                f"{config.path}: lm scenario m={scenario['m']} != train.m={config.train.m}"
            )
        return SyntheticOracle(landscape_from_scenario(scenario))
    return LMOracle(RemoteLM(config.lm_spec.get("url")), config.reward, config.label_space)
