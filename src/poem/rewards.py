"""Reward arithmetic and LM scoring backends.

Three reward shapes cover the downstream tasks: a margin between the true
label's log-probability and the strongest rival (classification), the same
margin over summed token log-probabilities (sequence generation, the rival
sequence supplied by the backend), and binary exact match. The scoring
backend is a wire contract so any LM service can sit behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from . import wire
from .errors import InvalidInputError, ProtocolError, check_field_types

REWARD_KINDS = ("classification", "sequence", "exact_match")

DEFAULT_LAMBDA1 = 2.0  # weight on the ground-truth term
DEFAULT_LAMBDA2 = 1.8  # weight on the strongest rival term

# request mode on the wire per reward kind
_MODES = {"classification": "classify", "sequence": "sequence", "exact_match": "generate"}


@dataclass(frozen=True)
class RewardConfig:
    kind: str = "classification"
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    normalize_exact_match: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in REWARD_KINDS:
            raise InvalidInputError(f"reward kind must be one of {REWARD_KINDS}, got {self.kind!r}")
        if not (0 < self.lambda1 < math.inf and 0 < self.lambda2 < math.inf):
            raise InvalidInputError("lambda1 and lambda2 must be positive and finite")


def _check_finite(name: str, values) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise InvalidInputError(f"{name} must be finite numbers, got {v!r}")


def classification_reward(
    cfg: RewardConfig, truth_label: str, scores: Mapping[str, float]
) -> float:
    """lambda1 * logP(truth) - lambda2 * max over other labels of logP."""
    if len(scores) < 2:
        raise InvalidInputError(f"need log-probs for at least two labels, got {len(scores)}")
    if truth_label not in scores:
        raise InvalidInputError(f"truth label {truth_label!r} missing from scores")
    _check_finite("label log-probs", scores.values())
    best_rival = max(v for label, v in scores.items() if label != truth_label)
    return cfg.lambda1 * scores[truth_label] - cfg.lambda2 * best_rival


def sequence_reward(
    cfg: RewardConfig,
    truth_logprobs: Sequence[float],
    rival_logprobs: Sequence[float],
) -> float:
    """Summed-token analog of the classification margin.

    The rival is the backend's own highest-probability competing sequence;
    the client never enumerates candidates.
    """
    if not truth_logprobs or not rival_logprobs:
        raise InvalidInputError("truth and rival token log-prob lists must be non-empty")
    _check_finite("truth log-probs", truth_logprobs)
    _check_finite("rival log-probs", rival_logprobs)
    return cfg.lambda1 * sum(truth_logprobs) - cfg.lambda2 * sum(rival_logprobs)


def normalize_answer(text: str) -> str:
    """Default exact-match normalization: trim outer whitespace, casefold."""
    return text.strip().casefold()


def exact_match_reward(truth: str, generated: str, *, normalize: bool = True) -> float:
    """1.0 iff the generated answer equals the truth (after normalization), else 0.0."""
    if normalize:
        return 1.0 if normalize_answer(truth) == normalize_answer(generated) else 0.0
    return 1.0 if truth == generated else 0.0


# -- scoring backends ------------------------------------------------------


@dataclass(frozen=True)
class ScoreRequest:
    prompt: str
    mode: str  # "classify" | "sequence" | "generate"
    labels: tuple[str, ...] | None = None
    truth: str | None = None


@dataclass(frozen=True)
class ScoreResponse:
    per_label_logprob: dict[str, float] | None = None
    truth_logprobs: tuple[float, ...] | None = None
    rival_logprobs: tuple[float, ...] | None = None
    generated_text: str | None = None


class ScoringBackend(Protocol):
    def score(self, request: ScoreRequest) -> ScoreResponse: ...


def score_prompt(backend: ScoringBackend, request: ScoreRequest) -> ScoreResponse:
    """Score a prompt and validate the response against the request mode."""
    if not request.prompt:
        raise InvalidInputError("prompt must be non-empty")
    if request.mode not in _MODES.values():
        raise InvalidInputError(f"unknown request mode {request.mode!r}")
    response = backend.score(request)
    _check_response(request, response)
    return response


def _check_response(request: ScoreRequest, response: ScoreResponse) -> None:
    if request.mode == "classify":
        got = response.per_label_logprob
        if got is None:
            raise ProtocolError("classify response is missing 'per_label_logprob'")
        for label in request.labels or ():
            if label not in got:
                raise ProtocolError(f"classify response has no log-prob for label {label!r}")
            if not math.isfinite(got[label]):
                raise ProtocolError(f"log-prob for label {label!r} is not finite")
    elif request.mode == "sequence":
        if not response.truth_logprobs:
            raise ProtocolError("sequence response is missing 'truth_logprobs'")
        if not response.rival_logprobs:
            raise ProtocolError("sequence response is missing 'rival_logprobs'")
    elif request.mode == "generate":
        if response.generated_text is None:
            raise ProtocolError("generate response is missing 'generated_text'")


def reward_from_response(cfg: RewardConfig, truth: str, response: ScoreResponse) -> float:
    """Turn a validated ScoreResponse into a scalar reward per the config's kind."""
    if cfg.kind == "classification":
        if response.per_label_logprob is None:
            raise ProtocolError("classification reward needs 'per_label_logprob'")
        return classification_reward(cfg, truth, response.per_label_logprob)
    if cfg.kind == "sequence":
        if response.truth_logprobs is None or response.rival_logprobs is None:
            raise ProtocolError("sequence reward needs truth and rival log-probs")
        return sequence_reward(cfg, response.truth_logprobs, response.rival_logprobs)
    if response.generated_text is None:
        raise ProtocolError("exact-match reward needs 'generated_text'")
    return exact_match_reward(truth, response.generated_text, normalize=cfg.normalize_exact_match)


class RemoteLM(wire.Endpoint):
    """HTTP scoring backend.

    Wire contract: POST {"prompt": "...", "mode": "classify|sequence|generate",
    "labels": [...]?, "truth": "..."?}; the service answers with any of
    {"per_label_logprob": {...}, "truth_logprobs": [...], "rival_logprobs":
    [...], "generated_text": "..."}. Transient failures are retried with
    exponential backoff; a payload with wrong types is a protocol error. The
    endpoint comes from the constructor or POEM_LM_URL.
    """

    url_env = "POEM_LM_URL"
    service = "LM"

    def score(self, request: ScoreRequest) -> ScoreResponse:
        payload: dict = {"prompt": request.prompt, "mode": request.mode}
        if request.labels is not None:
            payload["labels"] = list(request.labels)
        if request.truth is not None:
            payload["truth"] = request.truth
        return _parse_response(self.post(payload))


class LMOracle:
    """Scorer backed by a scoring LM: training rewards and evaluation scores.

    Both send one request and turn its response into the configured reward.
    Evaluation correctness per kind: classification compares the argmax
    label (ties to the lexicographically first) to the truth, sequence
    checks the truth sequence outscores the backend's rival, exact match is
    the reward itself.
    """

    def __init__(self, backend: ScoringBackend, cfg: RewardConfig,
                 labels: Sequence[str] | None = None):
        if cfg.kind == "classification" and not labels:
            raise InvalidInputError("classification scoring needs the label space")
        self.backend = backend
        self.cfg = cfg
        self.labels = tuple(labels) if labels is not None else None
        self.metric_name = "exact_match" if cfg.kind == "exact_match" else "accuracy"

    def _respond(self, prompt: str, truth: str | None) -> tuple[float, ScoreResponse]:
        if truth is None:
            raise InvalidInputError("LM scoring needs a ground-truth label")
        request = ScoreRequest(prompt, _MODES[self.cfg.kind], self.labels, truth)
        response = score_prompt(self.backend, request)
        return reward_from_response(self.cfg, truth, response), response

    def reward(self, *, prompt, state, ordered, truth) -> float:
        return self._respond(prompt, truth)[0]

    def score(self, *, prompt, state, ordered, action, truth) -> tuple[float, bool | None]:
        reward, response = self._respond(prompt, truth)
        if self.cfg.kind == "classification":
            scores = response.per_label_logprob
            predicted = max(sorted(scores), key=lambda label: scores[label])
            correct = predicted == truth
        elif self.cfg.kind == "sequence":
            correct = sum(response.truth_logprobs) >= sum(response.rival_logprobs)
        else:
            correct = reward == 1.0
        return reward, correct


# the evaluation scorer's former name, kept for code written against it
LMEvalScorer = LMOracle


def _parse_response(data: dict) -> ScoreResponse:
    per_label = data.get("per_label_logprob")
    if per_label is not None:
        if not isinstance(per_label, dict):
            raise ProtocolError("'per_label_logprob' must be an object")
        parsed = {}
        for label, value in per_label.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ProtocolError(f"log-prob for label {label!r} must be a finite number")
            parsed[str(label)] = float(value)
        per_label = parsed

    def logprob_list(key: str) -> tuple[float, ...] | None:
        raw = data.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(f"'{key}' must be a non-empty list of numbers")
        values = []
        for v in raw:
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ProtocolError(f"'{key}' entries must be finite numbers, got {v!r}")
            values.append(float(v))
        return tuple(values)

    generated = data.get("generated_text")
    if generated is not None and not isinstance(generated, str):
        raise ProtocolError("'generated_text' must be a string")

    return ScoreResponse(
        per_label_logprob=per_label,
        truth_logprobs=logprob_list("truth_logprobs"),
        rival_logprobs=logprob_list("rival_logprobs"),
        generated_text=generated,
    )
