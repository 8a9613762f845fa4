"""POEM: episodic-memory ordering of in-context examples for LM prompts.

The library learns, per query, which permutation of retrieved few-shot
examples a downstream language model rewards most, stores the best observed
reward per (query, permutation) in a bounded episodic memory, and transfers
that knowledge to unseen queries through similarity-weighted nearest-neighbor
reading. A synthetic order-sensitive environment makes the whole loop
verifiable offline.
"""

from .actions import (
    Action,
    action_key,
    enumerate_actions,
    identity_action,
    parse_action_key,
    reorder,
    reversal_action,
)
from .encoder import (
    CachingEncoder,
    Embedding,
    EncoderBackend,
    HashEncoder,
    RemoteEncoder,
    cosine_similarity,
)
from .engine import (
    BASELINES,
    AggregateReport,
    EvalReport,
    InferenceResult,
    RunReport,
    TrainConfig,
    aggregate_reports,
    epsilon_at,
    epsilon_greedy,
    evaluate,
    infer,
    train,
)
from .errors import (
    BackendError,
    ConfigError,
    InvalidInputError,
    PoemError,
    ProtocolError,
    RenderError,
    SelectionError,
    SnapshotError,
)
from .memory import EpisodicMemory, StateRecord, state_id_for
from .prompts import PromptSpec, Template, build_prompt, render_example, render_query
from .rewards import (
    LMOracle,
    RemoteLM,
    RewardConfig,
    ScoreRequest,
    ScoreResponse,
    classification_reward,
    exact_match_reward,
    reward_from_response,
    score_prompt,
    sequence_reward,
)
from .selection import (
    Example,
    InContextSet,
    build_in_context_set,
    load_examples,
    retrieval_text,
    select_examples,
)
from .simenv import (
    BiasLandscape,
    PlantedEncoder,
    SyntheticOracle,
    SyntheticTask,
    brute_force_best,
    generate_task,
    noise_component,
    noiseless_reward,
    synth_reward,
    task_from_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AggregateReport",
    "BASELINES",
    "BackendError",
    "BiasLandscape",
    "CachingEncoder",
    "ConfigError",
    "Embedding",
    "EncoderBackend",
    "EpisodicMemory",
    "EvalReport",
    "Example",
    "HashEncoder",
    "InContextSet",
    "InferenceResult",
    "InvalidInputError",
    "LMOracle",
    "PlantedEncoder",
    "PoemError",
    "PromptSpec",
    "ProtocolError",
    "RemoteEncoder",
    "RemoteLM",
    "RenderError",
    "RewardConfig",
    "RunReport",
    "ScoreRequest",
    "ScoreResponse",
    "SelectionError",
    "SnapshotError",
    "StateRecord",
    "SyntheticOracle",
    "SyntheticTask",
    "Template",
    "TrainConfig",
    "action_key",
    "aggregate_reports",
    "brute_force_best",
    "build_in_context_set",
    "build_prompt",
    "classification_reward",
    "cosine_similarity",
    "enumerate_actions",
    "epsilon_at",
    "epsilon_greedy",
    "evaluate",
    "exact_match_reward",
    "generate_task",
    "identity_action",
    "infer",
    "load_examples",
    "noise_component",
    "noiseless_reward",
    "parse_action_key",
    "render_example",
    "render_query",
    "reorder",
    "retrieval_text",
    "reversal_action",
    "reward_from_response",
    "score_prompt",
    "select_examples",
    "sequence_reward",
    "state_id_for",
    "synth_reward",
    "task_from_scenario",
    "train",
]
