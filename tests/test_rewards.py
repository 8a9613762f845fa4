import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poem import (
    LMOracle,
    RewardConfig,
    ScoreRequest,
    ScoreResponse,
    classification_reward,
    exact_match_reward,
    reward_from_response,
    score_prompt,
    sequence_reward,
)
from poem import rewards
from poem.errors import InvalidInputError, ProtocolError
from poem.rewards import normalize_answer

DEFAULTS = RewardConfig()


class TestRewardConfig:
    def test_published_defaults(self):
        assert DEFAULTS.lambda1 == 2.0
        assert DEFAULTS.lambda2 == 1.8

    def test_lambdas_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            RewardConfig(lambda1=0.0)
        with pytest.raises(InvalidInputError):
            RewardConfig(lambda2=-1.0)

    def test_kind_validated(self):
        with pytest.raises(InvalidInputError):
            RewardConfig(kind="regression")


class TestClassificationReward:
    def test_hand_value(self):
        # hand evaluation with the default lambdas: 2*(-0.1) - 1.8*(-2.3) = 3.94
        scores = {"great": -0.1, "terrible": -2.3}
        expected = 2.0 * (-0.1) - 1.8 * (-2.3)
        got = classification_reward(DEFAULTS, "great", scores)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(3.94, abs=1e-9)

    def test_symmetric_coin_flip(self):
        # both labels at log(1/2): reward collapses to (lambda2-lambda1)*0.693
        scores = {"yes": -0.693, "no": -0.693}
        got = classification_reward(DEFAULTS, "yes", scores)
        assert got == pytest.approx(2.0 * (-0.693) - 1.8 * (-0.693), abs=1e-12)
        assert got == pytest.approx(-0.1386, abs=1e-9)

    def test_equal_lambdas_cancel(self):
        cfg = RewardConfig(lambda1=1.0, lambda2=1.0)
        assert classification_reward(cfg, "a", {"a": -0.4, "b": -0.4}) == 0.0

    def test_rival_is_best_of_the_others(self):
        scores = {"a": -1.0, "b": -3.0, "c": -0.5, "d": -9.0}
        got = classification_reward(DEFAULTS, "a", scores)
        assert got == pytest.approx(2.0 * (-1.0) - 1.8 * (-0.5))

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            classification_reward(DEFAULTS, "a", {"a": -0.1})  # < 2 labels
        with pytest.raises(InvalidInputError):
            classification_reward(DEFAULTS, "missing", {"a": -0.1, "b": -0.2})
        with pytest.raises(InvalidInputError):
            classification_reward(DEFAULTS, "a", {"a": math.nan, "b": -0.2})

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-10, max_value=0),
        st.floats(min_value=-10, max_value=0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_strictly_monotone(self, truth_lp, rival_lp, bump):
        base = classification_reward(DEFAULTS, "t", {"t": truth_lp, "r": rival_lp})
        better_truth = classification_reward(DEFAULTS, "t", {"t": truth_lp + bump, "r": rival_lp})
        worse_rival = classification_reward(DEFAULTS, "t", {"t": truth_lp, "r": rival_lp + bump})
        assert better_truth > base
        assert worse_rival < base

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-10, max_value=-1e-6),
        st.floats(min_value=-10, max_value=-1e-6),
    )
    def test_equal_lambdas_sign_iff_correct(self, truth_lp, rival_lp):
        # with lambda1 == lambda2 the reward is positive exactly when the
        # model's top-1 equals the truth (ties give zero)
        cfg = RewardConfig(lambda1=1.5, lambda2=1.5)
        got = classification_reward(cfg, "t", {"t": truth_lp, "r": rival_lp})
        if truth_lp > rival_lp:
            assert got > 0
        elif truth_lp < rival_lp:
            assert got < 0
        else:
            assert got == 0


class TestSequenceReward:
    def test_hand_value(self):
        # 2*(-0.1 - 0.2) - 1.8*(-1.0) = 1.2
        got = sequence_reward(DEFAULTS, [-0.1, -0.2], [-1.0])
        assert got == pytest.approx(2.0 * (-0.3) - 1.8 * (-1.0), abs=1e-12)
        assert got == pytest.approx(1.2, abs=1e-9)

    def test_identical_sequences_cancel_with_equal_lambdas(self):
        cfg = RewardConfig(kind="sequence", lambda1=1.0, lambda2=1.0)
        assert sequence_reward(cfg, [-0.3, -0.4], [-0.3, -0.4]) == 0.0

    def test_single_token_reduces_to_classification(self):
        truth_lp, rival_lp = -0.2, -1.7
        seq = sequence_reward(DEFAULTS, [truth_lp], [rival_lp])
        clf = classification_reward(DEFAULTS, "t", {"t": truth_lp, "r": rival_lp})
        assert seq == pytest.approx(clf, abs=1e-12)

    def test_empty_lists_rejected(self):
        with pytest.raises(InvalidInputError):
            sequence_reward(DEFAULTS, [], [-1.0])
        with pytest.raises(InvalidInputError):
            sequence_reward(DEFAULTS, [-1.0], [])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            sequence_reward(DEFAULTS, [-1.0, math.inf], [-1.0])


class TestExactMatchReward:
    def test_identity(self):
        assert exact_match_reward("Paris", "Paris") == 1.0

    def test_normalized_match(self):
        assert exact_match_reward("Paris", " paris ") == 1.0

    def test_mismatch(self):
        assert exact_match_reward("Paris", "London") == 0.0

    def test_normalization_can_be_disabled(self):
        assert exact_match_reward("Paris", " paris ", normalize=False) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30), st.text(max_size=30))
    def test_idempotent_under_own_normalization(self, truth, generated):
        direct = exact_match_reward(truth, generated)
        renormalized = exact_match_reward(normalize_answer(truth), normalize_answer(generated))
        assert direct == renormalized


class _StaticBackend:
    id = "static"

    def __init__(self, response):
        self.response = response
        self.requests = []

    def score(self, request):
        self.requests.append(request)
        return self.response


class TestScorePrompt:
    def test_classify_roundtrip(self):
        backend = _StaticBackend(ScoreResponse(per_label_logprob={"a": -0.1, "b": -2.0}))
        req = ScoreRequest(prompt="p", mode="classify", labels=("a", "b"), truth="a")
        resp = score_prompt(backend, req)
        assert reward_from_response(DEFAULTS, "a", resp) == pytest.approx(
            2.0 * (-0.1) - 1.8 * (-2.0)
        )

    def test_missing_per_label_field_is_protocol_error(self):
        backend = _StaticBackend(ScoreResponse(generated_text="whatever"))
        req = ScoreRequest(prompt="p", mode="classify", labels=("a", "b"), truth="a")
        with pytest.raises(ProtocolError, match="per_label_logprob"):
            score_prompt(backend, req)

    def test_missing_label_entry_is_protocol_error(self):
        backend = _StaticBackend(ScoreResponse(per_label_logprob={"a": -0.1}))
        req = ScoreRequest(prompt="p", mode="classify", labels=("a", "b"), truth="a")
        with pytest.raises(ProtocolError, match="'b'"):
            score_prompt(backend, req)

    def test_sequence_requires_both_lists(self):
        backend = _StaticBackend(ScoreResponse(truth_logprobs=(-0.1,)))
        req = ScoreRequest(prompt="p", mode="sequence", truth="x")
        with pytest.raises(ProtocolError, match="rival_logprobs"):
            score_prompt(backend, req)

    def test_generate_requires_text(self):
        backend = _StaticBackend(ScoreResponse())
        req = ScoreRequest(prompt="p", mode="generate", truth="x")
        with pytest.raises(ProtocolError, match="generated_text"):
            score_prompt(backend, req)

    def test_empty_prompt_rejected(self):
        backend = _StaticBackend(ScoreResponse(generated_text="x"))
        with pytest.raises(InvalidInputError):
            score_prompt(backend, ScoreRequest(prompt="", mode="generate"))


class TestLMOracle:
    LABELS = ("neg", "pos")
    CASES = {
        # kind: (response, truth, expected reward)
        "classification": (
            ScoreResponse(per_label_logprob={"neg": -2.0, "pos": -0.5}), "pos",
            2.0 * -0.5 - 1.8 * -2.0,
        ),
        "sequence": (
            ScoreResponse(truth_logprobs=(-0.5, -0.25), rival_logprobs=(-1.0,)), "pos",
            2.0 * -0.75 - 1.8 * -1.0,
        ),
        "exact_match": (ScoreResponse(generated_text="  Paris "), "paris", 1.0),
    }

    def oracle(self, kind, response, labels=LABELS):
        return LMOracle(_StaticBackend(response), RewardConfig(kind=kind), labels)

    def classifier(self, logprobs):
        return self.oracle("classification", ScoreResponse(per_label_logprob=logprobs))

    def score(self, oracle, truth):
        return oracle.score(prompt="p", state=None, ordered=[], action=None, truth=truth)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_reward_is_score_reward(self, kind):
        response, truth, expected = self.CASES[kind]
        oracle = self.oracle(kind, response)
        reward = oracle.reward(prompt="p", state=None, ordered=[], truth=truth)
        assert reward == self.score(oracle, truth)[0] == pytest.approx(expected)
        first, second = oracle.backend.requests
        assert first == second and first.truth == truth

    def test_metric_names(self):
        assert self.oracle("classification", None).metric_name == "accuracy"
        assert self.oracle("sequence", None).metric_name == "accuracy"
        assert self.oracle("exact_match", None).metric_name == "exact_match"

    def test_classification_correct_is_argmax(self):
        oracle = self.classifier({"neg": -2.0, "pos": -0.5})
        assert self.score(oracle, "pos")[1] is True
        assert self.score(oracle, "neg")[1] is False

    def test_classification_tie_goes_to_first_label(self):
        oracle = self.classifier({"pos": -1.0, "neg": -1.0})
        assert self.score(oracle, "neg")[1] is True
        assert self.score(oracle, "pos")[1] is False

    @pytest.mark.parametrize("truth_lp, rival_lp, correct", [
        ((-0.5, -0.5), (-2.0,), True),
        ((-1.0, -1.0), (-2.0,), True),  # equal sums count as correct
        ((-1.5, -1.0), (-2.0,), False),
    ])
    def test_sequence_correct_when_truth_outscores_rival(self, truth_lp, rival_lp, correct):
        response = ScoreResponse(truth_logprobs=truth_lp, rival_logprobs=rival_lp)
        oracle = self.oracle("sequence", response)
        assert self.score(oracle, "x")[1] is correct

    def test_exact_match_correct_is_reward(self):
        oracle = self.oracle("exact_match", ScoreResponse(generated_text="Paris"))
        assert self.score(oracle, " paris") == (1.0, True)
        assert self.score(oracle, "London") == (0.0, False)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_missing_truth_rejected(self, kind):
        oracle = self.oracle(kind, self.CASES[kind][0])
        with pytest.raises(InvalidInputError, match="ground-truth"):
            oracle.reward(prompt="p", state=None, ordered=[], truth=None)
        with pytest.raises(InvalidInputError, match="ground-truth"):
            self.score(oracle, None)
        assert oracle.backend.requests == []

    @pytest.mark.parametrize("labels", [None, ()])
    def test_classification_needs_labels(self, labels):
        with pytest.raises(InvalidInputError, match="label space"):
            self.oracle("classification", None, labels=labels)
        self.oracle("exact_match", None, labels=labels)  # other kinds do without

    def test_former_scorer_name_is_the_same_class(self):
        assert rewards.LMEvalScorer is LMOracle
