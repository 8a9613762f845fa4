import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poem import (
    Action,
    BiasLandscape,
    Embedding,
    Example,
    SyntheticOracle,
    brute_force_best,
    cosine_similarity,
    enumerate_actions,
    generate_task,
    identity_action,
    noise_component,
    noiseless_reward,
    reorder,
    reversal_action,
    select_examples,
    synth_reward,
    task_from_scenario,
)
from poem import simenv
from poem.errors import ConfigError, InvalidInputError
from poem.simenv import PlantedEncoder, load_scenario

SIZES = {"train": 16, "ic": 16, "test": 8}

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def emb(values):
    return Embedding(np.asarray(values, dtype=np.float64))


def make_examples(rng, n, dim):
    return [
        Example(index=i, fields={"text": f"t{i}"}, embedding=emb(rng.standard_normal(dim)))
        for i in range(n)
    ]


def scan_best(landscape, s, examples):
    """Test-side oracle: literal exhaustive scan over every permutation."""
    sims = [cosine_similarity(s, ex.embedding) for ex in examples]
    order = sorted(range(len(examples)), key=lambda i: (-sims[i], examples[i].index))
    best_ranks, best_val = None, -math.inf
    for perm in itertools.permutations(range(1, len(examples) + 1)):
        val = sum(
            w * sims[order[rank - 1]] for w, rank in zip(landscape.position_weights, perm)
        )
        if val > best_val:
            best_ranks, best_val = perm, val
    return Action(best_ranks)


class TestSynthReward:
    def test_weighted_sum_by_hand(self):
        landscape = BiasLandscape((4.0, 3.0))
        s = emb([1.0, 0.0])
        e1 = Example(index=0, fields={}, embedding=emb([1.0, 0.0]))     # sim 1.0
        e2 = Example(index=1, fields={}, embedding=emb([0.0, 1.0]))     # sim 0.0
        assert synth_reward(landscape, s, [e1, e2]) == pytest.approx(4.0)
        assert synth_reward(landscape, s, [e2, e1]) == pytest.approx(3.0)

    def test_length_mismatch(self):
        landscape = BiasLandscape((1.0, 2.0, 3.0))
        s = emb([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            synth_reward(landscape, s, [])

    def test_uniform_weights_are_order_invariant(self):
        rng = np.random.default_rng(3)
        landscape = BiasLandscape((2.0, 2.0, 2.0))
        s = emb(rng.standard_normal(5))
        examples = make_examples(rng, 3, 5)
        values = {
            synth_reward(landscape, s, [examples[i] for i in perm])
            for perm in itertools.permutations(range(3))
        }
        assert max(values) - min(values) < 1e-12

    def test_noiseless_repeatable(self):
        rng = np.random.default_rng(4)
        landscape = BiasLandscape.descending(3)
        s = emb(rng.standard_normal(5))
        examples = make_examples(rng, 3, 5)
        assert synth_reward(landscape, s, examples) == synth_reward(landscape, s, examples)

    def test_noise_decomposition(self):
        rng = np.random.default_rng(5)
        quiet = BiasLandscape.descending(3, seed=40)
        noisy = BiasLandscape.descending(3, noise_sigma=0.2, seed=40)
        s = emb(rng.standard_normal(5))
        examples = make_examples(rng, 3, 5)
        base = synth_reward(quiet, s, examples)
        assert noiseless_reward(noisy, s, examples) == base
        assert synth_reward(noisy, s, examples) == pytest.approx(
            base + noise_component(noisy, s, examples), abs=0
        )
        # noise is a pure function: identical on repeat, different per ordering
        assert noise_component(noisy, s, examples) == noise_component(noisy, s, examples)
        assert noise_component(noisy, s, examples[::-1]) != noise_component(noisy, s, examples)


class TestBruteForceBest:
    def test_matches_exhaustive_scan_for_random_states(self):
        rng = np.random.default_rng(11)
        landscape = BiasLandscape.descending(4)
        examples = make_examples(rng, 4, 6)
        for _ in range(100):
            s = emb(rng.standard_normal(6))
            assert brute_force_best(landscape, s, examples) == scan_best(landscape, s, examples)

    def test_descending_weights_prefer_identity(self):
        rng = np.random.default_rng(12)
        landscape = BiasLandscape((4.0, 3.0, 2.0, 1.0))
        for _ in range(20):
            examples = make_examples(rng, 4, 6)
            s = emb(rng.standard_normal(6))
            assert brute_force_best(landscape, s, examples) == identity_action(4)

    def test_reversed_weights_flip_the_optimum(self):
        rng = np.random.default_rng(13)
        landscape = BiasLandscape((1.0, 2.0, 3.0, 4.0))
        for _ in range(20):
            examples = make_examples(rng, 4, 6)
            s = emb(rng.standard_normal(6))
            assert brute_force_best(landscape, s, examples) == reversal_action(4)

    def test_uniform_landscape_ties_to_identity(self):
        rng = np.random.default_rng(14)
        landscape = BiasLandscape((1.0, 1.0, 1.0))
        examples = make_examples(rng, 3, 4)
        s = emb(rng.standard_normal(4))
        assert brute_force_best(landscape, s, examples) == identity_action(3)

    def test_m1_single_action(self):
        landscape = BiasLandscape((2.0,))
        s = emb([1.0, 0.0])
        e = Example(index=0, fields={}, embedding=emb([0.5, 0.5]))
        assert brute_force_best(landscape, s, [e]) == Action((1,))

    def test_invariant_to_supplied_order(self):
        rng = np.random.default_rng(15)
        landscape = BiasLandscape.descending(4)
        examples = make_examples(rng, 4, 6)
        s = emb(rng.standard_normal(6))
        baseline = brute_force_best(landscape, s, examples)
        for perm in itertools.permutations(examples):
            assert brute_force_best(landscape, s, list(perm)) == baseline


def scalar_best(landscape, s, t_s):
    """brute_force_best as written before the rank table: one Action and one scalar sum
    per permutation, the first of equal values kept."""
    sims = {ex.index: cosine_similarity(s, ex.embedding) for ex in t_s}
    canonical = sorted(t_s, key=lambda ex: (-sims[ex.index], ex.index))
    best = None
    best_value = -np.inf
    for action in enumerate_actions(landscape.m):
        value = 0.0
        for weight, rank in zip(landscape.position_weights, action.ranks):
            value += weight * sims[canonical[rank - 1].index]
        if best is None or value > best_value:
            best, best_value = action, value
    return best


BIG = np.finfo(float).max
# ties, zero and negative weights, and weights whose products or sums overflow to +-inf
weight_values = st.sampled_from([1.0, 0.0, -0.0, -1.0, 2.0, 0.5, 1e308, -1e308, BIG, -BIG]) \
    | st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def oracle_cases(draw):
    m = draw(st.integers(1, 6))
    dim = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = []
    for _ in range(m + 1):  # the last one is the state
        kind = draw(st.sampled_from(["fresh", "duplicate", "scaled", "antipode"]
                                    if vectors else ["fresh"]))
        if kind == "fresh":
            vectors.append(rng.standard_normal(dim))
        else:
            base = vectors[draw(st.integers(0, len(vectors) - 1))]
            vectors.append(base * {"duplicate": 1.0, "scaled": 4.0, "antipode": -1.0}[kind])
    *vectors, state = vectors
    indices = draw(st.permutations(range(m)))
    examples = [Example(index=i, fields={}, embedding=emb(v)) for i, v in zip(indices, vectors)]
    weights = draw(st.lists(weight_values, min_size=m, max_size=m))
    return BiasLandscape(weights), emb(state), examples


class TestBruteForceBestAgainstScalarLoop:
    @settings(max_examples=400, deadline=None)
    @given(oracle_cases())
    def test_same_action_as_the_scalar_loop(self, case):
        landscape, s, examples = case
        assert brute_force_best(landscape, s, examples) == scalar_best(landscape, s, examples)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_equal_weights_and_duplicate_examples_tie_to_identity(self, m):
        rng = np.random.default_rng(m)
        v = rng.standard_normal(4)
        examples = [Example(index=i, fields={}, embedding=emb(v * 2.0 ** i)) for i in range(m)]
        landscape = BiasLandscape([1.5] * m)
        s = emb(rng.standard_normal(4))
        assert brute_force_best(landscape, s, examples) == identity_action(m)
        assert scalar_best(landscape, s, examples) == identity_action(m)

    def _self_similar(self):
        """A vector whose cosine with itself rounds above 1, so BIG * it overflows to inf."""
        rng = np.random.default_rng(0)
        while True:
            v = emb(rng.standard_normal(5))
            if cosine_similarity(v, v) > 1.0:
                return v

    def test_overflowing_sums_keep_the_first_maximum(self):
        v = self._self_similar()
        examples = [Example(index=i, fields={}, embedding=v) for i in range(3)]
        landscape = BiasLandscape((1e308, 1e308, 1e308))  # every action sums to +inf
        assert brute_force_best(landscape, v, examples) == identity_action(3)
        assert scalar_best(landscape, v, examples) == identity_action(3)

    def test_a_nan_action_after_the_first_never_wins(self):
        # ranks 1 and 2 are v itself (cosine > 1), rank 3 is not: (3, 1, 2) sums to
        # c + inf - inf = NaN, which a scalar scan never takes over the first action's +inf
        v = self._self_similar()
        other = emb(v.values + np.arange(5.0))
        examples = [Example(index=0, fields={}, embedding=v),
                    Example(index=1, fields={}, embedding=v),
                    Example(index=2, fields={}, embedding=other)]
        landscape = BiasLandscape((1.0, BIG, -BIG))
        assert scalar_best(landscape, v, examples) == identity_action(3)
        assert brute_force_best(landscape, v, examples) == identity_action(3)

    def test_a_nan_first_action_is_kept(self):
        v = self._self_similar()
        examples = [Example(index=i, fields={}, embedding=v) for i in range(2)]
        landscape = BiasLandscape((BIG, -BIG))  # every action is inf - inf
        assert scalar_best(landscape, v, examples) == identity_action(2)
        assert brute_force_best(landscape, v, examples) == identity_action(2)

    def test_rank_table_is_built_once_per_m(self, monkeypatch):
        calls = []
        real = simenv.enumerate_actions
        monkeypatch.setattr(simenv, "enumerate_actions", lambda m: calls.append(m) or real(m))
        simenv._rank_table.cache_clear()
        try:
            rng = np.random.default_rng(3)
            for _ in range(5):
                examples = make_examples(rng, 4, 6)
                s = emb(rng.standard_normal(6))
                assert brute_force_best(BiasLandscape.descending(4), s, examples) \
                    == scalar_best(BiasLandscape.descending(4), s, examples)
        finally:
            simenv._rank_table.cache_clear()
        assert calls == [4]


class TestGenerateTask:
    def test_same_seed_identical(self):
        a = generate_task(3, SIZES, 2)
        b = generate_task(3, SIZES, 2)
        assert [ex.fields for ex in a.train] == [ex.fields for ex in b.train]
        for ea, eb in zip(a.train + a.test, b.train + b.test):
            assert np.array_equal(ea.embedding.values, eb.embedding.values)

    def test_labels_balanced(self):
        task = generate_task(3, {"train": 32, "ic": 16, "test": 8}, 2)
        labels = [ex.label for ex in task.train]
        assert labels.count("g0") == 16 and labels.count("g1") == 16

    def test_test_states_near_training_clusters(self):
        task = generate_task(7, {"train": 16, "ic": 16, "test": 32}, 2, test_spread=0.1)
        top1 = []
        for query in task.test:
            sims = [
                cosine_similarity(query.embedding, train.embedding) for train in task.train
            ]
            top1.append(max(sims))
        assert float(np.mean(top1)) > 0.9

    def test_planted_encoder_serves_every_split(self):
        task = generate_task(3, SIZES, 2)
        for ex in task.train + task.ic.examples + task.test:
            got = task.encoder.encode([ex.fields["text"]])[0]
            assert np.array_equal(got.values, ex.embedding.values)

    def test_planted_encoder_rejects_unknown_text(self):
        task = generate_task(3, SIZES, 2)
        with pytest.raises(InvalidInputError):
            task.encoder.encode(["never seen this"])

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_task(3, {"train": 4, "ic": 4}, 2)


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        for name in ("descending_small", "ascending_small", "noisy_medium"):
            task = task_from_scenario(SCENARIOS / f"{name}.json")
            assert task.m == 4

    def test_version_guard(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"version": 2}')
        with pytest.raises(ConfigError, match="version"):
            load_scenario(path)

    def test_custom_weights_length_checked(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"version": 1, "seed": 1, "dim": 8, "labels": 2, "m": 3,'
            ' "sizes": {"train": 4, "ic": 6, "test": 4},'
            ' "landscape": {"preference": "custom", "position_weights": [1.0, 2.0]}}'
        )
        with pytest.raises(ConfigError, match="position_weights"):
            task_from_scenario(path)


class TestBiasLandscapeFields:
    @pytest.mark.parametrize("args, kwargs", [
        (("4321",), {}),
        (((True, 1.0),), {}),
        (((),), {}),
        (((1.0, math.inf),), {}),
        (((1.0,),), {"noise_sigma": math.nan}),
        (((1.0,),), {"noise_sigma": -0.5}),
        (((1.0,),), {"seed": 1.5}),
        (((1.0,),), {"seed": 2**63}),
    ], ids=["string", "bool-weight", "empty", "inf-weight", "nan-sigma", "negative-sigma",
            "float-seed", "seed-past-64-bits"])
    def test_rejected(self, args, kwargs):
        with pytest.raises(InvalidInputError):
            BiasLandscape(*args, **kwargs)

    def test_stores_floats(self):
        landscape = BiasLandscape([3, 1], noise_sigma=1, seed=-2)
        assert landscape.position_weights == (3.0, 1.0)
        assert [type(w) for w in landscape.position_weights] == [float, float]
        assert type(landscape.noise_sigma) is float


class TestPlantedEncoder:
    def test_empty_table_rejected(self):
        with pytest.raises(InvalidInputError):
            PlantedEncoder({})


class TestSyntheticOracleScore:
    def test_agrees_with_brute_force_for_every_ordering(self, monkeypatch):
        landscape = BiasLandscape.descending(4, noise_sigma=0.1, seed=2)
        task = generate_task(5, SIZES, 2, m=4, landscape=landscape)
        state = task.test[0].embedding
        chosen = select_examples(state, task.ic, 4)
        best = brute_force_best(landscape, state, chosen)
        calls = []

        def counted(*args):
            calls.append(args)
            return brute_force_best(*args)

        monkeypatch.setattr(simenv, "brute_force_best", counted)
        scorer = SyntheticOracle(landscape)
        hits = 0
        for action in enumerate_actions(4):
            ordered = reorder(chosen, action)
            reward, correct = scorer.score(prompt="", state=state, ordered=ordered,
                                           action=action, truth=None)
            assert reward == noiseless_reward(landscape, state, ordered)
            assert correct == (action == best)
            hits += correct
        assert hits == 1
        assert len(calls) == 1  # once per (state, example set), whatever the ordering

        other = task.test[1].embedding
        scorer.score(prompt="", state=other, ordered=select_examples(other, task.ic, 4),
                     action=identity_action(4), truth=None)
        assert len(calls) == 2

    def test_zero_shot_has_no_signal(self, monkeypatch):
        monkeypatch.setattr(simenv, "brute_force_best", None)  # must not be called
        scorer = SyntheticOracle(BiasLandscape.descending(4))
        assert scorer.score(prompt="q", state=emb([1.0, 0.0]), ordered=[], action=None,
                            truth=None) == (0.0, None)

    def test_former_scorer_name_is_the_same_class(self):
        assert simenv.SyntheticEvalScorer is SyntheticOracle
