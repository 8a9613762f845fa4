import math
import random

import numpy as np
import pytest

from poem import Embedding, Example, HashEncoder, InContextSet, build_in_context_set, select_examples
from poem.errors import InvalidInputError, SelectionError
from poem.selection import retrieval_text


def emb(x, y):
    return Embedding(np.array([x, y], dtype=np.float64))


def example(index, x, y, label=None):
    return Example(index=index, fields={"text": f"t{index}"}, label=label, embedding=emb(x, y))


QUERY = emb(1.0, 0.0)


def hand_sim(ex):
    # independent oracle: plain-python cosine over the 2-d fixture
    x, y = float(ex.embedding.values[0]), float(ex.embedding.values[1])
    return x / math.sqrt(x * x + y * y)


def make_set(examples, label_space=None):
    return InContextSet(examples=list(examples), retrieval_fields=["text"], label_space=label_space)


class TestUnbalancedSelection:
    def test_top_m_descending(self):
        # sims: e0=1.0, e1≈0.894, e2≈0.707, e3≈0.447, e4=0.0, e5≈-0.707
        pool = [
            example(0, 1.0, 0.0),
            example(1, 2.0, 1.0),
            example(2, 1.0, 1.0),
            example(3, 1.0, 2.0),
            example(4, 0.0, 1.0),
            example(5, -1.0, 1.0),
        ]
        chosen = select_examples(QUERY, make_set(pool), 4)
        assert [ex.index for ex in chosen] == [0, 1, 2, 3]
        sims = [hand_sim(ex) for ex in chosen]
        assert sims == sorted(sims, reverse=True)

    def test_storage_order_invariance(self):
        pool = [example(i, 1.0, 0.3 * i) for i in range(8)]
        chosen = select_examples(QUERY, make_set(pool), 4)
        shuffled = list(pool)
        random.Random(3).shuffle(shuffled)
        again = select_examples(QUERY, make_set(shuffled), 4)
        assert [ex.index for ex in chosen] == [ex.index for ex in again]

    def test_tie_break_by_ascending_index(self):
        pool = [example(7, 1.0, 1.0), example(2, 1.0, 1.0), example(5, 1.0, 0.0)]
        chosen = select_examples(QUERY, make_set(pool), 3)
        assert [ex.index for ex in chosen] == [5, 2, 7]

    def test_m_too_large(self):
        pool = [example(0, 1.0, 0.0), example(1, 0.0, 1.0)]
        with pytest.raises(SelectionError):
            select_examples(QUERY, make_set(pool), 3)


class TestBalancedSelection:
    def _biased_pool(self):
        # three "neg" crowd the query; balance must push two of them out
        return [
            example(0, 1.0, 0.05, "neg"),   # sim ~0.9988
            example(1, 1.0, 0.10, "neg"),   # sim ~0.9950
            example(2, 1.0, 0.20, "neg"),   # sim ~0.9806
            example(3, 1.0, 0.50, "pos"),   # sim ~0.8944
            example(4, 1.0, 1.00, "pos"),   # sim ~0.7071
            example(5, 0.0, 1.00, "pos"),   # sim 0.0
        ]

    def test_two_labels_two_each(self):
        ic = make_set(self._biased_pool(), label_space=("neg", "pos"))
        chosen = select_examples(QUERY, ic, 4)
        labels = [ex.label for ex in chosen]
        assert labels.count("neg") == 2 and labels.count("pos") == 2

    def test_balanced_indices_and_order(self):
        ic = make_set(self._biased_pool(), label_space=("neg", "pos"))
        chosen = select_examples(QUERY, ic, 4)
        # test-side oracle: 2 closest per label, then global descending sort
        by_label = {"neg": [0, 1], "pos": [3, 4]}
        expect = sorted(by_label["neg"] + by_label["pos"],
                        key=lambda i: -hand_sim(self._biased_pool()[i]))
        assert [ex.index for ex in chosen] == expect

    def test_remainder_filled_globally(self):
        # G=3, m=4: one per label plus the globally closest unused
        pool = [
            example(0, 1.0, 0.05, "a"),
            example(1, 1.0, 0.10, "a"),
            example(2, 1.0, 0.30, "b"),
            example(3, 1.0, 0.60, "b"),
            example(4, 1.0, 1.00, "c"),
            example(5, 0.0, 1.00, "c"),
        ]
        ic = make_set(pool, label_space=("a", "b", "c"))
        chosen = select_examples(QUERY, ic, 4)
        indices = {ex.index for ex in chosen}
        assert indices == {0, 2, 4, 1}  # quota picks 0/2/4; remainder is 1

    def test_many_labels_one_each_in_sorted_label_order(self):
        # G=3 >= m=2: labels visited lexicographically, closest of each
        pool = [
            example(0, 1.0, 0.9, "b"),
            example(1, 1.0, 0.1, "b"),
            example(2, 1.0, 0.5, "a"),
            example(3, 0.0, 1.0, "a"),
            example(4, 1.0, 0.0, "c"),
        ]
        ic = make_set(pool, label_space=("a", "b", "c"))
        chosen = select_examples(QUERY, ic, 2)
        assert {ex.label for ex in chosen} == {"a", "b"}
        assert {ex.index for ex in chosen} == {2, 1}

    def test_deficient_label_named(self):
        pool = [
            example(0, 1.0, 0.0, "neg"),
            example(1, 1.0, 0.1, "neg"),
            example(2, 1.0, 0.2, "neg"),
            example(3, 1.0, 0.3, "pos"),
        ]
        ic = make_set(pool, label_space=("neg", "pos"))
        with pytest.raises(SelectionError, match="'pos'"):
            select_examples(QUERY, ic, 4)

    def test_many_labels_empty_label_named(self):
        # G=3 >= m=2: label "b" is among the first m labels but has no examples
        pool = [example(0, 1.0, 0.5, "a"), example(1, 1.0, 0.0, "c")]
        ic = make_set(pool, label_space=("a", "b", "c"))
        with pytest.raises(SelectionError, match="label 'b'"):
            select_examples(QUERY, ic, 2)

    def test_label_outside_space_rejected(self):
        with pytest.raises(InvalidInputError):
            make_set([example(0, 1.0, 0.0, "weird")], label_space=("neg", "pos"))


class TestGreedyOptimality:
    def test_each_pick_maximizes_among_eligible(self):
        # reference implementation: recompute the balanced choice step by step
        rng = np.random.default_rng(12)
        for _ in range(25):
            pool = []
            for i in range(12):
                vec = rng.standard_normal(2)
                pool.append(
                    Example(
                        index=i,
                        fields={"text": f"t{i}"},
                        label="ab"[i % 2],
                        embedding=Embedding(vec),
                    )
                )
            ic = make_set(pool, label_space=("a", "b"))
            chosen = select_examples(QUERY, ic, 4)
            assert len({ex.index for ex in chosen}) == 4
            labels = [ex.label for ex in chosen]
            assert labels.count("a") == 2 and labels.count("b") == 2
            # per label, the two chosen are that label's two most similar
            for label in ("a", "b"):
                got = sorted(ex.index for ex in chosen if ex.label == label)
                best = sorted(
                    sorted(
                        (ex for ex in pool if ex.label == label),
                        key=lambda ex: (-hand_sim(ex), ex.index),
                    )[:2],
                    key=lambda ex: ex.index,
                )
                assert got == [ex.index for ex in best]


class TestRetrievalText:
    def test_joins_with_single_space(self):
        fields = {"question": "why?", "passage": "because."}
        assert retrieval_text(fields, ["question", "passage"]) == "why? because."

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInputError, match="passage"):
            retrieval_text({"question": "why?"}, ["question", "passage"])


class TestBuildInContextSet:
    def test_embeds_retrieval_field(self):
        enc = HashEncoder(16, seed=0)
        examples = [
            Example(index=0, fields={"text": "alpha"}, label="a"),
            Example(index=1, fields={"text": "beta"}, label="b"),
        ]
        ic = build_in_context_set(examples, enc, ["text"], label_space=("a", "b"))
        assert ic.examples[0].embedding.dim == 16
        assert np.array_equal(ic.examples[0].embedding.values, enc.encode(["alpha"])[0].values)

    def test_duplicate_indices_rejected(self):
        enc = HashEncoder(16, seed=0)
        examples = [
            Example(index=0, fields={"text": "alpha"}),
            Example(index=0, fields={"text": "beta"}),
        ]
        with pytest.raises(InvalidInputError):
            build_in_context_set(examples, enc, ["text"])
