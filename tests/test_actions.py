import math

import pytest

from poem import (
    Action,
    action_key,
    enumerate_actions,
    identity_action,
    parse_action_key,
    reorder,
    reversal_action,
)
from poem.errors import InvalidInputError


class TestAction:
    def test_valid_permutations(self):
        Action((1,))
        Action((2, 1))
        Action((3, 1, 2))

    @pytest.mark.parametrize("ranks", [(), (0, 1), (1, 1), (1, 3), (2, 3, 4)])
    def test_invalid_permutations(self, ranks):
        with pytest.raises(InvalidInputError):
            Action(ranks)

    def test_helpers(self):
        assert identity_action(4).ranks == (1, 2, 3, 4)
        assert reversal_action(4).ranks == (4, 3, 2, 1)


class TestEnumerateActions:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_counts_and_uniqueness(self, m):
        actions = enumerate_actions(m)
        assert len(actions) == math.factorial(m)
        assert len({a.ranks for a in actions}) == len(actions)

    def test_m1_singleton(self):
        assert enumerate_actions(1) == [Action((1,))]

    def test_lexicographic_prefix(self):
        first_three = [a.ranks for a in enumerate_actions(3)[:3]]
        assert first_three == [(1, 2, 3), (1, 3, 2), (2, 1, 3)]

    def test_m4_has_24(self):
        assert len(enumerate_actions(4)) == 24

    def test_fully_sorted(self):
        ranks = [a.ranks for a in enumerate_actions(4)]
        assert ranks == sorted(ranks)

    def test_ceiling_error_names_limit(self):
        with pytest.raises(InvalidInputError, match="8"):
            enumerate_actions(9)
        with pytest.raises(InvalidInputError):
            enumerate_actions(0)


class TestReorder:
    def test_identity_preserves_order(self):
        items = ["e1", "e2", "e3", "e4"]
        assert reorder(items, identity_action(4)) == items

    def test_reversal(self):
        items = ["e1", "e2", "e3", "e4"]
        assert reorder(items, reversal_action(4)) == ["e4", "e3", "e2", "e1"]

    def test_hand_example(self):
        # slot i holds the example of rank ranks[i]; derived by hand
        items = ["e1", "e2", "e3", "e4"]  # e1 closest
        assert reorder(items, Action((4, 3, 1, 2))) == ["e4", "e3", "e1", "e2"]

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            reorder(["a", "b"], identity_action(3))

    def test_injective_over_all_m4_actions(self):
        items = ["e1", "e2", "e3", "e4"]
        outputs = {tuple(reorder(items, a)) for a in enumerate_actions(4)}
        assert len(outputs) == 24

    def test_composition_recovers_action(self):
        # canonical input [1..m]: the output slots read back the rank vector
        for a in enumerate_actions(4):
            assert tuple(reorder([1, 2, 3, 4], a)) == a.ranks


class TestActionKey:
    def test_formatting(self):
        assert action_key(Action((1, 2, 3, 4))) == "1-2-3-4"

    def test_roundtrip_all_m4(self):
        for a in enumerate_actions(4):
            assert parse_action_key(action_key(a)) == a

    def test_keys_distinct(self):
        keys = {action_key(a) for a in enumerate_actions(4)}
        assert len(keys) == 24

    # int() reads the last five, but action_key never writes them
    @pytest.mark.parametrize("bad", ["", "1-2-x", "0-1", "2-2", "1_2",
                                     "01-2", " 1-2", "1-2 ", "+1-2", "\u0661-2"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(InvalidInputError):
            parse_action_key(bad)

    def test_parse_multi_digit_ranks(self):
        ranks = (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert parse_action_key(action_key(Action(ranks))).ranks == ranks
