"""Retrieval and ordering actions: balanced selection, rank permutations, reorder.

Run:  python3 demos/02_retrieval_and_actions.py
"""

from poem import (
    Example,
    HashEncoder,
    action_key,
    build_in_context_set,
    enumerate_actions,
    identity_action,
    reorder,
    reversal_action,
    select_examples,
)

encoder = HashEncoder(dim=64, seed=0)

pool = [
    ("an absolute joy from start to finish", "positive"),
    ("a warm, clever and generous film", "positive"),
    ("the best surprise of the season", "positive"),
    ("dreadful pacing and wooden acting", "negative"),
    ("tedious, loud and utterly pointless", "negative"),
    ("a muddled script sinks the whole cast", "negative"),
]
examples = [
    Example(index=i, fields={"sentence": text}, label=label)
    for i, (text, label) in enumerate(pool)
]
ic = build_in_context_set(examples, encoder, ["sentence"], label_space=("negative", "positive"))

query = "a generous, joyful film"
state = encoder.encode([query])[0]

# Balanced retrieval: with 2 labels and m=4, each label contributes its two
# closest examples, and the result is sorted by descending similarity. That
# canonical order defines rank 1 (the closest example).
selected = select_examples(state, ic, m=4)
print(f"query: {query!r}")
print("selected (rank order):")
for rank, ex in enumerate(selected, start=1):
    print(f"  rank {rank}: [{ex.label}] {ex.fields['sentence']}")

# An action is a permutation of those ranks: slot i of the prompt holds the
# example whose rank is ranks[i]. With m=4 there are 4! = 24 actions.
actions = enumerate_actions(4)
print(f"\n{len(actions)} actions; first three: {[action_key(a) for a in actions[:3]]}")

print("\nidentity action (descending similarity, closest first):")
for ex in reorder(selected, identity_action(4)):
    print(f"  {ex.fields['sentence']}")

print("\nreversal action (ascending similarity, closest last):")
for ex in reorder(selected, reversal_action(4)):
    print(f"  {ex.fields['sentence']}")

some = actions[10]
print(f"\narbitrary action {action_key(some)}:")
for ex in reorder(selected, some):
    print(f"  {ex.fields['sentence']}")
