"""Turn an unrestricted contraction sequence into a bipartite one.

An unrestricted d-sequence of a sided graph can always be repaired into a
same-side-only sequence of width at most d+2 and at most twice the length:
replace each cross-side merge by contracting the two halves into their
side-mates.  This script runs the repair on a random sided graph and shows
the bookkeeping.
"""

import random

from stww import bipartize, greedy_sequence, verify
from stww.trigraph import NEG, POS, SIDE_CLA, SIDE_VAR, SignedTrigraph

rng = random.Random(6)
n = 12
split = 5
sides = {v: (SIDE_VAR if v <= split else SIDE_CLA) for v in range(1, n + 1)}
edges = [
    (u, v, POS if rng.random() < 0.5 else NEG)
    for u in range(1, split + 1)
    for v in range(split + 1, n + 1)
    if rng.random() < 0.4
]
graph = SignedTrigraph(range(1, n + 1), edges, sides=sides)
print(f"graph: {n} vertices ({split} left, {n - split} right), {len(edges)} edges")

free = greedy_sequence(graph, bipartite=False)
d = verify(graph, free).width
print(f"unrestricted greedy: {len(free.steps)} steps, width {d}")

result = bipartize(graph, free)
log = verify(graph, result.seq, require_bipartite=True)
assert log.ok
print(f"bipartized: {len(result.seq.steps)} steps, width {log.width} (≤ {d} + 2)")
# an input step that merges two halves on each side makes two output steps
index_map = result.index_map
doubled = [i for i in index_map if index_map[i] == index_map.get(i + 1)]
assert doubled, "this graph's greedy sequence should have a step to double"
print(f"steps doubled into half-merges: {doubled}")
for out_index, in_index in sorted(result.index_map.items()):
    print(f"  output step {out_index} <- input step {in_index}")
