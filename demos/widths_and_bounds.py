"""Width bounds three ways: greedy, exact brute force, and a closed form.

Subdivisions of the complete graph K_d admit a contraction schedule whose
total (black plus red) degree never exceeds d-1, so their twin-width is at
most d-1; brute force confirms greedy is in the right ballpark on small
graphs.
"""

from stww import (
    exact_tww_bruteforce,
    gen_grid,
    gen_subdivided_clique,
    greedy_sequence,
    subdivided_clique_sequence,
    verify,
)
from stww.sequence import ContractionLog

# a 3x3 grid with alternating signs
grid = gen_grid(2, 3, signs="alternating")
greedy = greedy_sequence(grid, bipartite=False)
exact, witness = exact_tww_bruteforce(grid)
print(f"3x3 grid: greedy width {greedy.declared_width}, exact width {exact}")
assert verify(grid, witness).width == exact

# a subdivision of K_4: each of the six edges gets 0-2 extra vertices
graph, clique = gen_subdivided_clique(4, [1, 2, 0, 1, 2, 1])
seq = subdivided_clique_sequence(graph, clique)
d = len(clique)
# grow the schedule on a log and read every level's total degrees off it
worst = max(len(graph.neighbors(v)) for v in graph.vertices())
log = ContractionLog(graph)
for keep, merge in seq.steps:
    log.contract(keep, merge)
    worst = max(worst, max((len(log.neighbors(v)) for v in log.vertices()), default=0))
print(
    f"subdivided K_{d}: {graph.num_vertices} vertices, "
    f"schedule width {log.width}, max total degree {worst} (≤ {d - 1})"
)
assert worst <= d - 1
