"""Count weighted models under a ones budget, end to end.

Builds a small weighted CNF, finds a bipartite contraction sequence of its
incidence graph, and runs the profile dynamic program.  Every number is an
exact rational; the brute-force oracle cross-checks the result.
"""

from fractions import Fraction

from stww import (
    Formula,
    WeightFunction,
    bwmc_oracle,
    greedy_sequence,
    incidence_graph,
    region_cap,
    serialize_dimacs,
    solve_bwmc,
    verify,
)

# (x1 or x2) and (not x1 or x3) and (not x2 or not x3)
formula = Formula(3, ({1, 2}, {-1, 3}, {-2, -3}))
weights = WeightFunction({1: Fraction(1, 2), -1: 1, 2: 2, -2: 1, 3: Fraction(-1, 3)})
# each clause holds its literals sorted by variable, as DIMACS writes them
print("formula, as DIMACS text:")
print(serialize_dimacs(formula, weights), end="")

graph = incidence_graph(formula)
print(f"incidence graph: {graph.num_vertices} vertices, {graph.num_edges()} edges")

# variables may only merge with variables, clauses with clauses
seq = greedy_sequence(graph, bipartite=True)
report = verify(graph, seq, require_bipartite=True)
print(f"greedy bipartite sequence: {len(seq.steps)} steps, width {report.width}")

for k in range(0, 4):
    value = solve_bwmc(formula, weights, k, seq)
    check = bwmc_oracle(formula, weights, k)
    assert value == check
    print(f"k={k}: count {value}  (region cap {region_cap(k, report.width)})")
