"""Two bridges into the toolkit: k-expressions and bounded-ones reductions.

A signed clique-width k-expression converts into a contraction sequence of
width at most 2k.  In the other direction, hitting set and multicolored
clique reduce to satisfiability with a ones budget, which the brute-force
oracle decides directly.
"""

from stww import (
    bsat_oracle,
    cw_to_sequence,
    gen_hitting_set_formula,
    gen_partitioned_clique_formula,
    parse_cw,
    verify,
)

# a path on four vertices, built with three labels
P4 = """
en 1 2 (un
  (rl 2 3 (ep 1 2 (un
    (rl 1 3 (ep 1 2 (un (leaf 1 1) (leaf 2 2))))
    (leaf 1 3))))
  (leaf 2 4))
"""
expr = parse_cw(P4)
graph, seq = cw_to_sequence(expr)
log = verify(graph, seq)
print(
    f"k-expression with {expr.num_labels} labels -> "
    f"{graph.num_vertices} vertices, sequence width {log.width} "
    f"(≤ {2 * expr.num_labels})"
)

# hitting set: can 1 element meet all three sets?
universe = [1, 2, 3, 4]
sets = [[1, 2], [2, 3], [2, 4]]
formula, k = gen_hitting_set_formula(universe, sets, 1)
print(f"hitting set k=1 over {sets}: {bsat_oracle(formula, k)}")  # element 2

# multicolored clique on two parts: needs a cross edge between picks
parts = [[1, 2], [3, 4]]
formula, k = gen_partitioned_clique_formula(parts, [(1, 4)])
print(f"2-partite clique with only edge (1,4): {bsat_oracle(formula, k)}")
formula, k = gen_partitioned_clique_formula(parts, [])
print(f"2-partite clique with no edges: {bsat_oracle(formula, k)}")
