import random

import pytest

from helpers import (
    brute_hitting_set_exists,
    brute_multicolored_clique_exists,
    is_partitioned_clique_shape,
    random_partitioned_instance,
)
from stww.cnf import Formula
from stww.generators import (
    SIGN_POLICIES,
    gen_grid,
    gen_hitting_set_formula,
    gen_partitioned_clique_formula,
    gen_random_ksat,
    gen_subdivided_clique,
)
from stww.oracle import bsat_oracle
from stww.trigraph import NEG, POS, incidence_graph


def test_grid_shape_and_sides():
    g = gen_grid(2, 3)
    assert g.num_vertices == 9
    assert g.num_edges() == 12
    # chessboard parity: row-major vertex 1 is (0,0)
    assert g.side(1) == 0 and g.side(2) == 1 and g.side(4) == 1 and g.side(5) == 0
    assert all(kind == POS for _, _, kind in g.edges())
    line = gen_grid(1, 4)
    assert line.num_vertices == 4 and line.num_edges() == 3
    cube = gen_grid(3, 2)
    assert cube.num_vertices == 8 and cube.num_edges() == 12


def test_grid_sign_policies():
    alt = gen_grid(2, 3, signs="alternating")
    kinds = [kind for _, _, kind in alt.edges()]
    assert kinds.count(POS) == 6 and kinds.count(NEG) == 6
    r1 = gen_grid(2, 3, signs="random", seed=5)
    r2 = gen_grid(2, 3, signs="random", seed=5)
    assert r1 == r2
    assert {kind for _, _, kind in r1.edges()} <= {POS, NEG}
    with pytest.raises(ValueError, match="sign policy"):
        gen_grid(2, 3, signs="chaotic")
    with pytest.raises(ValueError, match="dimension"):
        gen_grid(0, 3)
    with pytest.raises(ValueError, match="side"):
        gen_grid(2, 1)


def test_subdivided_clique_structure():
    graph, clique = gen_subdivided_clique(3, [1, 0, 2])
    assert clique == [1, 2, 3]
    assert graph.num_vertices == 6
    assert graph.num_edges() == 3 + 3
    for v in clique:
        assert len(graph.neighbors(v)) == 2
    for v in (4, 5, 6):
        assert len(graph.neighbors(v)) == 2
    # path for pair (1,2) runs through vertex 4
    assert graph.edge(1, 4) is not None and graph.edge(4, 2) is not None
    assert graph.edge(1, 3) is not None  # count 0: direct edge
    with pytest.raises(ValueError, match="counts"):
        gen_subdivided_clique(3, [1, 2])
    with pytest.raises(ValueError, match="nonnegative"):
        gen_subdivided_clique(3, [1, -1, 0])
    with pytest.raises(ValueError, match="at least 2"):
        gen_subdivided_clique(1, [])


def test_hitting_set_reduction_shape():
    formula, k = gen_hitting_set_formula([1, 2, 3, 4], [[1, 2], [3, 4]], 2)
    assert k == 2
    assert formula.clauses == ((1, 2), (3, 4), (1, 2, 3, 4))
    # a set equal to the universe is not added twice
    full, _ = gen_hitting_set_formula([1, 2], [[1, 2]], 1)
    assert full.num_clauses == 1
    with pytest.raises(ValueError, match="universe"):
        gen_hitting_set_formula([], [[1]], 1)
    with pytest.raises(ValueError, match="nonempty"):
        gen_hitting_set_formula([1, 2], [[]], 1)
    with pytest.raises(ValueError, match="subsets"):
        gen_hitting_set_formula([1, 2], [[3]], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_hitting_set_formula([1, 2], [[1]], -1)


def test_hitting_set_matches_brute_force():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        universe = list(range(1, n + 1))
        sets = [
            rng.sample(universe, rng.randint(1, n))
            for _ in range(rng.randint(1, 5))
        ]
        k = rng.randint(0, n)
        formula, budget = gen_hitting_set_formula(universe, sets, k)
        assert bsat_oracle(formula, budget) == brute_hitting_set_exists(universe, sets, k)


def test_partitioned_clique_matches_brute_force():
    for seed in range(30):
        rng = random.Random(seed)
        parts, edges = random_partitioned_instance(rng)
        formula, k = gen_partitioned_clique_formula(
            parts, [tuple(sorted(e)) for e in edges]
        )
        assert k == len(parts)
        assert bsat_oracle(formula, k) == brute_multicolored_clique_exists(parts, edges)


def test_partitioned_clique_shape_checker():
    parts = [[1, 2], [3, 4]]
    formula, _ = gen_partitioned_clique_formula(parts, [(1, 3)])
    assert is_partitioned_clique_shape(formula, parts)
    # dropping a part clause breaks the shape
    assert not is_partitioned_clique_shape(
        Formula(formula.num_vars, formula.clauses[1:]), parts
    )
    # an unrelated formula is rejected
    assert not is_partitioned_clique_shape(Formula(2, (frozenset({1, -2}),)), [[1], [2]])
    # fully connected pair: no non-edge clause for the pair
    complete, _ = gen_partitioned_clique_formula(
        parts, [(u, v) for u in parts[0] for v in parts[1]]
    )
    assert not is_partitioned_clique_shape(complete, parts)


def test_partitioned_clique_input_guards():
    with pytest.raises(ValueError, match="balanced"):
        gen_partitioned_clique_formula([[1, 2], [3]], [])
    with pytest.raises(ValueError, match="disjoint"):
        gen_partitioned_clique_formula([[1, 2], [2, 3]], [])
    with pytest.raises(ValueError, match="different parts"):
        gen_partitioned_clique_formula([[1, 2], [3, 4]], [(1, 2)])
    with pytest.raises(ValueError, match="part"):
        gen_partitioned_clique_formula([], [])


def test_ksat_pins():
    f = gen_random_ksat(15, 3, 30, seed=0)
    g = incidence_graph(f)
    assert g.num_vertices == 45
    assert g.num_edges() == 90
    small = gen_random_ksat(15, 2, 15, seed=0)
    h = incidence_graph(small)
    assert h.num_vertices <= 45
    assert h.num_edges() == sum(len(c) for c in small.clauses) == 30


def test_ksat_properties_and_guards():
    f = gen_random_ksat(6, 3, 12, seed=9)
    assert f.num_clauses == 12
    assert len(set(f.clauses)) == 12
    assert all(len(c) == 3 for c in f.clauses)
    assert gen_random_ksat(6, 3, 12, seed=9).clauses == f.clauses
    assert gen_random_ksat(6, 3, 12, seed=10).clauses != f.clauses
    # exactly exhausting the clause universe is allowed
    tiny = gen_random_ksat(2, 1, 4, seed=1)
    assert tiny.num_clauses == 4
    with pytest.raises(ValueError, match="exist"):
        gen_random_ksat(2, 1, 5, seed=1)
    with pytest.raises(ValueError, match="width exceeds"):
        gen_random_ksat(2, 3, 1, seed=1)
    with pytest.raises(ValueError, match="positive"):
        gen_random_ksat(0, 1, 1, seed=1)


def test_sign_policy_tuple_is_public():
    assert SIGN_POLICIES == ("all-pos", "alternating", "random")
