import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bipartite_graph, random_formula
from stww.cnf import Formula, ParseError
from stww.trigraph import (
    NEG,
    POS,
    RED,
    SIDE_CLA,
    SIDE_VAR,
    SignedTrigraph,
    clause_vertex,
    incidence_graph,
    parse_graph,
    serialize_graph,
)


def triangle():
    return SignedTrigraph(
        [1, 2, 3], [(1, 2, POS), (2, 3, NEG), (1, 3, RED)]
    )


def test_queries():
    g = triangle()
    assert g.num_vertices == 3
    assert g.vertices() == [1, 2, 3]
    assert g.num_edges() == 3
    assert g.edge(1, 2) == POS and g.edge(2, 1) == POS
    assert g.edge(2, 3) == NEG
    assert g.edge(1, 3) == RED
    assert g.red_neighbors(1) == frozenset({3})
    assert g.red_degree(2) == 0
    assert g.max_red_degree() == 1
    assert g.red_degrees().per_vertex == {1: 1, 2: 0, 3: 1}
    assert g.bag(2) == frozenset({2})
    assert g.side(1) is None
    assert sorted(g.edges()) == [(1, 2, POS), (1, 3, RED), (2, 3, NEG)]
    assert g.fresh_id() == 4


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(vertices=[1, 1]), "duplicate vertex"),
        (dict(vertices=[0]), "positive integers"),
        (dict(vertices=[1], edges=[(1, 1, POS)]), "loop"),
        (dict(vertices=[1, 2], edges=[(1, 2, "x")]), "bad edge kind"),
        (dict(vertices=[1, 2], edges=[(1, 2, POS), (2, 1, NEG)]), "duplicate edge"),
        (dict(vertices=[1, 2], edges=[(1, 3, POS)]), "unknown vertex"),
        (dict(vertices=[1], sides={2: SIDE_VAR}), "unknown vertex"),
        (dict(vertices=[1], sides={1: 7}), "bad side"),
        (
            dict(vertices=[1, 2], edges=[(1, 2, POS)], sides={1: 0, 2: 0}),
            "joins two side-0",
        ),
        (dict(vertices=[1], bags={2: [1]}), "unknown vertex"),
    ],
)
def test_constructor_rejections(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SignedTrigraph(**kwargs)


def test_contract_sign_rules():
    # common POS stays POS, common NEG stays NEG, everything else goes red
    g = SignedTrigraph(
        [1, 2, 3, 4, 5, 6],
        [
            (1, 3, POS), (2, 3, POS),            # agree positive
            (1, 4, NEG), (2, 4, NEG),            # agree negative
            (1, 5, POS), (2, 5, NEG),            # disagree
            (1, 6, POS),                          # present vs absent
        ],
    )
    h = g.contract(1, 2)
    w = 7
    assert not h.has_vertex(1) and not h.has_vertex(2)
    assert h.edge(w, 3) == POS
    assert h.edge(w, 4) == NEG
    assert h.edge(w, 5) == RED
    assert h.edge(w, 6) == RED
    assert h.bag(w) == frozenset({1, 2})
    assert h.red_neighbors(5) == frozenset({w})
    assert g.edge(1, 3) == POS  # original untouched


def test_contract_red_absorbs_and_sides():
    g = SignedTrigraph(
        [1, 2, 3], [(1, 3, RED), (2, 3, RED)], sides={1: 0, 2: 0, 3: 1}
    )
    h = g.contract(1, 2, same_side_only=True)
    assert h.edge(4, 3) == RED
    assert h.side(4) == 0
    cross = SignedTrigraph([1, 2], sides={1: 0, 2: 1})
    with pytest.raises(ValueError, match="cross-side"):
        cross.contract(1, 2, same_side_only=True)
    merged = cross.contract(1, 2)
    assert merged.side(3) is None


def test_contract_errors():
    g = triangle()
    with pytest.raises(ValueError):
        g.contract(1, 1)
    with pytest.raises(ValueError):
        g.contract(1, 9)


def test_partition_view_identity_and_quotient():
    g = SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 3, POS), (2, 3, POS), (1, 4, NEG), (2, 4, POS)],
    )
    assert g.partition_view([[1], [2], [3], [4]]) == g
    q = g.partition_view([[1, 2], [3], [4]])
    assert q.edge(1, 3) == POS     # both cross pairs positive
    assert q.edge(1, 4) == RED     # mixed signs
    assert q.bag(1) == frozenset({1, 2})
    with pytest.raises(ValueError, match="empty part"):
        g.partition_view([[], [1, 2, 3, 4]])
    with pytest.raises(ValueError, match="two parts"):
        g.partition_view([[1, 2], [2, 3, 4]])
    with pytest.raises(ValueError, match="misses"):
        g.partition_view([[1, 2]])
    with pytest.raises(ValueError, match="unknown"):
        g.partition_view([[1, 2, 3, 4, 9]])


def test_incidence_graph_layout():
    f = Formula(3, (frozenset({1, -2}), frozenset({2, 3})))
    g = incidence_graph(f)
    assert g.vertices() == [1, 2, 3, 4, 5]
    assert all(g.side(v) == SIDE_VAR for v in (1, 2, 3))
    assert all(g.side(c) == SIDE_CLA for c in (4, 5))
    assert g.edge(1, 4) == POS
    assert g.edge(2, 4) == NEG
    assert g.edge(2, 5) == POS
    assert g.edge(3, 5) == POS
    assert g.edge(1, 5) is None
    assert clause_vertex(f, 0) == 4
    assert clause_vertex(f, 1) == 5
    with pytest.raises(IndexError):
        clause_vertex(f, 2)


def test_serialize_parse_round_trip():
    g = SignedTrigraph(
        [1, 2, 3], [(1, 2, POS), (2, 3, RED)], sides={1: 0, 2: 1, 3: 0}
    )
    h = parse_graph(serialize_graph(g))
    assert h == g


def test_parse_graph_without_header_and_errors():
    g = parse_graph("1 2 +\n2 3 r\n")
    assert g.num_vertices == 3
    assert g.edge(2, 3) == RED
    with pytest.raises(ParseError, match="header"):
        parse_graph("p stg 2\n")
    with pytest.raises(ParseError, match="edge line"):
        parse_graph("p stg 2 1\n1 2 q\n")
    with pytest.raises(ParseError, match="exceeds"):
        parse_graph("p stg 2 1\n1 5 +\n")
    with pytest.raises(ParseError, match="bad side"):
        parse_graph("p stg 2 0\ns 1 9\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # the error names the line of the offending id, not the header's
        ("p stg 3 2\nc note\n1 2 +\n2 7 -\n", "line 4: vertex id 7 exceeds declared count 3"),
        ("s 5 0\np stg 3 0\n", "line 1: vertex id 5 exceeds declared count 3"),
        ("p stg 3 1\n1 2 +\np stg 9 1\n", "line 3: duplicate header"),
        ("p stg 2 1\ns 1 0\ns 2 1\ns 1 1\n1 2 +\n", "line 4: vertex 1 given sides 0 and 1"),
    ],
)
def test_parse_graph_rejects_malformed_input(text, message):
    with pytest.raises(ParseError) as raised:
        parse_graph(text)
    assert str(raised.value) == message


def test_parse_graph_accepts_a_repeated_side():
    g = parse_graph("p stg 2 1\ns 1 0\ns 1 0\n1 2 +\n")
    assert (g.side(1), g.side(2)) == (SIDE_VAR, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_random_round_trip_and_contraction_invariants(seed):
    rng = random.Random(seed)
    g = random_bipartite_graph(rng, max_n=12)
    assert parse_graph(serialize_graph(g)) == g

    h = g
    while h.num_vertices > 1:
        vs = h.vertices()
        u, v = rng.sample(vs, 2)
        before_bags = [h.bag(x) for x in vs]
        new = h.fresh_id()
        h = h.contract(u, v)
        # bags partition the original vertex set at every level
        bags = [h.bag(x) for x in h.vertices()]
        assert sorted(x for b in bags for x in b) == sorted(
            x for b in before_bags for x in b
        )
        assert h.bag(new) == g_bag_union(before_bags, vs, u, v)
        # red adjacency is symmetric and matches edge kinds
        for x in h.vertices():
            for y in h.red_neighbors(x):
                assert h.edge(x, y) == RED and x in h.red_neighbors(y)


def g_bag_union(before_bags, vs, u, v):
    by_vertex = dict(zip(vs, before_bags))
    return by_vertex[u] | by_vertex[v]


def test_incidence_graph_of_random_formula_edge_count():
    rng = random.Random(5)
    f = random_formula(rng, max_vars=9, max_clauses=10)
    g = incidence_graph(f)
    assert g.num_edges() == sum(len(c) for c in f.clauses)
    for idx, clause in enumerate(f.clauses):
        c = clause_vertex(f, idx)
        for lit in clause:
            assert g.edge(abs(lit), c) == (POS if lit > 0 else NEG)
