import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bipartite_graph, random_formula
from stww.cnf import Formula, ParseError
from stww.generators import gen_grid
from stww.sequence import ContractionLog
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
    assert g.bag(2) == frozenset({2})
    assert g.side(1) is None
    assert sorted(g.edges()) == [(1, 2, POS), (1, 3, RED), (2, 3, NEG)]


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
    log = ContractionLog(g)
    w = log.contract(1, 2)
    assert w == 7 and log.vertices() == [3, 4, 5, 6, 7]
    assert log.neighbors(w) == {3: POS, 4: NEG, 5: RED, 6: RED}
    assert log.bag(w) == frozenset({1, 2})
    assert log.red_degree(5) == 1 and w in log.red_neighbors(5)
    assert g.edge(1, 3) == POS  # original untouched
    # a label contracted with itself or answering to no vertex leaves the log as it was
    before = (log.vertices(), log.steps[:], {v: log.neighbors(v) for v in log.vertices()})
    for keep, merge, message in [(3, 3, "cannot contract 3 with itself"), (1, 9, "unknown vertex id 9"),
                                 (9, 3, "unknown vertex id 9"), (3, 2, "unknown vertex id 2")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            log.contract(keep, merge)
        assert (log.vertices(), log.steps, {v: log.neighbors(v) for v in log.vertices()}) == before
        assert (log.vertex(1), log.vertex(3)) == (7, 3)
    assert log.contract(1, 3) == 8


def test_contract_red_absorbs_and_sides():
    g = SignedTrigraph(
        [1, 2, 3], [(1, 3, RED), (2, 3, RED)], sides={1: 0, 2: 0, 3: 1}
    )
    log = ContractionLog(g)
    assert log.contract(1, 2) == 4
    assert log.edge(4, 3) == RED
    assert log.side(4) == 0
    cross = ContractionLog(SignedTrigraph([1, 2], sides={1: 0, 2: 1}))
    assert cross.contract(1, 2) == 3
    assert cross.side(3) is None


def test_block_contraction_on_a_log():
    g = SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 3, POS), (2, 3, POS), (1, 4, NEG), (2, 4, POS)],
    )
    log = ContractionLog(g)
    block = log.contract(1, 2)
    assert log.edge(block, 3) == POS     # both cross pairs positive
    assert log.edge(block, 4) == RED     # mixed signs
    assert log.bag(block) == frozenset({1, 2})
    assert log.label(block) == 1


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
    # ids other than 1..n would read back as other vertices
    for sparse in (SignedTrigraph([1, 5]), SignedTrigraph([2, 3], [(2, 3, POS)])):
        with pytest.raises(ValueError, match="out of range 1..2"):
            serialize_graph(sparse)
    assert parse_graph(serialize_graph(SignedTrigraph([]))) == SignedTrigraph([])


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
        # ids below 1, loops and repeated pairs name their line too
        ("p stg 2 1\n0 1 +\n", "line 2: vertex id 0 must be positive"),
        ("c side\ns 0 1\n", "line 2: vertex id 0 must be positive"),
        ("p stg 2 0\nc note\ns 1 x\n", "line 3: non-integer side line"),
        ("1 2 +\n1 1 +\n", "line 2: loop at vertex 1"),
        ("1 2 +\nc again\n2 1 -\n", "line 3: edge (2,1) repeats line 1"),
        ("1 2 +\ns 1 0\ns 2 0\n", "line 1: edge (1,2) joins two side-0 vertices"),
    ],
)
def test_parse_graph_rejects_malformed_input(text, message):
    with pytest.raises(ParseError) as raised:
        parse_graph(text)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("p stg 2 5\n1 2 +\n", "line 1: header declares 5 edges, file has 1"),
        ("c two\np stg 3 1\n1 2 +\n2 3 -\n", "line 2: header declares 1 edges, file has 2"),
    ],
)
def test_parse_graph_checks_the_declared_edge_count(text, message):
    # a non-integer or negative count is checked with the other formats' in test_cnf.py
    with pytest.raises(ParseError) as raised:
        parse_graph(text)
    assert str(raised.value) == message


@pytest.mark.parametrize("seed", range(4))
def test_parse_graph_rejects_a_file_cut_at_a_line(seed):
    text = serialize_graph(gen_grid(2, 4, "random", seed))
    assert parse_graph(text).num_edges() == 24
    cut = text[:text.rindex("\n", 0, -1) + 1]
    with pytest.raises(ParseError) as raised:
        parse_graph(cut)
    assert str(raised.value) == "line 1: header declares 24 edges, file has 23"


def test_parse_graph_accepts_a_repeated_side():
    g = parse_graph("p stg 2 1\ns 1 0\ns 1 0\n1 2 +\n")
    assert (g.side(1), g.side(2)) == (SIDE_VAR, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_random_round_trip_and_contraction_invariants(seed):
    rng = random.Random(seed)
    g = random_bipartite_graph(rng, max_n=12)
    assert parse_graph(serialize_graph(g)) == g
    assert_red_queries_match_edges(g)

    log = ContractionLog(g)
    while len(log.vertices()) > 1:
        vs = log.vertices()
        u, v = rng.sample(vs, 2)
        before_bags = [log.bag(x) for x in vs]
        new = log.contract(log.label(u), log.label(v))
        h = log.snapshot()
        assert_red_queries_match_edges(h)
        # bags partition the original vertex set at every level
        bags = [h.bag(x) for x in h.vertices()]
        assert sorted(x for b in bags for x in b) == sorted(
            x for b in before_bags for x in b
        )
        assert h.bag(new) == g_bag_union(before_bags, vs, u, v)
        # the log's own red index is symmetric and matches its edge kinds,
        # and its edges are symmetric, at the current level
        current = log.vertices()
        for x in current:
            assert log.red_degree(x) == len(log.red_neighbors(x) & set(current))
            for y in log.red_neighbors(x) & set(current):
                assert log.edge(x, y) == RED and x in log.red_neighbors(y)
            for y in current:
                assert log.edge(x, y) == log.edge(y, x)
                assert (log.edge(x, y) == RED) == (y in log.red_neighbors(x))


def assert_red_queries_match_edges(graph):
    red = {v: set() for v in graph.vertices()}
    for u, v, kind in graph.edges():
        if kind == RED:
            red[u].add(v)
            red[v].add(u)
    for v, nbrs in red.items():
        assert graph.red_neighbors(v) == nbrs and graph.red_degree(v) == len(nbrs)
    assert graph.max_red_degree() == max(map(len, red.values()))


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
