import random
import time

import pytest

from helpers import evaluate_cw_text, random_cw_expression
from stww.cnf import ParseError
from stww.cwexpr import (
    CwEdge,
    CwLeaf,
    CwRelabel,
    CwUnion,
    cw_to_sequence,
    evaluate,
    expression,
    parse_cw,
    serialize_cw,
)
from stww.sequence import verify
from stww.trigraph import NEG, POS


P4_TEXT = """
# signed path 1 -+ 2 -+ 3 -- 4, grown left to right;
# label 3 parks finished vertices
en 1 2 (un
  (rl 2 3 (ep 1 2 (un
    (rl 1 3 (ep 1 2 (un (leaf 1 1) (leaf 2 2))))
    (leaf 1 3))))
  (leaf 2 4))
"""


def test_parse_evaluate_path():
    expr = parse_cw(P4_TEXT)
    graph = evaluate(expr)
    assert expr.num_labels == 3
    assert graph.vertices() == [1, 2, 3, 4]
    assert graph.edge(1, 2) == POS
    assert graph.edge(2, 3) == POS
    assert graph.edge(3, 4) == NEG
    assert graph.edge(1, 4) is None
    assert graph.edge(1, 3) is None


def test_named_leaves_get_sequential_ids():
    expr = parse_cw("ep 1 2 (un (leaf 1 a) (leaf 2 b))")
    assert expr.vertex_ids == {"a": 1, "b": 2}
    assert evaluate(expr).edge(1, 2) == POS


def test_serialize_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        expr = random_cw_expression(rng, k=rng.randint(1, 4), max_leaves=12)
        again = parse_cw(serialize_cw(expr))
        assert again.root == expr.root
        assert again.vertex_ids == expr.vertex_ids


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "unexpected end"),
        ("un (leaf 1 a)", "unexpected end"),
        ("leaf x a", "expected a label"),
        ("frob 1 2", "unknown node kind"),
        ("leaf 1 a leaf 1 b", "trailing"),
        ("rl 1 1 (leaf 1 a)", "no-op"),
        ("ep 1 1 (leaf 1 a)", "distinct"),
        ("un (leaf 1 a) (leaf 1 a)", "duplicate vertex name"),
        ("ep 1 2 (en 1 2 (un (leaf 1 1) (leaf 2 2)))", None),
    ],
)
def test_parse_and_build_errors(text, match):
    if match is None:
        # both signs on one pair is an evaluation-time error
        with pytest.raises(ValueError, match="both signs"):
            evaluate(parse_cw(text))
    else:
        with pytest.raises(ParseError, match=match):
            parse_cw(text)


def test_node_and_expression_validations():
    with pytest.raises(ValueError):
        CwLeaf(0, "a")
    with pytest.raises(ValueError):
        CwLeaf(1, "")
    with pytest.raises(ValueError):
        CwRelabel(1, 1, CwLeaf(1, "a"))
    with pytest.raises(ValueError):
        CwEdge(1, 2, "?", CwLeaf(1, "a"))
    # numeric names "1" and "01" collide as vertex ids
    with pytest.raises(ValueError, match="distinct positive"):
        expression(CwUnion(CwLeaf(1, "1"), CwLeaf(1, "01")))


def test_transform_width_bound_on_path():
    expr = parse_cw(P4_TEXT)
    graph, seq = cw_to_sequence(expr)
    assert graph == evaluate(expr)
    report = verify(graph, seq)
    assert report.ok
    assert report.width <= 2 * expr.num_labels
    assert len(seq) == graph.num_vertices - 1


def test_random_expressions_meet_bound_and_match_reference():
    for seed in range(40):
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        expr = random_cw_expression(rng, k, max_leaves=14)
        graph, seq = cw_to_sequence(expr)
        report = verify(graph, seq)
        assert report.ok
        assert report.width <= 2 * k

        vertices, edges = evaluate_cw_text(serialize_cw(expr))
        assert vertices == set(graph.vertices())
        assert {(u, v): kind for u, v, kind in graph.edges()} == edges


def caterpillar(n):
    """A path on vertices 1..n as one deep expression: each step unions a
    new vertex at label 2 with the path so far, joins it to the path's end
    at label 1, parks the old end at label 3 and makes the new vertex the
    end.  The node tree is about 4n deep."""
    steps = " ".join(f"rl 2 1 rl 1 3 ep 1 2 un leaf 2 {v}" for v in range(n, 1, -1))
    return steps + " leaf 1 1"


def test_deep_expressions_parse_serialize_and_transform_without_recursion():
    # each label-2 leaf joined to every earlier vertex: K_n, so only parsed
    n = 5000
    clique = " ".join(f"rl 2 1 ep 1 2 un leaf 2 v{i}" for i in range(n, 1, -1)) + " leaf 1 v1"
    expr = parse_cw(clique)
    assert len(expr.vertex_ids) == n and expr.num_labels == 2
    text = serialize_cw(expr)
    assert serialize_cw(parse_cw(text)) == text

    expr = parse_cw(caterpillar(n))
    text = serialize_cw(expr)
    assert serialize_cw(parse_cw(text)) == text
    graph, seq = cw_to_sequence(expr)
    assert {(u, v) for u, v, _ in graph.edges()} == {(v, v + 1) for v in range(1, n)}
    report = verify(graph, seq)
    assert report.ok and report.width <= 2 * expr.num_labels


def test_deep_node_trees_wrap_and_evaluate_without_recursion():
    # the caterpillar's path, built as nodes instead of parsed
    node = CwLeaf(1, "1")
    for v in range(2, 1001):
        node = CwRelabel(2, 1, CwRelabel(1, 3, CwEdge(1, 2, POS, CwUnion(CwLeaf(2, str(v)), node))))
    expr = expression(node)
    assert expr.num_labels == 3 and len(expr.vertex_ids) == 1000
    assert sum(1 for _ in evaluate(expr).edges()) == 999


def test_deep_caterpillar_converts_in_near_linear_time():
    # each label keeps its class as a member list, merged smaller into
    # larger, so no node scans every vertex
    n = 20000
    expr = parse_cw(caterpillar(n))
    start = time.perf_counter()
    graph, seq = cw_to_sequence(expr)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"cw_to_sequence took {elapsed:.1f} s at n = {n}"
    assert {(u, v) for u, v, _ in graph.edges()} == {(v, v + 1) for v in range(1, n)}
    assert len(seq) == n - 1


def test_deep_trees_compare_and_hash_without_recursion():
    n = 5000
    expr = parse_cw(caterpillar(n))
    again = parse_cw(serialize_cw(expr))
    assert again.root == expr.root
    assert hash(again.root) == hash(expr.root)
    # the same tree but for one leaf's name
    renamed = parse_cw(caterpillar(n).replace(f"leaf 2 {n // 2} ", f"leaf 2 x{n // 2} "))
    assert renamed.root != expr.root
