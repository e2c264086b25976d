import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate_cw_text, random_cw_expression
from stww.cnf import ParseError
from stww.cwexpr import (
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


def test_parse_cw_reads_utf8_bytes():
    text = "ep 1 2 (un (leaf 1 caf\u00e9) (leaf 2 b))  # two leaves"
    expr = parse_cw(text.encode("utf-8"))
    assert expr == parse_cw(text) and expr.vertex_ids == {"caf\u00e9": 1, "b": 2}


def test_only_ascii_digit_names_are_vertex_ids():
    # "²" and "١٢" are digits to str.isdigit, and "١٢" decimal to
    # str.isdecimal, but they are names: ids follow leaf order
    for name in ["\u00b2", "\u0661\u0662"]:
        expr = parse_cw(f"leaf 1 {name}")
        assert expr.vertex_ids == {name: 1}
        assert evaluate(expr).vertices() == [1]
        assert expression([("leaf", 1, name)]).vertex_ids == {name: 1}
        expr = parse_cw(f"ep 1 2 (un (leaf 1 7) (leaf 2 {name}))")
        assert expr.vertex_ids == {"7": 1, name: 2}
        assert evaluate(expr).edge(1, 2) == POS
    # ASCII digits alone still name their ids
    assert parse_cw("un (leaf 1 7) (leaf 2 3)").vertex_ids == {"7": 7, "3": 3}


def test_serialize_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        expr = random_cw_expression(rng, k=rng.randint(1, 4), max_leaves=12)
        again = parse_cw(serialize_cw(expr))
        assert again.nodes == expr.nodes
        assert again.vertex_ids == expr.vertex_ids


@pytest.mark.parametrize(
    "text, match, line",
    [
        ("", "unexpected end", 1),
        ("un (leaf 1 a)", "unexpected end", 1),
        ("leaf x a", "expected a label", 1),
        ("frob 1 2", "unknown node kind", 1),
        ("leaf 1 a leaf 1 b", "trailing", 1),
        ("rl 1 1 (leaf 1 a)", "no-op", 1),
        ("ep 1 1 (leaf 1 a)", "distinct", 1),
        ("un (leaf 1 a) (leaf 1 a)", "duplicate vertex name", 1),
        ("un # two leaves\n  (leaf 1 a)\n  (leaf 0 b)", "label 0 must be positive", 3),
        ("ep 1 2 (en 1 2 (un (leaf 1 1) (leaf 2 2)))", None, None),
    ],
)
def test_parse_and_build_errors(text, match, line):
    if match is None:
        # both signs on one pair is an evaluation-time error
        with pytest.raises(ValueError, match="both signs"):
            evaluate(parse_cw(text))
    else:
        with pytest.raises(ParseError, match=match) as info:
            parse_cw(text)
        assert info.value.line == line


def test_node_and_expression_validations():
    for nodes, match in [
        ([("leaf", 0, "a")], "label 0 must be positive"),
        ([("rl", 1, 1), ("leaf", 1, "a")], "no-op"),
        ([("ep", 0, 2), ("leaf", 1, "a")], "labels must be positive"),
        ([("ep", 1, 1), ("leaf", 1, "a")], "distinct"),
        ([("ex", 1, 2), ("leaf", 1, "a")], "unknown node"),
        ([("rl", 1, "2"), ("leaf", 1, "a")], "malformed node"),
        ([("un",), ("leaf", 1, "a")], "unfinished"),
        ([], "unfinished"),
        ([("leaf", 1, "a"), ("leaf", 1, "b")], "trailing"),
        # numeric names "1" and "01" collide as vertex ids
        ([("un",), ("leaf", 1, "1"), ("leaf", 1, "01")], "distinct positive"),
    ]:
        with pytest.raises(ValueError, match=match):
            expression(nodes)


def test_names_the_text_format_cannot_carry():
    # each would serialize to text that parses differently or not at all
    for name in ["a b", "x#y", "a(", ")", "", " a", "a\n"]:
        with pytest.raises(ValueError, match="vertex name"):
            expression([("un",), ("leaf", 1, name), ("leaf", 2, "z")])


def test_outputs_are_pinned():
    _, seq = cw_to_sequence(parse_cw(P4_TEXT))
    assert seq.steps == ((1, 2), (3, 4), (3, 1))
    # acceptance criterion 6's expressions: their text and their sequences
    records = []
    for seed in range(50):
        rng = random.Random(6000 + seed)
        k = rng.randint(1, 4)
        expr = random_cw_expression(rng, k, max_leaves=20)
        _, seq = cw_to_sequence(expr)
        records.append([serialize_cw(expr), [list(step) for step in seq.steps]])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "3fc2eb454b18848a471006333f4cbfdbaeaa8b7994cf440d9e2cb5aa1fcbf98c"


SOUP = ["leaf", "un", "rl", "ep", "en", "0", "1", "2", "-1", "a", "(", ")", "#", "\n"]


@st.composite
def mutated_text(draw):
    """A serialized random expression with one character replaced."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    text = serialize_cw(random_cw_expression(rng, rng.randint(1, 4), max_leaves=8))
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from("leafunrlpn0123-a()# \n")) + text[at + 1:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_text(), st.lists(st.sampled_from(SOUP), max_size=30).map(" ".join)))
def test_parse_raises_only_parse_errors_and_round_trips(text):
    try:
        expr = parse_cw(text)
    except ParseError:
        return
    assert parse_cw(serialize_cw(expr)).nodes == expr.nodes


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
    # the caterpillar's path, built as node tuples instead of parsed
    step = (("rl", 2, 1), ("rl", 1, 3), ("ep", 1, 2), ("un",))
    nodes = [node for v in range(1000, 1, -1) for node in (*step, ("leaf", 2, str(v)))]
    expr = expression([*nodes, ("leaf", 1, "1")])
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
    assert again.nodes == expr.nodes
    assert hash(again.nodes) == hash(expr.nodes)
    # the same tree but for one leaf's name
    renamed = parse_cw(caterpillar(n).replace(f"leaf 2 {n // 2} ", f"leaf 2 x{n // 2} "))
    assert renamed.nodes != expr.nodes
