"""Signed clique-width expressions and their contraction-sequence transform.

Expression text is prefix notation with five node kinds:

    leaf <label> <name>     introduce one vertex with the given label
    un <e1> <e2>            disjoint union
    rl <i> <j> <e>          relabel i -> j
    ep <i> <j> <e>          insert positive edges between labels i and j
    en <i> <j> <e>          insert negative edges between labels i and j

Parentheses may be used for grouping but carry no meaning; the fixed
arities make the prefix form unambiguous.  Vertex names that are all
digits are used as vertex ids directly, otherwise ids are assigned in
leaf order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Union

from .cnf import ParseError
from .sequence import ContractionSequence
from .trigraph import NEG, POS, SignedTrigraph

CwNode = Union["CwLeaf", "CwUnion", "CwRelabel", "CwEdge"]


class _Node:
    """Equality and hashing of expression trees, node by node in prefix
    order on an explicit stack, so trees of any depth compare and hash
    without recursion.  Each node kind has a fixed arity, so two trees are
    equal exactly when their prefix sequences of (kind, non-child fields)
    are."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return all(a == b for a, b in zip_longest(_prefix(self), _prefix(other)))

    def __hash__(self) -> int:
        return hash(tuple(_prefix(self)))


@dataclass(frozen=True, eq=False)
class CwLeaf(_Node):
    label: int
    name: str

    def __post_init__(self) -> None:
        if self.label < 1:
            raise ValueError(f"label {self.label} must be positive")
        if not self.name:
            raise ValueError("empty vertex name")


@dataclass(frozen=True, eq=False)
class CwUnion(_Node):
    left: CwNode
    right: CwNode


@dataclass(frozen=True, eq=False)
class CwRelabel(_Node):
    old: int
    new: int
    child: CwNode

    def __post_init__(self) -> None:
        if self.old < 1 or self.new < 1:
            raise ValueError("labels must be positive")
        if self.old == self.new:
            raise ValueError(f"relabel {self.old}->{self.new} is a no-op")


@dataclass(frozen=True, eq=False)
class CwEdge(_Node):
    label_a: int
    label_b: int
    sign: str
    child: CwNode

    def __post_init__(self) -> None:
        if self.label_a < 1 or self.label_b < 1:
            raise ValueError("labels must be positive")
        if self.label_a == self.label_b:
            raise ValueError("edge insertion needs two distinct labels")
        if self.sign not in (POS, NEG):
            raise ValueError(f"bad edge sign {self.sign!r}")


@dataclass(frozen=True)
class CliqueWidthExpression:
    root: CwNode
    num_labels: int
    vertex_ids: dict[str, int]


def _children(node: CwNode) -> tuple[CwNode, ...]:
    if isinstance(node, CwUnion):
        return (node.left, node.right)
    if isinstance(node, CwLeaf):
        return ()
    return (node.child,)


def _tour(root: CwNode):
    """(node, True) on entering each node and (node, False) on leaving it,
    its children visited in order in between, on an explicit stack, so an
    expression of any depth is walked without recursion."""
    stack = [(root, True)]
    while stack:
        node, entering = stack.pop()
        yield node, entering
        if entering:
            stack.append((node, False))
            stack.extend((child, True) for child in reversed(_children(node)))


def _prefix(root: CwNode):
    """(kind, fields other than children) of every node, in prefix order."""
    for node, entering in _tour(root):
        if entering:
            yield type(node), *(value for value in vars(node).values() if not isinstance(value, _Node))


def _fold(root: CwNode, visit):
    """visit(node, *children's results) for every node, children first and
    left before right; returns the root's result."""
    results: list = []
    for node, entering in _tour(root):
        if not entering:
            arity = len(_children(node))
            args = results[len(results) - arity:]
            del results[len(results) - arity:]
            results.append(visit(node, *args))
    return results[0]


def expression(root: CwNode) -> CliqueWidthExpression:
    """Wrap a node tree, assigning vertex ids and the label universe."""
    names: dict[str, None] = {}
    max_label = 0
    for node, entering in _tour(root):
        if not entering:
            continue
        if isinstance(node, CwLeaf):
            if node.name in names:
                raise ValueError(f"duplicate vertex name {node.name!r}")
            names[node.name] = None
            max_label = max(max_label, node.label)
        elif isinstance(node, CwRelabel):
            max_label = max(max_label, node.old, node.new)
        elif isinstance(node, CwEdge):
            max_label = max(max_label, node.label_a, node.label_b)
    if not names:
        raise ValueError("expression has no leaves")
    if all(name.isdigit() for name in names):
        ids = {name: int(name) for name in names}
        if any(v < 1 for v in ids.values()) or len(set(ids.values())) != len(ids):
            raise ValueError("numeric vertex names must be distinct positive ids")
    else:
        ids = {name: idx for idx, name in enumerate(names, start=1)}
    return CliqueWidthExpression(root, max_label, ids)


_BUILDERS = {
    "leaf": CwLeaf,
    "un": CwUnion,
    "rl": CwRelabel,
    "ep": lambda a, b, child: CwEdge(a, b, POS, child),
    "en": lambda a, b, child: CwEdge(a, b, NEG, child),
}


def parse_cw(text: str | bytes) -> CliqueWidthExpression:
    """Parse the prefix expression grammar described in the module docstring."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    tokens: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].replace("(", " ").replace(")", " ")
        tokens.extend((tok, lineno) for tok in line.split())
    pos = 0

    def take(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][1] if tokens else 1
            raise ParseError(f"unexpected end of expression, wanted {what}", last)
        pos += 1
        return tokens[pos - 1]

    def take_int(what: str) -> int:
        tok, line = take(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", line) from None

    def build(kind: str, line: int, *args) -> CwNode:
        try:
            return _BUILDERS[kind](*args)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None

    # the inner nodes still missing a child: kind, line, arguments so far
    pending: list[tuple[str, int, list]] = []
    while True:
        tok, line = take("a node kind")
        if tok == "leaf":
            node = build(tok, line, take_int("a label"), take("a vertex name")[0])
        elif tok in _BUILDERS:
            args = [] if tok == "un" else [take_int("a label"), take_int("a label")]
            pending.append((tok, line, args))
            continue
        else:
            raise ParseError(f"unknown node kind {tok!r}", line)
        # a finished node completes every pending node it was the last child of
        while pending:
            kind, kind_line, args = pending[-1]
            args.append(node)
            if kind == "un" and len(args) == 1:
                break
            pending.pop()
            node = build(kind, kind_line, *args)
        else:
            break
    root = node
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after expression: {tokens[pos][0]!r}", tokens[pos][1])
    try:
        return expression(root)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def serialize_cw(expr: CliqueWidthExpression) -> str:
    """Prefix text of the expression, each child in parentheses."""
    pieces: list[str] = []
    depth = 0
    for node, entering in _tour(expr.root):
        if not entering:
            depth -= 1
            if depth:
                pieces.append(")")
            continue
        if depth:
            pieces.append(" (")
        depth += 1
        if isinstance(node, CwLeaf):
            pieces.append(f"leaf {node.label} {node.name}")
        elif isinstance(node, CwUnion):
            pieces.append("un")
        elif isinstance(node, CwRelabel):
            pieces.append(f"rl {node.old} {node.new}")
        else:
            op = "ep" if node.sign == POS else "en"
            pieces.append(f"{op} {node.label_a} {node.label_b}")
    return "".join(pieces) + "\n"


def _classes(expr: CliqueWidthExpression):
    """Fold the expression once, keeping each label's class of vertices as
    (representative, members).

    Returns the evaluation graph, cw_to_sequence's steps before its final
    merges of the root's labels, and the root's classes.  A merge keeps the
    representative of the class it merges into and extends the larger
    member list by the smaller, so the fold takes O(n log n) time plus one
    step per vertex pair an edge node joins.
    """
    ids = expr.vertex_ids
    edges: dict[tuple[int, int], str] = {}
    steps: list[tuple[int, int]] = []

    def merge(into: tuple[int, list[int]], other: tuple[int, list[int]]) -> tuple[int, list[int]]:
        (rep, members), (other_rep, other_members) = into, other
        steps.append((rep, other_rep))
        if len(members) < len(other_members):
            members, other_members = other_members, members
        members.extend(other_members)
        return rep, members

    def visit(node: CwNode, *children) -> dict[int, tuple[int, list[int]]]:
        if isinstance(node, CwLeaf):
            v = ids[node.name]
            return {node.label: (v, [v])}
        if isinstance(node, CwUnion):
            classes, right = children
            for label, cls in sorted(right.items()):
                classes[label] = merge(classes[label], cls) if label in classes else cls
            return classes
        (classes,) = children
        if isinstance(node, CwRelabel):
            if node.old in classes:
                cls = classes.pop(node.old)
                classes[node.new] = merge(classes[node.new], cls) if node.new in classes else cls
            return classes
        if node.label_a in classes and node.label_b in classes:
            for x in classes[node.label_a][1]:
                for y in classes[node.label_b][1]:
                    pair = (x, y) if x < y else (y, x)
                    existing = edges.get(pair)
                    if existing is not None and existing != node.sign:
                        raise ValueError(
                            f"edge {pair} inserted with both signs by the expression"
                        )
                    edges[pair] = node.sign
        return classes

    classes = _fold(expr.root, visit)
    graph = SignedTrigraph(
        sorted(v for _, members in classes.values() for v in members),
        [(u, v, sign) for (u, v), sign in sorted(edges.items())],
    )
    return graph, steps, classes


def evaluate(expr: CliqueWidthExpression) -> SignedTrigraph:
    """Evaluation graph of the expression.

    Inserting an edge over a pair that already carries the opposite sign is
    an error; re-inserting the same sign is a no-op.
    """
    return _classes(expr)[0]


def cw_to_sequence(expr: CliqueWidthExpression) -> tuple[SignedTrigraph, ContractionSequence]:
    """Evaluation graph plus a full contraction sequence of width <= 2k.

    Processes the expression bottom-up keeping one representative vertex
    per label: a relabel i->j contracts the i-representative into the
    j-representative, a union contracts the right operand's representative
    into the left one's per common label in ascending label order, and edge
    insertions contract nothing.  Leftover root labels are merged into the
    smallest one at the end, so the sequence always ends at one vertex.
    """
    graph, steps, classes = _classes(expr)
    reps = [rep for _, (rep, _) in sorted(classes.items())]
    steps.extend((reps[0], rep) for rep in reps[1:])
    if len(steps) != graph.num_vertices - 1:
        raise AssertionError(
            f"transform produced {len(steps)} steps for {graph.num_vertices} vertices"
        )
    seq = ContractionSequence(tuple(steps), num_vertices=max(graph.vertices()))
    return graph, seq
