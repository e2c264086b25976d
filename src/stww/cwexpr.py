"""Signed clique-width expressions and their contraction-sequence transform.

Expression text is prefix notation with five node kinds:

    leaf <label> <name>     introduce one vertex with the given label
    un <e1> <e2>            disjoint union
    rl <i> <j> <e>          relabel i -> j
    ep <i> <j> <e>          insert positive edges between labels i and j
    en <i> <j> <e>          insert negative edges between labels i and j

Parentheses may be used for grouping but carry no meaning; the fixed
arities make the prefix form unambiguous.  When every vertex name is
all ASCII digits, the names are used as vertex ids directly; otherwise
ids are assigned in leaf order, so a name of other digits, such as "²"
or "١٢", is a name like any other.

An expression is held as that prefix sequence itself: a tuple of flat node
tuples, ("leaf", label, name), ("un",) and (kind, i, j) for rl, ep and en.
A tuple of flat tuples compares, hashes and iterates without recursion, so
an expression of any depth does too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import ParseError, token_lines
from .sequence import ContractionSequence
from .trigraph import NEG, POS, SignedTrigraph

# the number of children of each node kind
_ARITY = {"leaf": 0, "un": 2, "rl": 1, "ep": 1, "en": 1}
_SIGN = {"ep": POS, "en": NEG}


@dataclass(frozen=True)
class CliqueWidthExpression:
    nodes: tuple[tuple, ...]
    num_labels: int
    vertex_ids: dict[str, int]


def _check(node: tuple) -> None:
    """Raise ValueError unless node is a well-formed node tuple.  A leaf's
    name must be one token of the text format: no whitespace, '(', ')' or
    '#'."""
    if not isinstance(node, tuple) or not node or node[0] not in _ARITY:
        raise ValueError(f"unknown node {node!r}")
    kind, *fields = node
    labels = fields[:1] if kind == "leaf" else fields
    if len(fields) != (0 if kind == "un" else 2) or any(type(label) is not int for label in labels):
        raise ValueError(f"malformed node {node!r}")
    if kind == "leaf":
        label, name = fields
        if label < 1:
            raise ValueError(f"label {label} must be positive")
        if not isinstance(name, str) or name.split() != [name] or set(name) & set("()#"):
            raise ValueError(f"vertex name {name!r} is not one token without '(', ')' or '#'")
    elif fields:
        a, b = fields
        if a < 1 or b < 1:
            raise ValueError("labels must be positive")
        if a == b and kind == "rl":
            raise ValueError(f"relabel {a}->{b} is a no-op")
        if a == b:
            raise ValueError("edge insertion needs two distinct labels")


def _walk(nodes):
    """(node, depth, True) for each node in prefix order, and (node, depth,
    False) once its last child is complete, on an explicit stack, so an
    expression of any depth is walked without recursion.  Raises ValueError
    on nodes after the end of the expression or an expression cut short."""
    # each open node with the number of children it still misses
    stack: list[list] = []
    done = False
    for node in nodes:
        if done:
            raise ValueError(f"trailing nodes after expression: {node!r}")
        yield node, len(stack), True
        stack.append([node, _ARITY[node[0]]])
        while stack and not stack[-1][1]:
            node = stack.pop()[0]
            yield node, len(stack), False
            if stack:
                stack[-1][1] -= 1
        done = not stack
    if not done:
        raise ValueError("unfinished expression")


def expression(nodes) -> CliqueWidthExpression:
    """Wrap node tuples given in prefix order, checking each, and assign the
    vertex ids and the label universe."""
    nodes = tuple(nodes)
    names: dict[str, None] = {}
    max_label = 0
    for node in nodes:
        _check(node)
        if node[0] == "leaf":
            if node[2] in names:
                raise ValueError(f"duplicate vertex name {node[2]!r}")
            names[node[2]] = None
            max_label = max(max_label, node[1])
        elif node[0] != "un":
            max_label = max(max_label, node[1], node[2])
    for _ in _walk(nodes):
        pass
    if all(name.isascii() and name.isdigit() for name in names):
        ids = {name: int(name) for name in names}
        if any(v < 1 for v in ids.values()) or len(set(ids.values())) != len(ids):
            raise ValueError("numeric vertex names must be distinct positive ids")
    else:
        ids = {name: idx for idx, name in enumerate(names, start=1)}
    return CliqueWidthExpression(nodes, max_label, ids)


def parse_cw(text: str | bytes) -> CliqueWidthExpression:
    """Parse the prefix expression grammar described in the module docstring."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    blanked = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    lines = token_lines(blanked.replace("(", " ").replace(")", " "))
    tokens = [(tok, lineno) for lineno, fields in lines for tok in fields]
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

    nodes: list[tuple] = []
    needed = 1  # the children still missing, the root's place included
    while needed:
        kind, line = take("a node kind")
        if kind not in _ARITY:
            raise ParseError(f"unknown node kind {kind!r}", line)
        if kind == "leaf":
            node = (kind, take_int("a label"), take("a vertex name")[0])
        elif kind == "un":
            node = (kind,)
        else:
            node = (kind, take_int("a label"), take_int("a label"))
        try:
            _check(node)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
        nodes.append(node)
        needed += _ARITY[kind] - 1
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after expression: {tokens[pos][0]!r}", tokens[pos][1])
    try:
        return expression(nodes)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def serialize_cw(expr: CliqueWidthExpression) -> str:
    """Prefix text of the expression, each child in parentheses."""
    pieces: list[str] = []
    for node, depth, entering in _walk(expr.nodes):
        if entering:
            text = " ".join(map(str, node))
            pieces.append(f" ({text}" if depth else text)
        elif depth:
            pieces.append(")")
    return "".join(pieces) + "\n"


def _classes(expr: CliqueWidthExpression):
    """Fold the expression once, children first, keeping each label's class
    of vertices as (representative, members).

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

    # the classes of each complete node whose parent is not yet complete
    results: list[dict[int, tuple[int, list[int]]]] = []
    for node, _, entering in _walk(expr.nodes):
        if entering:
            continue
        kind = node[0]
        if kind == "leaf":
            v = ids[node[2]]
            results.append({node[1]: (v, [v])})
            continue
        if kind == "un":
            right = results.pop()
            classes = results[-1]
            for label, cls in sorted(right.items()):
                classes[label] = merge(classes[label], cls) if label in classes else cls
            continue
        classes = results[-1]
        _, a, b = node
        if kind == "rl":
            if a in classes:
                cls = classes.pop(a)
                classes[b] = merge(classes[b], cls) if b in classes else cls
        elif a in classes and b in classes:
            sign = _SIGN[kind]
            for x in classes[a][1]:
                for y in classes[b][1]:
                    pair = (x, y) if x < y else (y, x)
                    existing = edges.get(pair)
                    if existing is not None and existing != sign:
                        raise ValueError(f"edge {pair} inserted with both signs by the expression")
                    edges[pair] = sign
    (classes,) = results
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
