"""Signed trigraphs: immutable graph values with positive, negative and red
edges, signed incidence graphs, and the .stg edge-list format.

A trigraph vertex may carry a side tag (SIDE_VAR or SIDE_CLA) so that
bipartite contraction sequences can be enforced; plain vertices have side
None.  Every vertex owns a bag: the set of original vertices contracted
into it.  Contraction itself happens in sequence.ContractionLog; a
SignedTrigraph is an input, a snapshot of a log's last level, or a
generator's output.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .cnf import Formula, ParseError, header_counts, token_lines

POS = "+"
NEG = "-"
RED = "r"
EDGE_KINDS = (POS, NEG, RED)

SIDE_VAR = 0
SIDE_CLA = 1


class SignedTrigraph:
    """Immutable signed trigraph.

    Edges are stored as adjacency maps vertex -> neighbor -> kind, the one
    record of every edge; red neighbourhoods and degrees are read off it.
    """

    __slots__ = ("_adj", "_side", "_bag")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, str]] = (),
        sides: Mapping[int, int | None] | None = None,
        bags: Mapping[int, Iterable[int]] | None = None,
    ) -> None:
        adj: dict[int, dict[int, str]] = {}
        for v in vertices:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids must be positive integers, got {v!r}")
            if v in adj:
                raise ValueError(f"duplicate vertex {v}")
            adj[v] = {}
        side: dict[int, int | None] = {v: None for v in adj}
        if sides:
            for v, s in sides.items():
                if v not in adj:
                    raise ValueError(f"side given for unknown vertex {v}")
                if s not in (None, SIDE_VAR, SIDE_CLA):
                    raise ValueError(f"bad side {s!r} for vertex {v}")
                side[v] = s
        for u, v, kind in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if kind not in EDGE_KINDS:
                raise ValueError(f"bad edge kind {kind!r}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            if side[u] is not None and side[u] == side[v]:
                raise ValueError(f"edge ({u},{v}) joins two side-{side[u]} vertices")
            adj[u][v] = kind
            adj[v][u] = kind
        bag: dict[int, frozenset[int]] = {v: frozenset((v,)) for v in adj}
        if bags:
            for v, contents in bags.items():
                if v not in adj:
                    raise ValueError(f"bag given for unknown vertex {v}")
                bag[v] = frozenset(contents)
        self._adj = adj
        self._side = side
        self._bag = bag

    # -- queries ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def side(self, v: int) -> int | None:
        return self._side[v]

    def bag(self, v: int) -> frozenset[int]:
        return self._bag[v]

    def edge(self, u: int, v: int) -> str | None:
        return self._adj[u].get(v)

    def neighbors(self, v: int) -> Mapping[int, str]:
        return self._adj[v]

    def red_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(w for w, kind in self._adj[v].items() if kind == RED)

    def red_degree(self, v: int) -> int:
        return sum(kind == RED for kind in self._adj[v].values())

    def edges(self) -> Iterator[tuple[int, int, str]]:
        for u, nbrs in self._adj.items():
            for v, kind in nbrs.items():
                if u < v:
                    yield (u, v, kind)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def max_red_degree(self) -> int:
        return max(map(self.red_degree, self._adj), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedTrigraph):
            return NotImplemented
        return (
            self._adj == other._adj
            and self._side == other._side
            and self._bag == other._bag
        )

    def __repr__(self) -> str:
        return (
            f"SignedTrigraph({self.num_vertices} vertices, "
            f"{self.num_edges()} edges, max red degree {self.max_red_degree()})"
        )


def require_sides(graph: SignedTrigraph, what: str) -> None:
    """ValueError naming `what` unless every vertex of graph has a side."""
    for v in graph.vertices():
        if graph.side(v) is None:
            raise ValueError(f"{what} needs every vertex on a side; {v} has none")


def incidence_graph(formula: Formula) -> SignedTrigraph:
    """Signed incidence trigraph of a formula.

    Variables become vertices 1..num_vars on side SIDE_VAR; clauses become
    vertices num_vars+1.. on side SIDE_CLA in clause order.  A variable and
    a clause are joined by POS if the clause contains the positive literal,
    NEG if it contains the negative one.
    """
    n = formula.num_vars
    vertices = list(range(1, n + 1 + formula.num_clauses))
    sides: dict[int, int | None] = {v: SIDE_VAR for v in range(1, n + 1)}
    edges: list[tuple[int, int, str]] = []
    for idx, clause in enumerate(formula.clauses):
        c = n + 1 + idx
        sides[c] = SIDE_CLA
        for lit in clause:
            edges.append((abs(lit), c, POS if lit > 0 else NEG))
    return SignedTrigraph(vertices, edges, sides)


def clause_vertex(formula: Formula, clause_index: int) -> int:
    """Incidence-graph vertex id of the clause at the given index."""
    if not 0 <= clause_index < formula.num_clauses:
        raise IndexError(f"clause index {clause_index} out of range")
    return formula.num_vars + 1 + clause_index


def serialize_graph(graph: SignedTrigraph) -> str:
    """Render a trigraph as an edge list with kind tags.

    Format: a ``p stg <n> <m>`` header, optional ``s <vertex> <side>`` lines
    for sided vertices, then one ``u v +|-|r`` line per edge.  Vertex ids
    must be 1..n, which is what the file reads back as; other ids raise
    ValueError.
    """
    vertices = graph.vertices()
    if vertices and vertices[-1] != len(vertices):
        raise ValueError(f"vertex id {vertices[-1]} out of range 1..{len(vertices)}")
    lines = [f"p stg {len(vertices)} {graph.num_edges()}"]
    for v in vertices:
        if graph.side(v) is not None:
            lines.append(f"s {v} {graph.side(v)}")
    for u, v, kind in sorted(graph.edges()):
        lines.append(f"{u} {v} {kind}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str | bytes) -> SignedTrigraph:
    """Parse the edge-list format written by serialize_graph.

    The header is optional: without it, vertices are inferred as 1..max id
    seen in edge or side lines (isolated vertices then need side lines).
    With it, the file must hold as many edge lines as it declares.
    """
    n: int | None = None
    declared_edges, header_line = 0, 0
    sides: dict[int, int | None] = {}
    edges: list[tuple[int, int, str]] = []
    # each vertex pair with an edge, and the line of that edge
    pairs: dict[tuple[int, int], int] = {}
    # the largest id seen, and the first line naming it
    max_seen, max_line = 0, 0
    for lineno, fields in token_lines(text):
        if fields[0][0] == "c":
            continue
        if fields[0] == "p":
            n, declared_edges = header_counts(fields, lineno, "p stg <n> <m>", n is not None)
            header_line = lineno
            continue
        if fields[0] == "s":
            if len(fields) != 3:
                raise ParseError("expected 's <vertex> <side>'", lineno)
            try:
                v = int(fields[1])
                s = int(fields[2])
            except ValueError:
                raise ParseError("non-integer side line", lineno) from None
            if v < 1:
                raise ParseError(f"vertex id {v} must be positive", lineno)
            if s not in (SIDE_VAR, SIDE_CLA):
                raise ParseError(f"bad side {s}", lineno)
            if sides.setdefault(v, s) != s:
                raise ParseError(f"vertex {v} given sides {sides[v]} and {s}", lineno)
            ids = (v,)
        else:
            if len(fields) != 3 or fields[2] not in EDGE_KINDS:
                raise ParseError("expected edge line 'u v +|-|r'", lineno)
            try:
                ids = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise ParseError("non-integer vertex id", lineno) from None
            if min(ids) < 1:
                raise ParseError(f"vertex id {min(ids)} must be positive", lineno)
            if ids[0] == ids[1]:
                raise ParseError(f"loop at vertex {ids[0]}", lineno)
            pair = (min(ids), max(ids))
            if pair in pairs:
                raise ParseError(f"edge ({ids[0]},{ids[1]}) repeats line {pairs[pair]}", lineno)
            pairs[pair] = lineno
            edges.append((*ids, fields[2]))
        if max(ids) > max_seen:
            max_seen, max_line = max(ids), lineno
    if n is None:
        n = max_seen
    elif len(edges) != declared_edges:
        raise ParseError(f"header declares {declared_edges} edges, file has {len(edges)}", header_line)
    if max_seen > n:
        raise ParseError(f"vertex id {max_seen} exceeds declared count {n}", max_line)
    for u, v, _ in edges:
        if sides.get(u) is not None and sides.get(u) == sides.get(v):
            raise ParseError(f"edge ({u},{v}) joins two side-{sides[u]} vertices",
                             pairs[min(u, v), max(u, v)])
    return SignedTrigraph(range(1, n + 1), edges, sides)
