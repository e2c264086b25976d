"""Signed trigraphs: positive, negative, and red edges, plus contraction.

A trigraph vertex may carry a side tag (SIDE_VAR or SIDE_CLA) so that
bipartite contraction sequences can be enforced; plain vertices have side
None.  Every vertex owns a bag: the set of original vertices contracted
into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .cnf import Formula, ParseError

POS = "+"
NEG = "-"
RED = "r"
EDGE_KINDS = (POS, NEG, RED)

SIDE_VAR = 0
SIDE_CLA = 1


@dataclass(frozen=True)
class RedDegreeReport:
    per_vertex: dict[int, int]
    max_red_degree: int


def merge_edges(nu: Mapping[int, str], nv: Mapping[int, str]) -> dict[int, str]:
    """Edges of the vertex contracted from u and v, given their neighbourhoods.

    For every x adjacent to u or v the merged edge is POS if both ux and vx
    are POS, NEG if both are NEG, and RED in every other case; x adjacent to
    neither stays non-adjacent.
    """
    return {x: (nu.get(x) if nu.get(x) == nv.get(x) else RED) for x in set(nu) | set(nv)}


class SignedTrigraph:
    """Immutable signed trigraph; contract() returns a new graph.

    Edges are stored as adjacency maps vertex -> neighbor -> kind, with red
    neighborhoods additionally indexed per vertex for cheap red-degree
    queries.  A contraction's merged vertex always receives a fresh id
    (one past the current maximum), so ids never clash across a sequence.
    """

    __slots__ = ("_adj", "_red", "_side", "_bag", "_next_id")

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
        red: dict[int, set[int]] = {v: set() for v in adj}
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
            if kind == RED:
                red[u].add(v)
                red[v].add(u)
        bag: dict[int, frozenset[int]] = {v: frozenset((v,)) for v in adj}
        if bags:
            for v, contents in bags.items():
                if v not in adj:
                    raise ValueError(f"bag given for unknown vertex {v}")
                bag[v] = frozenset(contents)
        self._adj = adj
        self._red = red
        self._side = side
        self._bag = bag
        self._next_id = max(adj, default=0) + 1

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
        return frozenset(self._red[v])

    def red_degree(self, v: int) -> int:
        return len(self._red[v])

    def edges(self) -> Iterator[tuple[int, int, str]]:
        for u, nbrs in self._adj.items():
            for v, kind in nbrs.items():
                if u < v:
                    yield (u, v, kind)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def fresh_id(self) -> int:
        """Id the next contraction's merged vertex will receive."""
        return self._next_id

    def red_degrees(self) -> RedDegreeReport:
        per_vertex = {v: len(nbrs) for v, nbrs in self._red.items()}
        return RedDegreeReport(per_vertex, max(per_vertex.values(), default=0))

    def max_red_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._red.values()), default=0)

    # -- construction ----------------------------------------------------

    def contract(self, u: int, v: int, *, same_side_only: bool = False) -> SignedTrigraph:
        """Merge u and v into a fresh vertex whose edges follow merge_edges."""
        if u == v:
            raise ValueError("cannot contract a vertex with itself")
        if u not in self._adj or v not in self._adj:
            raise ValueError(f"cannot contract ({u},{v}): vertex missing")
        if same_side_only and (self._side[u] is None or self._side[u] != self._side[v]):
            raise ValueError(f"cross-side contraction ({u},{v}) rejected")

        w = self._next_id
        merged = merge_edges(self._adj[u], self._adj[v])
        merged.pop(u, None)
        merged.pop(v, None)

        new = SignedTrigraph.__new__(SignedTrigraph)
        adj = {x: dict(nbrs) for x, nbrs in self._adj.items() if x != u and x != v}
        red = {x: set(nbrs) for x, nbrs in self._red.items() if x != u and x != v}
        for x in adj:
            adj[x].pop(u, None)
            adj[x].pop(v, None)
            red[x].discard(u)
            red[x].discard(v)
        adj[w] = merged
        red[w] = set()
        for x, kind in merged.items():
            adj[x][w] = kind
            if kind == RED:
                red[x].add(w)
                red[w].add(x)
        side = {x: s for x, s in self._side.items() if x != u and x != v}
        side[w] = self._side[u] if self._side[u] == self._side[v] else None
        bag = {x: b for x, b in self._bag.items() if x != u and x != v}
        bag[w] = self._bag[u] | self._bag[v]

        new._adj = adj
        new._red = red
        new._side = side
        new._bag = bag
        new._next_id = w + 1
        return new

    def partition_view(self, partition: Iterable[Iterable[int]]) -> SignedTrigraph:
        """Quotient trigraph under a partition of the vertex set.

        Bags X != Y are joined by POS (NEG) iff every cross pair is POS
        (NEG), non-adjacent iff every cross pair is non-adjacent, and RED
        otherwise.  Each part is represented by its minimum vertex id, so
        the identity partition returns a graph equal to this one.
        """
        parts = [sorted(set(p)) for p in partition]
        covered: set[int] = set()
        for part in parts:
            if not part:
                raise ValueError("empty part in partition")
            for x in part:
                if x not in self._adj:
                    raise ValueError(f"partition references unknown vertex {x}")
                if x in covered:
                    raise ValueError(f"vertex {x} appears in two parts")
                covered.add(x)
        if covered != set(self._adj):
            missing = sorted(set(self._adj) - covered)
            raise ValueError(f"partition misses vertices {missing}")

        reps = [part[0] for part in parts]
        sides: dict[int, int | None] = {}
        bags: dict[int, frozenset[int]] = {}
        for rep, part in zip(reps, parts):
            part_sides = {self._side[x] for x in part}
            sides[rep] = part_sides.pop() if len(part_sides) == 1 else None
            bags[rep] = frozenset().union(*(self._bag[x] for x in part))
        edges: list[tuple[int, int, str]] = []
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                kinds = {self._adj[x].get(y) for x in parts[i] for y in parts[j]}
                if kinds == {POS}:
                    kind = POS
                elif kinds == {NEG}:
                    kind = NEG
                elif kinds == {None}:
                    continue
                else:
                    kind = RED
                edges.append((reps[i], reps[j], kind))
        return SignedTrigraph(reps, edges, sides, bags)

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
        for lit in sorted(clause, key=abs):
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
    must be 1..n for the file to round-trip.
    """
    lines = [f"p stg {graph.num_vertices} {graph.num_edges()}"]
    for v in graph.vertices():
        if graph.side(v) is not None:
            lines.append(f"s {v} {graph.side(v)}")
    for u, v, kind in sorted(graph.edges()):
        lines.append(f"{u} {v} {kind}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str | bytes) -> SignedTrigraph:
    """Parse the edge-list format written by serialize_graph.

    The header is optional: without it, vertices are inferred as 1..max id
    seen in edge or side lines (isolated vertices then need side lines).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n: int | None = None
    sides: dict[int, int | None] = {}
    edges: list[tuple[int, int, str]] = []
    # the largest id seen, and the first line naming it
    max_seen, max_line = 0, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "stg":
                raise ParseError("expected header 'p stg <n> <m>'", lineno)
            try:
                n = int(fields[2])
            except ValueError:
                raise ParseError("non-integer vertex count", lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", lineno)
            continue
        if fields[0] == "s":
            if len(fields) != 3:
                raise ParseError("expected 's <vertex> <side>'", lineno)
            try:
                v = int(fields[1])
                s = int(fields[2])
            except ValueError:
                raise ParseError("non-integer side line", lineno) from None
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
            edges.append((*ids, fields[2]))
        if max(ids) > max_seen:
            max_seen, max_line = max(ids), lineno
    if n is None:
        n = max_seen
    if max_seen > n:
        raise ParseError(f"vertex id {max_seen} exceeds declared count {n}", max_line)
    return SignedTrigraph(range(1, n + 1), edges, sides)
