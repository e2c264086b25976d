"""Contraction sequences: replay, verification, width, and .tws files.

A sequence step is a (keep, merge) pair in survivor-id convention: both ids
refer to original vertices, and after the step the merged bag keeps
answering to the keep id.  Internally each contraction creates a fresh
vertex; ContractionLog maintains the label-to-vertex translation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .cnf import ParseError
from .trigraph import RED, SignedTrigraph, merge_edges


@dataclass(frozen=True)
class ContractionSequence:
    steps: tuple[tuple[int, int], ...]
    declared_width: int | None = None
    num_vertices: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps", tuple((int(a), int(b)) for a, b in self.steps)
        )
        for idx, (keep, merge) in enumerate(self.steps):
            if keep < 1 or merge < 1 or keep == merge:
                raise ValueError(f"step {idx}: bad pair ({keep},{merge})")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class VerificationReport:
    width: int
    is_bipartite_sequence: bool
    per_step_max_red: list[int] = field(default_factory=list)
    failure: tuple[int, str] | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ReplayStep:
    index: int
    keep_label: int
    merge_label: int
    keep_vertex: int
    merge_vertex: int
    new_vertex: int
    before: SignedTrigraph
    after: SignedTrigraph


class ContractionLog:
    """One in-place contraction on a mutable adjacency, with no graph copies.

    ContractionLog(graph, seq) replays seq through contract(keep, merge);
    ContractionLog(graph) starts an empty log for a builder to grow.  Records
    each step's (x, y, z) vertex ids, the maximum red degree after it,
    whether every step stayed on one side, and the first failure of seq,
    where replay stops: an unknown label or, with require_bipartite, a
    cross-side step.  For every vertex ever created it keeps side, bag,
    birth level (0 for input vertices, i + 1 for step i's z) and edges.  The
    edge between two vertices never changes while both exist, so side, bag,
    edge and red_neighbors answer for any level at which the queried
    vertices all exist; red_neighbors holds every vertex ever red-adjacent,
    and the dynamic program, which intersects it with coexisting vertices,
    reads a log wherever it reads a graph.  vertices, vertex, neighbors and
    red_degree answer only for the last level.
    """

    def __init__(
        self, graph: SignedTrigraph, seq: ContractionSequence | None = None, require_bipartite: bool = False
    ) -> None:
        adj = self._adj = {v: dict(graph.neighbors(v)) for v in graph.vertices()}
        self._red = {v: set(graph.red_neighbors(v)) for v in adj}
        side = self._side = {v: graph.side(v) for v in adj}
        self._bag = {v: graph.bag(v) for v in adj}
        self._last_input = max(adj, default=0)
        self.steps: list[tuple[int, int, int]] = []
        self.per_step_max_red: list[int] = []
        self.bipartite = True
        self.failure: tuple[int, str] | None = None
        # current vertex -> red degree, and how many current vertices have each
        degree = self._red_degree = {v: len(self._red[v]) for v in adj}
        self._count = Counter(degree.values())
        self._top = self.width = max(degree.values(), default=0)
        # label -> the current vertex answering to it
        self._vertex_of = {v: v for v in adj}
        for idx, (keep, merge) in enumerate(seq.steps if seq is not None else ()):
            unknown = [label for label in (keep, merge) if label not in self._vertex_of]
            if unknown:
                self.failure = (idx, f"unknown vertex id {unknown[0]}")
                return
            x, y = self._vertex_of[keep], self._vertex_of[merge]
            if require_bipartite and (side[x] is None or side[x] != side[y]):
                self.failure = (idx, f"cross-side contraction ({keep},{merge})")
                return
            self.contract(keep, merge)

    def contract(self, keep: int, merge: int) -> int:
        """Merge the vertices answering to labels keep and merge into a
        fresh vertex z, which answers to keep from now on; return z."""
        adj, red, side, degree, count = self._adj, self._red, self._side, self._red_degree, self._count
        x, y = self._vertex_of[keep], self._vertex_of.pop(merge)
        z = self._last_input + len(self.steps) + 1
        count[degree.pop(x)] -= 1
        count[degree.pop(y)] -= 1
        adj[z] = {w: kind for w, kind in merge_edges(adj[x], adj[y]).items() if w in degree}
        red[z] = {w for w, kind in adj[z].items() if kind == RED}
        for w, kind in adj[z].items():
            adj[w][z] = kind
            if kind == RED:
                red[w].add(z)
            count[degree[w]] -= 1
            degree[w] += (kind == RED) - (adj[x].get(w) == RED) - (adj[y].get(w) == RED)
            count[degree[w]] += 1
        degree[z] = len(red[z])
        count[degree[z]] += 1
        # a neighbour of z gains at most one red edge
        top = max(self._top + 1, degree[z])
        while not count[top]:
            top -= 1
        self._top = top
        self.per_step_max_red.append(top)
        self.width = max(self.width, top)
        self.steps.append((x, y, z))
        side[z] = side[x] if side[x] == side[y] else None
        self.bipartite = self.bipartite and side[z] is not None
        self._vertex_of[keep] = z
        return z

    def check(self) -> ContractionLog:
        """The log itself, or ValueError('step i: reason') at its failure."""
        if self.failure is not None:
            idx, reason = self.failure
            raise ValueError(f"step {idx}: {reason}")
        return self

    def vertices(self) -> list[int]:
        return sorted(self._red_degree)

    def vertex(self, label: int) -> int:
        return self._vertex_of[label]

    def neighbors(self, v: int) -> dict[int, str]:
        return {w: kind for w, kind in self._adj[v].items() if w in self._red_degree}

    def red_degree(self, v: int) -> int:
        return self._red_degree[v]

    def side(self, v: int) -> int | None:
        return self._side[v]

    def birth(self, v: int) -> int:
        return max(v - self._last_input, 0)

    def edge(self, u: int, v: int) -> str | None:
        return self._adj[u].get(v)

    def red_neighbors(self, v: int) -> set[int]:
        return self._red[v]

    def bag(self, v: int) -> frozenset[int]:
        """Input vertices contracted into v, gathered on first request."""
        if v not in self._bag:
            parts, pending = set(), [v]
            while pending:
                u = pending.pop()
                if u in self._bag:
                    parts |= self._bag[u]
                else:
                    pending.extend(self.steps[self.birth(u) - 1][:2])
            self._bag[v] = frozenset(parts)
        return self._bag[v]


def replay(graph: SignedTrigraph, seq: ContractionSequence) -> Iterator[ReplayStep]:
    """Replay a sequence, yielding one ReplayStep per contraction.

    After yielding every valid step, raises ValueError naming the step index
    if a label is unknown (already merged away or never present).
    """
    log = ContractionLog(graph, seq)
    current = graph
    for idx, (x, y, z) in enumerate(log.steps):
        after = current.contract(x, y)
        yield ReplayStep(idx, *seq.steps[idx], x, y, z, current, after)
        current = after
    log.check()


def verify(
    graph: SignedTrigraph, seq: ContractionSequence, require_bipartite: bool = False
) -> VerificationReport:
    """Replay seq on graph, recording red-degree maxima.

    The reported width is the maximum red degree over the input graph and
    every intermediate graph.  A step contracting two vertices that are not
    on a common side counts as non-bipartite; with require_bipartite it is a
    failure and replay halts there.
    """
    log = ContractionLog(graph, seq, require_bipartite)
    return VerificationReport(
        log.width, log.bipartite and log.failure is None, log.per_step_max_red, log.failure
    )


def width_of(graph: SignedTrigraph, seq: ContractionSequence) -> int:
    """Width of one verified sequence (an upper bound on the twin-width)."""
    return ContractionLog(graph, seq).check().width


def final_graph(graph: SignedTrigraph, seq: ContractionSequence) -> SignedTrigraph:
    """The last graph of the replay, built once from a ContractionLog.

    Raises the same ValueError as replay if a label is unknown.
    """
    log = ContractionLog(graph, seq).check()
    current = log.vertices()
    return SignedTrigraph(
        current,
        [(u, w, kind) for u in current for w, kind in log.neighbors(u).items() if u < w],
        sides={v: log.side(v) for v in current},
        bags={v: log.bag(v) for v in current},
    )


def parse_sequence(text: str | bytes) -> ContractionSequence:
    """Parse a .tws file: 'p tws <n> <steps>' then one 'keep merge' per line."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n: int | None = None
    expected = 0
    steps: list[tuple[int, int]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "tws":
                raise ParseError("expected header 'p tws <n> <steps>'", lineno)
            try:
                n = int(fields[2])
                expected = int(fields[3])
            except ValueError:
                raise ParseError("non-integer counts in header", lineno) from None
            if n < 0 or expected < 0:
                raise ParseError("negative counts in header", lineno)
            if expected > max(n - 1, 0):
                raise ParseError(f"{expected} steps impossible on {n} vertices", lineno)
            continue
        if n is None:
            raise ParseError("step before 'p tws' header", lineno)
        if len(fields) != 2:
            raise ParseError("expected step line 'keep merge'", lineno)
        try:
            keep, merge = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("non-integer vertex id", lineno) from None
        for label in (keep, merge):
            if not 1 <= label <= n:
                raise ParseError(f"vertex id {label} out of range 1..{n}", lineno)
        if keep == merge:
            raise ParseError("step contracts a vertex with itself", lineno)
        if len(steps) == expected:
            raise ParseError("more steps than the header declares", lineno)
        steps.append((keep, merge))
    if n is None:
        raise ParseError("missing 'p tws' header", max(lineno, 1))
    if len(steps) != expected:
        raise ParseError(
            f"header declares {expected} steps, file has {len(steps)}", lineno
        )
    return ContractionSequence(tuple(steps), num_vertices=n)


def serialize_sequence(seq: ContractionSequence, num_vertices: int | None = None) -> str:
    """Render a sequence as a .tws file; num_vertices overrides the stored one."""
    n = num_vertices if num_vertices is not None else seq.num_vertices
    if n is None:
        raise ValueError("number of vertices unknown; pass num_vertices")
    if len(seq.steps) > max(n - 1, 0):
        raise ValueError(f"{len(seq.steps)} steps impossible on {n} vertices")
    lines = [f"p tws {n} {len(seq.steps)}"]
    lines.extend(f"{keep} {merge}" for keep, merge in seq.steps)
    return "\n".join(lines) + "\n"
