"""Contraction sequences: the one contraction, verification, width, and .tws files.

A sequence step is a (keep, merge) pair in survivor-id convention: both ids
refer to original vertices, and after the step the merged bag keeps
answering to the keep id.  Internally each contraction creates a fresh
vertex; ContractionLog maintains the label-to-vertex translation, and
undo() takes its last step back.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .cnf import ParseError, header_counts, token_lines
from .trigraph import RED, SignedTrigraph, merge_edges


@dataclass(frozen=True)
class ContractionSequence:
    steps: tuple[tuple[int, int], ...]
    declared_width: int | None = None
    num_vertices: int | None = None

    def __post_init__(self) -> None:
        steps = []
        for idx, (keep, merge) in enumerate(self.steps):
            try:
                keep, merge = operator.index(keep), operator.index(merge)
            except TypeError:
                raise ValueError(f"step {idx}: non-integer label in ({keep!r},{merge!r})") from None
            if keep < 1 or merge < 1 or keep == merge:
                raise ValueError(f"step {idx}: bad pair ({keep},{merge})")
            steps.append((keep, merge))
        object.__setattr__(self, "steps", tuple(steps))

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


class ContractionLog:
    """One in-place contraction on a mutable adjacency, with no graph copies.

    ContractionLog(graph, seq) replays seq through contract(keep, merge);
    ContractionLog(graph) starts an empty log for a builder to grow, and
    undo() takes the last step back, so a search can backtrack.  Records
    each step's (x, y, z) vertex ids, the maximum red degree after it,
    whether every step stayed on one side, and the first failure of seq,
    where replay stops: an unknown label or, with require_bipartite, a
    cross-side step.  For every vertex created and not undone it keeps
    side, bag, birth level (0 for input vertices, i + 1 for step i's z),
    label and edges.  label(v) is the label v answers to: an input vertex answers to
    its own id, and step (x, y, z) gives z the label of x, so the vertices
    of one level answer to distinct labels and a vertex keeps its label for
    as long as it exists.  The edge between two vertices never changes
    while both exist, so side, bag, label, edge and red_neighbors answer
    for any level at which the queried vertices all exist; red_neighbors
    holds every vertex ever red-adjacent, and the dynamic program, which
    intersects it with coexisting vertices, reads a log wherever it reads a
    graph.  vertices, vertex, neighbors and red_degree answer only for the
    last level.
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
        # per step, what undo restores: x's and y's red degrees, _top, width
        # and bipartite as they were before it
        self._before: list[tuple[int, int, int, int, bool]] = []
        # current vertex -> red degree, and how many current vertices have each
        degree = self._red_degree = {v: len(self._red[v]) for v in adj}
        self._count = Counter(degree.values())
        self._top = self.width = max(degree.values(), default=0)
        # label -> the current vertex answering to it
        self._vertex_of = {v: v for v in adj}
        # vertex -> the label it answers to, for every vertex ever created
        self._label = {v: v for v in adj}
        for idx, (keep, merge) in enumerate(seq.steps if seq is not None else ()):
            try:
                if require_bipartite:
                    x, y = self._pair(keep, merge)
                    if side[x] is None or side[x] != side[y]:
                        raise ValueError(f"cross-side contraction ({keep},{merge})")
                self.contract(keep, merge)
            except ValueError as err:
                self.failure = (idx, str(err))
                return

    def _pair(self, keep: int, merge: int) -> tuple[int, int]:
        """The current vertices answering to keep and merge, or ValueError."""
        for label in (keep, merge):
            if label not in self._vertex_of:
                raise ValueError(f"unknown vertex id {label}")
        if keep == merge:
            raise ValueError(f"cannot contract {keep} with itself")
        return self._vertex_of[keep], self._vertex_of[merge]

    def contract(self, keep: int, merge: int) -> int:
        """Merge the vertices answering to labels keep and merge into a
        fresh vertex z, which answers to keep from now on; return z.
        Raises ValueError, leaving the log as it was, when a label is
        unknown or the two labels are equal."""
        adj, red, side, degree, count = self._adj, self._red, self._side, self._red_degree, self._count
        x, y = self._pair(keep, merge)
        del self._vertex_of[merge]
        z = self._last_input + len(self.steps) + 1
        self._before.append((degree[x], degree[y], self._top, self.width, self.bipartite))
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
        self._label[z] = keep
        return z

    def undo(self) -> None:
        """Take back the last contract: z and its edges go, x and y answer
        to their labels again, and every red degree, the maxima and the
        side flag are as they were before that step."""
        adj, red, degree, count = self._adj, self._red, self._red_degree, self._count
        x, y, z = self.steps.pop()
        self.per_step_max_red.pop()
        degree[x], degree[y], self._top, self.width, self.bipartite = self._before.pop()
        count[degree.pop(z)] -= 1
        count[degree[x]] += 1
        count[degree[y]] += 1
        for w, kind in adj.pop(z).items():
            del adj[w][z]
            red[w].discard(z)
            count[degree[w]] -= 1
            degree[w] -= (kind == RED) - (adj[x].get(w) == RED) - (adj[y].get(w) == RED)
            count[degree[w]] += 1
        del red[z], self._side[z]
        self._bag.pop(z, None)
        self._vertex_of[self._label.pop(z)] = x
        self._vertex_of[self._label[y]] = y

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

    def label(self, v: int) -> int:
        return self._label[v]

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

    def snapshot(self, level: Iterable[int] | None = None) -> SignedTrigraph:
        """A level as an immutable SignedTrigraph on the same ids: the last
        level, or the earlier one whose vertices are given."""
        current = self.vertices() if level is None else sorted(level)
        alive = set(current)
        return SignedTrigraph(
            current,
            [(u, w, kind) for u in current for w, kind in self._adj[u].items() if u < w and w in alive],
            sides={v: self._side[v] for v in current},
            bags={v: self.bag(v) for v in current},
        )


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


def parse_sequence(text: str | bytes) -> ContractionSequence:
    """Parse a .tws file: 'p tws <n> <steps>' then one 'keep merge' per line."""
    n: int | None = None
    expected = 0
    steps: list[tuple[int, int]] = []
    lineno = 0
    for lineno, fields in token_lines(text):
        if fields[0][0] == "c":
            continue
        if fields[0] == "p":
            n, expected = header_counts(fields, lineno, "p tws <n> <steps>", n is not None)
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
    top = max(map(max, seq.steps), default=0)
    if top > n:
        raise ValueError(f"vertex id {top} out of range 1..{n}")
    lines = [f"p tws {n} {len(seq.steps)}"]
    lines.extend(f"{keep} {merge}" for keep, merge in seq.steps)
    return "\n".join(lines) + "\n"
