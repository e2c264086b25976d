"""Contraction sequences: replay, verification, width, and .tws files.

A sequence step is a (keep, merge) pair in survivor-id convention: both ids
refer to original vertices, and after the step the merged bag keeps
answering to the keep id.  Internally each contraction creates a fresh
vertex; replay maintains the label-to-vertex translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .cnf import ParseError
from .trigraph import SignedTrigraph


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


class LabelledContraction:
    """A graph contracted step by step, recording survivor-label steps.

    Each contract(u, v) merges two current vertices into a fresh one that
    answers to the smaller of their two labels, and appends the step
    (keep, merge) in the same convention as ContractionSequence.
    """

    def __init__(self, graph: SignedTrigraph) -> None:
        self.graph = graph
        self.labels = {v: v for v in graph.vertices()}
        self.steps: list[tuple[int, int]] = []

    def contract(self, u: int, v: int) -> int:
        """Contract u and v; return the merged vertex's id."""
        keep, merge = sorted((self.labels[u], self.labels[v]))
        new = self.graph.fresh_id()
        self.graph = self.graph.contract(u, v)
        self.labels[new] = keep
        del self.labels[u], self.labels[v]
        self.steps.append((keep, merge))
        return new


def replay(graph: SignedTrigraph, seq: ContractionSequence) -> Iterator[ReplayStep]:
    """Replay a sequence, yielding one ReplayStep per contraction.

    Raises ValueError naming the step index if a label is unknown (already
    merged away or never present).
    """
    current = graph
    label_to_vertex = {v: v for v in graph.vertices()}
    for idx, (keep, merge) in enumerate(seq.steps):
        for label in (keep, merge):
            if label not in label_to_vertex:
                raise ValueError(f"step {idx}: unknown vertex id {label}")
        u = label_to_vertex[keep]
        v = label_to_vertex[merge]
        new_vertex = current.fresh_id()
        after = current.contract(u, v)
        yield ReplayStep(idx, keep, merge, u, v, new_vertex, current, after)
        label_to_vertex[keep] = new_vertex
        del label_to_vertex[merge]
        current = after


def verify(
    graph: SignedTrigraph, seq: ContractionSequence, require_bipartite: bool = False
) -> VerificationReport:
    """Replay seq on graph, recording red-degree maxima.

    The reported width is the maximum red degree over the input graph and
    every intermediate graph.  A step contracting two vertices that are not
    on a common side counts as non-bipartite; with require_bipartite it is a
    failure and replay halts there.
    """
    per_step: list[int] = []
    width = graph.max_red_degree()
    bipartite = True
    failure: tuple[int, str] | None = None
    try:
        for step in replay(graph, seq):
            before = step.before
            same_side = (
                before.side(step.keep_vertex) is not None
                and before.side(step.keep_vertex) == before.side(step.merge_vertex)
            )
            if not same_side:
                bipartite = False
                if require_bipartite:
                    failure = (
                        step.index,
                        f"cross-side contraction ({step.keep_label},{step.merge_label})",
                    )
                    break
            per_step.append(step.after.max_red_degree())
            width = max(width, per_step[-1])
    except ValueError as exc:
        idx = len(per_step)
        failure = (idx, str(exc))
    return VerificationReport(width, bipartite and failure is None, per_step, failure)


def width_of(graph: SignedTrigraph, seq: ContractionSequence) -> int:
    """Width of one verified sequence (an upper bound on the twin-width)."""
    report = verify(graph, seq)
    if not report.ok:
        idx, reason = report.failure
        raise ValueError(f"sequence does not verify at step {idx}: {reason}")
    return report.width


def final_graph(graph: SignedTrigraph, seq: ContractionSequence) -> SignedTrigraph:
    current = graph
    for step in replay(graph, seq):
        current = step.after
    return current


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
