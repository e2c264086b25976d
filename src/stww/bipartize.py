"""Turn any d-sequence of a bipartite signed graph into a bipartite one.

The transform walks the input sequence once.  Every vertex of the current
input graph owns two halves, its intersections with the two sides; the
output graph keeps those halves as separate vertices.  An input contraction
of u and v into w then applies one rule per side, side 0 first: where u
and v both have a half on that side, contract the two; where only one
does, it becomes w's half unchanged.  So a contraction of u and v on
opposite sides makes no output step, and one where all four halves exist
is a double step.

The output width exceeds the input width by at most 2, and the output has
at most twice as many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequence import ContractionLog, ContractionSequence, LabelledContraction
from .trigraph import SIDE_CLA, SIDE_VAR, SignedTrigraph


class HalfDegreeError(AssertionError):
    """A half vertex exceeded the input width excluding its sibling half.

    This is the internal soundness check of the width argument: at every
    aligned snapshot, each side-0 half must have red degree at most the
    input width d once its own side-1 half is discounted (and vice versa).
    If it fires, the transform or the contraction rules are broken.
    """


@dataclass(frozen=True)
class BipartizationResult:
    seq: ContractionSequence
    # output step index -> input step index (0-based, monotone non-decreasing;
    # an input index appears twice exactly for double steps)
    index_map: dict[int, int]
    # output indices after which the graph is the intermediate of a double step
    doubled_steps: frozenset[int]
    input_width: int
    output_width: int


def bipartize(graph: SignedTrigraph, seq: ContractionSequence) -> BipartizationResult:
    """Transform a verified d-sequence into a bipartite (d+2)-sequence.

    The input graph must be bipartite with every vertex carrying a side
    tag; the input sequence may contract across sides freely.
    """
    for v in graph.vertices():
        if graph.side(v) is None:
            raise ValueError(f"vertex {v} has no side; bipartize needs a sided graph")

    log = ContractionLog(graph, seq).check()
    # the half-degree check below is against the input sequence's width d
    input_width = log.width

    out = LabelledContraction(graph)
    output_width = graph.max_red_degree()
    # input-graph vertex -> (side-0 half, side-1 half) as output-graph vertices
    halves: dict[int, tuple[int | None, int | None]] = {
        v: ((v, None) if graph.side(v) == SIDE_VAR else (None, v))
        for v in graph.vertices()
    }
    index_map: dict[int, int] = {}
    doubled: set[int] = set()

    def contract_out(p: int, q: int, input_index: int) -> int:
        nonlocal output_width
        new = out.contract(p, q)
        index_map[len(out.steps) - 1] = input_index
        output_width = max(output_width, out.graph.max_red_degree())
        return new

    def check_half_degrees(current_halves: dict[int, tuple[int | None, int | None]]) -> None:
        for xa, xb in current_halves.values():
            for half, sibling in ((xa, xb), (xb, xa)):
                if half is None:
                    continue
                reds = out.graph.red_neighbors(half)
                if len(reds - {sibling}) > input_width:
                    raise HalfDegreeError(
                        f"half {half} has red degree {len(reds - {sibling})} "
                        f"> input width {input_width}"
                    )

    check_half_degrees(halves)
    for index, (x, y, z) in enumerate(log.steps):
        first = len(out.steps)
        # side 0 first, so a double step's intermediate graph has merged
        # the side-0 halves
        halves[z] = tuple(
            contract_out(u_half, v_half, index)
            if u_half is not None and v_half is not None
            else (u_half if u_half is not None else v_half)
            for u_half, v_half in zip(halves.pop(x), halves.pop(y))
        )
        if len(out.steps) - first == 2:
            doubled.add(first)
        check_half_degrees(halves)

    n = max(graph.vertices(), default=0)
    return BipartizationResult(
        ContractionSequence(tuple(out.steps), num_vertices=n),
        index_map,
        frozenset(doubled),
        input_width,
        output_width,
    )
