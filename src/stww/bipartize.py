"""Turn any d-sequence of a bipartite signed graph into a bipartite one.

The transform walks the input sequence once.  Every vertex of the current
input graph owns two halves, its intersections with the two sides; the
output graph keeps those halves as separate vertices.  An input contraction
of u and v into w then applies one rule per side, side 0 first: where u
and v both have a half on that side, contract the two; where only one
does, it becomes w's half unchanged.  So a contraction of u and v on
opposite sides makes no output step, and one where all four halves exist
is a double step.  The output graph is one ContractionLog grown in place,
and each half is named by its label, the smallest input id in its bag.

The output width exceeds the input width by at most 2, and the output has
at most twice as many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequence import ContractionLog, ContractionSequence, verify
from .trigraph import RED, SIDE_VAR, SignedTrigraph, require_sides


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
    # an input index appears twice exactly for double steps: the graph after
    # output step i is a double step's intermediate when index_map[i] ==
    # index_map[i + 1]); seq declares the output width
    index_map: dict[int, int]
    input_width: int
    output_width: int


def bipartize(graph: SignedTrigraph, seq: ContractionSequence) -> BipartizationResult:
    """Transform a verified d-sequence into a bipartite (d+2)-sequence.

    The input graph must be bipartite with every vertex carrying a side
    tag; the input sequence may contract across sides freely.
    """
    require_sides(graph, "bipartize")

    log = verify(graph, seq).check()
    # the half-degree check below is against the input sequence's width d
    input_width = log.width

    out = ContractionLog(graph)
    # input-graph vertex -> (side-0 half, side-1 half) as output labels
    halves: dict[int, tuple[int | None, int | None]] = {
        v: ((v, None) if graph.side(v) == SIDE_VAR else (None, v))
        for v in graph.vertices()
    }
    index_map: dict[int, int] = {}

    # output vertex -> the input vertex it is a half of
    owner = {v: v for v in graph.vertices()}

    def check_halves(x: int) -> None:
        a, b = halves[x]
        for half, sibling in ((a, b), (b, a)):
            if half is None:
                continue
            v = out.vertex(half)
            reds = out.red_degree(v)
            if sibling is not None and out.edge(v, out.vertex(sibling)) == RED:
                reds -= 1
            if reds > input_width:
                raise HalfDegreeError(f"half {v} has red degree {reds} > input width {input_width}")

    for x in halves:
        check_halves(x)
    for index, (x, y, z) in enumerate(log.steps):
        merged = []
        created = []
        # side 0 first, so a double step's intermediate graph has merged
        # the side-0 halves
        for p, q in zip(halves.pop(x), halves.pop(y)):
            if p is not None and q is not None:
                p, q = sorted((p, q))
                index_map[len(out.steps)] = index
                created.append(out.contract(p, q))
            merged.append(q if p is None else p)
        halves[z] = tuple(merged)
        for half in merged:
            if half is not None:
                owner[out.vertex(half)] = z
        # only z's halves and the output neighbours of this step's merged
        # vertices can have changed red degree or sibling
        recheck = {z}
        for c in created:
            recheck.update(owner[w] for w in out.neighbors(c))
        for r in recheck:
            check_halves(r)

    return BipartizationResult(out.sequence(), index_map, input_width, out.width)
