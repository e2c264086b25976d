"""Twin-width upper bounds: greedy sequences, exact search, subdivided cliques.

greedy_sequence runs on a private mutable bitset working graph rather than
on SignedTrigraph: each candidate pair is scored from its endpoints' masks
and the per-degree buckets in O(max red degree) word operations, and each
contraction updates only the merged vertex and its neighbours.  The scores,
the label tie-break and hence the emitted sequences are exactly those of
contracting every candidate pair and measuring the result.  The exact
search and the subdivided-clique construction contract SignedTrigraphs
through sequence.LabelledContraction.
"""

from __future__ import annotations

from itertools import combinations

from .sequence import ContractionSequence, LabelledContraction
from .trigraph import NEG, POS, RED, SignedTrigraph


def _require_sides(graph: SignedTrigraph, what: str) -> None:
    for v in graph.vertices():
        if graph.side(v) is None:
            raise ValueError(f"{what} needs every vertex on a side; {v} has none")


def _candidate_pairs(graph: SignedTrigraph, bipartite: bool) -> list[tuple[int, int]]:
    if not bipartite:
        return list(combinations(graph.vertices(), 2))
    return [
        (u, v)
        for u, v in combinations(graph.vertices(), 2)
        if graph.side(u) == graph.side(v)
    ]


class _WorkingGraph:
    """Greedy's private, mutable bitset copy of a trigraph.

    Vertices get dense indices: the input vertices in sorted order, then
    one fresh index per contraction, so every mask stays below 2V bits
    however sparse the input ids are.  Vertex i keeps int bitmasks of its
    POS, NEG and RED neighbours (plus their union), its red degree, and
    its label: the smallest input id in its bag.  One bucket mask per red
    degree and the running red-edge total let a pair be scored without
    touching the rest of the graph.
    """

    __slots__ = ("pos", "neg", "red", "nbr", "rdeg", "label", "bucket", "top", "total_red")

    def __init__(self, graph: SignedTrigraph) -> None:
        verts = graph.vertices()
        index = {v: i for i, v in enumerate(verts)}
        size = max(2 * len(verts) - 1, 0)
        self.pos = [0] * size
        self.neg = [0] * size
        self.red = [0] * size
        for u, v, kind in graph.edges():
            i, j = index[u], index[v]
            masks = self.pos if kind == POS else self.neg if kind == NEG else self.red
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.nbr = [p | n | r for p, n, r in zip(self.pos, self.neg, self.red)]
        self.rdeg = [r.bit_count() for r in self.red]
        self.label = verts + [0] * (size - len(verts))
        # red degrees never exceed the vertex count, one bucket each
        self.bucket = [0] * (len(verts) + 1)
        for i in range(len(verts)):
            self.bucket[self.rdeg[i]] |= 1 << i
        self.top = max(self.rdeg, default=0)
        self.total_red = sum(self.rdeg) // 2

    def best_pair(self, groups: list[list[int]], largest: bool) -> tuple[int, int]:
        """The pair minimizing (max red degree, red edges, label tie) after
        its contraction.

        For a pair u, v with agree = (pos_u & pos_v) | (neg_u & neg_v), the
        merged vertex is red to merged = N(u) | N(v) - {u, v} - agree.  Of
        those, the vertices red to neither u nor v gain one red edge and the
        vertices red to both lose one; every other vertex keeps its degree.
        The new maximum is then read off the degree buckets from the top
        down, so a pair costs O(max red degree) word operations.
        """
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, label, bucket = self.rdeg, self.label, self.bucket
        top, total = self.top, self.total_red
        best_key: tuple | None = None
        best_pair = (0, 0)
        best_width = len(bucket)
        for group in groups:
            rows = [(v, 1 << v, pos[v], neg[v], nbr[v]) for v in group]
            for a, (u, bit_u, pos_u, neg_u, nbr_u) in enumerate(rows):
                red_u = red[u]
                base = total - rdeg[u]
                label_u = label[u]
                for v, bit_v, pos_v, neg_v, nbr_v in rows[a + 1 :]:
                    pair = bit_u | bit_v
                    merged = (nbr_u | nbr_v) & ~((pos_u & pos_v) | (neg_u & neg_v) | pair)
                    merged_red = width = merged.bit_count()
                    if width > best_width:
                        continue
                    red_v = red[v]
                    gain = merged & ~(red_u | red_v)
                    lose = red_u & red_v
                    # a degree-d vertex ends at d + 1 (gain), d - 1 (lose) or d
                    d = top
                    while d >= width:
                        rest = bucket[d] & ~pair
                        if rest:
                            if rest & gain:
                                width = d + 1
                                break
                            if rest & ~lose:
                                width = d
                                break
                            width = max(width, d - 1)
                        d -= 1
                    if width > best_width:
                        continue
                    edges = base - rdeg[v] + ((red_u >> v) & 1) + merged_red
                    label_v = label[v]
                    low, high = (label_u, label_v) if label_u < label_v else (label_v, label_u)
                    key = (width, edges, (-low, -high) if largest else (low, high))
                    if best_key is None or key < best_key:
                        best_key = key
                        best_pair = (u, v)
                        best_width = width
        return best_pair

    def contract(self, u: int, v: int, w: int) -> None:
        """Merge u and v into the fresh index w, updating only w and the
        old neighbours of u and v."""
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, bucket = self.rdeg, self.bucket
        pair = (1 << u) | (1 << v)
        bit_w = 1 << w
        pos_w = pos[u] & pos[v]
        neg_w = neg[u] & neg[v]
        touched = (nbr[u] | nbr[v]) & ~pair
        red_w = touched & ~(pos_w | neg_w)
        self.total_red += red_w.bit_count() - rdeg[u] - rdeg[v] + ((red[u] >> v) & 1)
        rest = touched
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            pos[x] &= ~pair
            neg[x] &= ~pair
            if low & pos_w:
                pos[x] |= bit_w
            elif low & neg_w:
                neg[x] |= bit_w
            red_x = (red[x] & ~pair) | (bit_w if low & red_w else 0)
            red[x] = red_x
            nbr[x] = (nbr[x] & ~pair) | bit_w
            degree = red_x.bit_count()
            if degree != rdeg[x]:
                bucket[rdeg[x]] &= ~low
                bucket[degree] |= low
                rdeg[x] = degree
        for x in (u, v):
            bucket[rdeg[x]] &= ~(1 << x)
            pos[x] = neg[x] = red[x] = nbr[x] = 0
        pos[w], neg[w], red[w], nbr[w] = pos_w, neg_w, red_w, touched
        rdeg[w] = red_w.bit_count()
        bucket[rdeg[w]] |= bit_w
        self.label[w] = min(self.label[u], self.label[v])
        top = min(max(self.top + 1, rdeg[w]), len(bucket) - 1)
        while top and not bucket[top]:
            top -= 1
        self.top = top


def greedy_sequence(
    graph: SignedTrigraph, bipartite: bool = False, tie_break: str = "smallest"
) -> ContractionSequence:
    """Full contraction sequence picked greedily.

    Each step contracts the pair minimizing (resulting max red degree,
    resulting red edge count), breaking ties by the smallest surviving-label
    pair; tie_break="largest" reverses the label comparison, giving a second
    deterministic sequence for cross-checks.  Labels are distinct, so the
    key orders all pairs strictly and the sequence does not depend on the
    order pairs are scored in.  The achieved width lands in declared_width.

    The loop runs on a private bitset working graph (_WorkingGraph): a pair
    is scored in O(max red degree) word operations and a contraction
    updates only the merged vertex and its neighbours in place.
    """
    if tie_break not in ("smallest", "largest"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if bipartite:
        _require_sides(graph, "bipartite greedy")
    work = _WorkingGraph(graph)
    vertices = graph.vertices()
    if bipartite:
        by_side: dict[int | None, list[int]] = {}
        for i, v in enumerate(vertices):
            by_side.setdefault(graph.side(v), []).append(i)
        groups = list(by_side.values())
    else:
        groups = [list(range(len(vertices)))]
    steps: list[tuple[int, int]] = []
    width = work.top
    fresh = len(vertices)
    while any(len(group) > 1 for group in groups):
        u, v = work.best_pair(groups, tie_break == "largest")
        steps.append(tuple(sorted((work.label[u], work.label[v]))))
        work.contract(u, v, fresh)
        for group in groups:
            if u in group:
                group.remove(u)
                group.remove(v)
                group.append(fresh)
        fresh += 1
        width = max(width, work.top)
    return ContractionSequence(
        tuple(steps),
        declared_width=width,
        num_vertices=max(vertices, default=0),
    )


def exact_tww_bruteforce(
    graph: SignedTrigraph,
    bipartite: bool = False,
    max_vertices: int = 10,
    width_cap: int | None = None,
) -> tuple[int, ContractionSequence]:
    """Exact minimum width over all (bipartite) sequences, with a witness.

    Searches partition states with memoization, iteratively deepening a red
    degree cap so structured graphs stay cheap; pass max_vertices explicitly
    to override the size guard.  With width_cap set, raises ValueError if
    the true minimum exceeds the cap.  The witness is the lexicographically
    smallest among minimum-width sequences.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceeds the brute-force guard {max_vertices}")
    if bipartite:
        _require_sides(graph, "bipartite search")

    initial = graph.max_red_degree()
    top_cap = width_cap if width_cap is not None else max(n - 1, 0)
    infinity = float("inf")

    def make_solver(cap: int):
        memo: dict[frozenset[frozenset[int]], int | float] = {}

        def solve(g: SignedTrigraph) -> int | float:
            parts = frozenset(g.bag(v) for v in g.vertices())
            hit = memo.get(parts)
            if hit is not None:
                return hit
            pairs = _candidate_pairs(g, bipartite)
            if not pairs:
                memo[parts] = 0
                return 0
            best: int | float = infinity
            for u, v in pairs:
                h = g.contract(u, v)
                m = h.max_red_degree()
                if m > cap:
                    continue
                value = max(m, solve(h))
                if value < best:
                    best = value
                    if best == 0:
                        break
            memo[parts] = best
            return best

        return solve

    for cap in range(initial, top_cap + 1):
        solve = make_solver(cap)
        achieved = solve(graph)
        if achieved == infinity:
            continue
        width = max(initial, int(achieved))
        # Reconstruct the lexicographically smallest witness: at each state
        # take the smallest label pair that still meets the achieved value.
        witness = LabelledContraction(graph)
        labels = witness.labels
        while True:
            g = witness.graph
            pairs = _candidate_pairs(g, bipartite)
            if not pairs:
                break
            ordered = sorted(pairs, key=lambda p: sorted((labels[p[0]], labels[p[1]])))
            for u, v in ordered:
                h = g.contract(u, v)
                m = h.max_red_degree()
                if m > achieved:
                    continue
                if max(m, solve(h)) <= achieved:
                    witness.contract(u, v)
                    break
            else:
                raise AssertionError("witness reconstruction lost the optimum")
        return width, ContractionSequence(
            tuple(witness.steps),
            declared_width=width,
            num_vertices=max(graph.vertices(), default=0),
        )
    raise ValueError(f"no sequence within width cap {top_cap}")


def _trace_path(
    graph: SignedTrigraph, start: int, first: int, clique: set[int]
) -> tuple[int, list[int]]:
    """Follow a subdivided edge from a clique vertex to the next clique vertex."""
    path: list[int] = []
    prev, cur = start, first
    while cur not in clique:
        path.append(cur)
        nexts = [x for x in graph.neighbors(cur) if x != prev]
        if len(nexts) != 1:
            raise ValueError(f"vertex {cur} does not continue a subdivision path")
        prev, cur = cur, nexts[0]
    return cur, path


def _validate_subdivided_clique(graph: SignedTrigraph, clique: list[int]) -> None:
    clique_set = set(clique)
    d = len(clique_set)
    if d < 2:
        raise ValueError("need at least two clique vertices")
    for v in clique_set:
        if not graph.has_vertex(v):
            raise ValueError(f"clique vertex {v} not in graph")
        if len(graph.neighbors(v)) != d - 1:
            raise ValueError(f"clique vertex {v} has degree {len(graph.neighbors(v))}, want {d - 1}")
    for v in graph.vertices():
        if v not in clique_set and len(graph.neighbors(v)) != 2:
            raise ValueError(f"subdivision vertex {v} has degree {len(graph.neighbors(v))}, want 2")
    pair_count: dict[tuple[int, int], int] = {}
    inner_visits: dict[int, int] = {v: 0 for v in graph.vertices() if v not in clique_set}
    for v in sorted(clique_set):
        for first in graph.neighbors(v):
            end, path = _trace_path(graph, v, first, clique_set)
            if end == v:
                raise ValueError(f"subdivision path loops back to {v}")
            key = (min(v, end), max(v, end))
            pair_count[key] = pair_count.get(key, 0) + 1
            for x in path:
                inner_visits[x] += 1
    expected = {(a, b) for a, b in combinations(sorted(clique_set), 2)}
    # each path is discovered once from either end
    if set(pair_count) != expected or any(c != 2 for c in pair_count.values()):
        raise ValueError("clique pairs are not each joined by exactly one path")
    if any(c != 2 for c in inner_visits.values()):
        raise ValueError("some subdivision vertex lies on no (or several) paths")


def subdivided_clique_sequence(
    graph: SignedTrigraph, clique_vertices: list[int] | None = None
) -> ContractionSequence:
    """Contraction sequence of width <= d-1 for a subdivision of K_d.

    Repeatedly contracts a subdivision vertex into an adjacent clique
    vertex (smallest ids first), then contracts the remaining clique in
    ascending order.  Along the way asserts the invariant the bound rests
    on: every vertex keeps total degree (black plus red) at most d-1; for
    d = 2 only the red part of the bound holds and is asserted instead.

    The clique/subdivider classification is recovered from degrees when
    possible (clique vertices are exactly those of degree != 2); for inputs
    where every degree is 2 it must be supplied.
    """
    for _, _, kind in graph.edges():
        if kind == RED:
            raise ValueError("input graph must not contain red edges")
    if clique_vertices is None:
        clique_vertices = [v for v in graph.vertices() if len(graph.neighbors(v)) != 2]
        if not clique_vertices:
            raise ValueError(
                "every vertex has degree 2; supply clique_vertices explicitly"
            )
    _validate_subdivided_clique(graph, clique_vertices)
    d = len(set(clique_vertices))

    seq = LabelledContraction(graph)
    labels = seq.labels
    clique = set(clique_vertices)
    subdividers = set(graph.vertices()) - clique
    width = 0

    def check_degrees() -> None:
        nonlocal width
        g = seq.graph
        width = max(width, g.max_red_degree())
        if g.max_red_degree() > d - 1:
            raise AssertionError(f"red degree exceeded {d - 1}")
        if d >= 3:
            worst = max((len(g.neighbors(x)) for x in g.vertices()), default=0)
            if worst > d - 1:
                raise AssertionError(f"total degree {worst} exceeded {d - 1}")

    check_degrees()
    while subdividers:
        pick = None
        for v in sorted(clique, key=labels.get):
            adjacent = [u for u in seq.graph.neighbors(v) if u in subdividers]
            if adjacent:
                pick = (v, min(adjacent, key=labels.get))
                break
        if pick is None:
            raise AssertionError("subdivision vertices left but none adjacent to the clique")
        v, u = pick
        subdividers.remove(u)
        clique.remove(v)
        clique.add(seq.contract(u, v))
        check_degrees()
    while len(clique) > 1:
        first, second = sorted(clique, key=labels.get)[:2]
        clique.remove(first)
        clique.remove(second)
        clique.add(seq.contract(first, second))
        check_degrees()
    return ContractionSequence(
        tuple(seq.steps),
        declared_width=width,
        num_vertices=max(graph.vertices(), default=0),
    )
