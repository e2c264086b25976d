"""Twin-width upper bounds: greedy sequences, exact search, subdivided cliques.

greedy_sequence runs on a private mutable bitset working graph rather than
on SignedTrigraph.  It caches, for every candidate pair, the red degree mr
the merged vertex would get, which reads only the two endpoints' masks.  A
step walks the pairs by ascending mr and scores in full, from the
per-degree buckets, only those whose mr does not exceed the best width
found so far.  A contraction of u and v changes the masks only of their
neighbours and the new vertex, so it re-scores only the pairs with an
endpoint there.  The scores, the label tie-break and hence the emitted
sequences are exactly those of contracting every candidate pair and
measuring the result.  The exact search contracts immutable
SignedTrigraphs, which its memo needs; the subdivided-clique construction
grows one sequence.ContractionLog in place.
"""

from __future__ import annotations

from itertools import combinations

from .sequence import ContractionLog, ContractionSequence
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
    """Greedy's private, mutable bitset copy of a trigraph, with cached
    pair scores.

    Vertices get dense indices: the input vertices in sorted order, then
    one fresh index per contraction, so every mask stays below 2V bits
    however sparse the input ids are.  Vertex i keeps int bitmasks of its
    POS, NEG and RED neighbours (plus their union), its red degree, its
    label (the smallest input id in its bag) and its group (its side in a
    bipartite run, else one group for all).  One bucket mask per red degree
    and the running red-edge total let a pair be scored without touching
    the rest of the graph.

    Every pair x, y of live vertices in one group has its merged red degree
    mr(x, y) = |N(x) | N(y) - {x, y} - agree| cached, where agree is
    (pos_x & pos_y) | (neg_x & neg_y): scores[x] maps each mr value to the
    mask of x's partners at that value (so each pair sits in both rows),
    and at[m] is the mask of vertices with a partner at mr m.
    """

    __slots__ = (
        "pos", "neg", "red", "nbr", "rdeg", "label", "bucket", "top", "total_red",
        "group", "members", "scores", "at",
    )

    def __init__(self, graph: SignedTrigraph, bipartite: bool) -> None:
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
        self.group = [graph.side(v) if bipartite else 0 for v in verts] + [None] * (size - len(verts))
        self.members: dict[int | None, int] = {}
        self.scores: list[dict[int, int] | None] = [{} for _ in verts] + [None] * (size - len(verts))
        # a merged vertex is red to at most the other live vertices
        self.at = [0] * (len(verts) + 1)
        for i, key in enumerate(self.group[: len(verts)]):
            self._score(i, self.members.get(key, 0))
            self.members[key] = self.members.get(key, 0) | 1 << i

    def _score(self, x: int, partners: int) -> None:
        """Cache mr(x, y) for every y in the mask partners."""
        pos, neg, nbr, scores, at = self.pos, self.neg, self.nbr, self.scores, self.at
        pos_x, neg_x, nbr_x = pos[x], neg[x], nbr[x]
        bit_x = 1 << x
        row = scores[x]
        while partners:
            bit_y = partners & -partners
            partners ^= bit_y
            y = bit_y.bit_length() - 1
            m = ((nbr_x | nbr[y]) & ~((pos_x & pos[y]) | (neg_x & neg[y]) | bit_x | bit_y)).bit_count()
            # _link inlined: this loop runs once per pair of the input
            row[m] = row.get(m, 0) | bit_y
            other = scores[y]
            other[m] = other.get(m, 0) | bit_x
            at[m] |= bit_x | bit_y

    def best_pair(self, largest: bool) -> tuple[int, int] | None:
        """The pair minimizing (max red degree, red edges, label tie) after
        its contraction, or None when no group holds two vertices.

        Pairs are visited by ascending cached mr, and the walk stops past
        the best width found so far: the merged vertex alone has red degree
        mr, so no pair beyond that can win.  Only the visited pairs are
        scored in full.  Of the merged vertex's red neighbours, those red
        to neither u nor v gain one red edge and those red to both lose
        one; every other vertex keeps its degree.  The new maximum is read
        off the degree buckets from the top down, in O(max red degree)
        word operations, and the red edge count follows from mr and the
        two red degrees.
        """
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, label, bucket, scores = self.rdeg, self.label, self.bucket, self.scores
        top, total = self.top, self.total_red
        best_key: tuple | None = None
        best_pair = None
        best_width = len(bucket)
        for merged_red, holders in enumerate(self.at):
            if merged_red > best_width:
                break
            while holders:
                bit_u = holders & -holders
                holders ^= bit_u
                u = bit_u.bit_length() - 1
                # each pair once, from its lower endpoint
                partners = scores[u][merged_red] >> (u + 1)
                if not partners:
                    continue
                pos_u, neg_u, nbr_u, red_u = pos[u], neg[u], nbr[u], red[u]
                base = total - rdeg[u] + merged_red
                label_u = label[u]
                v = u
                while partners:
                    skip = (partners & -partners).bit_length()
                    partners >>= skip
                    v += skip
                    pair = bit_u | 1 << v
                    merged = (nbr_u | nbr[v]) & ~((pos_u & pos[v]) | (neg_u & neg[v]) | pair)
                    red_v = red[v]
                    gain = merged & ~(red_u | red_v)
                    lose = red_u & red_v
                    # a degree-d vertex ends at d + 1 (gain), d - 1 (lose) or d
                    width = merged_red
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
                    edges = base - rdeg[v] + ((red_u >> v) & 1)
                    label_v = label[v]
                    low, high = (label_u, label_v) if label_u < label_v else (label_v, label_u)
                    key = (width, edges, (-low, -high) if largest else (low, high))
                    if best_key is None or key < best_key:
                        best_key = key
                        best_pair = (u, v)
                        best_width = width
        return best_pair

    def contract(self, u: int, v: int, w: int) -> None:
        """Merge u and v into the fresh index w, updating only w, the old
        neighbours of u and v, and the cached scores of their pairs.

        Only the masks of touched = N(u) | N(v) - {u, v} change, so only
        pairs with an endpoint in touched or at w can change mr.  A touched
        t loses u and v and gains w, so against a partner y outside touched
        (which sees none of u, v, w) mr moves by 1 - |N(t) & {u, v}|: down
        one if t saw both, else not at all.  Pairs inside touched are
        scored afresh, and w against its whole group.
        """
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, bucket, scores, at = self.rdeg, self.bucket, self.scores, self.at
        pair = (1 << u) | (1 << v)
        bit_w = 1 << w
        pos_w = pos[u] & pos[v]
        neg_w = neg[u] & neg[v]
        touched = (nbr[u] | nbr[v]) & ~pair
        both = nbr[u] & nbr[v]
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

        for x in (u, v):
            bit_x = 1 << x
            for m, mask in scores[x].items():
                at[m] &= ~bit_x
                mask &= ~pair
                while mask:
                    low = mask & -mask
                    mask ^= low
                    _unlink(scores, at, low.bit_length() - 1, bit_x, m)
            scores[x] = None
        key = self.group[w] = self.group[u]
        self.members[key] &= ~pair
        done = 0
        rest = touched
        while rest:
            bit_t = rest & -rest
            rest ^= bit_t
            t = bit_t.bit_length() - 1
            row = scores[t]
            # partners inside touched not yet re-scored, and whether t's
            # partners outside touched all drop by one
            inside = touched & ~done & ~bit_t
            saw_both = bit_t & both
            pos_t, neg_t, nbr_t = pos[t], neg[t], nbr[t]
            for m, mask in list(row.items()):
                recheck = mask & inside
                while recheck:
                    bit_y = recheck & -recheck
                    recheck ^= bit_y
                    y = bit_y.bit_length() - 1
                    new = ((nbr_t | nbr[y]) & ~((pos_t & pos[y]) | (neg_t & neg[y]) | bit_t | bit_y)).bit_count()
                    if new != m:
                        _unlink(scores, at, t, bit_y, m)
                        _link(scores, at, t, bit_y, new)
                        _unlink(scores, at, y, bit_t, m)
                        _link(scores, at, y, bit_t, new)
                moved = mask & ~touched if saw_both else 0
                if moved:
                    _unlink(scores, at, t, moved, m)
                    _link(scores, at, t, moved, m - 1)
                    while moved:
                        bit_y = moved & -moved
                        moved ^= bit_y
                        y = bit_y.bit_length() - 1
                        _unlink(scores, at, y, bit_t, m)
                        _link(scores, at, y, bit_t, m - 1)
            done |= bit_t
        scores[w] = {}
        self._score(w, self.members[key])
        self.members[key] |= bit_w


def _link(scores: list, at: list[int], x: int, partners: int, m: int) -> None:
    """Record mr(x, y) = m for each y in partners, in x's row only."""
    row = scores[x]
    row[m] = row.get(m, 0) | partners
    at[m] |= 1 << x


def _unlink(scores: list, at: list[int], x: int, partners: int, m: int) -> None:
    """Forget mr(x, y) = m for each y in partners, in x's row only."""
    row = scores[x]
    rest = row[m] & ~partners
    if rest:
        row[m] = rest
    else:
        del row[m]
        at[m] &= ~(1 << x)


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

    The loop runs on a private bitset working graph (_WorkingGraph) that
    caches each same-group pair's merged red degree mr.  A step scores in
    full only the pairs whose mr does not exceed the best width found, and
    a contraction re-scores only the pairs with an endpoint among the
    merged pair's neighbours or at the new vertex; no other pair's score
    can change.
    """
    if tie_break not in ("smallest", "largest"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if bipartite:
        _require_sides(graph, "bipartite greedy")
    work = _WorkingGraph(graph, bipartite)
    vertices = graph.vertices()
    steps: list[tuple[int, int]] = []
    width = work.top
    fresh = len(vertices)
    while (pair := work.best_pair(tie_break == "largest")) is not None:
        u, v = pair
        steps.append(tuple(sorted((work.label[u], work.label[v]))))
        work.contract(u, v, fresh)
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
        # A vertex's label is the smallest input id in its bag.
        g = graph
        steps: list[tuple[int, int]] = []
        while True:
            pairs = _candidate_pairs(g, bipartite)
            if not pairs:
                break
            label = {v: min(g.bag(v)) for v in g.vertices()}
            for u, v in sorted(pairs, key=lambda p: sorted((label[p[0]], label[p[1]]))):
                h = g.contract(u, v)
                m = h.max_red_degree()
                if m > achieved:
                    continue
                if max(m, solve(h)) <= achieved:
                    steps.append(tuple(sorted((label[u], label[v]))))
                    g = h
                    break
            else:
                raise AssertionError("witness reconstruction lost the optimum")
        return width, ContractionSequence(
            tuple(steps),
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

    out = ContractionLog(graph)
    steps: list[tuple[int, int]] = []
    # clique and subdividers by label; a subdivider is contracted only once
    # picked, so until then its label is its vertex id
    clique = set(clique_vertices)
    subdividers = set(graph.vertices()) - clique

    def check_degrees() -> None:
        if out.width > d - 1:
            raise AssertionError(f"red degree exceeded {d - 1}")
        if d >= 3:
            worst = max((len(out.neighbors(x)) for x in out.vertices()), default=0)
            if worst > d - 1:
                raise AssertionError(f"total degree {worst} exceeded {d - 1}")

    check_degrees()
    while subdividers:
        pick = None
        for v in sorted(clique):
            adjacent = [u for u in out.neighbors(out.vertex(v)) if u in subdividers]
            if adjacent:
                pick = (v, min(adjacent))
                break
        if pick is None:
            raise AssertionError("subdivision vertices left but none adjacent to the clique")
        keep, merge = sorted(pick)
        subdividers.remove(pick[1])
        clique.remove(pick[0])
        clique.add(keep)
        out.contract(keep, merge)
        steps.append((keep, merge))
        check_degrees()
    while len(clique) > 1:
        keep, merge = sorted(clique)[:2]
        clique.remove(merge)
        out.contract(keep, merge)
        steps.append((keep, merge))
        check_degrees()
    return ContractionSequence(
        tuple(steps),
        declared_width=out.width,
        num_vertices=max(graph.vertices(), default=0),
    )
