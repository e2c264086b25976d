"""Twin-width upper bounds: greedy sequences, exact search, subdivided cliques.

greedy_sequence runs on a private mutable bitset working graph rather than
on SignedTrigraph.  Of a candidate pair it needs the red degree mr the
merged vertex would get, which reads only the two endpoints' masks.  It
caches mr only for the near pairs, those that are adjacent or share a
neighbour; a far pair has mr = deg x + deg y exactly, so per-group degree
buckets list the far pairs at each mr.  A step walks the pairs by
ascending mr, the near ones from the cache and the far ones from the
degree buckets, and scores in full, from the per-red-degree buckets, only
those whose mr does not exceed the best width found so far.  A contraction
of u and v changes the masks only of their neighbours and the new vertex,
so it re-scores only the near pairs with an endpoint there and scores the
new vertex against its near partners alone.  The scores, the label
tie-break and hence the emitted sequences are exactly those of contracting
every candidate pair and measuring the result.  The exact search runs one
depth-first search per red degree cap on one sequence.ContractionLog,
contracting forward and backtracking with undo(); the partitions it has
found dead under a cap are keyed by their bags, a frozenset of bags.  The
subdivided-clique construction grows one ContractionLog in place.
"""

from __future__ import annotations

from itertools import combinations

from .sequence import ContractionLog, ContractionSequence
from .trigraph import NEG, POS, RED, SignedTrigraph, require_sides


class _WorkingGraph:
    """Greedy's private, mutable bitset copy of a trigraph, with cached
    scores for the pairs that share a neighbour.

    Vertices get dense indices: the input vertices in sorted order, then
    one fresh index per contraction, so every mask stays below 2V bits
    however sparse the input ids are.  Vertex i keeps int bitmasks of its
    POS, NEG and RED neighbours (plus their union), its red degree, its
    degree, its label (the smallest input id in its bag) and its group (its
    side in a bipartite run, else one group for all).  One bucket mask per
    red degree and the running red-edge total let a pair be scored without
    touching the rest of the graph.  Each group keeps one mask per degree
    (by_degree) and the least degree of its live vertices (least), which
    list the far pairs below.

    A pair x, y of live vertices in one group has the merged red degree
    mr(x, y) = |N(x) | N(y) - {x, y} - agree|, where agree is
    (pos_x & pos_y) | (neg_x & neg_y).  A near pair (the two are adjacent
    or share a neighbour) has mr cached: scores[x] maps each mr value to
    the mask of x's near partners at that value (so each pair sits in both
    rows), and at[m] is the mask of vertices with a near partner at mr m.
    A far pair shares no neighbour and no edge, so nothing agrees and its
    mr is exactly deg x + deg y: the far pairs at mr m are the pairs of a
    degree-a and a degree-(m - a) vertex of one group that are not near.
    No far pair has an entry, and near(x) is derived from the masks when a
    step asks for it (_near), not kept per vertex.
    """

    __slots__ = (
        "pos", "neg", "red", "nbr", "rdeg", "degree", "label", "bucket", "top", "total_red",
        "by_degree", "least", "group", "members", "scores", "at",
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
        self.degree = [nbrs.bit_count() for nbrs in self.nbr]
        self.label = verts + [0] * (size - len(verts))
        self.group = [graph.side(v) if bipartite else 0 for v in verts] + [None] * (size - len(verts))
        # degrees never exceed the vertex count, one bucket each
        self.bucket = [0] * (len(verts) + 1)
        self.by_degree = {key: [0] * (len(verts) + 1) for key in self.group[: len(verts)]}
        self.least = dict.fromkeys(self.by_degree, len(verts))
        for i, key in enumerate(self.group[: len(verts)]):
            self.bucket[self.rdeg[i]] |= 1 << i
            self.by_degree[key][self.degree[i]] |= 1 << i
            self.least[key] = min(self.least[key], self.degree[i])
        self.top = max(self.rdeg, default=0)
        self.total_red = sum(self.rdeg) // 2
        self.members: dict[int | None, int] = {}
        self.scores: list[dict[int, int] | None] = [{} for _ in verts] + [None] * (size - len(verts))
        # a merged vertex is red to at most the other live vertices
        self.at = [0] * (len(verts) + 1)
        for i, key in enumerate(self.group[: len(verts)]):
            self._score(i, self._near(i) & self.members.get(key, 0))
            self.members[key] = self.members.get(key, 0) | 1 << i

    def _near(self, x: int) -> int:
        """The mask of x's neighbours and of their neighbours (x among them)."""
        nbr = self.nbr
        near = rest = nbr[x]
        while rest:
            bit = rest & -rest
            rest ^= bit
            near |= nbr[bit.bit_length() - 1]
        return near

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
            # inlined: this loop runs once per near pair of the input
            row[m] = row.get(m, 0) | bit_y
            other = scores[y]
            other[m] = other.get(m, 0) | bit_x
            at[m] |= bit_x | bit_y

    def _far_floor(self, limit: int) -> int:
        """The least degree sum of two live vertices of one group, a floor
        for the mr of a far pair, or a value above limit if every such sum
        exceeds limit."""
        # degrees stay below len(at), so the scan stays inside the buckets
        floor = min(limit + 1, len(self.at))
        for key, held in self.by_degree.items():
            a = b = self.least[key]
            if not held[a] & (held[a] - 1):
                # a lone vertex at the least degree pairs with the next one
                b += 1
                while a + b < floor and not held[b]:
                    b += 1
            floor = min(floor, a + b)
        return floor

    def _far_pairs(self, merged_red: int, largest: bool) -> list[tuple[int, int]]:
        """(u, partners) covering once each far pair at mr merged_red that
        can win.

        Such a pair joins a degree-a and a degree-(merged_red - a) vertex of
        one group that are not near; a degree pair with an empty side is
        skipped.  A degree-0 vertex adds no neighbour and changes no degree,
        so all isolated partners of a vertex tie on width and red edges:
        only the two label-extreme isolated vertices of each group can win
        the label tie, and only they are paired.
        """
        walk = []
        half = merged_red >> 1
        for key, by_degree in self.by_degree.items():
            a = self.least[key] - 1
            while a < half:
                a += 1
                xs = by_degree[a]
                ys = by_degree[merged_red - a]
                if not xs or not ys:
                    continue
                if not a:
                    alone = []
                    while xs:
                        bit = xs & -xs
                        xs ^= bit
                        alone.append((self.label[bit.bit_length() - 1], bit))
                    alone.sort()
                    xs = sum(bit for _, bit in (alone[-2:] if largest else alone[:2]))
                    if not merged_red:
                        ys = xs
                while xs:
                    bit_u = xs & -xs
                    xs ^= bit_u
                    u = bit_u.bit_length() - 1
                    partners = ys & ~self._near(u)
                    if a + a == merged_red:
                        # each pair once, from its lower endpoint
                        partners &= -(bit_u << 1)
                    if partners:
                        walk.append((u, partners))
        return walk

    def best_pair(self, largest: bool) -> tuple[int, int] | None:
        """The pair minimizing (max red degree, red edges, label tie) after
        its contraction, or None when no group holds two vertices.

        Pairs are visited by ascending mr, the near ones from the cache and
        the far ones from the degree buckets (_far_pairs), and the walk stops
        past the best width found so far: the merged vertex alone has red
        degree mr, so no pair beyond that can win.  Only the visited pairs
        are scored in full.  Of the merged vertex's red neighbours, those
        red to neither u nor v gain one red edge and those red to both lose
        one; every other vertex keeps its degree.  The new maximum is read
        off the degree buckets from the top down, in O(max red degree) word
        operations, and the red edge count follows from mr and the two red
        degrees.
        """
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, label, bucket, scores = self.rdeg, self.label, self.bucket, self.scores
        top, total = self.top, self.total_red
        best_key: tuple | None = None
        best_pair = None
        best_width = len(bucket)
        # a far pair's mr is at least twice the least degree, and at least
        # _far_floor once the walk gets that far
        far_from = 2 * min(self.least.values(), default=0)
        floored = False
        for merged_red, holders in enumerate(self.at):
            if merged_red > best_width:
                break
            if merged_red >= far_from and not floored:
                far_from = self._far_floor(best_width)
                floored = True
            far = self._far_pairs(merged_red, largest) if merged_red >= far_from else None
            # the near pairs first, then the far ones
            while holders or far:
                if holders:
                    bit_u = holders & -holders
                    holders ^= bit_u
                    u = bit_u.bit_length() - 1
                    # each pair once, from its lower endpoint
                    partners = scores[u][merged_red] & -(bit_u << 1)
                    if not partners:
                        continue
                else:
                    u, partners = far.pop()
                    bit_u = 1 << u
                pos_u, neg_u, nbr_u, red_u = pos[u], neg[u], nbr[u], red[u]
                base = total - rdeg[u] + merged_red
                label_u = label[u]
                while partners:
                    bit_v = partners & -partners
                    partners ^= bit_v
                    v = bit_v.bit_length() - 1
                    pair = bit_u | bit_v
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
        neighbours of u and v, and the cached scores of their near pairs.

        Only the masks of touched = N(u) | N(v) - {u, v} change, so only
        pairs with an endpoint in touched or at w can change mr.  A touched
        t loses u and v and gains w, so against a partner y outside touched
        (which sees none of u, v, w) mr moves by 1 - |N(t) & {u, v}|: down
        one if t saw both, else not at all.  Such a pair is near after the
        step exactly when it was before, since a neighbour the two share is
        none of u, v, w.  Pairs inside touched all share w, so they are
        scored afresh, and w against its near partners.
        """
        pos, neg, red, nbr = self.pos, self.neg, self.red, self.nbr
        rdeg, degree, bucket, scores, at = self.rdeg, self.degree, self.bucket, self.scores, self.at
        pair = (1 << u) | (1 << v)
        bit_w = 1 << w
        pos_w = pos[u] & pos[v]
        neg_w = neg[u] & neg[v]
        touched = (nbr[u] | nbr[v]) & ~pair
        both = nbr[u] & nbr[v]
        red_w = touched & ~(pos_w | neg_w)
        self.total_red += red_w.bit_count() - rdeg[u] - rdeg[v] + ((red[u] >> v) & 1)
        # w's near partners: its neighbours and theirs
        near_w = touched
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
            nbr_x = nbr[x] = (nbr[x] & ~pair) | bit_w
            near_w |= nbr_x
            red_degree = red_x.bit_count()
            if red_degree != rdeg[x]:
                bucket[rdeg[x]] &= ~low
                bucket[red_degree] |= low
                rdeg[x] = red_degree
        for x in (u, v):
            bucket[rdeg[x]] &= ~(1 << x)
            pos[x] = neg[x] = red[x] = nbr[x] = 0
        pos[w], neg[w], red[w], nbr[w] = pos_w, neg_w, red_w, touched
        rdeg[w] = red_w.bit_count()
        bucket[rdeg[w]] |= bit_w
        self.label[w] = min(self.label[u], self.label[v])
        key = self.group[w] = self.group[u]
        least = self.least
        # a touched vertex that saw both drops one neighbour; the touched
        # vertices all lie in one group (the other side, in a sided graph)
        rest = both
        if rest:
            side = self.group[(rest & -rest).bit_length() - 1]
            held = self.by_degree[side]
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                d = degree[x] - 1
                held[d + 1] &= ~low
                held[d] |= low
                degree[x] = d
                if d < least[side]:
                    least[side] = d
        held = self.by_degree[key]
        held[degree[u]] &= ~(1 << u)
        held[degree[v]] &= ~(1 << v)
        d = degree[w] = touched.bit_count()
        held[d] |= bit_w
        low = min(least[key], d)
        # u or v may have held the least degree alone; w stops the scan
        while not held[low]:
            low += 1
        least[key] = low
        top = min(max(self.top + 1, rdeg[w]), len(bucket) - 1)
        while top and not bucket[top]:
            top -= 1
        self.top = top

        # the pair upkeep below is inlined: it runs for every near partner
        # of u and v and every re-scored pair, so a call per pair would
        # dominate
        for x in (u, v):
            keep_x = ~(1 << x)
            for m, mask in scores[x].items():
                at[m] &= keep_x
                mask &= ~pair
                while mask:
                    bit_y = mask & -mask
                    mask ^= bit_y
                    other = scores[bit_y.bit_length() - 1]
                    rest = other[m] & keep_x
                    if rest:
                        other[m] = rest
                    else:
                        del other[m]
                        at[m] &= ~bit_y
            scores[x] = None
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
            cached = 0
            saw_both = bit_t & both
            keep_t = ~bit_t
            pos_t, neg_t, nbr_t = pos[t], neg[t], nbr[t]
            for m, mask in list(row.items()):
                moved = mask & ~touched if saw_both else 0
                # the partners that leave row[m]; bits that an earlier m
                # moved into row[m] stay
                leaving = moved
                recheck = mask & inside
                cached |= recheck
                while recheck:
                    bit_y = recheck & -recheck
                    recheck ^= bit_y
                    y = bit_y.bit_length() - 1
                    new = ((nbr_t | nbr[y]) & ~((pos_t & pos[y]) | (neg_t & neg[y]) | bit_t | bit_y)).bit_count()
                    if new != m:
                        leaving |= bit_y
                        row[new] = row.get(new, 0) | bit_y
                        at[new] |= bit_t | bit_y
                        other = scores[y]
                        kept = other[m] & keep_t
                        if kept:
                            other[m] = kept
                        else:
                            del other[m]
                            at[m] &= ~bit_y
                        other[new] = other.get(new, 0) | bit_t
                if moved:
                    row[m - 1] = row.get(m - 1, 0) | moved
                    at[m - 1] |= bit_t | moved
                    while moved:
                        bit_y = moved & -moved
                        moved ^= bit_y
                        other = scores[bit_y.bit_length() - 1]
                        kept = other[m] & keep_t
                        if kept:
                            other[m] = kept
                        else:
                            del other[m]
                            at[m] &= ~bit_y
                        other[m - 1] = other.get(m - 1, 0) | bit_t
                if leaving:
                    kept = row[m] & ~leaving
                    if kept:
                        row[m] = kept
                    else:
                        del row[m]
                        at[m] &= keep_t
            if inside & ~cached:
                # pairs inside touched that were far now share w
                self._score(t, inside & ~cached)
            done |= bit_t
        scores[w] = {}
        self._score(w, near_w & self.members[key])
        self.members[key] |= bit_w


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
    caches the merged red degree mr of each same-group near pair (adjacent,
    or sharing a neighbour).  A far pair is not cached: its mr is the sum
    of the two degrees, so the per-group degree buckets list the far pairs
    at each mr.  A step scores in full only the pairs whose mr does not
    exceed the best width found, and a contraction re-scores only the near
    pairs with an endpoint among the merged pair's neighbours, and scores
    the new vertex against its near partners; no other pair's score can
    change.  On an implication chain, whose incidence graph is a path, the
    cache holds O(V) pairs and a step touches O(1) of them.
    """
    if tie_break not in ("smallest", "largest"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if bipartite:
        require_sides(graph, "bipartite greedy")
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
) -> tuple[int, ContractionSequence]:
    """Exact minimum width over all (bipartite) sequences, with a witness.

    Runs one depth-first search per red degree cap, the caps ascending from
    0, on one ContractionLog that it contracts and undoes.  At each
    partition it tries the candidate pairs in sorted-label order (a
    vertex's label is the id of the input vertex that it answers to, and
    each step keeps the smaller label), skips a pair whose contraction has
    max red degree above the cap, and marks the partition dead once every
    pair has failed.  The first cap c at which a search contracts down to
    no candidate pair is the least possible largest red degree after a
    step; the width is max(initial red degree, c), and the steps that
    search took are the witness: the lexicographically smallest of the
    sequences whose largest red degree after a step is least.  When the
    input's own red degree exceeds c, that can differ from the smallest
    among all minimum-width sequences.  Pass max_vertices explicitly to
    override the size guard.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceeds the brute-force guard {max_vertices}")
    if bipartite:
        require_sides(graph, "bipartite brute force")
    log = ContractionLog(graph)

    def search(cap: int, dead: set[frozenset[frozenset[int]]]) -> bool:
        """Contract the log within cap down to no candidate pair and return
        True, or leave it as it was and return False."""
        vertices = log.vertices()
        parts = frozenset(log.bag(v) for v in vertices)
        if parts in dead:
            return False
        labelled = sorted((log.label(v), log.side(v)) for v in vertices)
        pairs = [
            (keep, merge)
            for (keep, side), (merge, other) in combinations(labelled, 2)
            if not bipartite or side == other
        ]
        if not pairs:
            return True
        for keep, merge in pairs:
            log.contract(keep, merge)
            if log.per_step_max_red[-1] <= cap and search(cap, dead):
                return True
            log.undo()
        dead.add(parts)
        return False

    # a cap of n - 1 admits every sequence, so the walk ends there at the latest
    for cap in range(max(n - 1, 0) + 1):
        if search(cap, set()):
            return log.width, log.sequence()
    raise AssertionError("no sequence within width cap n - 1")


def _trace_path(
    graph: SignedTrigraph, start: int, first: int, clique: set[int]
) -> tuple[int, list[int]]:
    """Follow a subdivided edge from a clique vertex to the next clique vertex."""
    path: list[int] = []
    prev, cur = start, first
    while cur not in clique:
        path.append(cur)
        # the caller has checked that every path vertex has degree 2
        (nxt,) = (x for x in graph.neighbors(cur) if x != prev)
        prev, cur = cur, nxt
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
        check_degrees()
    while len(clique) > 1:
        keep, merge = sorted(clique)[:2]
        clique.remove(merge)
        out.contract(keep, merge)
        check_degrees()
    return out.sequence()
