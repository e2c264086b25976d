"""Instance generators: grids, clique subdivisions, reduction formulas, k-SAT.

Sign policies for graph generators: "all-pos" makes every edge positive,
"alternating" alternates signs along the deterministic edge enumeration
order, "random" draws signs from the given seed.  All generators are
deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Sequence

from .cnf import Formula
from .trigraph import NEG, POS, SignedTrigraph

SIGN_POLICIES = ("all-pos", "alternating", "random")


def _sign_stream(policy: str, seed: int | None):
    if policy not in SIGN_POLICIES:
        raise ValueError(f"unknown sign policy {policy!r}")
    if policy == "all-pos":
        return lambda index: POS
    if policy == "alternating":
        return lambda index: POS if index % 2 == 0 else NEG
    rng = random.Random(seed)
    return lambda index: rng.choice((POS, NEG))


def gen_grid(dimension: int, side: int, signs: str = "all-pos", seed: int | None = None) -> SignedTrigraph:
    """The d-dimensional grid with `side` points per axis, signed per policy.

    Vertex ids are 1-based in row-major coordinate order; the two sides of
    the trigraph are the chessboard classes (parity of the coordinate sum),
    so the result is ready for bipartite contraction sequences.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if side < 2:
        raise ValueError("side must be at least 2")
    points = list(itertools.product(range(side), repeat=dimension))
    ids = {p: i + 1 for i, p in enumerate(points)}
    sides = {ids[p]: sum(p) % 2 for p in points}
    sign_of = _sign_stream(signs, seed)
    edges = []
    index = 0
    for p in points:
        for axis in range(dimension):
            if p[axis] + 1 < side:
                q = p[:axis] + (p[axis] + 1,) + p[axis + 1 :]
                edges.append((ids[p], ids[q], sign_of(index)))
                index += 1
    return SignedTrigraph(ids.values(), edges, sides=sides)


def gen_subdivided_clique(
    d: int,
    counts: Sequence[int],
    signs: str = "all-pos",
    seed: int | None = None,
) -> tuple[SignedTrigraph, list[int]]:
    """A subdivision of K_d: edge number e gets counts[e] extra vertices.

    Edges of K_d are enumerated as ordered pairs (i, j) with i < j in
    lexicographic order, so counts must have d·(d−1)/2 entries.  Returns
    the graph and the list of original clique vertices (ids 1..d); the
    extra vertices follow.  Signs apply per generated edge segment.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    if len(counts) != len(pairs):
        raise ValueError(f"need {len(pairs)} subdivision counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("subdivision counts must be nonnegative")
    sign_of = _sign_stream(signs, seed)
    vertices = list(range(1, d + 1))
    edges = []
    nxt = d + 1
    index = 0
    for (i, j), count in zip(pairs, counts):
        path = [i] + list(range(nxt, nxt + count)) + [j]
        nxt += count
        vertices.extend(path[1:-1])
        for a, b in zip(path, path[1:]):
            edges.append((a, b, sign_of(index)))
            index += 1
    return SignedTrigraph(vertices, edges), list(range(1, d + 1))


def gen_hitting_set_formula(
    universe: Iterable[int], sets: Iterable[Iterable[int]], k: int
) -> tuple[Formula, int]:
    """Reduce hitting set to bounded-ones satisfiability.

    Each set becomes an all-positive clause, plus one clause over the whole
    universe; a model with at most k ones is exactly a hitting set of size
    at most k (the universe clause only rules out the empty selection when
    no set would).
    """
    if k < 0:
        raise ValueError("the ones budget k must be nonnegative")
    ground = sorted(set(universe))
    if not ground or any(u <= 0 for u in ground):
        raise ValueError("universe must be a nonempty set of positive ints")
    clauses: list[list[int]] = []
    seen = set()
    for s in sets:
        members = sorted(set(s))
        if not members:
            raise ValueError("sets must be nonempty")
        if not set(members) <= set(ground):
            raise ValueError("sets must be subsets of the universe")
        key = frozenset(members)
        if key not in seen:
            seen.add(key)
            clauses.append(members)
    if frozenset(ground) not in seen:
        clauses.append(ground)
    return Formula(max(ground), clauses), k


def gen_partitioned_clique_formula(
    parts: Sequence[Sequence[int]], edges: Iterable[tuple[int, int]]
) -> tuple[Formula, int]:
    """Reduce multicolored clique to bounded-ones satisfiability.

    For balanced parts V_1..V_d of a d-partite graph: one all-positive
    clause per part, and per cross-part non-edge (u, v) the clause
    (V_i∖{u}) ∪ (V_j∖{v}) ∪ {¬u, ¬v}.  Models with at most d ones are
    exactly the d-cliques picking one vertex per part.
    """
    if not parts:
        raise ValueError("need at least one part")
    size = len(parts[0])
    if size == 0 or any(len(p) != size for p in parts):
        raise ValueError("parts must be nonempty and balanced")
    all_vertices: set[int] = set()
    for p in parts:
        members = set(p)
        if len(members) != len(p) or members & all_vertices:
            raise ValueError("parts must be disjoint sets of distinct vertices")
        if any(v <= 0 for v in members):
            raise ValueError("vertices must be positive ints")
        all_vertices |= members
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    edge_set = set()
    for u, v in edges:
        if u not in part_of or v not in part_of or part_of[u] == part_of[v]:
            raise ValueError(f"edge ({u},{v}) must join two different parts")
        edge_set.add(frozenset((u, v)))

    clauses: list[list[int]] = [sorted(p) for p in parts]
    for i, j in itertools.combinations(range(len(parts)), 2):
        for u in sorted(parts[i]):
            for v in sorted(parts[j]):
                if frozenset((u, v)) in edge_set:
                    continue
                pos = [w for w in parts[i] if w != u] + [w for w in parts[j] if w != v]
                clauses.append(sorted(pos) + sorted((-u, -v), reverse=True))
    return Formula(max(all_vertices), clauses), len(parts)


def gen_random_ksat(
    num_vars: int, clause_width: int, num_clauses: int, seed: int
) -> Formula:
    """Uniform random width-w CNF: distinct clauses, no complementary pair
    inside a clause, deterministic under the seed."""
    if num_vars < 1 or clause_width < 1 or num_clauses < 0:
        raise ValueError("num_vars and clause_width must be positive, num_clauses nonnegative")
    if clause_width > num_vars:
        raise ValueError("clause width exceeds the variable count")
    available = math.comb(num_vars, clause_width) * 2**clause_width
    if num_clauses > available:
        raise ValueError(f"only {available} distinct width-{clause_width} clauses exist")
    rng = random.Random(seed)
    # the variables are distinct, so a clause sorted by variable is its own
    # set key; clause -> None, kept in first-insertion order
    clauses: dict[tuple[int, ...], None] = {}
    while len(clauses) < num_clauses:
        vs = rng.sample(range(1, num_vars + 1), clause_width)
        clauses[tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs))] = None
    return Formula(num_vars, tuple(clauses))
