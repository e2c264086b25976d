"""Shared random-instance builders and brute-force referees.

The referees are deliberately independent of the solver internals.  The
record referee checks the dynamic program's records in a public form: a
`Profile` per state of a region's table, with sets of vertices in place
of bits (`profiles`).  `dp_records` gets the tables from the package's
own evaluator, `bwmc._region_tables` with every state kept, on every
red-connected region of every level (`enumerate_red_connected`), and
`finalize_record` reads a count off the last level's record by a readout
of its own, not `bwmc.finalize`.  `check_record` recomputes each profile's weight
straight from the definitions, and `realizes` states what a profile
means, so the dynamic program and the tests can only agree by both being
right.  `is_partitioned_clique_shape` checks the clause structure of the
partitioned-clique reduction.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from typing import Iterator, NamedTuple

from stww.bwmc import _bit, _region_tables, region_cap
from stww.cnf import Formula, WeightFunction
from stww.cwexpr import expression
from stww.sequence import ContractionLog, ContractionSequence, verify
from stww.trigraph import NEG, POS, RED, SIDE_CLA, SIDE_VAR, SignedTrigraph, incidence_graph


def random_formula(rng, max_vars=10, max_clauses=12, widths=(2, 3, 4), min_clauses=0):
    """Random CNF: distinct clauses, no complementary pair inside a clause."""
    n = rng.randint(1, max_vars)
    target = rng.randint(min_clauses, max_clauses)
    clauses = []
    seen = set()
    for _ in range(6 * target + 12):
        if len(clauses) >= target:
            break
        width = min(rng.choice(widths), n)
        chosen = rng.sample(range(1, n + 1), width)
        clause = frozenset(v if rng.random() < 0.5 else -v for v in chosen)
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return Formula(n, tuple(clauses))


def random_weights(rng, num_vars, zeros=True, negatives=True):
    """Random rational literal weights, mixing signs and denominators."""
    low = -6 if negatives else 0
    table = {}
    for v in range(1, num_vars + 1):
        for lit in (v, -v):
            numerator = rng.randint(low, 6)
            if not zeros and numerator == 0:
                numerator = 1
            table[lit] = Fraction(numerator, rng.randint(1, 4))
    return WeightFunction(table)


def implication_chain(num_vars):
    """x_1 -> x_2 -> ... -> x_n: the incidence graph is a path, all-zero is
    a model, and x_1 = 1 forces all n ones."""
    return Formula(
        num_vars, tuple(frozenset((-v, v + 1)) for v in range(1, num_vars))
    )


def zip_sequence(num_vars):
    """Width-2 bipartite schedule for a chain formula's incidence path."""
    steps = [(1, 2)]
    first_clause = num_vars + 1
    for i in range(1, num_vars - 1):
        steps.append((first_clause, first_clause + i))
        steps.append((1, 2 + i))
    return ContractionSequence(tuple(steps), num_vertices=2 * num_vars - 1)


def reference_formula_check(num_vars, clauses):
    """Reference for Formula's clause checks: the per-literal loop, raising
    the ValueError of the first bad clause, or returning None."""
    seen = set()
    for idx, clause in enumerate(clauses):
        for lit in clause:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"clause {idx}: literal {lit!r} out of range")
            if -lit in clause:
                raise ValueError(f"clause {idx}: complementary pair on variable {abs(lit)}")
        if clause in seen:
            raise ValueError(f"clause {idx}: duplicate clause")
        seen.add(clause)


def reference_is_canonical(clauses, num_vars):
    """Reference for cnf._is_canonical, one clause and one literal at a
    time: every clause a tuple of plain int literals with |lit| in
    [1, num_vars], strictly increasing in |lit|, and no two clauses equal."""
    for clause in clauses:
        if type(clause) is not tuple:
            return False
        for lit in clause:
            if type(lit) is not int or not 0 < abs(lit) <= num_vars:
                return False
        for a, b in zip(clause, clause[1:]):
            if abs(a) >= abs(b):
                return False
    return len(set(clauses)) == len(clauses)


def reference_serialize_dimacs(formula, weights=None):
    """Reference for serialize_dimacs: each clause's literals converted and
    joined one clause at a time, so the empty clause is the line " 0"."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    if weights is not None:
        for lit, value in weights.items():
            lines.append(f"c p weight {lit} {value} 0")
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def random_bipartite_graph(rng, max_n=30, p=0.3, min_n=2):
    """Random sided signed graph, edges only across the two sides."""
    n = rng.randint(min_n, max_n)
    split = rng.randint(1, n - 1)
    sides = {v: (SIDE_VAR if v <= split else SIDE_CLA) for v in range(1, n + 1)}
    edges = []
    for u in range(1, split + 1):
        for v in range(split + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v, POS if rng.random() < 0.5 else NEG))
    return SignedTrigraph(range(1, n + 1), edges, sides=sides)


def contracted(g, u, v):
    """Reference contraction, copy-on-contract: (h, w), where h is a new
    SignedTrigraph in which u and v are one vertex w, one past the largest
    id of g, and g is left as it was.  Toward every other vertex, w's edge
    is POS (NEG) when u's and v's edges there are both POS (NEG), absent
    when neither has one, and RED otherwise; w keeps the side u and v share
    (else none) and holds both bags."""
    w = max(g.vertices()) + 1
    rest = [x for x in g.vertices() if x != u and x != v]
    edges = [(a, b, kind) for a, b, kind in g.edges() if {a, b}.isdisjoint((u, v))]
    for x in rest:
        ku, kv = g.edge(u, x), g.edge(v, x)
        if ku is not None or kv is not None:
            edges.append((w, x, ku if ku == kv else RED))
    sides = {x: g.side(x) for x in rest}
    sides[w] = g.side(u) if g.side(u) == g.side(v) else None
    bags = {x: g.bag(x) for x in rest}
    bags[w] = g.bag(u) | g.bag(v)
    return SignedTrigraph(rest + [w], edges, sides, bags), w


def neighbors_at(log, v, level):
    """v's neighbours at `level` of a ContractionLog, read off its public
    steps: the vertices born by that level, not yet contracted away, with
    an edge to v."""
    ever = set(log.vertices()).union(*log.steps)
    gone = {u for x, y, _z in log.steps[:level] for u in (x, y)}
    return {w for w in ever - gone if log.birth(w) <= level and log.edge(v, w) is not None}


def brute_min_bipartite_width(graph):
    """Reference exact bipartite twin-width: plain recursion, no memo tricks."""

    def best(g):
        pairs = [
            (u, v)
            for u, v in itertools.combinations(g.vertices(), 2)
            if g.side(u) == g.side(v)
        ]
        if not pairs:
            return 0
        result = None
        for u, v in pairs:
            h, _ = contracted(g, u, v)
            value = max(h.max_red_degree(), best(h))
            if result is None or value < result:
                result = value
        return result

    return max(graph.max_red_degree(), best(graph))


def reference_exact_witness(graph, bipartite=False):
    """Reference for exact_tww_bruteforce: every full (same-side) sequence,
    enumerated by plain recursion in sorted-label order, with no memo and
    no cap.  Returns (width, steps) for the first sequence whose largest
    red degree after a step is least; the width also counts the input's
    own red degree.  A vertex's label is the input vertex id it answers
    to, and each step keeps the smaller label.
    """
    best = None

    def walk(g, label, steps, worst):
        nonlocal best
        pairs = sorted(
            (tuple(sorted((label[u], label[v]))), u, v)
            for u, v in itertools.combinations(g.vertices(), 2)
            if not bipartite or g.side(u) == g.side(v)
        )
        if not pairs:
            if best is None or worst < best[0]:
                best = (worst, tuple(steps))
            return
        for step, u, v in pairs:
            h, w = contracted(g, u, v)
            rest = {x: name for x, name in label.items() if x != u and x != v}
            walk(h, {**rest, w: step[0]}, steps + [step], max(worst, h.max_red_degree()))

    walk(graph, {v: v for v in graph.vertices()}, [], 0)
    return max(graph.max_red_degree(), best[0]), best[1]


def reference_greedy(graph, bipartite=False, tie_break="smallest"):
    """Reference greedy: contract every candidate pair and measure the result.

    Scores each pair by the contracted graph's own max_red_degree() and red
    edge count, breaking ties on the sorted label pair (negated for
    "largest"), and returns (steps, declared_width).
    """
    g = graph
    labels = {v: v for v in g.vertices()}
    steps = []
    width = g.max_red_degree()
    while True:
        pairs = [
            (u, v)
            for u, v in itertools.combinations(g.vertices(), 2)
            if not bipartite or g.side(u) == g.side(v)
        ]
        if not pairs:
            break
        best = None
        for u, v in pairs:
            h, w = contracted(g, u, v)
            red_edges = sum(1 for _, _, kind in h.edges() if kind == RED)
            low, high = sorted((labels[u], labels[v]))
            tie = (low, high) if tie_break == "smallest" else (-low, -high)
            key = (h.max_red_degree(), red_edges, tie)
            if best is None or key < best[0]:
                best = (key, u, v, h, w)
        _, u, v, h, w = best
        keep, merge = sorted((labels[u], labels[v]))
        labels[w] = keep
        del labels[u], labels[v]
        steps.append((keep, merge))
        g = h
        width = max(width, g.max_red_degree())
    return tuple(steps), width


def reference_verify(graph, seq, require_bipartite=False):
    """Reference verify: copy-on-contract with a private label map.

    Returns (width, per_step_max_red, bipartite, failure,
    step_ids), where step_ids holds (keep vertex, merge vertex, new vertex)
    for every step contracted before the first failure.
    """
    g = graph
    labels = {v: v for v in g.vertices()}
    width = g.max_red_degree()
    per_step, step_ids = [], []
    bipartite, failure = True, None
    for idx, (keep, merge) in enumerate(seq.steps):
        unknown = [label for label in (keep, merge) if label not in labels]
        if unknown:
            failure = (idx, f"unknown vertex id {unknown[0]}")
            break
        u, v = labels.pop(keep), labels.pop(merge)
        if g.side(u) is None or g.side(u) != g.side(v):
            bipartite = False
            if require_bipartite:
                failure = (idx, f"cross-side contraction ({keep},{merge})")
                break
        g, new = contracted(g, u, v)
        labels[keep] = new
        step_ids.append((u, v, new))
        per_step.append(g.max_red_degree())
        width = max(width, per_step[-1])
    return width, per_step, bipartite and failure is None, failure, step_ids


def reference_bipartize(graph, seq):
    """Reference bipartize: the per-side rule on SignedTrigraph copies.

    Replays seq with reference_verify, then contracts the output halves on
    a graph copied at every step, with a private label map.  Returns
    (steps, index_map, doubled_steps, input_width, output_width) and
    asserts the half-degree bound after every input step.
    """
    input_width, _, _, failure, step_ids = reference_verify(graph, seq)
    assert failure is None, failure
    out = graph
    labels = {v: v for v in graph.vertices()}
    output_width = graph.max_red_degree()
    halves = {v: (v, None) if graph.side(v) == SIDE_VAR else (None, v) for v in graph.vertices()}
    steps, index_map, doubled = [], {}, set()
    for index, (x, y, z) in enumerate(step_ids):
        first = len(steps)
        merged = []
        for p, q in zip(halves.pop(x), halves.pop(y)):
            if p is None or q is None:
                merged.append(q if p is None else p)
                continue
            out, new = contracted(out, p, q)
            keep, merge = sorted((labels.pop(p), labels.pop(q)))
            labels[new] = keep
            index_map[len(steps)] = index
            steps.append((keep, merge))
            output_width = max(output_width, out.max_red_degree())
            merged.append(new)
        halves[z] = tuple(merged)
        if len(steps) - first == 2:
            doubled.add(first)
        for a, b in halves.values():
            for half, sibling in ((a, b), (b, a)):
                if half is not None:
                    assert len(out.red_neighbors(half) - {sibling}) <= input_width
    return tuple(steps), index_map, frozenset(doubled), input_width, output_width


def brute_hitting_set_exists(universe, sets, k):
    """Is there a ≤ k element subset of the universe meeting every set?"""
    for size in range(0, k + 1):
        for pick in itertools.combinations(sorted(universe), size):
            chosen = set(pick)
            if all(chosen & set(s) for s in sets):
                return True
    return False


def brute_multicolored_clique_exists(parts, edge_set):
    """Is there a clique picking exactly one vertex from every part?"""
    for pick in itertools.product(*parts):
        if all(
            frozenset((u, v)) in edge_set
            for u, v in itertools.combinations(pick, 2)
        ):
            return True
    return False


def random_partitioned_instance(rng, max_parts=3, max_size=3, ensure_nonedge=False):
    """Balanced parts 1..d*size plus random cross-part edges.

    With ensure_nonedge, one cross pair per part pair is forced absent, so
    the instance's incidence graph carries at least one non-edge clause for
    every pair of parts.
    """
    d = rng.randint(2, max_parts)
    size = rng.randint(1, max_size)
    parts = [list(range(1 + i * size, 1 + (i + 1) * size)) for i in range(d)]
    edges = set()
    for i, j in itertools.combinations(range(d), 2):
        crosses = [(u, v) for u in parts[i] for v in parts[j]]
        banned = rng.choice(crosses) if ensure_nonedge else None
        for cross in crosses:
            if cross != banned and rng.random() < 0.6:
                edges.add(frozenset(cross))
    return parts, edges


def is_partitioned_clique_shape(formula, parts):
    """Check the incidence graph contracts, part by part and non-edge group
    by non-edge group, into a K_d with every edge subdivided exactly once
    (the per-part clauses are the d pendant vertices set aside first).

    Works directly on the clause structure: every clause must be either one
    part (all positive) or carry exactly two negative literals from two
    different parts with the matching positive remainder, and every part
    pair must contribute at least one such clause.
    """
    part_sets = [frozenset(p) for p in parts]
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    d = len(parts)
    pending_parts = set(range(d))
    pair_groups = set()
    for clause in formula.clauses:
        negatives = sorted(-lit for lit in clause if lit < 0)
        positives = frozenset(lit for lit in clause if lit > 0)
        if not negatives:
            try:
                idx = part_sets.index(positives)
            except ValueError:
                return False
            if idx not in pending_parts:
                return False
            pending_parts.discard(idx)
            continue
        if len(negatives) != 2:
            return False
        u, v = negatives
        if u not in part_of or v not in part_of:
            return False
        i, j = sorted((part_of[u], part_of[v]))
        if i == j:
            return False
        expected = (part_sets[part_of[u]] - {u}) | (part_sets[part_of[v]] - {v})
        if positives != expected:
            return False
        pair_groups.add((i, j))
    if pending_parts:
        return False
    return pair_groups == set(itertools.combinations(range(d), 2))


# -- profile record referee -------------------------------------------------


class Profile(NamedTuple):
    region: frozenset[int]
    has_one: frozenset[int]
    mixed: frozenset[int]
    ones: int
    satisfied: frozenset[int]


Record = dict[Profile, int | Fraction]


def enumerate_red_connected(graph: SignedTrigraph, max_size: int) -> list[frozenset[int]]:
    """Every red-connected vertex set of size <= max_size, each exactly once.

    Sets are grown from their minimum vertex, so the enumeration is
    deterministic and duplicate-free.
    """
    out: list[frozenset[int]] = []

    def grow(current: frozenset[int], frontier: frozenset[int], blocked: set[int]) -> None:
        out.append(current)
        if len(current) >= max_size:
            return
        for v in sorted(frontier):
            if v in blocked:
                continue
            extended = (frontier | graph.red_neighbors(v)) - current
            nxt = frozenset(u for u in extended if u != v and u > root)
            grow(current | {v}, nxt, set(blocked))
            blocked.add(v)

    if max_size >= 1:
        for root in graph.vertices():
            frontier = frozenset(u for u in graph.red_neighbors(root) if u > root)
            grow(frozenset((root,)), frontier, set())
    return out


def profiles(log: ContractionLog, region: frozenset[int], table) -> Record:
    """The public form of a region's table: one Profile per state, its
    sets decoded from the bits of the region's vertices, read by side."""
    variables = [(v, _bit(log, v)) for v in region if log.side(v) == SIDE_VAR]
    clauses = [(c, _bit(log, c)) for c in region if log.side(c) == SIDE_CLA]
    return {
        Profile(region,
                frozenset(v for v, bit in variables if key & bit),
                frozenset(v for v, bit in variables if key & bit << 1),
                ones,
                frozenset(c for c, bit in clauses if key & bit)): value
        for ones, row in table.items()
        for key, value in row.items()
    }


def dp_records(
    formula: Formula,
    weights: WeightFunction,
    k: int,
    seq: ContractionSequence,
    stats: dict | None = None,
) -> Iterator[tuple[SignedTrigraph, Record]]:
    """Full per-level records, from the incidence graph to the final level.

    Each yielded record holds every realizable profile of every
    red-connected region up to the size threshold, read through the region
    evaluation `solve_bwmc` runs, with no dead state dropped: the regions
    of all levels are the roots of one planned evaluation, which runs
    before the first level is yielded.  Meant for small inputs; the full
    enumeration grows quickly with the threshold.
    """
    if k <= 0:
        raise ValueError("record enumeration needs a positive ones budget")
    graph = incidence_graph(formula)
    log = verify(graph, seq, require_bipartite=True).check()
    budget = min(k, formula.num_vars)
    max_region = region_cap(budget, log.width)
    # each level's graph, a snapshot of the log at that level's vertices
    level, graphs = set(graph.vertices()), [graph]
    for x, y, z in log.steps:
        level -= {x, y}
        level.add(z)
        graphs.append(log.snapshot(level))
    levels = [enumerate_red_connected(graph, max_region) for graph in graphs]
    roots = itertools.chain.from_iterable(levels)
    tables = _region_tables(log, roots, weights, budget, stats if stats is not None else {},
                            drop_dead=False)
    for graph, regions in zip(graphs, levels):
        record: Record = {}
        for region in regions:
            record.update(profiles(log, region, tables[region]))
        yield graph, record


def finalize_record(record: Record, graph: SignedTrigraph, k: int) -> int | Fraction:
    """Read the count off the fully contracted two-vertex graph's record.

    The count is the total weight of the profiles with at most k ones under
    which the clause vertex c is satisfied.  With a red edge, those are the
    profiles of the region {a, c} that list c as satisfied.  Any other edge
    is uniform over all bagged pairs, so the variable vertex a's {a}
    profiles decide, by the black-edge rule: a positive edge needs a 1 in
    a's bag, a negative edge a 0, and no edge is never satisfied.
    """
    vertices = graph.vertices()
    if len(vertices) != 2 or {graph.side(v) for v in vertices} != {SIDE_VAR, SIDE_CLA}:
        raise ValueError("expected a fully contracted graph: one variable and one clause vertex")
    a, c = sorted(vertices, key=graph.side)
    kind = graph.edge(a, c)
    total = 0
    for profile, value in record.items():
        if profile.ones > k:
            continue
        if kind == RED:
            counts = profile.region == {a, c} and c in profile.satisfied
        elif kind == POS:
            counts = profile.region == {a} and a in profile.has_one
        elif kind == NEG:
            counts = profile.region == {a} and (a not in profile.has_one or a in profile.mixed)
        else:
            counts = False
        if counts:
            total += value
    return total


def region_scope(current, region):
    """Original variables bagged in the region's variable-side vertices."""
    out = set()
    for u in region:
        if current.side(u) == SIDE_VAR:
            out |= current.bag(u)
    return sorted(out)


def _clause_satisfied(initial, clause_vertex, tau, scope):
    for v, kind in initial.neighbors(clause_vertex).items():
        if v not in scope:
            continue
        if kind == POS and tau[v]:
            return True
        if kind == NEG and not tau[v]:
            return True
    return False


def profile_of(region, tau, initial, current):
    """The unique profile a scope assignment induces on a region."""
    scope = set(region_scope(current, region))
    has_one, mixed, satisfied = set(), set(), set()
    for u in region:
        if current.side(u) == SIDE_VAR:
            bag = current.bag(u)
            if any(tau[v] for v in bag):
                has_one.add(u)
                if any(not tau[v] for v in bag):
                    mixed.add(u)
        else:
            if all(_clause_satisfied(initial, c, tau, scope) for c in current.bag(u)):
                satisfied.add(u)
    return Profile(
        frozenset(region),
        frozenset(has_one),
        frozenset(mixed),
        sum(1 for v in scope if tau[v]),
        frozenset(satisfied),
    )


def realizes(profile, assignment, initial, current):
    """Reference semantics: does the assignment induce exactly this profile?

    The assignment must cover all original variables bagged in the region's
    variable vertices.  The ground truth `check_record` checks each profile
    it derives against; the solver never calls it.
    """
    region_vars = [u for u in profile.region if current.side(u) == SIDE_VAR]
    region_clauses = [u for u in profile.region if current.side(u) == SIDE_CLA]
    if not profile.mixed <= profile.has_one <= frozenset(region_vars):
        return False
    if not profile.satisfied <= frozenset(region_clauses):
        return False

    scope = set()
    for u in region_vars:
        scope.update(current.bag(u))
    if sum(1 for v in scope if assignment[v]) != profile.ones:
        return False
    for u in region_vars:
        bag = current.bag(u)
        saw_one = any(assignment[v] for v in bag)
        saw_zero = any(not assignment[v] for v in bag)
        if (u in profile.has_one) != saw_one:
            return False
        if saw_one and (u in profile.mixed) != saw_zero:
            return False
    for c in region_clauses:
        sat = all(_clause_satisfied(initial, orig, assignment, scope) for orig in current.bag(c))
        if (c in profile.satisfied) != sat:
            return False
    return True


def check_record(initial, current, record, weights, budget, max_region):
    """Referee one level's full record against exhaustive enumeration.

    For every red-connected region up to the size threshold, enumerates all
    scope assignments within the ones budget, derives each one's profile
    (cross-checked against `realizes`), and accumulates expected weights.
    Asserts the record holds exactly the realizable profiles with exactly
    those weights.  Returns the number of entries checked.
    """
    regions = set(enumerate_red_connected(current, max_region))
    by_region = defaultdict(dict)
    for prof, value in record.items():
        by_region[prof.region][prof] = value
    stray = set(by_region) - regions
    assert not stray, f"record mentions untracked regions: {sorted(map(sorted, stray))[:3]}"

    checked = 0
    for region in regions:
        scope = region_scope(current, region)
        expected = defaultdict(Fraction)
        for bits in itertools.product((0, 1), repeat=len(scope)):
            if sum(bits) > budget:
                continue
            tau = dict(zip(scope, bits))
            prof = profile_of(region, tau, initial, current)
            assert realizes(prof, tau, initial, current), (prof, tau)
            weight = Fraction(1)
            for v in scope:
                weight *= weights.of(v if tau[v] else -v)
            expected[prof] += weight
        got = by_region.get(region, {})
        missing = set(expected) - set(got)
        extra = set(got) - set(expected)
        assert not missing, f"realizable profiles missing from the record: {sorted(missing, key=str)[:2]}"
        assert not extra, f"unrealizable profiles present in the record: {sorted(extra, key=str)[:2]}"
        for prof, value in expected.items():
            assert got[prof] == value, (prof, got[prof], value)
        checked += len(expected)
    return checked


# -- clique-width expressions -------------------------------------------------


def random_cw_expression(rng, k, max_leaves=20):
    """Random well-formed k-expression whose evaluation never sign-conflicts.

    Built bottom-up while tracking the evaluated labels and edges, so an
    edge insertion that would assign both signs to one pair is simply not
    emitted.  Leaves are named 1..n, making vertex ids explicit.
    """
    counter = itertools.count(1)

    def build(n_leaves):
        if n_leaves == 1:
            name = str(next(counter))
            label = rng.randint(1, k)
            nodes = (("leaf", label, name),)
            labels = {int(name): label}
            edges = {}
        else:
            split = rng.randint(1, n_leaves - 1)
            left, lab_l, ed_l = build(split)
            right, lab_r, ed_r = build(n_leaves - split)
            nodes = (("un",), *left, *right)
            labels = {**lab_l, **lab_r}
            edges = {**ed_l, **ed_r}
        for _ in range(rng.randint(0, 3)):
            if k < 2:
                break
            a, b = rng.sample(range(1, k + 1), 2)
            if rng.random() < 0.55:
                sign = POS if rng.random() < 0.5 else NEG
                group_a = [v for v, lab in labels.items() if lab == a]
                group_b = [v for v, lab in labels.items() if lab == b]
                if not group_a or not group_b:
                    continue
                pairs = [(min(x, y), max(x, y)) for x in group_a for y in group_b]
                if any(edges.get(p, sign) != sign for p in pairs):
                    continue
                for p in pairs:
                    edges[p] = sign
                nodes = ("ep" if sign == POS else "en", a, b), *nodes
            else:
                for v, lab in list(labels.items()):
                    if lab == a:
                        labels[v] = b
                nodes = ("rl", a, b), *nodes
        return nodes, labels, edges

    nodes, _, _ = build(rng.randint(1, max_leaves))
    return expression(nodes)


def evaluate_cw_text(text):
    """Independent evaluator: parses serialized expression text itself.

    Returns (vertex ids, {(u, v): sign}) built with its own tokenizer and
    stack-free recursion, sharing nothing with stww.cwexpr. Numeric leaf
    names only (which is what the tests generate).
    """
    tokens = text.replace("(", " ").replace(")", " ").split()
    pos = 0

    def next_token():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        return token

    def node():
        kind = next_token()
        if kind == "leaf":
            label = int(next_token())
            vertex = int(next_token())
            return {vertex: label}, {}
        if kind == "un":
            labels_a, edges_a = node()
            labels_b, edges_b = node()
            assert not set(labels_a) & set(labels_b)
            return {**labels_a, **labels_b}, {**edges_a, **edges_b}
        if kind == "rl":
            old, new = int(next_token()), int(next_token())
            labels, edges = node()
            return {v: (new if lab == old else lab) for v, lab in labels.items()}, edges
        assert kind in ("ep", "en")
        a, b = int(next_token()), int(next_token())
        sign = POS if kind == "ep" else NEG
        labels, edges = node()
        for x in labels:
            for y in labels:
                if x < y and {labels[x], labels[y]} == {a, b}:
                    assert edges.get((x, y), sign) == sign
                    edges[(x, y)] = sign
        return labels, edges

    labels, edges = node()
    assert pos == len(tokens)
    return set(labels), edges
