"""Bounded-ones weighted model counting along a bipartite contraction sequence.

The count Σ w(π) over models π of F with at most k ones is computed by a
dynamic program over the contraction levels of the signed incidence graph.
State lives in *profiles*: a red-connected region of current vertices plus
just enough information about an assignment's behaviour inside the region to
carry satisfaction and the ones budget across contractions:

  region     red-connected set of current vertices,
  has_one    region variables whose bag contains a 1,
  mixed      region variables whose bag contains both a 1 and a 0,
  ones       exact number of 1s among original variables in the region,
  satisfied  region clause vertices whose bagged clauses are all satisfied.

A record maps profiles to the total weight of the assignments realizing
them; a profile is realizable iff it is present (the value may be 0 when
weights vanish or cancel).  Records are built per region on demand: the
region of the final two-vertex graph is evaluated children first off a
stack, each region once, which keeps the work proportional to the regions
actually touched instead of every red-connected set of every level.
`dp_records` exposes the classic full per-level records for cross-checking
against `realizes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

from .cnf import Assignment, Formula, WeightFunction
from .sequence import ContractionLog, ContractionSequence, replay
from .trigraph import NEG, POS, RED, SIDE_CLA, SIDE_VAR, SignedTrigraph, incidence_graph

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Profile(NamedTuple):
    region: frozenset[int]
    has_one: frozenset[int]
    mixed: frozenset[int]
    ones: int
    satisfied: frozenset[int]


Record = dict[Profile, Fraction]


@dataclass(frozen=True)
class ComplexityEstimate:
    """Closed-form size bounds for the profile dynamic program."""

    max_region_size: int
    profile_count_bound: int
    tuple_count_bound: int


def _grow_sets(graph: SignedTrigraph, seed: int, allowed, max_size: int) -> list[frozenset[int]]:
    """Red-connected sets containing `seed` whose other members pass `allowed`."""
    results: list[frozenset[int]] = []

    def grow(current: frozenset[int], frontier: frozenset[int], banned: frozenset[int]) -> None:
        results.append(current)
        if len(current) >= max_size:
            return
        blocked = set(banned)
        for v in sorted(frontier):
            if v in blocked:
                continue
            extended = (frontier | graph.red_neighbors(v)) - current
            nxt = frozenset(u for u in extended if u != v and allowed(u))
            grow(current | {v}, nxt, frozenset(blocked))
            blocked.add(v)

    start_frontier = frozenset(u for u in graph.red_neighbors(seed) if allowed(u))
    grow(frozenset((seed,)), start_frontier, frozenset())
    return results


def enumerate_red_connected(graph: SignedTrigraph, max_size: int) -> list[frozenset[int]]:
    """Every red-connected vertex set of size <= max_size, each exactly once.

    Sets are grown from their minimum vertex, so the enumeration is
    deterministic and duplicate-free.
    """
    out: list[frozenset[int]] = []
    if max_size < 1:
        return out
    for root in graph.vertices():
        out.extend(_grow_sets(graph, root, lambda u: u > root, max_size))
    return out


def _connected_with(graph: SignedTrigraph, anchor: int, max_size: int) -> list[frozenset[int]]:
    return _grow_sets(graph, anchor, lambda u: True, max_size)


def _red_components(graph: SignedTrigraph, vertex_set) -> list[frozenset[int]]:
    remaining = set(vertex_set)
    components = []
    for v in sorted(vertex_set):
        if v not in remaining:
            continue
        remaining.discard(v)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.red_neighbors(u):
                if w in remaining:
                    remaining.discard(w)
                    comp.add(w)
                    stack.append(w)
        components.append(frozenset(comp))
    return components


def realizes(
    profile: Profile,
    assignment: Assignment,
    initial: SignedTrigraph,
    current: SignedTrigraph,
) -> bool:
    """Reference semantics: does the assignment induce exactly this profile?

    The assignment must cover all original variables bagged in the region's
    variable vertices.  Used by tests as the ground truth the record values
    are checked against; the solver itself never calls it.
    """
    region_vars = [u for u in profile.region if current.side(u) == SIDE_VAR]
    region_clauses = [u for u in profile.region if current.side(u) == SIDE_CLA]
    if not profile.mixed <= profile.has_one <= frozenset(region_vars):
        return False
    if not profile.satisfied <= frozenset(region_clauses):
        return False

    scope: set[int] = set()
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
        sat = all(
            _original_clause_satisfied(initial, orig, assignment, scope)
            for orig in current.bag(c)
        )
        if (c in profile.satisfied) != sat:
            return False
    return True


def _original_clause_satisfied(
    initial: SignedTrigraph, clause_vertex: int, assignment: Assignment, scope
) -> bool:
    for v, kind in initial.neighbors(clause_vertex).items():
        if v not in scope:
            continue
        if kind == POS and assignment[v]:
            return True
        if kind == NEG and not assignment[v]:
            return True
    return False


def base_record(graph: SignedTrigraph, weights: WeightFunction) -> Record:
    """Record of the uncontracted incidence graph: all regions are singletons.

    A variable vertex carries its two assignments; a clause vertex carries
    the empty assignment, whose weight is the empty product 1.
    """
    record: Record = {}
    for v in graph.vertices():
        record.update(_singleton_record(graph, v, weights))
    return record


def _canonical_removal(graph: SignedTrigraph, region: frozenset[int], sources) -> tuple[int, float]:
    """The region vertex red-farthest from `sources`, ties to the smallest id."""
    dist = {v: math.inf for v in region}
    queue = sorted(sources)
    for s in queue:
        dist[s] = 0
    while queue:
        nxt = []
        for u in queue:
            for w in graph.red_neighbors(u):
                if w in region and dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        queue = sorted(nxt)
    best = min(region, key=lambda v: (-dist[v], v))
    return best, dist[best]


def _region_record(
    log: ContractionLog, region: frozenset[int], weights: WeightFunction, budget: int, stats: dict
) -> Record:
    """Record of a region of the last level of `log`.

    A region's record holds from the step that creates its youngest vertex
    until one of its vertices is contracted away, so records are memoized
    by region alone and computed at that step, from the records of the
    regions its expansion splits into; those come first, off a stack.
    """
    stats.setdefault("regions_evaluated", 0)
    stats.setdefault("large_regions", 0)
    max_region = _region_threshold(budget, log.width)
    memo: dict[frozenset[int], Record] = {}
    stack = [region]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        level = max(log.birth(v) for v in top)
        if level == 0:
            assert len(top) == 1, "regions of input vertices are singletons"
            (v,) = top
            memo[top] = _singleton_record(log, v, weights)
            continue
        x, y, z = log.steps[level - 1]
        expanded = (top - {z}) | {x, y}
        missing = [c for c in _child_regions(log, expanded, max_region) if c not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[top] = _recompute_region(
            log, log, weights, x, y, z, top, budget, max_region, log.width, memo.__getitem__, stats
        )
    return memo[region]


def _singleton_record(initial: SignedTrigraph, v: int, weights: WeightFunction) -> Record:
    region = frozenset((v,))
    empty = frozenset()
    if initial.side(v) == SIDE_VAR:
        return {
            Profile(region, region, empty, 1, empty): weights.of(v),
            Profile(region, empty, empty, 0, empty): weights.of(-v),
        }
    return {Profile(region, empty, empty, 0, empty): _ONE}


def _component_entries(
    before: SignedTrigraph,
    comp: frozenset[int],
    region_clauses: list[int],
    table: Mapping[Profile, Fraction],
    budget: int,
):
    """Profiles of one red component, with per-profile variable statuses and
    the set of region clauses each profile satisfies through uniform black
    edges (a black edge pins every bagged literal pair to one sign, so a 1
    in a has_one bag behind a positive edge, or a 0 behind a negative edge,
    satisfies every clause bagged at the endpoint at once)."""
    comp_vars = [u for u in comp if before.side(u) == SIDE_VAR]
    entries = []
    for profile, value in table.items():
        if profile.ones > budget:
            continue
        status = {}
        for u in comp_vars:
            saw_one = u in profile.has_one
            status[u] = (saw_one, not saw_one or u in profile.mixed)
        mask = set()
        for c in region_clauses:
            for u in comp_vars:
                kind = before.edge(u, c)
                if (kind == POS and status[u][0]) or (kind == NEG and status[u][1]):
                    mask.add(c)
                    break
        entries.append((profile, value, status, frozenset(mask)))
    return entries


def _combine_entries(entry_lists, budget: int):
    if not entry_lists:
        yield (), _ONE, 0
        return
    head = entry_lists[0]
    rest = entry_lists[1:]
    for entry in head:
        ones = entry[0].ones
        if ones > budget:
            continue
        for chosen, value, total in _combine_entries(rest, budget - ones):
            yield (entry,) + chosen, entry[1] * value, ones + total


def _fold_target(
    region: frozenset[int],
    x: int,
    y: int,
    z: int,
    z_is_var: bool,
    statuses: Mapping[int, tuple[bool, bool]],
    ones: int,
    sat: set[int],
) -> Profile:
    """Collapse statuses over (region∖{z})∪{x,y} into the profile on region."""
    has_one = set()
    mixed = set()
    for u, (saw_one, saw_zero) in statuses.items():
        if u == x or u == y:
            continue
        if saw_one:
            has_one.add(u)
            if saw_zero:
                mixed.add(u)
    satisfied = {c for c in sat if c != x and c != y}
    if z_is_var:
        x_one, x_zero = statuses[x]
        y_one, y_zero = statuses[y]
        if x_one or y_one:
            has_one.add(z)
            if x_zero or y_zero:
                mixed.add(z)
    else:
        if x in sat and y in sat:
            satisfied.add(z)
    return Profile(region, frozenset(has_one), frozenset(mixed), ones, frozenset(satisfied))


def _child_regions(before: SignedTrigraph, expanded: frozenset[int], max_region: int):
    """Regions _recompute_region reads: the red components of `expanded`, or
    of `expanded` minus each vertex when one is too large to have a record."""
    components = _red_components(before, expanded)
    if any(len(comp) > max_region for comp in components):
        return [comp for v in expanded for comp in _red_components(before, expanded - {v})]
    return components


def _recompute_region(
    before: SignedTrigraph,
    initial: SignedTrigraph,
    weights: WeightFunction,
    x: int,
    y: int,
    z: int,
    region: frozenset[int],
    budget: int,
    max_region: int,
    width: int,
    lookup: Callable[[frozenset[int]], Mapping[Profile, Fraction]],
    stats: dict,
) -> Record:
    stats["regions_evaluated"] += 1
    expanded = (region - {z}) | {x, y}
    region_clauses = sorted(c for c in expanded if before.side(c) == SIDE_CLA)
    z_is_var = before.side(x) == SIDE_VAR
    components = _red_components(before, expanded)
    out: Record = {}

    if all(len(comp) <= max_region for comp in components):
        assert len(components) <= width + 2, "component count exceeds red-degree bound"
        entry_lists = [
            _component_entries(before, comp, region_clauses, lookup(comp), budget)
            for comp in components
        ]
        for chosen, product, ones in _combine_entries(entry_lists, budget):
            statuses: dict[int, tuple[bool, bool]] = {}
            sat: set[int] = set()
            for profile, _value, status, mask in chosen:
                statuses.update(status)
                sat.update(profile.satisfied)
                sat.update(mask)
            target = _fold_target(region, x, y, z, z_is_var, statuses, ones, sat)
            out[target] = out.get(target, _ZERO) + product
        return out

    # One oversized component: peel off the vertex red-farthest from the
    # has_one set.  Its bag is forced all-zero (variable) or deterministically
    # checkable (clause) because everything within red distance 2 of a 1
    # cannot be that far vertex.
    assert len(components) == 1 and len(region) == max_region
    assert len(expanded) == max_region + 1
    stats["large_regions"] += 1
    for v in sorted(expanded):
        rest = expanded - {v}
        sub_components = _red_components(before, rest)
        entry_lists = [
            _component_entries(before, comp, region_clauses, lookup(comp), budget)
            for comp in sub_components
        ]
        v_is_var = before.side(v) == SIDE_VAR
        if v_is_var:
            v_weight = _ONE
            for orig in sorted(before.bag(v)):
                v_weight *= weights.of(-orig)
        else:
            v_weight = _ONE
        red_near_v = before.red_neighbors(v) & expanded

        for chosen, product, ones in _combine_entries(entry_lists, budget):
            statuses = {}
            sat = set()
            for profile, _value, status, mask in chosen:
                statuses.update(status)
                sat.update(profile.satisfied)
                sat.update(mask)
            pulled = frozenset(u for u, (saw_one, _z) in statuses.items() if saw_one)
            chosen_v, dist = _canonical_removal(before, expanded, pulled)
            if chosen_v != v:
                continue
            if pulled:
                assert dist >= 3, "peeled vertex sits red-close to a has_one bag"
            if v_is_var:
                statuses[v] = (False, True)
                for c in region_clauses:
                    if before.edge(v, c) == NEG:
                        sat.add(c)
            # clauses red-adjacent to v (and v itself when it is a clause
            # vertex) see a non-uniform edge, but every red neighbour here
            # carries an all-zero bag, so satisfaction reduces to finding a
            # negative original literal per bagged clause
            special = [c for c in region_clauses if c == v or c in red_near_v]
            for c in special:
                if c in sat:
                    continue
                if _all_zero_red_satisfied(before, initial, c, expanded, statuses):
                    sat.add(c)
            target = _fold_target(region, x, y, z, z_is_var, statuses, ones, sat)
            out[target] = out.get(target, _ZERO) + v_weight * product
    return out


def _all_zero_red_satisfied(
    before: SignedTrigraph,
    initial: SignedTrigraph,
    c: int,
    expanded: frozenset[int],
    statuses: Mapping[int, tuple[bool, bool]],
) -> bool:
    zero_sources = []
    for u in sorted(before.red_neighbors(c) & expanded):
        if before.side(u) != SIDE_VAR:
            continue
        assert not statuses[u][0], "red neighbour of the peeled zone has a 1"
        zero_sources.append(u)
    for orig in before.bag(c):
        hit = False
        for u in zero_sources:
            if any(initial.edge(var, orig) == NEG for var in before.bag(u)):
                hit = True
                break
        if not hit:
            return False
    return True


def transition(
    record: Record,
    before: SignedTrigraph,
    after: SignedTrigraph,
    x: int,
    y: int,
    z: int,
    k: int,
    d: int,
    weights: WeightFunction,
    initial: SignedTrigraph,
    stats: dict | None = None,
) -> Record:
    """Full-record step: profiles avoiding z are copied, the rest recomputed.

    `record` must hold every realizable profile of every red-connected
    region of `before` up to the size threshold; the result satisfies the
    same invariant for `after`.  Used by `dp_records` and the record-level
    tests; `solve_bwmc` evaluates regions on demand instead.
    """
    if stats is None:
        stats = {}
    stats.setdefault("regions_evaluated", 0)
    stats.setdefault("large_regions", 0)
    max_region = _region_threshold(k, d)
    out: Record = {}
    by_region: dict[frozenset[int], Record] = {}
    for profile, value in record.items():
        by_region.setdefault(profile.region, {})[profile] = value
        if x not in profile.region and y not in profile.region:
            out[profile] = value

    for region in _connected_with(after, z, max_region):
        out.update(
            _recompute_region(
                before, initial, weights, x, y, z, region, k, max_region, d,
                by_region.__getitem__, stats,
            )
        )
    return out


def _region_threshold(k: int, d: int) -> int:
    return k * (d * d + 1)


def _budget_poly(weights: WeightFunction, variables, cap: int) -> list[Fraction]:
    """Coefficient j = total weight of assignments with exactly j ones."""
    poly = [_ONE]
    for v in variables:
        w0 = weights.of(-v)
        w1 = weights.of(v)
        nxt = [_ZERO] * min(len(poly) + 1, cap + 1)
        for i, coeff in enumerate(poly):
            nxt[i] += coeff * w0
            if i + 1 <= cap:
                nxt[i + 1] += coeff * w1
        poly = nxt
    return poly


def _single_clause_count(formula: Formula, weights: WeightFunction, k: int) -> Fraction:
    cap = min(k, formula.num_vars)
    everyone = list(formula.variables())
    total = sum(_budget_poly(weights, everyone, cap), _ZERO)
    if formula.num_clauses == 0:
        return total
    if formula.num_clauses > 1:
        raise ValueError("closed form only covers formulas with at most one clause")
    (clause,) = formula.clauses
    forced_ones = sum(1 for lit in clause if lit < 0)
    if forced_ones > cap:
        return total
    violating = _ONE
    for lit in clause:
        violating *= weights.of(-lit)
    free = [v for v in everyone if v not in {abs(lit) for lit in clause}]
    tail = _budget_poly(weights, free, cap - forced_ones)
    return total - violating * sum(tail, _ZERO)


def finalize(
    record: Record,
    graph: SignedTrigraph,
    formula: Formula,
    weights: WeightFunction,
    k: int,
) -> Fraction:
    """Read the count off the fully contracted two-vertex graph.

    With a red edge, the answer is the total weight of profiles covering
    both vertices whose clause vertex is satisfied.  Without one, the black
    edge (or its absence) is uniform over all bagged pairs, which forces the
    formula to have collapsed to at most one distinct clause; that case has
    a direct closed form.
    """
    vertices = graph.vertices()
    if len(vertices) != 2 or {graph.side(v) for v in vertices} != {SIDE_VAR, SIDE_CLA}:
        raise ValueError("expected a fully contracted graph: one variable and one clause vertex")
    a, b = vertices
    clause_vertex = a if graph.side(a) == SIDE_CLA else b
    if graph.edge(a, b) == RED:
        region = frozenset(vertices)
        wanted = frozenset((clause_vertex,))
        total = _ZERO
        for profile, value in record.items():
            if profile.region == region and profile.satisfied == wanted and profile.ones <= k:
                total += value
        return total
    return _single_clause_count(formula, weights, k)


def _validated_log(graph: SignedTrigraph, seq: ContractionSequence) -> ContractionLog:
    log = ContractionLog(graph, seq, require_bipartite=True)
    if log.failure is not None:
        raise ValueError(f"invalid contraction sequence: {log.failure}")
    return log


def solve_bwmc(
    formula: Formula,
    weights: WeightFunction,
    k: int,
    seq: ContractionSequence,
    stats: dict | None = None,
) -> Fraction:
    """Σ over models of `formula` with at most k ones of the model weight.

    The sequence must be a valid bipartite contraction sequence of the
    formula's incidence graph; when the dynamic program runs (at least one
    clause and a positive budget) it must be maximal, ending at one variable
    and one clause vertex.  `stats`, when given, collects region counters
    and the size estimates for the run.
    """
    if k < 0:
        raise ValueError("the ones budget k must be nonnegative")
    graph = incidence_graph(formula)
    if not graph.num_vertices and len(seq):
        raise ValueError("nonempty sequence for an empty incidence graph")
    log = _validated_log(graph, seq)

    if any(not clause for clause in formula.clauses):
        return _ZERO
    budget = min(k, formula.num_vars)
    if formula.num_clauses == 0:
        return sum(_budget_poly(weights, list(formula.variables()), budget), _ZERO)
    if budget == 0:
        if all(any(lit < 0 for lit in clause) for clause in formula.clauses):
            total = _ONE
            for v in formula.variables():
                total *= weights.of(-v)
            return total
        return _ZERO

    if len(seq) != graph.num_vertices - 2:
        raise ValueError(
            "the sequence must contract the incidence graph down to "
            "one variable vertex and one clause vertex"
        )
    if stats is not None:
        estimate = estimate_bounds(graph.num_vertices, budget, log.width)
        stats["estimate"] = estimate
        stats["width"] = log.width
    if log.edge(*log.vertices()) != RED:
        return finalize({}, log, formula, weights, k)
    record = _region_record(
        log, frozenset(log.vertices()), weights, budget, stats if stats is not None else {}
    )
    return finalize(record, log, formula, weights, k)


def dp_records(
    formula: Formula,
    weights: WeightFunction,
    k: int,
    seq: ContractionSequence,
    stats: dict | None = None,
) -> Iterator[tuple[SignedTrigraph, Record]]:
    """Full per-level records, from the incidence graph to the final level.

    Each yielded record holds every realizable profile of every
    red-connected region up to the size threshold.  Meant for validation on
    small inputs; the full enumeration grows quickly with the threshold.
    """
    if k <= 0:
        raise ValueError("record enumeration needs a positive ones budget")
    graph = incidence_graph(formula)
    width = _validated_log(graph, seq).width
    budget = min(k, formula.num_vars)
    record = base_record(graph, weights)
    yield graph, record
    for step in replay(graph, seq):
        record = transition(
            record,
            step.before,
            step.after,
            step.keep_vertex,
            step.merge_vertex,
            step.new_vertex,
            budget,
            width,
            weights,
            graph,
            stats,
        )
        yield step.after, record


def estimate_bounds(n: int, k: int, d: int) -> ComplexityEstimate:
    """Closed-form feasibility estimates for an n-vertex run.

    max_region_size t = k(d²+1); the profile count bound is
    n·(d^(2t-2)+1)·C(t,k)·2^(k+t)·(k+1) and the per-transition tuple bound
    is C(t+1,k)·2^(k+t+1)·(k+1)^(d+2), both as exact integers (the exponent
    2t-2 is clamped at 0 for degenerate budgets).
    """
    t = _region_threshold(k, d)
    exponent = max(2 * t - 2, 0)
    profiles = n * (d**exponent + 1) * math.comb(t, k) * 2 ** (k + t) * (k + 1)
    tuples = math.comb(t + 1, k) * 2 ** (k + t + 1) * (k + 1) ** (d + 2)
    return ComplexityEstimate(t, profiles, tuples)
