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
weights vanish or cancel).  Records are built per region on demand, in
two passes.  A planning walk goes down from the roots, the red components
of the final two-vertex graph (one variable vertex a and one clause vertex
c), and records each region it reaches once, with the splits its record
is read from and a count of the regions that read it; so the work is
proportional to the regions actually touched instead of every
red-connected set of every level.  The regions are then evaluated
children first, and a table is dropped once its last reader is built, so
only the tables still waiting for a reader are held.  A region's children
fold one after another, smallest first, skipping lone clause vertices,
whose record is the empty state alone; one pass then applies the
contraction's merge of x and y into z to the folded states and adds them
into the region's table.  `finalize`
reads the count off the records by one rule: the weight of the profiles
with at most k ones under which c is satisfied, read from {a, c} when the
final edge is red and from a's own profiles across a black edge.
`dp_records` plans and evaluates every red-connected region of every
level as a root, so that every level's full record can be refereed.

A clause vertex c of a region is closed when every neighbour c has at
the region's level lies in the region.  Two vertices are adjacent exactly
when their bags share an original edge, so every variable of c's bagged
clauses then lies in the region and is decided there.  Widening reaches
only the clauses outside a component, and a merged clause z is satisfied
only when x and y both are, so a state that leaves a closed c unsatisfied
adds 0 to `finalize` under every extension: it is dead.  c stays closed
while the region lasts, since a vertex born next to c later is a merge of
c's neighbours.  `solve_bwmc`'s tables drop dead states in the pass that
merges x and y, and count them in `dead_states`.  A dropped table is not
the full table filtered by this rule: a state reached only through a
dead child state is missing, and a state into which a dead child state
merged, say through a merge of c with an open clause, holds less; the
weight lost is that of assignments that leave an original clause
unsatisfied, which no count includes.  `dp_records` keeps every state,
so that its records hold every realizable profile.

No record is kept for a region past the cap k(d² + 1), `region_cap`.
When a merge would grow a capped region past it, the expansion splits by
its has_one set S, which holds at most k variable vertices.  The
vertices within red distance 2 of S number at most k(d² + 1), so each
red component of that ball has a record, read at its entries with
has_one S; every other vertex holds no 1.  The plan works out once per
vertex what it adds with an all-zero bag, its zero weight and the
clauses it satisfies, and gives each split the total over its outside
vertices as a constant that starts its fold.  An uncapped split's
constant is weight 1 and no bits, so the evaluator has one path for
both.

Inside the DP a region's record is a table grouped by ones: each ones
count maps the states to their values, a state being one int with two
bits per label slot.  The vertex that answers to label s
(`ContractionLog.label`) owns bit 2s, `_bit`: a variable's has_one bit
or a clause's satisfied bit; a variable's mixed bit is the one above it,
and a clause leaves that bit clear.  A vertex keeps its label while it
exists, and the vertices of one level answer to distinct labels, so a
child's states already read as the parent's and no bit ever moves: the
merge of x and y folds y's slot into x's, which z inherits with x's
label.  Input ids are 1..V, so a state has at most 2(V + 1) bits.
Tables are held by region.
A table already holds every black edge inside its region, so a parent
widens a child's states only by the clauses of other components, and reads
the child's table in place when there are none and no has_one split
filters it.  `Profile`s are built only where records leave the module.
`solve_bwmc` counts in integers: each variable's weight pair
(w(v), w(-v)) is scaled by D_v, the lcm of its two denominators, and since
every assignment takes one weight of each pair, every term carries the
same factor Π D_v, divided out once at the end.  The same code runs on the
caller's `Fraction` weights in `dp_records`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .cnf import Formula, WeightFunction
from .sequence import ContractionLog, ContractionSequence, verify
from .trigraph import NEG, POS, RED, SIDE_CLA, SIDE_VAR, SignedTrigraph, incidence_graph


class Profile(NamedTuple):
    region: frozenset[int]
    has_one: frozenset[int]
    mixed: frozenset[int]
    ones: int
    satisfied: frozenset[int]


Record = dict[Profile, int | Fraction]
# states grouped by ones, {ones: {state: value}}; a state is one int whose
# bit 2s is the has_one bit of the variable or the satisfied bit of the
# clause answering to label s, and bit 2s + 1 that variable's mixed bit
Table = dict[int, dict[int, int | Fraction]]
# the table of a lone clause vertex: the empty state, 0, of weight 1
_UNIT_TABLE: Table = {0: {0: 1}}


def _bit(log: ContractionLog, v: int) -> int:
    """The state bit of vertex v, at the slot of its label: a variable's
    has_one bit, with its mixed bit just above, or a clause's satisfied
    bit."""
    return 1 << 2 * log.label(v)


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


def _red_components(graph: SignedTrigraph, vertex_set) -> list[frozenset[int]]:
    red_neighbors = graph.red_neighbors
    remaining = set(vertex_set)
    components = []
    while remaining:
        v = min(remaining)
        remaining.discard(v)
        # walk grows while it is read, so every reached vertex is expanded;
        # comp is a set because a frozenset copied from a set is sized to
        # fit, and one built from a list can take twice the table
        comp, walk = {v}, [v]
        for u in walk:
            reached = remaining & red_neighbors(u)
            if reached:
                remaining -= reached
                comp |= reached
                walk += reached
        components.append(frozenset(comp))
    return components


def _region_tables(
    log: ContractionLog,
    roots,
    weights: WeightFunction,
    budget: int,
    stats: dict,
    drop_dead: bool = True,
) -> dict[frozenset[int], Table]:
    """The tables of `roots`, regions of any levels of `log`, by region.

    A region's record holds from the step that creates its youngest vertex
    until one of its vertices is contracted away, so it is computed at that
    step, from the records of the regions its expansion splits into.  A
    walk down from the roots plans each region once, its level and splits,
    and counts the readers of each table: one per split component that
    names it, and one for each root, so a root's table is kept.  The walk
    builds the tables of input vertices, singletons, as it reaches them;
    they would sort first anyway.  The other regions
    are then evaluated in the order of their youngest vertex, which puts
    every child first, since birth levels grow with vertex ids and a
    child's vertices all predate the parent's z.  A table is dropped when
    its last reader has been built.

    With `drop_dead` each region is evaluated with its closed-clause mask:
    the satisfied bit of each clause vertex of the region whose neighbours
    at the region's level all lie in the region.  The evaluator drops the
    states that leave one of them clear; without it every table is exact.
    """
    for key in ("regions_evaluated", "large_regions", "has_one_splits", "fold_states",
                "largest_table", "entries_copied", "dead_states"):
        stats.setdefault(key, 0)
    max_region = stats["region_cap"] = region_cap(budget, log.width)
    stats["width"] = log.width
    side, neighbors_within = log.side, log.neighbors_within
    readers = Counter(roots)
    plans: dict[frozenset[int], tuple] = {}
    tables: dict[frozenset[int], Table] = {}
    stack = list(readers)
    while stack:
        region = stack.pop()
        if region in plans or region in tables:
            continue
        level = log.birth(max(region))
        if not level:
            (v,) = region
            tables[region] = ({0: {0: weights.of(-v)}, 1: {_bit(log, v): weights.of(v)}}
                              if side(v) == SIDE_VAR else _UNIT_TABLE)
            continue
        x, y, z = log.steps[level - 1]
        splits = _splits(log, (region - {z}) | {x, y}, max_region, budget, weights)
        for _, components, _, _ in splits:
            readers.update(components)
            stack.extend(components)
        plans[region] = (level, splits)
    for region in sorted(plans, key=max):
        level, splits = plans.pop(region)
        # built here, not kept in the plan: a mask at label slots is O(V)
        # bits wide, and the walk holds every plan until it ends; for the
        # same reason `_recompute_region` rebuilds the expansion, which
        # kept in each plan raised the zip chain's peak RSS at k = 3 from
        # 87 to 91 MiB at n = 8,000 and from 166 to 173 MiB at n = 16,000
        closed = 0
        if drop_dead:
            for c in region:
                if side(c) == SIDE_CLA and neighbors_within(c, level, region):
                    closed |= _bit(log, c)
        tables[region] = _recompute_region(log, level, region, splits, closed, budget, tables,
                                           stats)
        for _, components, _, _ in splits:
            for comp in components:
                readers[comp] -= 1
                if not readers[comp]:
                    del tables[comp]
    return tables


def _profiles(log: ContractionLog, region: frozenset[int], table: Table) -> Record:
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


def _component_entries(
    log: ContractionLog,
    comp: frozenset[int],
    region_clauses: list[tuple[int, int]],
    table: Table,
    split_has_one: int | None,
) -> Table:
    """States of one red component, each with its satisfied bits widened by
    the region clauses outside the component that it satisfies through
    uniform black edges: a black edge pins every bagged literal pair to one
    sign, so a 1 behind a positive edge, or a 0 behind a negative one,
    satisfies every clause bagged at the endpoint.  That is the positive
    clauses of the has_one variables plus the negative clauses of the
    variables whose bag holds a 0 (not in has_one, or mixed); each
    variable's two masks of satisfied bits are read once per call, from
    the (clause, satisfied bit) pairs of `region_clauses`, the expansion's,
    that lie outside the component, listed once.
    A clause inside the component needs no widening: a region's table
    already holds the black edges inside the region, since it was folded
    from children widened across all the clauses of its expansion, and the
    z rule carries x's and y's uniform edges over to z.  Under a has_one
    split only the states whose has_one bits are the split's, within the
    component, are kept.  With neither a split nor a black edge out of the
    component the table itself is returned, uncopied."""
    outside = [(c, sat) for c, sat in region_clauses if c not in comp]
    if split_has_one is None and not outside:
        return table
    side, edge = log.side, log.edge
    reach = []
    comp_ones = 0
    for u in comp:
        if side(u) != SIDE_VAR:
            continue
        one = _bit(log, u)
        comp_ones |= one
        pos = neg = 0
        for c, sat in outside:
            kind = edge(u, c)
            if kind == POS:
                pos |= sat
            elif kind == NEG:
                neg |= sat
        if pos or neg:
            reach.append((one, one << 1, pos, pos | neg, neg))
    if split_has_one is None and not reach:
        return table
    want = None if split_has_one is None else split_has_one & comp_ones
    out: Table = {}
    for ones, row in table.items():
        widened: dict[int, int | Fraction] = {}
        for key, value in row.items():
            if want is not None and key & comp_ones != want:
                continue
            for one, mixed, pos, both, neg in reach:
                if key & one:
                    key |= both if key & mixed else pos
                else:
                    key |= neg
            # the new bits are clauses outside the component, so no two
            # states of the table meet
            widened[key] = value
        if widened:
            out[ones] = widened
    return out


def _splits(
    log: ContractionLog,
    expanded: frozenset[int],
    max_region: int,
    budget: int,
    weights: WeightFunction,
):
    """How the record of a merge over `expanded` is assembled: a list of
    (has_one or None, red components with records, weight, satisfied
    bits), the last two the constant that the vertices outside the
    components add to every state.

    Normally one split: the red components of `expanded`, read whole
    (has_one None), nothing outside, so the constant is (1, 0).  When a
    component is too large to have a record, `expanded` is one component
    of a capped region plus its merged pair, and it splits by its has_one
    set S, the has_one bits of at most `budget` variable vertices: each
    assignment has exactly one, so it counts under exactly one split.  The
    vertices within red distance 2 of S, the ball, number at most
    |S|(d² + 1), and each red component of the ball is read at its states
    with has_one S.  Every vertex outside the ball holds no 1, and what it
    adds with an all-zero bag is worked out once per vertex: a variable
    adds the product of its zero weights and the clauses behind its
    negative black edges; a clause is satisfied when every original clause
    in its bag has a negative edge into its red neighbours' bags.  A
    clause of the ball lies at red distance 1 from S, so its red
    neighbours lie in the ball too, and the component records decide it; a
    clause outside sees only all-zero bags across its red edges.
    """
    components = _red_components(log, expanded)
    if max(map(len, components)) <= max_region:
        assert len(components) <= log.width + 2, "component count exceeds red-degree bound"
        return [(None, components, 1, 0)]
    assert len(components) == 1 and len(expanded) == max_region + 1
    clauses = [(c, _bit(log, c)) for c in expanded if log.side(c) == SIDE_CLA]
    # each vertex's all-zero constant: its weight, its satisfied bits and
    # the has_one bits that must be clear for them to hold, its own for a
    # variable and its red neighbours' for a clause
    all_zero = {}
    for v in expanded:
        if log.side(v) == SIDE_VAR:
            neg = sum(sat for c, sat in clauses if log.edge(v, c) == NEG)
            weight = math.prod((weights.of(-u) for u in log.bag(v)), start=1)
            all_zero[v] = (weight, neg, _bit(log, v))
        else:
            # in a bipartite sequence a clause's red neighbours are variable vertices
            reds = log.red_neighbors(v) & expanded
            hit = all(any(log.edge(var, orig) == NEG for u in reds for var in log.bag(u))
                      for orig in log.bag(v))
            all_zero[v] = (1, _bit(log, v) if hit else 0, sum(_bit(log, u) for u in reds))
    variables = sorted(v for v in expanded if log.side(v) == SIDE_VAR)
    splits = []
    for size in range(budget + 1):
        for sources in itertools.combinations(variables, size):
            ball = set(sources)
            frontier = ball
            for _ in range(2):
                frontier = {w for u in frontier for w in log.red_neighbors(u) & expanded} - ball
                ball |= frontier
            assert len(ball) <= max_region, "a red ball of radius 2 exceeds the cap"
            has_one = sum(_bit(log, u) for u in sources)
            weight, satisfied = 1, 0
            for v in expanded - ball:
                zero_weight, sat, clear = all_zero[v]
                assert not has_one & clear, "a vertex outside the ball has a 1"
                weight *= zero_weight
                satisfied |= sat
            splits.append((has_one, _red_components(log, ball), weight, satisfied))
    return splits


def _recompute_region(
    log: ContractionLog,
    level: int,
    region: frozenset[int],
    splits,
    closed: int,
    budget: int,
    tables: Mapping[frozenset[int], Table],
    stats: dict,
) -> Table:
    """Table of `region`, born at step `level`, from the tables of its splits.

    Each split starts its fold at one state, the constant of its vertices
    outside the components: the satisfied bits they add, at their weight.
    The components, widened by `_component_entries`, fold into it one at a
    time through `_product`, smallest first; a lone clause vertex, whose
    only entry is the empty state of weight 1, is skipped.  One pass then
    merges x and y into z in each folded state, which sees x and y
    together even when they lie in different components.  z answers to x's
    label, so the pass folds y's slot into x's and clears y's: a variable
    z has a 1 if x or y has one, and is mixed if it also has a 0; a clause
    z is satisfied if x and y both are.  The same pass drops each state
    that leaves a bit of `closed` clear, a dead state, and adds the others
    into the table, where the splits, whose has_one sets are disjoint, add
    up; a ones row left with no state is dropped.
    """
    stats["regions_evaluated"] += 1
    if splits[0][0] is not None:
        stats["large_regions"] += 1
        stats["has_one_splits"] += len(splits)
    side = log.side
    x, y, z = log.steps[level - 1]
    expanded = (region - {z}) | {x, y}
    region_clauses = [(c, _bit(log, c)) for c in expanded if side(c) == SIDE_CLA]
    z_is_var = side(x) == SIDE_VAR
    # x's and y's has_one bits, or their satisfied bits for a clause pair
    x_bit, y_bit = _bit(log, x), _bit(log, y)
    pair = x_bit | y_bit
    x_mixed, pair_mixed = x_bit << 1, pair << 1
    clear_y, clear_pair = ~(3 * y_bit), ~pair
    out: Table = {}
    dead = 0
    for split_has_one, components, weight, satisfied in splits:
        folds = []
        for comp in components:
            table = tables[comp]
            if table is _UNIT_TABLE and split_has_one is None:
                # a lone clause vertex: nothing to widen, nothing to fold
                continue
            entries = _component_entries(log, comp, region_clauses, table, split_has_one)
            if entries is not table:
                stats["entries_copied"] += sum(map(len, entries.values()))
            if entries != _UNIT_TABLE:
                folds.append(entries)
        if len(folds) > 1:
            folds.sort(key=lambda entries: sum(map(len, entries.values())))
        *inner, last = folds or [_UNIT_TABLE]
        partial: Table = {0: {satisfied: weight}}
        for entries in inner:
            partial = _product(partial, entries, budget)
            stats["fold_states"] += sum(map(len, partial.values()))
        for ones, states in _product(partial, last, budget).items():
            row = out.get(ones)
            if row is None:
                row = out[ones] = {}
            for key, value in states.items():
                seen = key & pair
                if seen:
                    if z_is_var:
                        if seen != pair or key & pair_mixed:
                            key |= x_mixed
                        key = (key | x_bit) & clear_y
                    else:
                        key &= clear_y if seen == pair else clear_pair
                if key & closed != closed:
                    dead += 1
                    continue
                row[key] = row.get(key, 0) + value
            if not row:
                del out[ones]
    stats["dead_states"] += dead
    size = sum(map(len, out.values()))
    stats["fold_states"] += size
    stats["largest_table"] = max(stats["largest_table"], size)
    return out


def _product(partial: Table, entries: Table, budget: int) -> Table:
    """Fold one component's entries into the partial states: the state
    ints are or-ed, which unites has_one, mixed and satisfied slot by slot,
    ones adds up within the budget (a pair of ones rows whose total passes
    it is skipped whole), and equal states sum.  Folded into the unit
    state, the entries are returned as they are, read in place."""
    if partial == _UNIT_TABLE:
        return entries
    folded: Table = {}
    for ones, states in partial.items():
        room = budget - ones
        for e_ones, group in entries.items():
            if e_ones > room:
                continue
            total = ones + e_ones
            row = folded.get(total)
            if row is None:
                row = folded[total] = {}
            for key, value in states.items():
                for e_key, e_value in group.items():
                    both = key | e_key
                    row[both] = row.get(both, 0) + value * e_value
    return folded


def region_cap(k: int, d: int) -> int:
    """k(d² + 1), the most vertices of a region that keeps a record under a
    ones budget k along a sequence of width d."""
    return k * (d * d + 1)


def _budget_poly(weights: WeightFunction, variables, cap: int) -> list[int | Fraction]:
    """Coefficient j = total weight of assignments with exactly j ones."""
    poly = [1]
    for v in variables:
        w0 = weights.of(-v)
        w1 = weights.of(v)
        nxt = [0] * min(len(poly) + 1, cap + 1)
        for i, coeff in enumerate(poly):
            nxt[i] += coeff * w0
            if i + 1 <= cap:
                nxt[i + 1] += coeff * w1
        poly = nxt
    return poly


def finalize(record: Record, graph: SignedTrigraph, k: int) -> int | Fraction:
    """Read the count off the fully contracted two-vertex graph.

    The count is the total weight of the profiles with at most k ones under
    which the clause vertex c is satisfied.  With a red edge, those are the
    profiles of the region {a, c} that list c as satisfied.  Any other edge
    is uniform over all bagged pairs, so the variable vertex a's {a}
    profiles decide, by the black-edge rule: a positive edge needs a 1 in
    a's bag, a negative edge a 0, and no edge is never satisfied.  The sum
    has the record's value type: `dp_records` gives `Fraction`s, and the
    scaled ints of `solve_bwmc`'s records pass through as an int.
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
    clause, none empty, and a positive budget) it must be maximal, ending
    at one variable and one clause vertex, and `finalize` reads the count
    off the records of that last level, whatever its edge.  Otherwise the
    count has a closed form.  It counts in integers, on `_ScaledWeights`,
    and divides by their scale once at the end.  `stats`, when given, collects
    region counters, the fold counters (`fold_states`, the partial and
    output states the folds build, and `largest_table`, the most states of
    one evaluated region), `dead_states`, the merged states dropped
    because they leave a closed clause unsatisfied, the sequence's `width`
    and its `region_cap`.
    """
    if k < 0:
        raise ValueError("the ones budget k must be nonnegative")
    log = verify(incidence_graph(formula), seq, require_bipartite=True).check()
    scaled = _ScaledWeights(formula, weights)
    budget = min(k, formula.num_vars)
    if formula.num_clauses == 0 or budget == 0 or not all(formula.clauses):
        # at budget 0 only the all-zero assignment counts; an empty clause
        # has no negative literal
        if all(any(lit < 0 for lit in clause) for clause in formula.clauses):
            return Fraction(sum(_budget_poly(scaled, formula.variables(), budget)), scaled.scale)
        return Fraction(0)
    if len(log.vertices()) != 2:
        raise ValueError(
            "the sequence must contract the incidence graph down to "
            "one variable vertex and one clause vertex"
        )
    roots = _red_components(log, log.vertices())
    tables = _region_tables(log, roots, scaled, budget, stats if stats is not None else {})
    record: Record = {}
    for region in roots:
        record.update(_profiles(log, region, tables[region]))
    return Fraction(finalize(record, log, k), scaled.scale)


class _ScaledWeights:
    """Integer literal weights: each variable's pair (w(v), w(-v)) times the
    lcm D_v of its two denominators.  Every assignment takes one weight of
    each pair, so every term of a count is scaled by the same `scale`,
    the product of the D_v."""

    def __init__(self, formula: Formula, weights: WeightFunction) -> None:
        self._by_literal: dict[int, int] = {}
        self.scale = 1
        for v in formula.variables():
            one, zero = weights.of(v), weights.of(-v)
            d = math.lcm(one.denominator, zero.denominator)
            self._by_literal[v] = one.numerator * (d // one.denominator)
            self._by_literal[-v] = zero.numerator * (d // zero.denominator)
            self.scale *= d

    def of(self, literal: int) -> int:
        return self._by_literal[literal]


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
    evaluation `solve_bwmc` runs: the regions of all levels are the roots
    of one planned evaluation, which runs before the first level is
    yielded.  Meant for validation on small inputs; the full enumeration
    grows quickly with the threshold.
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
            record.update(_profiles(log, region, tables[region]))
        yield graph, record

