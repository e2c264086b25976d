import math
import random
from fractions import Fraction

import pytest

from helpers import check_record, random_formula, random_weights, realizes
from test_acceptance import implication_chain, zip_sequence
from stww import bwmc
from stww.bounds import greedy_sequence
from stww.bwmc import (
    Profile,
    dp_records,
    enumerate_red_connected,
    finalize,
    region_cap,
    solve_bwmc,
)
from stww.cnf import Formula, WeightFunction
from stww.generators import gen_random_ksat
from stww.oracle import bwmc_oracle
from stww.sequence import ContractionLog, ContractionSequence, verify
from stww.trigraph import NEG, POS, RED, SIDE_CLA, SIDE_VAR, SignedTrigraph, incidence_graph

EMPTY = frozenset()
PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def fs(*items):
    return frozenset(items)


def or_clause():
    return Formula(2, (fs(1, 2),))


def greedy_for(formula, tie_break="smallest"):
    return greedy_sequence(incidence_graph(formula), bipartite=True, tie_break=tie_break)


def prime_weights(rng, num_vars, zeros=True):
    """Literal weights with numerators in -6..6 over prime denominators up
    to 97, distinct across the literals while the primes last."""
    literals = [lit for v in range(1, num_vars + 1) for lit in (v, -v)]
    if len(literals) <= len(PRIMES):
        primes = rng.sample(PRIMES, len(literals))
    else:
        primes = [rng.choice(PRIMES) for _ in literals]
    table = {}
    for lit, p in zip(literals, primes):
        numerator = rng.randint(-6, 6)
        if numerator == 0 and not zeros:
            numerator = rng.choice((-1, 1))
        table[lit] = Fraction(numerator, p)
    return WeightFunction(table)


# -- regions ------------------------------------------------------------------


def test_enumerate_red_connected_on_a_path():
    g = SignedTrigraph([1, 2, 3], [(1, 2, RED), (2, 3, RED)])
    all_sets = {fs(1), fs(2), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3)}
    assert set(enumerate_red_connected(g, 3)) == all_sets
    assert set(enumerate_red_connected(g, 2)) == all_sets - {fs(1, 2, 3)}
    assert enumerate_red_connected(g, 0) == []
    # black edges do not connect regions
    h = SignedTrigraph([1, 2], [(1, 2, POS)])
    assert set(enumerate_red_connected(h, 2)) == {fs(1), fs(2)}


def test_enumerate_red_connected_counts_each_set_once():
    g = SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 2, RED), (2, 3, RED), (3, 4, RED), (1, 4, RED)],
    )
    sets = enumerate_red_connected(g, 4)
    assert len(sets) == len(set(sets))
    # a 4-cycle: 4 singles, 4 edges, 4 paths of three, 1 whole cycle
    assert len(sets) == 13


# -- base record and realizes -------------------------------------------------


def test_base_record_entries():
    # the first level dp_records yields is the uncontracted incidence graph,
    # whose regions are all singletons
    f = or_clause()
    w = WeightFunction({1: 3, -1: 5, 2: 7, -2: 11})
    graph, record = next(dp_records(f, w, 2, greedy_for(f)))
    assert graph == incidence_graph(f)
    assert record[Profile(fs(1), fs(1), EMPTY, 1, EMPTY)] == 3
    assert record[Profile(fs(1), EMPTY, EMPTY, 0, EMPTY)] == 5
    assert record[Profile(fs(2), fs(2), EMPTY, 1, EMPTY)] == 7
    assert record[Profile(fs(2), EMPTY, EMPTY, 0, EMPTY)] == 11
    # a clause vertex carries the empty assignment, weight 1
    assert record[Profile(fs(3), EMPTY, EMPTY, 0, EMPTY)] == 1
    assert len(record) == 5


def test_realizes_semantics():
    f = or_clause()
    g = incidence_graph(f)
    # variable twins -> vertex 4
    merged = ContractionLog(g, ContractionSequence(((1, 2),))).check().snapshot()
    both_zero = Profile(fs(4), EMPTY, EMPTY, 0, EMPTY)
    assert realizes(both_zero, {1: 0, 2: 0}, g, merged)
    assert not realizes(both_zero, {1: 1, 2: 0}, g, merged)

    mixed = Profile(fs(4), fs(4), fs(4), 1, EMPTY)
    assert realizes(mixed, {1: 1, 2: 0}, g, merged)
    assert realizes(mixed, {1: 0, 2: 1}, g, merged)
    assert not realizes(mixed, {1: 1, 2: 1}, g, merged)

    # clause vertex: satisfied iff every bagged clause is satisfied in scope
    region = fs(4, 3)
    sat = Profile(region, fs(4), fs(4), 1, fs(3))
    unsat = Profile(region, EMPTY, EMPTY, 0, EMPTY)
    assert realizes(sat, {1: 1, 2: 0}, g, merged)
    assert realizes(unsat, {1: 0, 2: 0}, g, merged)
    assert not realizes(Profile(region, EMPTY, EMPTY, 0, fs(3)), {1: 0, 2: 0}, g, merged)

    # structural nonsense is rejected outright
    assert not realizes(Profile(fs(4), fs(3), EMPTY, 0, EMPTY), {1: 0, 2: 0}, g, merged)
    assert not realizes(Profile(fs(4), EMPTY, fs(4), 0, EMPTY), {1: 0, 2: 0}, g, merged)


def test_twin_contraction_record():
    f = or_clause()
    w = WeightFunction({1: 3, -1: 5, 2: 7, -2: 11})
    seq = ContractionSequence(((1, 2),), num_vertices=3)
    levels = list(dp_records(f, w, 2, seq))
    assert len(levels) == 2
    _, level1 = levels[1]
    z = 4
    # contracting variable twins leaves no red edge; the merged region is {z}
    assert level1[Profile(fs(z), EMPTY, EMPTY, 0, EMPTY)] == 55
    assert level1[Profile(fs(z), fs(z), fs(z), 1, EMPTY)] == 3 * 11 + 5 * 7
    assert level1[Profile(fs(z), fs(z), EMPTY, 2, EMPTY)] == 21
    assert level1[Profile(fs(3), EMPTY, EMPTY, 0, EMPTY)] == 1
    assert len(level1) == 4


# -- solve paths ---------------------------------------------------------------


def test_or_clause_counts():
    f = or_clause()
    w = WeightFunction({1: 3, -1: 5, 2: 7, -2: 11})
    seq = greedy_for(f)
    assert solve_bwmc(f, WeightFunction(), 1, seq) == 2
    assert solve_bwmc(f, WeightFunction(), 2, seq) == 3
    assert solve_bwmc(f, w, 1, seq) == 68
    assert solve_bwmc(f, w, 2, seq) == 89
    assert solve_bwmc(f, w, 0, seq) == 0


def test_red_final_edge_goes_through_the_dynamic_program():
    f = Formula(2, (fs(1, 2), fs(-1)))
    seq = ContractionSequence(((3, 4), (1, 2)), num_vertices=4)
    stats = {}
    value = solve_bwmc(f, WeightFunction(), 2, seq, stats=stats)
    assert value == bwmc_oracle(f, WeightFunction(), 2) == 1
    assert stats["regions_evaluated"] > 0
    assert stats["width"] == 2
    assert stats["region_cap"] == 10 == region_cap(2, 2)
    assert region_cap(1, 2) == 5 and region_cap(0, 0) == 0


def test_one_clause_over_every_variable_goes_through_the_dynamic_program():
    # a single clause holding every variable with one sign is the only
    # formula whose final edge is black; the DP still counts it
    rng = random.Random(11)
    for n in range(1, 10):
        for sign, kind in ((1, POS), (-1, NEG)):
            f = Formula(n, (frozenset(sign * v for v in range(1, n + 1)),))
            w = prime_weights(rng, n)
            for tie_break in ("smallest", "largest"):
                seq = greedy_for(f, tie_break)
                final = ContractionLog(incidence_graph(f), seq).check().snapshot()
                assert final.edge(*final.vertices()) == kind
                for k in range(1, n + 2):
                    stats = {}
                    value = solve_bwmc(f, w, k, seq, stats=stats)
                    assert value == bwmc_oracle(f, w, k), (n, sign, tie_break, k)
                    # one region per variable merge, none without one
                    assert stats["regions_evaluated"] == n - 1


def test_finalize_reads_the_variable_vertex_across_a_black_edge():
    a, c = 1, 2
    record = {
        Profile(fs(a), fs(a), EMPTY, 2, EMPTY): Fraction(3),  # all ones
        Profile(fs(a), fs(a), fs(a), 1, EMPTY): Fraction(5),  # a 1 and a 0
        Profile(fs(a), EMPTY, EMPTY, 0, EMPTY): Fraction(7),  # all zeros
        Profile(fs(c), EMPTY, EMPTY, 0, EMPTY): Fraction(11),  # c alone never counts
    }
    sides = {a: SIDE_VAR, c: SIDE_CLA}
    positive = SignedTrigraph([a, c], [(a, c, POS)], sides=sides)
    negative = SignedTrigraph([a, c], [(a, c, NEG)], sides=sides)
    unlinked = SignedTrigraph([a, c], [], sides=sides)
    assert finalize(record, positive, 2) == 3 + 5
    assert finalize(record, positive, 1) == 5
    assert finalize(record, negative, 2) == 5 + 7
    assert finalize(record, negative, 0) == 7
    assert finalize(record, unlinked, 2) == 0


def test_zero_budget_paths():
    all_negative = Formula(2, (fs(-1), fs(-2)))
    seq = greedy_for(all_negative)
    w = WeightFunction({-1: 3, -2: 5})
    assert solve_bwmc(all_negative, w, 0, seq) == 15
    needs_one = Formula(2, (fs(1, 2),))
    assert solve_bwmc(needs_one, WeightFunction(), 0, greedy_for(needs_one)) == 0


def test_no_clause_and_empty_clause_formulas():
    free = Formula(3, ())
    seq = greedy_sequence(incidence_graph(free), bipartite=True)
    assert solve_bwmc(free, WeightFunction(), 1, seq) == 4
    assert solve_bwmc(free, WeightFunction(), 3, seq) == 8
    contradiction = Formula(2, (fs(1, 2), fs()))
    assert solve_bwmc(contradiction, WeightFunction(), 2, greedy_for(contradiction)) == 0
    nothing = Formula(0, ())
    assert solve_bwmc(nothing, WeightFunction(), 0, ContractionSequence(())) == 1


def test_budget_clamps_to_variable_count():
    f = or_clause()
    seq = greedy_for(f)
    assert solve_bwmc(f, WeightFunction(), 99, seq) == bwmc_oracle(f, WeightFunction(), 2)


def test_input_guards():
    f = or_clause()
    seq = greedy_for(f)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_bwmc(f, WeightFunction(), -1, seq)
    with pytest.raises(ValueError, match="down to"):
        solve_bwmc(f, WeightFunction(), 1, ContractionSequence(()))
    cross = ContractionSequence(((1, 3),), num_vertices=3)
    with pytest.raises(ValueError, match="invalid contraction sequence"):
        solve_bwmc(f, WeightFunction(), 1, cross)
    with pytest.raises(ValueError, match="empty incidence graph"):
        solve_bwmc(Formula(0, ()), WeightFunction(), 0, ContractionSequence(((1, 2),)))
    with pytest.raises(ValueError, match="positive ones budget"):
        list(dp_records(f, WeightFunction(), 0, seq))


def test_finalize_requires_two_vertex_graph():
    f = or_clause()
    with pytest.raises(ValueError, match="fully contracted"):
        finalize({}, incidence_graph(f), 1)


# -- cross-checks --------------------------------------------------------------

LARGE_BRANCH_FORMULA = Formula(
    5,
    (
        fs(-5, -3, -1),
        fs(-5, -3),
        fs(1, 2, 3),
        fs(-1, 4),
        fs(-5, 4),
        fs(-5, -1, 2),
    ),
)


def test_large_region_branch_fires_and_agrees():
    f = LARGE_BRANCH_FORMULA
    w = WeightFunction({1: 2, -2: 3, 3: Fraction(1, 2), -4: -1, 5: 7})
    seq = greedy_for(f, tie_break="largest")
    expected = bwmc_oracle(f, w, 1)

    stats = {}
    assert solve_bwmc(f, w, 1, seq, stats=stats) == expected
    assert stats["large_regions"] >= 1

    forward_stats = {}
    graph = incidence_graph(f)
    final_graph, record = None, None
    for final_graph, record in dp_records(f, w, 1, seq, stats=forward_stats):
        pass
    assert finalize(record, final_graph, 1) == expected
    assert forward_stats["large_regions"] >= 1


def test_solver_matches_oracle_on_random_instances():
    for seed in range(40):
        rng = random.Random(seed)
        f = random_formula(rng, max_vars=7, max_clauses=8)
        w = random_weights(rng, f.num_vars)
        k = rng.randint(0, f.num_vars)
        seq = greedy_for(f)
        assert solve_bwmc(f, w, k, seq) == bwmc_oracle(f, w, k), (seed, k)


def test_count_is_independent_of_the_sequence():
    for seed in range(8):
        rng = random.Random(300 + seed)
        f = random_formula(rng, max_vars=7, max_clauses=8, min_clauses=1)
        w = random_weights(rng, f.num_vars)
        k = rng.randint(1, f.num_vars)
        a = solve_bwmc(f, w, k, greedy_for(f, "smallest"))
        b = solve_bwmc(f, w, k, greedy_for(f, "largest"))
        assert a == b


def test_dp_records_sound_on_one_instance():
    rng = random.Random(17)
    f = random_formula(rng, max_vars=5, max_clauses=5, min_clauses=1)
    w = random_weights(rng, f.num_vars)
    k = rng.randint(1, f.num_vars)
    seq = greedy_for(f)
    budget = min(k, f.num_vars)
    width = seq.declared_width
    threshold = region_cap(budget, width)
    initial = incidence_graph(f)
    checked = 0
    for graph, record in dp_records(f, w, k, seq):
        checked += check_record(initial, graph, record, w, budget, threshold)
    assert checked > 0


CAPPED_REGION_WEIGHTS = WeightFunction({1: 2, -1: 3, 2: 5, -2: 7, 3: Fraction(1, 2), -3: 11,
                                        4: -1, -4: 13, 5: 17, -5: Fraction(2, 3)})


def capped_formula(seed):
    """A small random formula whose greedy sequences reach one capped
    region at k = 1, with its random weights."""
    rng = random.Random(seed)
    f = random_formula(rng, max_vars=8, max_clauses=10, min_clauses=3, widths=(2, 3))
    return f, random_weights(rng, f.num_vars)


@pytest.mark.parametrize(
    "seed, tie_break, entries",
    [
        (None, "largest", 252),
        (83, "smallest", 2716),
        (189, "smallest", 425),
        (391, "smallest", 360),
        (668, "largest", 279),
        (770, "smallest", 293),
        (770, "largest", 296),
    ],
    ids=["large-branch", "83", "189", "391", "668", "770-smallest", "770-largest"],
)
def test_dp_records_sound_on_capped_regions(seed, tie_break, entries):
    if seed is None:
        # no literal weighs 1, so an all-zero variable's weight shows
        f, w = LARGE_BRANCH_FORMULA, CAPPED_REGION_WEIGHTS
    else:
        f, w = capped_formula(seed)
    seq = greedy_for(f, tie_break=tie_break)
    threshold = region_cap(1, seq.declared_width)
    initial = incidence_graph(f)
    stats = {}
    checked = 0
    for graph, record in dp_records(f, w, 1, seq, stats=stats):
        checked += check_record(initial, graph, record, w, 1, threshold)
    assert stats["large_regions"] == 1
    assert checked == entries


def test_dp_records_finalize_matches_solve():
    for seed in range(10):
        rng = random.Random(500 + seed)
        f = random_formula(rng, max_vars=6, max_clauses=6, min_clauses=1)
        w = random_weights(rng, f.num_vars)
        k = rng.randint(1, f.num_vars)
        seq = greedy_for(f)
        graph, record = None, None
        for graph, record in dp_records(f, w, k, seq):
            pass
        assert finalize(record, graph, k) == solve_bwmc(f, w, k, seq)


@pytest.mark.parametrize("n", [250, 2000])
def test_long_chains_count_exactly(n):
    # criterion B's closed form: the models with <= 2 ones are all-false,
    # {x_n} and {x_{n-1}, x_n}
    w = random_weights(random.Random(n), n)
    neg = [w.of(-v) for v in range(1, n + 1)]
    expected = (
        math.prod(neg)
        + w.of(n) * math.prod(neg[: n - 1])
        + w.of(n - 1) * w.of(n) * math.prod(neg[: n - 2])
    )
    assert solve_bwmc(implication_chain(n), w, 2, zip_sequence(n)) == expected


@pytest.mark.parametrize("n, k", [(250, 2), (60, 3)])
def test_zip_chains_match_the_bounded_ones_reference(n, k):
    w = random_weights(random.Random(100 + n), n)
    f = implication_chain(n)
    assert solve_bwmc(f, w, k, zip_sequence(n)) == bwmc_oracle(f, w, k)


def watch_region_tables(monkeypatch):
    """Wrap the region evaluator; each call appends a pair to the returned
    list: how many regions born by a step have a table among those passed
    in, and the table the call returns."""
    calls = []
    evaluate = bwmc._recompute_region

    def watching(log, level, region, splits, budget, tables, stats):
        live = sum(log.birth(max(r)) > 0 for r in tables)
        table = evaluate(log, level, region, splits, budget, tables, stats)
        calls.append((live, table))
        return table

    monkeypatch.setattr(bwmc, "_recompute_region", watching)
    return calls


def test_state_keys_stay_within_three_bits_per_input_vertex(monkeypatch):
    # a state holds three bits per label slot, and labels are input ids,
    # so no key grows with the fresh ids of contracted vertices (about 2V)
    n, k = 200, 3
    graph = incidence_graph(implication_chain(n))
    log = ContractionLog(graph, zip_sequence(n), require_bipartite=True).check()
    calls = watch_region_tables(monkeypatch)
    roots = bwmc._red_components(log, log.vertices())
    tables = bwmc._region_tables(log, roots, WeightFunction(), k, {})
    checked = [table for _, table in calls] + [tables[root] for root in roots]
    widest = max(key.bit_length() for table in checked for row in table.values()
                 for key in row)
    assert widest <= 3 * (graph.num_vertices + 1)


@pytest.mark.parametrize("n", [200, 400])
def test_tables_are_dropped_after_their_last_reader(monkeypatch, n):
    # each region of the zip chain is read only by the next region along
    # the chain, so at most two tables of contracted regions are ever held;
    # keeping every table until the run ends held 2n - 4 at the last step
    calls = watch_region_tables(monkeypatch)
    # the models with <= 3 ones: all-false and the three shortest suffixes
    assert solve_bwmc(implication_chain(n), WeightFunction(), 3, zip_sequence(n)) == 4
    assert max(live for live, _ in calls) <= 2


def test_shared_tables_outlive_every_planned_reader():
    # the capped region's has_one splits read the same ball components
    # several times, so each table must wait for its last planned reader:
    # a table dropped early would be missing, and one dropped and built
    # again would raise regions_evaluated above 148
    f = gen_random_ksat(20, 3, 40, 0)
    w = random_weights(random.Random(20), f.num_vars, zeros=False)
    seq = greedy_for(f)
    stats = {}
    assert solve_bwmc(f, w, 1, seq, stats=stats) == bwmc_oracle(f, w, 1)
    assert stats["regions_evaluated"] == 148 and stats["large_regions"] == 1
    # k = 1 counts 0 here, so k = 2 checks a nonzero count too
    assert solve_bwmc(f, w, 2, seq) == bwmc_oracle(f, w, 2) != 0


def test_long_chain_with_prime_denominators_counts_exactly():
    # every variable's pair has its own denominators, so the integer
    # dynamic program carries a scale of about 18,500 bits
    n = 2000
    w = prime_weights(random.Random(7), n, zeros=False)
    neg = [w.of(-v) for v in range(1, n + 1)]
    expected = (
        math.prod(neg)
        + w.of(n) * math.prod(neg[: n - 1])
        + w.of(n - 1) * w.of(n) * math.prod(neg[: n - 2])
    )
    assert solve_bwmc(implication_chain(n), w, 2, zip_sequence(n)) == expected


# -- integer weights -----------------------------------------------------------


def test_solve_returns_a_fraction_on_every_path():
    w = WeightFunction({1: Fraction(2, 3), -1: Fraction(-5, 7), 2: Fraction(1, 2),
                        -2: Fraction(3, 11)})
    red_final = Formula(2, (fs(1, 2), fs(-1)))
    cases = [
        (Formula(2, (fs(1, 2), fs())), 2, None),  # an empty clause
        (Formula(2, ()), 1, None),  # no clauses
        (Formula(0, ()), 0, None),  # no variables either
        (Formula(2, (fs(-1), fs(-2))), 0, None),  # k = 0
        (or_clause(), 1, None),  # black final edge: the DP counts it too
        (red_final, 2, ContractionSequence(((3, 4), (1, 2)), num_vertices=4)),  # the DP
    ]
    for formula, k, seq in cases:
        value = solve_bwmc(formula, w, k, seq if seq is not None else greedy_for(formula))
        assert type(value) is Fraction, (formula, k)
        assert value == bwmc_oracle(formula, w, k), (formula, k)
    assert value.denominator > 1  # the DP's count: the scale was divided out


def test_prime_denominator_weights_match_the_oracle():
    for seed in range(60):
        rng = random.Random(700 + seed)
        f = random_formula(rng, max_vars=10, max_clauses=12)
        w = prime_weights(rng, f.num_vars)
        k = rng.randint(0, f.num_vars)
        assert solve_bwmc(f, w, k, greedy_for(f)) == bwmc_oracle(f, w, k), (seed, k)


def test_capped_cliff_formulas_count_in_few_regions():
    # the bounds catch a cascade of capped regions: peeling a capped region
    # one vertex at a time evaluated 1,923 and 1,287 regions on the n = 16
    # seeds and 17,108 on n = 20 seed 0, and ran past a minute on seeds 13
    # and 32
    cases = [(gen_random_ksat(16, 3, 32, seed), seed, 5000) for seed in (10, 19)]
    cases += [(gen_random_ksat(20, 3, 40, seed), seed, 1000) for seed in (0, 13, 32)]
    for f, seed, most in cases:
        w = random_weights(random.Random(seed), f.num_vars, zeros=False)
        stats = {}
        assert solve_bwmc(f, w, 1, greedy_for(f), stats=stats) == bwmc_oracle(f, w, 1)
        assert stats["large_regions"] > 0
        assert stats["regions_evaluated"] < most, seed


def test_capped_region_count_matches_the_oracle():
    f, w = LARGE_BRANCH_FORMULA, CAPPED_REGION_WEIGHTS
    stats = {}
    assert solve_bwmc(f, w, 1, greedy_for(f, "largest"), stats=stats) == bwmc_oracle(f, w, 1)
    assert stats["large_regions"] >= 1


def assert_black_edges_satisfied(graph, record):
    """Every profile's satisfied set holds each region clause that a black
    edge inside the region satisfies: a positive edge from a has_one
    variable, or a negative edge from a variable whose bag holds a 0."""
    checked = 0
    for profile in record:
        for u in profile.region:
            if graph.side(u) != SIDE_VAR:
                continue
            holds_zero = u not in profile.has_one or u in profile.mixed
            for c in profile.region:
                kind = graph.edge(u, c)
                if (kind == POS and u in profile.has_one) or (kind == NEG and holds_zero):
                    assert c in profile.satisfied, (profile, u, c)
                    checked += 1
    return checked


def test_records_hold_the_black_edges_inside_their_region():
    # the region evaluator widens a child's states only across components,
    # which is sound because of this property of every record
    checked = 0
    for seed in range(12):
        rng = random.Random(900 + seed)
        f = random_formula(rng, max_vars=6, max_clauses=7, min_clauses=1)
        k = rng.randint(1, f.num_vars)
        for graph, record in dp_records(f, random_weights(rng, f.num_vars), k, greedy_for(f)):
            checked += assert_black_edges_satisfied(graph, record)
    stats = {}
    seq = greedy_for(LARGE_BRANCH_FORMULA, "largest")
    records = dp_records(LARGE_BRANCH_FORMULA, CAPPED_REGION_WEIGHTS, 1, seq, stats=stats)
    for graph, record in records:
        checked += assert_black_edges_satisfied(graph, record)
    assert stats["large_regions"] == 1
    assert checked > 0


DP_COUNTERS = ("regions_evaluated", "large_regions", "has_one_splits", "fold_states",
               "largest_table")


@pytest.mark.parametrize(
    "ksat, k, counters, copied",
    [
        ((12, 3, 24, 1), 2, (34, 0, 0, 1262, 77), 332),
        ((12, 3, 24, 1), 3, (34, 0, 0, 3995, 284), 888),
        (None, 3, (117, 0, 0, 1160, 9), 631),
        ((20, 3, 40, 0), 1, (148, 1, 16, 1770, 20), 692),
    ],
    ids=["ksat-12-k2", "ksat-12-k3", "zip-chain-60", "ksat-20-capped"],
)
def test_dp_counters_are_pinned(ksat, k, counters, copied):
    # the five region and fold counters pin the DP's work, so a change to
    # how tables are stored or read leaves them as they are; entries_copied
    # counts the child states read through a copy instead of in place
    if ksat is None:
        f, seq = implication_chain(60), zip_sequence(60)
    else:
        f = gen_random_ksat(*ksat)
        seq = greedy_for(f)
    stats = {}
    solve_bwmc(f, WeightFunction(), k, seq, stats=stats)
    assert tuple(stats[key] for key in DP_COUNTERS) == counters
    assert stats["entries_copied"] == copied


# -- the component fold's branches ---------------------------------------------


def record_folds(monkeypatch):
    """Record every split the region evaluator folds, one dict each: whether
    the merged pair is a variable pair, whether x and y lie in different
    components of more than one vertex, how many components are lone
    clause vertices and how many are not, the split's has_one set (None off
    the capped path) as a slot bitset, bit 3s for the vertex answering to
    label s, and the variable vertices outside its components."""
    shapes = []
    evaluate = bwmc._recompute_region

    def recording(log, level, region, splits, *rest):
        x, y, z = log.steps[level - 1]
        expanded = (region - {z}) | {x, y}
        for has_one, components, _weight, _satisfied in splits:
            outside = expanded.difference(*components)
            comp_x, comp_y = (next((c for c in components if v in c), None) for v in (x, y))
            units = sum(all(log.side(u) == SIDE_CLA for u in comp) for comp in components)
            shapes.append({
                "variables": log.side(x) == SIDE_VAR,
                "apart": comp_x is not comp_y and len(comp_x or ()) > 1 and len(comp_y or ()) > 1,
                "units": units,
                "others": len(components) - units,
                "has_one": has_one,
                "outside_variables": sorted(u for u in outside if log.side(u) == SIDE_VAR),
            })
        return evaluate(log, level, region, splits, *rest)

    monkeypatch.setattr(bwmc, "_recompute_region", recording)
    return shapes


def assert_counts_and_records(formula, weights, seq, ks):
    """solve_bwmc against the oracle, and every level's records against
    check_record, for each budget in ks."""
    initial = incidence_graph(formula)
    width = verify(initial, seq, require_bipartite=True).width
    for k in ks:
        assert solve_bwmc(formula, weights, k, seq) == bwmc_oracle(formula, weights, k), k
        budget = min(k, formula.num_vars)
        threshold = region_cap(budget, width)
        checked = 0
        for graph, record in dp_records(formula, weights, k, seq):
            checked += check_record(initial, graph, record, weights, budget, threshold)
        assert checked > 0


def test_fold_merges_a_variable_pair_from_two_components(monkeypatch):
    # 1,3 and 2,4 merge first, each red to its own clause; merging the two
    # results joins {x, (1 -3)} and {y, (2 -4)}, so z's has_one and mixed
    # bits come from both components at once
    f = Formula(4, (fs(1, -3), fs(2, -4)))
    seq = ContractionSequence(((1, 3), (2, 4), (1, 2), (5, 6)), num_vertices=6)
    shapes = record_folds(monkeypatch)
    solve_bwmc(f, WeightFunction(), 2, seq)
    assert any(shape["variables"] and shape["apart"] for shape in shapes)
    assert_counts_and_records(f, prime_weights(random.Random(1), 4, zeros=False), seq, (1, 2, 3, 4))


def test_fold_merges_a_clause_pair_from_two_components(monkeypatch):
    # each clause is red to the vertex its two variables merged into, so
    # merging the clauses joins two components, and z is satisfied only
    # when both are
    f = Formula(4, (fs(1, -2), fs(3, -4)))
    seq = ContractionSequence(((1, 2), (3, 4), (5, 6), (1, 3)), num_vertices=6)
    shapes = record_folds(monkeypatch)
    solve_bwmc(f, WeightFunction(), 2, seq)
    assert any(not shape["variables"] and shape["apart"] for shape in shapes)
    assert_counts_and_records(f, prime_weights(random.Random(2), 4, zeros=False), seq, (1, 2, 3, 4))


def test_fold_skips_lone_clause_components(monkeypatch):
    # (1 -2) turns red only when 1 and 2 merge, so that merge's expansion
    # holds the clause as a component of its own, and its satisfaction
    # comes from the black edges of the two variable components
    f = Formula(3, (fs(1, -2), fs(2, 3), fs(-1, -3)))
    seq = ContractionSequence(((1, 2), (4, 5), (1, 3), (4, 6)), num_vertices=6)
    shapes = record_folds(monkeypatch)
    solve_bwmc(f, WeightFunction(), 2, seq)
    assert any(shape["units"] and shape["others"] >= 2 for shape in shapes)
    assert_counts_and_records(f, prime_weights(random.Random(3), 3, zeros=False), seq, (1, 2, 3))


def test_has_one_split_folds_its_ball_and_outside(monkeypatch):
    # the capped region of LARGE_BRANCH_FORMULA splits by its has_one set;
    # the split with a 1 at vertex 5 folds the component of its ball and
    # leaves variable 14 outside, whose all-zero weight starts the fold
    f = LARGE_BRANCH_FORMULA
    seq = greedy_for(f, tie_break="largest")
    shapes = record_folds(monkeypatch)
    solve_bwmc(f, WeightFunction(), 1, seq)
    assert any(shape["has_one"] and shape["others"] and shape["outside_variables"]
               for shape in shapes)
    assert_counts_and_records(f, prime_weights(random.Random(4), 5, zeros=False), seq, (1,))


def keep_larger_labels(seq):
    """The same contractions, each step keeping the larger of its two
    labels; later steps name the merged vertex by that label."""
    alias = {}
    steps = []
    for keep, merge in seq.steps:
        a, b = alias.get(keep, keep), alias.pop(merge, merge)
        alias[keep] = max(a, b)
        steps.append((max(a, b), min(a, b)))
    return ContractionSequence(tuple(steps), num_vertices=seq.num_vertices)


def test_counts_and_records_do_not_depend_on_the_surviving_label():
    # a vertex's state bits sit at the slot of its label; keeping the larger
    # label moves a merged vertex's slot off the smallest id in its bag
    cases = [(gen_random_ksat(10, 3, 20, seed), "smallest", (1, 2, 3)) for seed in range(5)]
    cases.append((LARGE_BRANCH_FORMULA, "largest", (1,)))
    for seed, (f, tie_break, ks) in enumerate(cases):
        w = prime_weights(random.Random(seed), f.num_vars, zeros=False)
        seq = greedy_for(f, tie_break)
        renamed = keep_larger_labels(seq)
        graph = incidence_graph(f)
        before, after = (ContractionLog(graph, s).check() for s in (seq, renamed))
        # the same vertices merge at every step, under other labels
        assert [{x, y, z} for x, y, z in before.steps] == [{x, y, z} for x, y, z in after.steps]
        assert any(before.label(z) != after.label(z) for *_, z in before.steps)
        for k in ks:
            value = solve_bwmc(f, w, k, renamed)
            assert value == solve_bwmc(f, w, k, seq) == bwmc_oracle(f, w, k), (seed, k)
    # the records of a renamed sequence pass the record checks, capped path
    # included, with as many entries as those of the original
    for f, w, tie_break, entries in [(LARGE_BRANCH_FORMULA, CAPPED_REGION_WEIGHTS, "largest", 252),
                                     (*capped_formula(83), "smallest", 2716)]:
        seq = keep_larger_labels(greedy_for(f, tie_break))
        initial = incidence_graph(f)
        threshold = region_cap(1, verify(initial, seq).width)
        stats = {}
        checked = 0
        for graph, record in dp_records(f, w, 1, seq, stats=stats):
            checked += check_record(initial, graph, record, w, 1, threshold)
        assert stats["large_regions"] == 1
        assert checked == entries


# -- past 24 variables: the oracle walks only the sets of at most k ones ---------


def mostly_negative_2cnf(rng, n, m):
    """Distinct random 2-clauses whose literals are negative with
    probability 3/4, so that models with at most 3 ones are common."""
    clauses = set()
    while len(clauses) < m:
        pair = rng.sample(range(1, n + 1), 2)
        clauses.add(frozenset(v if rng.random() < 0.25 else -v for v in pair))
    return Formula(n, tuple(sorted(clauses, key=sorted)))


def test_solve_matches_the_oracle_past_24_variables():
    # at n = 40 and 30 the oracle walks at most 10,701 sets of ones, where
    # all 2^n assignments would be out of reach
    checked = nonzero = 0
    for seed in range(6):
        rng = random.Random(seed)
        f = mostly_negative_2cnf(rng, 40, 40)
        w = random_weights(rng, 40, zeros=False)
        seq = greedy_for(f)
        for k in (1, 2, 3):
            value = solve_bwmc(f, w, k, seq)
            assert value == bwmc_oracle(f, w, k), (seed, k)
            checked += 1
            nonzero += value != 0
    for seed in range(1, 9):
        f = gen_random_ksat(30, 3, 30, seed)
        w = random_weights(random.Random(seed), 30, zeros=False)
        value = solve_bwmc(f, w, 2, greedy_for(f))
        assert value == bwmc_oracle(f, w, 2), seed
        checked += 1
        nonzero += value != 0
    assert 2 * nonzero >= checked
