import hashlib
import itertools
import math
import random

import pytest

from helpers import (
    brute_min_bipartite_width,
    random_bipartite_graph,
    reference_exact_witness,
    reference_greedy,
)
from test_acceptance import implication_chain
from stww.bounds import _WorkingGraph, exact_tww_bruteforce, greedy_sequence, subdivided_clique_sequence
from stww.cnf import Formula
from stww.generators import gen_grid, gen_random_ksat, gen_subdivided_clique
from stww.sequence import ContractionLog, ContractionSequence, serialize_sequence, verify
from stww.trigraph import NEG, POS, RED, SignedTrigraph, incidence_graph


def test_greedy_contracts_twins_first():
    # an all-positive star has twin-width 0 and greedy must find it
    star = SignedTrigraph([1, 2, 3, 4], [(1, 2, POS), (1, 3, POS), (1, 4, POS)])
    seq = greedy_sequence(star)
    assert seq.declared_width == 0
    assert len(seq) == 3
    report = verify(star, seq)
    assert report.ok and report.width == 0


def test_greedy_is_maximal_and_width_is_achieved():
    for seed in range(10):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng, max_n=15)
        for tie_break in ("smallest", "largest"):
            seq = greedy_sequence(g, bipartite=True, tie_break=tie_break)
            report = verify(g, seq, require_bipartite=True)
            assert report.ok
            assert report.width == seq.declared_width
            sides = {g.side(v) for v in g.vertices()}
            assert len(seq) == g.num_vertices - len(sides)
        free = greedy_sequence(g)
        assert len(free) == g.num_vertices - 1
        assert verify(g, free).width == free.declared_width


def test_greedy_tie_breaks_give_different_but_valid_sequences():
    g = SignedTrigraph(
        [1, 2, 3, 4, 5, 6],
        [(1, 4, POS), (2, 4, POS), (3, 6, NEG), (2, 6, NEG)],
        sides={1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1},
    )
    small = greedy_sequence(g, bipartite=True, tie_break="smallest")
    large = greedy_sequence(g, bipartite=True, tie_break="largest")
    assert small.steps != large.steps
    assert verify(g, small, require_bipartite=True).ok
    assert verify(g, large, require_bipartite=True).ok


def _random_sided_trigraph(rng, ids, p=0.4):
    """Sided trigraph on the given ids with POS, NEG and RED cross edges."""
    sides = {v: rng.randint(0, 1) for v in ids}
    edges = [
        (u, v, rng.choice((POS, NEG, RED)))
        for u, v in itertools.combinations(ids, 2)
        if sides[u] != sides[v] and rng.random() < p
    ]
    return SignedTrigraph(ids, edges, sides=sides)


def _greedy_equivalence_cases():
    for n in range(3, 11):
        for seed in range(2):
            yield incidence_graph(gen_random_ksat(n, 3, 2 * n, seed=seed)), (True,)
    rng = random.Random(17)
    for _ in range(12):
        ids = sorted(rng.sample(range(1, 60), rng.randint(2, 12)))
        yield _random_sided_trigraph(rng, ids), (True, False)
    for seed in range(3):
        yield gen_grid(2, 4, signs="random", seed=seed), (True, False)
    yield gen_grid(3, 2, signs="random", seed=5), (True, False)
    yield _random_sided_trigraph(random.Random(3), [1, 5000, 5001]), (True, False)
    yield _random_sided_trigraph(random.Random(4), [2, 9, 5000, 5001, 7000, 7002]), (True, False)
    # isolated vertices, whose pairs all tie but for their labels: edgeless,
    # and mostly isolated beside a few edges, red ones included
    edgeless = [3, 1, 8, 5, 12, 9, 2]
    yield SignedTrigraph(edgeless, sides={v: v % 2 for v in edgeless}), (True, False)
    yield incidence_graph(Formula(9, ((-1, 2), (-2, 3)))), (True, False)
    yield incidence_graph(implication_chain(12)), (True, False)
    rng = random.Random(23)
    for _ in range(8):
        ids = sorted(rng.sample(range(1, 40), rng.randint(6, 12)))
        yield _random_sided_trigraph(rng, ids, p=0.12), (True, False)


def test_greedy_matches_contract_and_measure_reference():
    for graph, modes in _greedy_equivalence_cases():
        for bipartite in modes:
            for tie_break in ("smallest", "largest"):
                seq = greedy_sequence(graph, bipartite=bipartite, tie_break=tie_break)
                steps, width = reference_greedy(graph, bipartite, tie_break)
                assert seq.steps == steps, (graph, bipartite, tie_break)
                assert seq.declared_width == width, (graph, bipartite, tie_break)


def test_greedy_guards():
    g = SignedTrigraph([1, 2], [(1, 2, POS)])
    with pytest.raises(ValueError, match="tie_break"):
        greedy_sequence(g, tie_break="odd")
    with pytest.raises(ValueError, match="side"):
        greedy_sequence(g, bipartite=True)
    empty = greedy_sequence(SignedTrigraph([]))
    assert len(empty) == 0 and empty.declared_width == 0


def test_exact_bruteforce_small_knowns():
    star = SignedTrigraph([1, 2, 3], [(3, 1, POS), (3, 2, POS)])
    width, seq = exact_tww_bruteforce(star)
    assert width == 0
    assert verify(star, seq).width == 0

    # mixed signs force a red edge somewhere
    mixed = SignedTrigraph([1, 2, 3], [(3, 1, POS), (3, 2, NEG)])
    width, seq = exact_tww_bruteforce(mixed)
    assert width == 1
    report = verify(mixed, seq)
    assert report.ok and report.width == 1


def test_exact_bruteforce_counts_initial_red():
    g = SignedTrigraph([1, 2, 3], [(1, 2, RED), (1, 3, RED)])
    width, _ = exact_tww_bruteforce(g)
    assert width == 2


def test_exact_bruteforce_guards():
    big = SignedTrigraph(range(1, 13))
    with pytest.raises(ValueError, match="guard"):
        exact_tww_bruteforce(big)
    no_sides = SignedTrigraph([1, 2])
    with pytest.raises(ValueError, match="side"):
        exact_tww_bruteforce(no_sides, bipartite=True)


def test_exact_bruteforce_matches_plain_recursion_bipartite():
    for seed in range(15):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng, max_n=6)
        width, seq = exact_tww_bruteforce(g, bipartite=True)
        assert width == brute_min_bipartite_width(g)
        report = verify(g, seq, require_bipartite=True)
        assert report.ok and report.width == width


def test_exact_bruteforce_witness_is_the_first_least_sequence():
    # the witness rule against plain enumeration, with red input edges
    # in half the graphs (so the input's red degree can exceed the least)
    for seed in range(30):
        rng = random.Random(400 + seed)
        g = random_bipartite_graph(rng, max_n=6)
        if seed % 2:
            sides = {v: g.side(v) for v in g.vertices()}
            edges = [(u, v, RED if rng.random() < 0.4 else kind) for u, v, kind in g.edges()]
            g = SignedTrigraph(g.vertices(), edges, sides=sides)
        for bipartite in (False, True):
            width, seq = exact_tww_bruteforce(g, bipartite=bipartite)
            assert (width, seq.steps) == reference_exact_witness(g, bipartite), (seed, bipartite)
            assert seq.declared_width == width


def test_exact_bruteforce_work_is_bounded(monkeypatch):
    # one search per cap, stopping at its first witness, and each dead
    # partition expanded at most once under a cap
    calls = 0
    contract = ContractionLog.contract

    def counting(self, keep, merge):
        nonlocal calls
        calls += 1
        return contract(self, keep, merge)

    monkeypatch.setattr(ContractionLog, "contract", counting)
    g = incidence_graph(gen_random_ksat(4, 2, 7, 1))
    width, _ = exact_tww_bruteforce(g, bipartite=True, max_vertices=11)
    assert width == 3
    assert 0 < calls <= 1000


def test_exact_bruteforce_witness_names_vertex_ids():
    # h's vertex 5 holds the bag {3, 4}: a step names it 5, not 3
    g = SignedTrigraph([1, 2, 3, 4], [(1, 3, POS), (2, 3, NEG), (2, 4, POS)])
    h = verify(g, ContractionSequence(((3, 4),))).check().snapshot()
    assert h.vertices() == [1, 2, 5] and h.bag(5) == frozenset({3, 4})
    width, seq = exact_tww_bruteforce(h)
    assert (width, seq.steps) == (2, ((1, 2), (1, 5))) == reference_exact_witness(h)
    assert verify(h, seq).width == width
    sided = SignedTrigraph(
        [1, 2, 3, 4, 5],
        [(1, 3, POS), (2, 3, NEG), (2, 4, POS), (1, 5, NEG)],
        sides={1: 0, 2: 0, 3: 1, 4: 1, 5: 1},
    )
    h = verify(sided, ContractionSequence(((3, 4),))).check().snapshot()
    for bipartite in (False, True):
        width, seq = exact_tww_bruteforce(h, bipartite=bipartite)
        assert (width, seq.steps) == reference_exact_witness(h, bipartite), bipartite
        report = verify(h, seq, require_bipartite=bipartite)
        assert report.ok and report.width == width, bipartite


def test_bipartite_optimum_within_two_of_unrestricted():
    for seed in range(10):
        rng = random.Random(100 + seed)
        g = random_bipartite_graph(rng, max_n=7)
        free, _ = exact_tww_bruteforce(g)
        sided, _ = exact_tww_bruteforce(g, bipartite=True)
        assert free <= sided <= free + 2


def test_greedy_upper_bounds_exact():
    for seed in range(10):
        rng = random.Random(200 + seed)
        g = random_bipartite_graph(rng, max_n=7)
        exact, _ = exact_tww_bruteforce(g, bipartite=True)
        assert greedy_sequence(g, bipartite=True).declared_width >= exact


def test_subdivided_clique_sequence_bound():
    graph, clique = gen_subdivided_clique(4, [1, 0, 2, 1, 0, 3])
    seq = subdivided_clique_sequence(graph, clique)
    report = verify(graph, seq)
    assert report.ok
    assert report.width <= 3
    log = ContractionLog(graph)
    for keep, merge in seq.steps:
        log.contract(keep, merge)
        assert max(len(log.neighbors(v)) for v in log.vertices()) <= 3


def test_subdivided_clique_recovers_vertices_from_degrees():
    graph, _ = gen_subdivided_clique(4, [2, 1, 1, 0, 2, 1])
    seq = subdivided_clique_sequence(graph)  # no hint needed: degrees differ
    assert verify(graph, seq).ok


def test_subdivided_clique_triangle_needs_hint():
    triangle, clique = gen_subdivided_clique(3, [0, 0, 0])
    with pytest.raises(ValueError, match="explicitly"):
        subdivided_clique_sequence(triangle)
    seq = subdivided_clique_sequence(triangle, clique)
    assert verify(triangle, seq).ok
    assert seq.declared_width <= 2


def test_subdivided_clique_rejects_bad_inputs():
    graph, clique = gen_subdivided_clique(3, [1, 1, 1])
    with pytest.raises(ValueError, match="red"):
        subdivided_clique_sequence(verify(graph, ContractionSequence(((1, 2),))).check().snapshot())
    with pytest.raises(ValueError, match="degree"):
        subdivided_clique_sequence(graph, [1, 2])  # wrong classification
    path = SignedTrigraph([1, 2, 3], [(1, 2, POS), (2, 3, POS)])
    with pytest.raises(ValueError, match="at least two"):
        subdivided_clique_sequence(path, [1])


def positive_graph(vertices, pairs):
    return SignedTrigraph(vertices, [(u, v, POS) for u, v in pairs])


K3, _ = gen_subdivided_clique(3, [1, 1, 1])  # clique 1, 2, 3; subdivision vertices 4, 5, 6
K3_PAIRS = [(u, v) for u, v, _ in K3.edges()]


@pytest.mark.parametrize(
    "graph, clique, message",
    [
        (K3, [1, 2, 99], "clique vertex 99 not in graph"),
        (positive_graph(range(1, 8), K3_PAIRS), [1, 2, 3], "subdivision vertex 7 has degree 0, want 2"),
        # 1's two edges start one path, 1-4-5-1, which ends where it began
        (positive_graph(range(1, 7), [(1, 4), (4, 5), (5, 1), (2, 6), (6, 3), (2, 3)]), [1, 2, 3],
         "subdivision path loops back to 1"),
        # every clique vertex has degree 3, but 1-2 and 3-4 are joined twice, 1-4 and 2-3 never
        (positive_graph(range(1, 7), [(1, 2), (1, 5), (5, 2), (1, 3), (3, 4), (3, 6), (6, 4), (2, 4)]),
         [1, 2, 3, 4], "clique pairs are not each joined by exactly one path"),
        # a cycle 7-8-9 of degree-2 vertices that no clique vertex reaches
        (positive_graph(range(1, 10), K3_PAIRS + [(7, 8), (8, 9), (9, 7)]), [1, 2, 3],
         "some subdivision vertex lies on no (or several) paths"),
    ],
)
def test_subdivided_clique_validation_names_each_defect(graph, clique, message):
    with pytest.raises(ValueError) as raised:
        subdivided_clique_sequence(graph, clique)
    assert str(raised.value) == message


def test_subdivided_clique_and_bruteforce_witnesses_are_pinned():
    # the pin holds every step of the subdivided-clique sequences (built on
    # criterion-5-shaped inputs) and of the brute-force witnesses
    digest = hashlib.sha256()
    for d in range(3, 8):
        for i in range(10):
            rng = random.Random(100 * d + i)
            counts = [rng.randint(0, 3) for _ in range(math.comb(d, 2))]
            g, clique = gen_subdivided_clique(d, counts, signs="random", seed=rng.randint(0, 10**6))
            seq = subdivided_clique_sequence(g, clique)
            digest.update(f"{seq.declared_width}\n{serialize_sequence(seq)}".encode())
    for seed in range(20):
        g = random_bipartite_graph(random.Random(300 + seed), max_n=7)
        for bipartite in (False, True):
            width, seq = exact_tww_bruteforce(g, bipartite=bipartite)
            digest.update(f"{width}\n{serialize_sequence(seq)}".encode())
    assert digest.hexdigest() == "0000ca5b0436388e6e05f95a4b20280df47718e09703fb67b7013e5c13b7d06d"


def _greedy_pin_cases():
    for n in (30, 34, 80):
        yield incidence_graph(gen_random_ksat(n, 3, 2 * n, seed=n))
    for side in range(6, 9):
        yield gen_grid(2, side, signs="random", seed=side)
    rng = random.Random(23)
    for _ in range(6):
        ids = sorted(rng.sample(range(1, 10**4), rng.randint(20, 60)))
        yield _random_sided_trigraph(rng, ids)


def test_greedy_outputs_are_pinned_past_the_reference():
    # reference_greedy stops near 30 vertices; this pin holds greedy's steps
    # and widths up to V = 240 in both modes and with both tie-breaks
    digest = hashlib.sha256()
    for graph in _greedy_pin_cases():
        for bipartite in (True, False):
            for tie_break in ("smallest", "largest"):
                seq = greedy_sequence(graph, bipartite=bipartite, tie_break=tie_break)
                digest.update(f"{seq.declared_width}\n{serialize_sequence(seq)}".encode())
    assert digest.hexdigest() == "e89224d402920e11d4a8e652113ad2cda07e6f771f009fcc0d377eb166559844"


def _fresh_scores(work):
    """Every live same-group pair's merged red degree, from the masks, and
    whether the pair is near (adjacent, or sharing a neighbour)."""
    scores = {}
    for key, members in work.members.items():
        live = [x for x in range(members.bit_length()) if members >> x & 1]
        for x, y in itertools.combinations(live, 2):
            agree = (work.pos[x] & work.pos[y]) | (work.neg[x] & work.neg[y])
            merged = (work.nbr[x] | work.nbr[y]) & ~(agree | 1 << x | 1 << y)
            near = bool(work.nbr[x] & work.nbr[y] or work.nbr[x] >> y & 1)
            scores[x, y] = merged.bit_count(), near
    return scores


def _cached_entries(work):
    """{(x, y): mr} for every entry of every cached row."""
    cached = {}
    for x, row in enumerate(work.scores):
        for m, partners in (row or {}).items():
            for y in range(partners.bit_length()):
                if partners >> y & 1:
                    cached[x, y] = m
    return cached


def test_cached_pair_scores_match_the_masks_after_every_step():
    # the cache holds exactly the live near pairs, each at its fresh mr; a
    # far pair's mr is the sum of the two degrees, which the degree masks hold
    graphs = [
        incidence_graph(gen_random_ksat(12, 3, 24, seed=2)),
        gen_grid(2, 5, signs="random", seed=1),
        _random_sided_trigraph(random.Random(8), sorted(random.Random(9).sample(range(1, 500), 24))),
    ]
    for graph in graphs:
        for bipartite in (True, False):
            work = _WorkingGraph(graph, bipartite)
            fresh = graph.num_vertices
            while True:
                fresh_scores = _fresh_scores(work)
                near = {(x, y): m for (x, y), (m, is_near) in fresh_scores.items() if is_near}
                assert _cached_entries(work) == {**near, **{(y, x): m for (x, y), m in near.items()}}
                for (x, y), (m, is_near) in fresh_scores.items():
                    assert is_near or m == work.degree[x] + work.degree[y], (x, y)
                holders = [sum(1 << x for x, row in enumerate(work.scores) if row and m in row)
                           for m in range(len(work.at))]
                assert work.at == holders
                for key, members in work.members.items():
                    by_degree = [0] * len(work.at)
                    for x in range(members.bit_length()):
                        if members >> x & 1:
                            assert work.degree[x] == work.nbr[x].bit_count()
                            by_degree[work.degree[x]] |= 1 << x
                    assert work.by_degree[key] == by_degree
                    assert work.least[key] == min(d for d, held in enumerate(by_degree) if held)
                pair = work.best_pair(largest=False)
                if pair is None:
                    break
                work.contract(*pair, fresh)
                fresh += 1


def test_pair_cache_stays_linear_on_a_chain():
    # the chain's incidence graph is a path: a vertex shares a neighbour
    # with at most two others, so the cache is linear in V, not quadratic
    graph = incidence_graph(implication_chain(400))
    for bipartite in (True, False):
        work = _WorkingGraph(graph, bipartite)
        entries = sum(mask.bit_count() for row in work.scores if row for mask in row.values())
        assert entries <= 4 * graph.num_vertices, (bipartite, entries)


def _disjoint_two_clauses(num_clauses, seed):
    """num_clauses clauses on their own two variables each, random signs:
    every variable has degree 1 and every clause degree 2."""
    rng = random.Random(seed)
    return Formula(2 * num_clauses, tuple(
        frozenset((rng.choice((1, -1)) * (2 * i + 1), rng.choice((1, -1)) * (2 * i + 2)))
        for i in range(num_clauses)
    ))


def _sparse_unsided_trigraph(seed, n, p):
    """Trigraph without sides, odd cycles allowed, on n ids below 400."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(1, 400), n))
    edges = [(u, v, rng.choice((POS, NEG, RED))) for u, v in itertools.combinations(ids, 2) if rng.random() < p]
    return SignedTrigraph(ids, edges)


def _far_pair_pin_cases():
    # inputs where pairs that share no neighbour are scored, or win
    yield incidence_graph(implication_chain(12)), (True, False)
    yield incidence_graph(implication_chain(300)), (True, False)
    yield incidence_graph(_disjoint_two_clauses(40, 5)), (True, False)
    rng = random.Random(31)
    yield _random_sided_trigraph(rng, sorted(rng.sample(range(1, 2000), 70)), p=0.05), (True, False)
    yield _sparse_unsided_trigraph(37, 60, 0.05), (False,)


def test_greedy_outputs_are_pinned_where_far_pairs_compete():
    digest = hashlib.sha256()
    for graph, modes in _far_pair_pin_cases():
        for bipartite in modes:
            for tie_break in ("smallest", "largest"):
                seq = greedy_sequence(graph, bipartite=bipartite, tie_break=tie_break)
                digest.update(f"{seq.declared_width}\n{serialize_sequence(seq)}".encode())
    assert digest.hexdigest() == "50eb2f58410c4329ac72a74d0d4f1229f8b0d1e1bb2ac5b0c7ed75e0a2c0d3df"
