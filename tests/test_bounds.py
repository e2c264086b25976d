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
from stww.bounds import _WorkingGraph, exact_tww_bruteforce, greedy_sequence, subdivided_clique_sequence
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


def _random_sided_trigraph(rng, ids):
    """Sided trigraph on the given ids with POS, NEG and RED cross edges."""
    sides = {v: rng.randint(0, 1) for v in ids}
    edges = [
        (u, v, rng.choice((POS, NEG, RED)))
        for u, v in itertools.combinations(ids, 2)
        if sides[u] != sides[v] and rng.random() < 0.4
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
    h = ContractionLog(g, ContractionSequence(((3, 4),))).check().snapshot()
    assert h.vertices() == [1, 2, 5] and h.bag(5) == frozenset({3, 4})
    width, seq = exact_tww_bruteforce(h)
    assert (width, seq.steps) == (2, ((1, 2), (1, 5))) == reference_exact_witness(h)
    assert verify(h, seq).width == width
    sided = SignedTrigraph(
        [1, 2, 3, 4, 5],
        [(1, 3, POS), (2, 3, NEG), (2, 4, POS), (1, 5, NEG)],
        sides={1: 0, 2: 0, 3: 1, 4: 1, 5: 1},
    )
    h = ContractionLog(sided, ContractionSequence(((3, 4),))).check().snapshot()
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
        subdivided_clique_sequence(ContractionLog(graph, ContractionSequence(((1, 2),))).check().snapshot())
    with pytest.raises(ValueError, match="degree"):
        subdivided_clique_sequence(graph, [1, 2])  # wrong classification
    path = SignedTrigraph([1, 2, 3], [(1, 2, POS), (2, 3, POS)])
    with pytest.raises(ValueError, match="at least two"):
        subdivided_clique_sequence(path, [1])


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
    """Every live same-group pair's merged red degree, from the masks."""
    scores = {}
    for key, members in work.members.items():
        live = [x for x in range(members.bit_length()) if members >> x & 1]
        for x, y in itertools.combinations(live, 2):
            agree = (work.pos[x] & work.pos[y]) | (work.neg[x] & work.neg[y])
            merged = (work.nbr[x] | work.nbr[y]) & ~(agree | 1 << x | 1 << y)
            scores[x, y] = merged.bit_count()
    return scores


def test_cached_pair_scores_match_the_masks_after_every_step():
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
                cached = {}
                for x, row in enumerate(work.scores):
                    for m, partners in (row or {}).items():
                        for y in range(partners.bit_length()):
                            if partners >> y & 1:
                                cached[x, y] = m
                fresh_scores = _fresh_scores(work)
                assert cached == {**fresh_scores, **{(y, x): m for (x, y), m in fresh_scores.items()}}
                holders = [sum(1 << x for x, row in enumerate(work.scores) if row and m in row)
                           for m in range(len(work.at))]
                assert work.at == holders
                pair = work.best_pair(largest=False)
                if pair is None:
                    break
                work.contract(*pair, fresh)
                fresh += 1
