import random

import pytest

from helpers import (
    contracted,
    implication_chain,
    neighbors_at,
    random_bipartite_graph,
    reference_verify,
    zip_sequence,
)
from stww.bounds import greedy_sequence
from stww.cnf import ParseError
from stww.sequence import (
    ContractionLog,
    ContractionSequence,
    parse_sequence,
    serialize_sequence,
    verify,
)
from stww.trigraph import NEG, POS, RED, SIDE_CLA, SIDE_VAR, SignedTrigraph, incidence_graph


def path4():
    return SignedTrigraph([1, 2, 3, 4], [(1, 2, POS), (2, 3, POS), (3, 4, POS)])


def test_sequence_validation():
    seq = ContractionSequence(((1, 2), (1, 3)))
    assert len(seq) == 2
    with pytest.raises(ValueError, match="bad pair"):
        ContractionSequence(((1, 1),))
    with pytest.raises(ValueError, match="bad pair"):
        ContractionSequence(((0, 2),))
    for labels in ((1.5, 2.9), ("1", "2")):
        with pytest.raises(ValueError, match="step 0: non-integer label"):
            ContractionSequence((labels,))


def test_log_survivor_labels():
    g = path4()
    log = verify(g, ContractionSequence(((2, 1), (2, 3))))
    # the label 2 answers for the merged vertex 5, which step two merges
    assert log.steps == [(2, 1, 5), (5, 3, 6)]
    assert [log.label(v) for v in (5, 6)] == [2, 2]
    assert log.bag(6) == frozenset({1, 2, 3})
    bad = verify(g, ContractionSequence(((2, 1), (1, 3))))
    assert bad.steps == [(2, 1, 5)]
    assert not bad.ok and bad.failure == (1, "unknown vertex id 1")
    with pytest.raises(ValueError, match="^invalid contraction sequence: step 1: unknown vertex id 1$"):
        bad.check()


def test_verify_reports_width_and_per_step():
    g = path4()
    # contracting the path ends: (1,2) -> red to 3; then (3,4) -> red to merged
    report = verify(g, ContractionSequence(((1, 2), (3, 4), (1, 3))))
    assert report.ok
    assert report.width == max(report.per_step_max_red)
    assert len(report.per_step_max_red) == 3
    assert report.width == 1
    assert verify(g, ContractionSequence(((1, 2), (3, 4), (1, 3)))).check().width == 1


def test_verify_counts_initial_red_edges():
    g = SignedTrigraph([1, 2, 3], [(1, 2, RED), (1, 3, RED)])
    report = verify(g, ContractionSequence(()))
    assert report.ok and report.width == 2


def test_verify_failures():
    g = path4()
    report = verify(g, ContractionSequence(((1, 9),)))
    assert not report.ok
    assert report.failure[0] == 0 and "unknown" in report.failure[1]
    with pytest.raises(ValueError, match="step 0"):
        verify(g, ContractionSequence(((1, 9),))).check().width

    sided = SignedTrigraph([1, 2, 3], [(1, 2, POS)], sides={1: 0, 2: 1, 3: 0})
    cross = ContractionSequence(((1, 2),))
    lax = verify(sided, cross)
    assert lax.ok and not lax.bipartite
    strict = verify(sided, cross, require_bipartite=True)
    assert not strict.ok and "cross-side" in strict.failure[1]
    # the failed step is taken back: the log is that of the empty prefix
    assert strict.steps == strict.per_step_max_red == [] and strict.vertices() == [1, 2, 3]
    assert strict.vertex(1) == 1 and strict.vertex(2) == 2
    assert strict.bipartite and strict.width == sided.max_red_degree()
    with pytest.raises(AttributeError):
        strict.ok = True


def test_final_graph():
    g = path4()
    h = verify(g, ContractionSequence(((1, 2), (1, 3), (1, 4)))).check().snapshot()
    assert h.num_vertices == 1
    assert h.bag(h.vertices()[0]) == frozenset({1, 2, 3, 4})
    # the zip schedule leaves one variable and one clause vertex, red-joined
    n = 2000
    chain = verify(incidence_graph(implication_chain(n)), zip_sequence(n)).check().snapshot()
    cla, var = sorted(chain.vertices(), key=chain.side, reverse=True)
    assert (chain.side(var), chain.side(cla)) == (SIDE_VAR, SIDE_CLA)
    assert chain.bag(var) == frozenset(range(1, n + 1))
    assert chain.bag(cla) == frozenset(range(n + 1, 2 * n))
    assert chain.edge(var, cla) == RED


def test_tws_round_trip():
    seq = ContractionSequence(((3, 1), (3, 2)), num_vertices=4)
    text = serialize_sequence(seq)
    assert text.splitlines()[0] == "p tws 4 2"
    back = parse_sequence(text)
    assert back.steps == seq.steps
    assert back.num_vertices == 4
    # num_vertices can also be supplied at serialization time
    assert serialize_sequence(ContractionSequence(((3, 1),)), num_vertices=3).startswith(
        "p tws 3 1"
    )
    with pytest.raises(ValueError, match="unknown"):
        serialize_sequence(ContractionSequence(((3, 1),)))
    with pytest.raises(ValueError, match="impossible"):
        serialize_sequence(ContractionSequence(((1, 2), (1, 3))), num_vertices=2)
    # an id above n would write a file that parse_sequence rejects
    with pytest.raises(ValueError, match=r"vertex id 5 out of range 1\.\.2"):
        serialize_sequence(ContractionSequence(((1, 5),)), 2)
    with pytest.raises(ValueError, match=r"vertex id 5 out of range 1\.\.4"):
        serialize_sequence(ContractionSequence(((1, 5),), num_vertices=4))
    text = serialize_sequence(ContractionSequence(((1, 5),)), 5)
    assert parse_sequence(text).steps == ((1, 5),)


@pytest.mark.parametrize(
    "text, match",
    [
        ("1 2\n", "before"),
        ("p tws 3 1\n", "declares"),
        ("p tws 3 0\n1 2\n", "more steps"),
        ("p tws 3 1\n1 1\n", "itself"),
        ("p tws 3 1\n1 7\n", "out of range"),
        ("p tws 3 1\n1\n", "step line"),
        ("p tws 3 2\n1 2\nc note\n1 x\n", "^line 4: non-integer vertex id$"),
        ("p tws 3 9\n", "impossible"),
        ("p tws 3 1\np tws 3 1\n", "duplicate"),
        ("", "missing"),
    ],
)
def test_parse_sequence_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_sequence(text)


def test_random_greedy_sequences_round_trip_and_verify():
    for seed in range(12):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng, max_n=14)
        seq = greedy_sequence(g, bipartite=True)
        report = verify(g, seq, require_bipartite=True)
        assert report.ok and report.bipartite
        assert report.width == seq.declared_width
        back = parse_sequence(serialize_sequence(seq))
        assert back.steps == seq.steps
        assert verify(g, back, require_bipartite=True).width == report.width


def random_sequence_case(rng):
    """Sparse ids, mixed and missing sides, RED input edges, and a random
    sequence that may cross sides and may name an unknown label."""
    ids = sorted(rng.sample(range(1, 60), rng.randint(2, 9)))
    sides = {v: rng.choice((None, SIDE_VAR, SIDE_CLA)) for v in ids}
    edges = []
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if sides[u] is not None and sides[u] == sides[v]:
                continue
            if rng.random() < 0.5:
                edges.append((u, v, rng.choice((POS, NEG, RED))))
    graph = SignedTrigraph(ids, edges, sides)
    labels, gone, steps = list(ids), [], []
    while len(labels) > 1 and rng.random() < 0.9:
        keep, merge = rng.sample(labels, 2)
        if rng.random() < 0.1:
            merge = rng.choice(gone + [61])
        else:
            labels.remove(merge)
            gone.append(merge)
        steps.append((keep, merge))
    return graph, ContractionSequence(tuple(steps))


def test_verify_and_a_grown_log_match_reference_contractions():
    seen = set()
    for seed in range(300):
        graph, seq = random_sequence_case(random.Random(seed))
        for strict in (False, True):
            width, per_step, bipartite, failure, step_ids = reference_verify(graph, seq, strict)
            report = verify(graph, seq, require_bipartite=strict)
            assert (report.width, report.per_step_max_red) == (width, per_step), seed
            assert (report.bipartite and report.ok, report.failure) == (bipartite, failure), seed
            if failure is not None:
                seen.add((strict, failure[1].split()[0]))
        width, per_step, bipartite, failure, step_ids = reference_verify(graph, seq)
        # a log grown one contract at a time tracks every reference snapshot
        grown, last, levels = ContractionLog(graph), graph, [graph]
        for (keep, merge), (x, y, z) in zip(seq.steps, step_ids):
            assert (grown.vertex(keep), grown.vertex(merge)) == (x, y), seed
            last, new = contracted(last, x, y)
            levels.append(last)
            assert grown.contract(keep, merge) == new == z, seed
            assert grown.snapshot() == last, seed
            for v in last.vertices():
                assert grown.red_degree(v) == last.red_degree(v), seed
        # every earlier level, read off the last log by its vertices
        for reference in levels:
            assert grown.snapshot(reference.vertices()) == reference, seed
        assert grown.width == max([graph.max_red_degree(), *per_step]), seed
        if failure is not None:
            with pytest.raises(ValueError) as raised:
                verify(graph, seq).check().snapshot()
            assert str(raised.value) == (
                f"invalid contraction sequence: step {failure[0]}: {failure[1]}"
            ), seed
        else:
            assert verify(graph, seq).check().snapshot() == last, seed
    # both failure kinds occur, the cross-side one only when it is required
    assert seen == {(False, "unknown"), (True, "unknown"), (True, "cross-side")}


def random_red_sided_graph(rng):
    """Random sided graph, each cross edge POS, NEG or RED."""
    graph = random_bipartite_graph(rng, max_n=10, p=0.5)
    edges = [(u, v, RED if rng.random() < 0.3 else kind) for u, v, kind in graph.edges()]
    return SignedTrigraph(graph.vertices(), edges, {v: graph.side(v) for v in graph.vertices()})


def log_state(log):
    """Every data field of a log, with the bag of every vertex it holds
    gathered; its bound lookups must read its own dicts."""
    for v in log._adj:
        log.bag(v)
    state = dict(vars(log))
    for lookup, field in (("side", "_side"), ("label", "_label"), ("red_neighbors", "_red")):
        assert state.pop(lookup).__self__ is state[field]
    return state


def test_undo_restores_the_log_of_the_remaining_prefix():
    undone = 0
    for seed in range(300):
        rng = random.Random(seed)
        graph = random_red_sided_graph(rng)
        log, prefix = ContractionLog(graph), []
        for _ in range(30):
            labels = [log.label(v) for v in log.vertices()]
            if prefix and (len(labels) < 2 or rng.random() < 0.4):
                log.undo()
                prefix.pop()
                undone += 1
            else:
                prefix.append(tuple(rng.sample(labels, 2)))
                log.contract(*prefix[-1])
            fresh = verify(graph, ContractionSequence(tuple(prefix)))
            assert log_state(log) == log_state(fresh), (seed, prefix)
            assert log.sequence() == ContractionSequence(
                tuple(prefix), declared_width=fresh.width, num_vertices=max(graph.vertices())
            ), (seed, prefix)
    assert undone > 1000


def test_log_accessors_after_contract_and_undo_match_a_fresh_replay():
    # side, label and red_neighbors are bound to the log's dicts, so after
    # an undo they must read what undo left there, as every other accessor
    for seed in range(200):
        rng = random.Random(5000 + seed)
        graph = random_red_sided_graph(rng)
        log, prefix = ContractionLog(graph), []
        for _ in range(25):
            labels = [log.label(v) for v in log.vertices()]
            undone = None
            if prefix and (len(labels) < 2 or rng.random() < 0.4):
                undone = log.steps[-1][2]
                log.undo()
                prefix.pop()
            else:
                prefix.append(tuple(rng.sample(labels, 2)))
                log.contract(*prefix[-1])
            fresh = verify(graph, ContractionSequence(tuple(prefix)))
            ever = set(fresh.vertices()).union(*fresh.steps)
            assert set(log.vertices()).union(*log.steps) == ever, (seed, prefix)
            for v in ever:
                assert log.side(v) == fresh.side(v), (seed, prefix, v)
                assert log.label(v) == fresh.label(v), (seed, prefix, v)
                assert log.red_neighbors(v) == fresh.red_neighbors(v), (seed, prefix, v)
                assert log.bag(v) == fresh.bag(v), (seed, prefix, v)
                assert all(log.edge(v, w) == fresh.edge(v, w) for w in ever), (seed, prefix, v)
            for v in fresh.vertices():
                assert log.red_degree(v) == fresh.red_degree(v), (seed, prefix, v)
            assert log.width == fresh.width, (seed, prefix)
            assert log.per_step_max_red == fresh.per_step_max_red, (seed, prefix)
            if undone is not None:
                for lookup in (log.side, log.label, log.red_neighbors):
                    with pytest.raises(KeyError):
                        lookup(undone)


def test_neighbors_at_names_the_neighbours_of_every_level():
    # a log keeps the edges of every vertex it ever held; the referee
    # neighbors_at reads off them the neighbours born by a level and not
    # yet contracted away
    checked = 0
    for seed in range(300):
        graph, seq = random_sequence_case(random.Random(seed))
        log = verify(graph, seq)
        level, levels = graph, [graph]
        for x, y, _z in log.steps:
            level, _ = contracted(level, x, y)
            levels.append(level)
        for i, reference in enumerate(levels):
            for v in reference.vertices():
                nbrs = neighbors_at(log, v, i)
                assert nbrs == set(reference.neighbors(v)), (seed, i, v)
                # neighbors_within holds for a superset of them and fails
                # once any one is left out
                assert log.neighbors_within(v, i, nbrs | {v}), (seed, i, v)
                assert not any(log.neighbors_within(v, i, nbrs - {w}) for w in nbrs), (seed, i, v)
                checked += 1
        # undo takes the last step's deaths back: after another pair merges
        # in its place, the undone pair's survivors are neighbours again
        if len(log.steps) and len(levels[-2].vertices()) > 2:
            x, y, _z = log.steps[-1]
            log.undo()
            before = levels[-2]
            u, w = next((u, w) for u in before.vertices() for w in before.vertices()
                        if u < w and {u, w} != {x, y})
            log.contract(log.label(u), log.label(w))
            after, _ = contracted(before, u, w)
            for v in after.vertices():
                assert neighbors_at(log, v, len(log.steps)) == set(after.neighbors(v)), (seed, v)
                checked += 1
    assert checked > 1000
