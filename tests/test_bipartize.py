import random

import pytest

from helpers import random_bipartite_graph, reference_bipartize
from stww.bipartize import BipartizationResult, bipartize
from stww.bounds import greedy_sequence
from stww.generators import gen_grid
from stww.sequence import ContractionSequence, verify
from stww.trigraph import NEG, POS, SignedTrigraph


def test_cross_side_step_splits_into_halves():
    g = SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 3, POS), (1, 4, POS), (2, 3, NEG)],
        sides={1: 0, 2: 0, 3: 1, 4: 1},
    )
    # a single cross-side contraction: output needs no step at all yet
    result = bipartize(g, ContractionSequence(((1, 3),)))
    assert len(result.seq) == 0
    assert result.output_width <= result.input_width + 2

    # the full unrestricted greedy sequence
    seq = greedy_sequence(g)
    result = bipartize(g, seq)
    report = verify(g, result.seq, require_bipartite=True)
    assert report.ok and report.is_bipartite_sequence
    assert report.width == result.output_width
    assert result.output_width <= result.input_width + 2
    assert len(result.seq) <= 2 * len(seq)


def test_same_side_steps_pass_through():
    g = SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 3, POS), (2, 3, POS), (2, 4, NEG)],
        sides={1: 0, 2: 0, 3: 1, 4: 1},
    )
    seq = ContractionSequence(((1, 2), (3, 4)))
    result = bipartize(g, seq)
    assert result.seq.steps == seq.steps
    assert result.index_map == {0: 0, 1: 1}
    assert result.doubled_steps == frozenset()


def test_index_map_marks_double_steps():
    rng = random.Random(3)
    g = random_bipartite_graph(rng, max_n=12)
    seq = greedy_sequence(g)
    result = bipartize(g, seq)
    values = [result.index_map[i] for i in range(len(result.seq))]
    assert values == sorted(values)
    assert set(values) <= set(range(len(seq)))
    for i in result.doubled_steps:
        assert result.index_map[i] == result.index_map[i + 1]
    # every input index appears at most twice, twice exactly for doubles
    for idx in set(values):
        count = values.count(idx)
        assert count in (1, 2)


def test_doubled_steps_are_exactly_the_repeated_input_indices():
    doubles = 0
    for seed in range(30):
        g = random_bipartite_graph(random.Random(seed), max_n=14)
        for tie_break in ("smallest", "largest"):
            result = bipartize(g, greedy_sequence(g, tie_break=tie_break))
            index_map = result.index_map
            repeated = {i for i in index_map if index_map[i] == index_map.get(i + 1)}
            assert result.doubled_steps == repeated, (seed, tie_break)
            doubles += len(repeated)
    assert doubles > 0


def test_matches_reference_transform():
    cases = []
    for seed in range(200):
        g = random_bipartite_graph(random.Random(seed))
        cases += [(g, greedy_sequence(g, tie_break=tie)) for tie in ("smallest", "largest")]
    for side in range(3, 8):
        g = gen_grid(2, side, "random", seed=side)
        cases.append((g, greedy_sequence(g)))
    doubles = 0
    for g, seq in cases:
        steps, index_map, doubled, input_width, output_width = reference_bipartize(g, seq)
        result = bipartize(g, seq)
        assert result.seq == ContractionSequence(steps, num_vertices=max(g.vertices()))
        assert result.index_map == index_map
        assert result.doubled_steps == doubled
        assert (result.input_width, result.output_width) == (input_width, output_width)
        doubles += len(doubled)
    assert doubles > 0


def test_requires_sides():
    g = SignedTrigraph([1, 2], [(1, 2, POS)])
    with pytest.raises(ValueError, match="side"):
        bipartize(g, ContractionSequence(((1, 2),)))


def test_random_graphs_meet_width_and_length_bounds():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng, max_n=16)
        seq = greedy_sequence(g)  # unrestricted
        result = bipartize(g, seq)
        report = verify(g, result.seq, require_bipartite=True)
        assert report.ok
        assert report.width <= seq.declared_width + 2
        assert len(result.seq) <= 2 * len(seq)
        # output is maximal whenever the input was: one vertex per side
        assert len(result.seq) == g.num_vertices - 2
