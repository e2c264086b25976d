import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_formula, random_weights
from stww.cnf import Formula, WeightFunction, assignment_weight, ones, satisfies
from stww.oracle import bsat_oracle, bwmc_oracle


def test_single_or_clause_counts():
    f = Formula(2, (frozenset({1, 2}),))
    unit = WeightFunction()
    assert bwmc_oracle(f, unit, 0) == 0
    assert bwmc_oracle(f, unit, 1) == 2
    assert bwmc_oracle(f, unit, 2) == 3


def test_weighted_counts_with_zero_and_negative_weights():
    f = Formula(2, (frozenset({1, 2}),))
    w = WeightFunction({1: Fraction(1, 3), 2: -2, -1: 1, -2: 1})
    # models: 10, 01, 11
    assert bwmc_oracle(f, w, 1) == Fraction(1, 3) - 2
    assert bwmc_oracle(f, w, 2) == Fraction(1, 3) - 2 + Fraction(1, 3) * -2
    zeroed = WeightFunction({1: 0})
    assert bwmc_oracle(f, zeroed, 2) == 1  # only 01 contributes


def test_edge_formulas():
    empty = Formula(0, ())
    assert bwmc_oracle(empty, WeightFunction(), 0) == 1  # one empty assignment
    assert bsat_oracle(empty, 0)
    contradiction = Formula(2, (frozenset(),))
    assert bwmc_oracle(contradiction, WeightFunction(), 2) == 0
    assert not bsat_oracle(contradiction, 2)
    unconstrained = Formula(2, ())
    assert bwmc_oracle(unconstrained, WeightFunction(), 1) == 3
    assert bsat_oracle(unconstrained, 0)


def test_input_guards(monkeypatch):
    f = Formula(1, ())
    with pytest.raises(ValueError):
        bwmc_oracle(f, WeightFunction(), -1)
    with pytest.raises(ValueError):
        bsat_oracle(f, -1)
    wide = Formula(25, ())
    # the guard counts the sets of ones before it weighs a single assignment
    monkeypatch.setattr(WeightFunction, "of", lambda self, literal: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match="refuses"):
        bwmc_oracle(wide, WeightFunction(), 25)  # 2^25 sets of ones
    monkeypatch.undo()
    assert bwmc_oracle(wide, WeightFunction(), 1) == 26  # the empty set and 25 singletons


def brute_count(formula, weights, k):
    total = Fraction(0)
    for bits in product((0, 1), repeat=formula.num_vars):
        assignment = dict(zip(formula.variables(), bits))
        if ones(assignment) <= k and satisfies(formula, assignment):
            total += assignment_weight(formula, weights, assignment)
    return total


def test_oracles_match_direct_enumeration():
    for seed in range(30):
        rng = random.Random(seed)
        f = random_formula(rng, max_vars=7, max_clauses=9)
        w = random_weights(rng, f.num_vars)
        k = rng.randint(0, f.num_vars)
        expected = brute_count(f, w, k)
        assert bwmc_oracle(f, w, k) == expected
        positive = brute_count(f, WeightFunction(), k)
        assert bsat_oracle(f, k) == (positive > 0)
    # clause widths 2-4 with zero and negative weights, at every budget up
    # to one past the number of variables
    for seed in range(100):
        rng = random.Random(seed)
        f = random_formula(rng, max_vars=10, max_clauses=12, widths=(2, 3, 4))
        w = random_weights(rng, f.num_vars, zeros=True, negatives=True)
        for k in range(f.num_vars + 2):
            assert bwmc_oracle(f, w, k) == brute_count(f, w, k), (seed, k)


def test_bwmc_monotone_in_k_for_nonnegative_weights():
    for seed in range(12):
        rng = random.Random(1000 + seed)
        f = random_formula(rng, max_vars=6, max_clauses=8)
        w = random_weights(rng, f.num_vars, negatives=False)
        values = [bwmc_oracle(f, w, k) for k in range(f.num_vars + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_bsat_monotone_in_k():
    for seed in range(12):
        rng = random.Random(2000 + seed)
        f = random_formula(rng, max_vars=7, max_clauses=9)
        answers = [bsat_oracle(f, k) for k in range(f.num_vars + 1)]
        assert all(b or not a for a, b in zip(answers, answers[1:]))


def implication_chain(n):
    """(¬x_i ∨ x_{i+1}) for i < n: all-zero is a model, and x1 = 1 forces all n ones."""
    return Formula(n, tuple(frozenset({-i, i + 1}) for i in range(1, n)))


def test_bsat_searches_past_the_recursion_limit():
    n = 1100
    chain = implication_chain(n)
    assert bsat_oracle(chain, 0)
    pinned = Formula(n, chain.clauses + (frozenset({1}),))
    assert not bsat_oracle(pinned, n - 1)
    assert bsat_oracle(pinned, n)
