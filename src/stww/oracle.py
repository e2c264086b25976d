"""Brute-force reference answers for bounded-ones model counting.

These exist to check the dynamic-programming engine, so they share no code
with it: bwmc_oracle walks the sets of at most k variables set to 1, depth
first with incremental clause-satisfaction counters, and bsat_oracle is a
separate branching search with budget pruning.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .cnf import Formula, WeightFunction

# Enumerating more sets of ones than this is not worth waiting for.
MAX_ORACLE_SETS = 1 << 24


def bwmc_oracle(formula: Formula, weights: WeightFunction, k: int) -> Fraction:
    """Sum of assignment weights over models with at most k ones.

    Visits the sum over i <= min(k, n) of C(n, i) sets of variables set to
    1, depth first from the all-zero assignment, setting variables to 1 in
    increasing order.  Each clause's count of true literals and the number
    of unsatisfied clauses follow every flip and its undo, and the weight
    product is computed only for assignments that are counted.  Refuses
    more than MAX_ORACLE_SETS sets before any work.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = formula.num_vars
    # no need to sum past i = 25: 25 ones among n >= 25 variables already
    # make more than 2^24 sets, so the search is never deeper than 24
    if sum(comb(n, i) for i in range(min(k, n, 25) + 1)) > MAX_ORACLE_SETS:
        raise ValueError(f"oracle refuses to visit more than {MAX_ORACLE_SETS} sets "
                         f"of at most {k} ones among {n} variables")

    # positive[v] and negative[v] list the clauses where v occurs as v and
    # as -v, so setting v to 1 makes a literal true in the first and false
    # in the second
    positive: list[list[int]] = [[] for _ in range(n + 1)]
    negative: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, clause in enumerate(formula.clauses):
        for lit in clause:
            (positive if lit > 0 else negative)[abs(lit)].append(idx)
    true_count = [sum(1 for lit in clause if lit < 0) for clause in formula.clauses]
    unsat = true_count.count(0)
    bits = [0] * (n + 1)
    total = Fraction(0)

    def visit(first: int, ones_left: int) -> None:
        # the variables from first on are all 0
        nonlocal total, unsat
        if unsat == 0:
            total += prod(weights.of(v if bits[v] else -v) for v in range(1, n + 1))
        if ones_left:
            for v in range(first, n + 1):
                bits[v] = 1
                for idx in positive[v]:
                    unsat -= not true_count[idx]
                    true_count[idx] += 1
                for idx in negative[v]:
                    true_count[idx] -= 1
                    unsat += not true_count[idx]
                visit(v + 1, ones_left - 1)
                for idx in positive[v]:
                    true_count[idx] -= 1
                    unsat += not true_count[idx]
                for idx in negative[v]:
                    unsat -= not true_count[idx]
                    true_count[idx] += 1
                bits[v] = 0

    visit(1, min(k, n))
    return total


def bsat_oracle(formula: Formula, k: int) -> bool:
    """True iff some model of the formula sets at most k variables to 1.

    Branches on the literals of the first not-yet-satisfied clause, negative
    literals first; a branch dies when a clause has every literal assigned
    false or when satisfying a positive literal would exceed the ones
    budget.  Unassigned variables default to 0, which never spends budget.
    The search keeps its branch points on an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    assignment: dict[int, int] = {}
    used = 0
    # one frame per branch point: its untried literals and the one now set
    frames: list[list] = []
    while True:
        free = _first_open_clause(formula.clauses, assignment)
        if free == []:
            return True
        if free is not None:
            frames.append([iter(sorted(free, key=lambda l: l > 0)), None])
        lit = None
        while frames and lit is None:
            untried, tried = frames[-1]
            if tried is not None:
                del assignment[abs(tried)]
                used -= tried > 0
            lit = next((l for l in untried if used + (l > 0) <= k), None)
            if lit is None:
                frames.pop()
        if lit is None:
            return False
        frames[-1][1] = lit
        assignment[abs(lit)] = 1 if lit > 0 else 0
        used += lit > 0


def _first_open_clause(clauses, assignment: dict[int, int]) -> list[int] | None:
    """The free literals of the first clause the assignment leaves open:
    None when some clause has every literal false, [] when none is open."""
    target_free: list[int] | None = None
    for clause in clauses:
        free: list[int] = []
        for lit in clause:
            value = assignment.get(abs(lit))
            if value is None:
                free.append(lit)
            elif (lit > 0) == bool(value):
                break
        else:
            if not free:
                return None
            if target_free is None:
                target_free = free
    return [] if target_free is None else target_free
