"""Brute-force reference answers for bounded-ones model counting.

These exist to check the dynamic-programming engine, so they share no code
with it: bwmc_oracle enumerates assignments in Gray-code order with
incremental clause-satisfaction counters, and bsat_oracle is a separate
branching search with budget pruning.
"""

from __future__ import annotations

from fractions import Fraction

from .cnf import Formula, WeightFunction

# Full enumeration above this many variables is not worth waiting for.
MAX_ORACLE_VARS = 24


def bwmc_oracle(formula: Formula, weights: WeightFunction, k: int) -> Fraction:
    """Sum of assignment weights over models with at most k ones.

    Enumerates all 2^n assignments via Gray code, maintaining per-clause
    counts of currently-true literals, and recomputes the weight product
    only for assignments that are counted.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = formula.num_vars
    if n > MAX_ORACLE_VARS:
        raise ValueError(f"oracle refuses {n} > {MAX_ORACLE_VARS} variables")

    # touched[v] lists (clause index, sign) for each occurrence of variable v.
    touched: dict[int, list[tuple[int, int]]] = {v: [] for v in formula.variables()}
    for idx, clause in enumerate(formula.clauses):
        for lit in clause:
            touched[abs(lit)].append((idx, 1 if lit > 0 else -1))

    bits = [0] * (n + 1)
    sat_count = [sum(1 for lit in clause if lit < 0) for clause in formula.clauses]
    num_unsat = sum(1 for count in sat_count if count == 0)
    ones_count = 0

    def current_weight() -> Fraction:
        total = Fraction(1)
        for v in range(1, n + 1):
            total *= weights.of(v if bits[v] else -v)
        return total

    total = Fraction(0)
    if num_unsat == 0 and ones_count <= k:
        total += current_weight()
    for step in range(1, 1 << n):
        v = (step & -step).bit_length()  # variable to flip, 1-based
        new_value = bits[v] ^ 1
        bits[v] = new_value
        ones_count += 1 if new_value else -1
        for idx, sign in touched[v]:
            gained = (sign > 0) == bool(new_value)
            before = sat_count[idx]
            sat_count[idx] = before + (1 if gained else -1)
            if gained and before == 0:
                num_unsat -= 1
            elif not gained and before == 1:
                num_unsat += 1
        if num_unsat == 0 and ones_count <= k:
            total += current_weight()
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
