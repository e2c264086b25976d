"""Weighted CNF formulas: DIMACS parsing, assignment weights, satisfaction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice
from operator import itemgetter, lt, mod
from typing import Iterator, Mapping

# An assignment is a total map variable -> {0, 1}.
Assignment = Mapping[int, int]
# A clause is a tuple of distinct literals sorted by variable (see Formula).
Clause = tuple[int, ...]

_ONE = Fraction(1)


class ParseError(ValueError):
    """Malformed input, with the offending 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def token_lines(text: str | bytes) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of each line that holds a token, the
    reader of the three line formats (.cnf, .tws, .stg); bytes are decoded
    as UTF-8."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return filter(itemgetter(1), enumerate(map(str.split, text.splitlines()), 1))


def header_counts(fields: list[str], line: int, usage: str, seen: bool) -> tuple[int, int]:
    """The two counts of a problem line, which must read as usage, such as
    'p cnf <vars> <clauses>', with two nonnegative integers; seen says a
    problem line came before."""
    if seen:
        raise ParseError("duplicate header", line)
    if len(fields) != 4 or fields[1] != usage.split()[1]:
        raise ParseError(f"expected header '{usage}'", line)
    try:
        counts = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError("non-integer counts in header", line) from None
    if min(counts) < 0:
        raise ParseError("negative counts in header", line)
    return counts


class FormulaWarning(UserWarning):
    """Non-fatal input normalization, e.g. a dropped tautological clause."""


def _literal_key(lit: int) -> tuple[int, bool]:
    return (abs(lit), lit < 0)


def _is_canonical(clauses: tuple, num_vars: int) -> bool:
    """True iff every clause is a tuple of int literals in range, strictly
    increasing in |lit| (so with no repeat and no complementary pair), and
    no two clauses are equal.

    One flat pass: |lit| < |next| is read for every adjacent pair of the
    concatenated clauses, and `compress` keeps the pairs that lie inside a
    clause, selected by one byte pattern per clause length; neither stream
    is buffered.  Reads anything without raising.
    """
    if not set(map(type, clauses)) <= {tuple}:
        return False
    # the type check reads every literal: 1.0 == 1 would pass the rest
    if not set(map(type, chain.from_iterable(clauses))) <= {int}:
        return False
    # before the literal list exists, so the two never take memory at once
    if len(set(clauses)) != len(clauses):
        return False
    keys = list(map(abs, chain.from_iterable(clauses)))
    if keys and not (0 < min(keys) and max(keys) <= num_vars):
        return False
    # 1 at each literal but a clause's last: the pair it starts must rise
    pattern = {k: b"\x01" * (k - 1) + b"\x00" if k else b"" for k in set(map(len, clauses))}
    inside = chain.from_iterable(map(pattern.__getitem__, map(len, clauses)))
    return all(compress(map(lt, keys, islice(keys, 1, None)), inside))


def _sorted_clauses(sets: tuple[frozenset[int], ...]) -> tuple[Clause, ...]:
    """Each checked set as its plain-int literals sorted by variable, so a
    bool or an IntEnum literal is stored, and written, as the int it equals."""
    return tuple(tuple(sorted(map(int, clause), key=abs)) for clause in sets)


def _check_clauses(sets: tuple[frozenset[int], ...], num_vars: int) -> None:
    """The per-literal loop: raise the ValueError of the first bad clause."""
    seen: set[frozenset[int]] = set()
    for idx, clause in enumerate(sets):
        for lit in clause:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"clause {idx}: literal {lit!r} out of range")
            if -lit in clause:
                raise ValueError(f"clause {idx}: complementary pair on variable {abs(lit)}")
        if clause in seen:
            raise ValueError(f"clause {idx}: duplicate clause")
        seen.add(clause)


@dataclass(frozen=True)
class Formula:
    """A CNF formula over variables 1..num_vars.

    Each clause is a tuple of distinct nonzero literals sorted by variable,
    the order DIMACS text writes them in: the literal v stands for the
    variable v, -v for its negation.  The order is total, because a
    complementary pair is rejected: a tautology is an error here, never
    dropped (`parse_dimacs` drops one with a warning).  Enforced
    invariants: every literal's variable lies in [1, num_vars], no clause
    contains a complementary pair, and no two clauses are equal as literal
    sets.  Variables occurring in no clause are allowed.

    Any iterables of literals are accepted.  Input already in that form is
    accepted by one flat pass over its literals, with no sort.  Otherwise
    each clause is read as a set (repeated literals collapse), the
    per-literal loop checks the sets and names the first bad clause, and
    each set is then sorted, its literals stored as plain ints (a bool
    True is stored as 1).
    """

    num_vars: int
    clauses: tuple[Clause, ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clauses = tuple(self.clauses)
        if not _is_canonical(clauses, self.num_vars):
            sets = tuple(map(frozenset, clauses))
            _check_clauses(sets, self.num_vars)
            clauses = _sorted_clauses(sets)
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def variables(self) -> range:
        return range(1, self.num_vars + 1)


class WeightFunction:
    """Exact rational weight per literal, defaulting to 1.

    of(v) weighs the variable v being assigned 1, of(-v) weighs it being
    assigned 0.  Values may be zero or negative.
    """

    __slots__ = ("_by_literal",)

    def __init__(self, weights: Mapping[int, Fraction | int | str] | None = None) -> None:
        table: dict[int, Fraction] = {}
        for lit, value in (weights or {}).items():
            lit = int(lit)
            if lit == 0:
                raise ValueError("0 is not a literal")
            table[lit] = value if type(value) is Fraction else Fraction(value)
        self._by_literal = table

    def of(self, literal: int) -> Fraction:
        return self._by_literal.get(literal, _ONE)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Explicitly set (literal, weight) pairs in canonical order."""
        return iter(sorted(self._by_literal.items(), key=lambda kv: _literal_key(kv[0])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        keys = set(self._by_literal) | set(other._by_literal)
        return all(self.of(key) == other.of(key) for key in keys)

    def __repr__(self) -> str:
        body = ", ".join(f"{lit}: {w}" for lit, w in self.items())
        return f"WeightFunction({{{body}}})"


def ones(assignment: Assignment) -> int:
    """Number of variables the assignment sets to 1."""
    return sum(1 for value in assignment.values() if value)


def assignment_weight(
    formula: Formula, weights: WeightFunction, assignment: Assignment
) -> Fraction:
    """Product of the selected literal weights over all variables."""
    total = _ONE
    for v in formula.variables():
        total *= weights.of(v if assignment[v] else -v)
    return total


def satisfies(formula: Formula, assignment: Assignment) -> bool:
    """True iff every clause contains a literal the assignment makes true."""
    for clause in formula.clauses:
        for lit in clause:
            if (lit > 0) == bool(assignment[abs(lit)]):
                break
        else:
            return False
    return True


def parse_dimacs(text: str | bytes, name: str | None = None) -> tuple[Formula, WeightFunction]:
    """Parse a DIMACS CNF file, with optional ``c p weight <lit> <w> 0`` lines.

    Tautological clauses are dropped and duplicate clauses merged, each with a
    FormulaWarning.  Weights absent from the file default to 1; the weight
    token may be an integer, a fraction like ``2/3``, or a decimal string.

    Returns:
        (formula, weights)

    Raises:
        ParseError: on a malformed header, a bad token, a literal out of
            range, or a clause missing its 0 terminator.
    """
    num_vars: int | None = None
    declared_clauses = 0
    weight_entries: list[tuple[int, Fraction, int]] = []
    raw_clauses: list[tuple[list[int], int]] = []
    pending: list[int] = []
    pending_line = 0
    lineno = 0

    for lineno, fields in token_lines(text):
        if fields == ["%"]:
            # SATLIB-style end marker; ignore anything after it.
            break
        if fields[0][0] == "c":
            if fields[:3] == ["c", "p", "weight"]:
                if len(fields) != 6 or fields[5] != "0":
                    raise ParseError("expected 'c p weight <lit> <weight> 0'", lineno)
                try:
                    lit = int(fields[3])
                    value = Fraction(fields[4])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad weight line: {exc}", lineno) from None
                if lit == 0:
                    raise ParseError("weight for literal 0", lineno)
                weight_entries.append((lit, value, lineno))
            continue
        if fields[0] == "p":
            num_vars, declared_clauses = header_counts(
                fields, lineno, "p cnf <vars> <clauses>", num_vars is not None
            )
            continue
        if num_vars is None:
            raise ParseError("clause data before 'p cnf' header", lineno)
        for token in fields:
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad token {token!r}", lineno) from None
            if lit == 0:
                raw_clauses.append((pending, pending_line or lineno))
                pending = []
                pending_line = 0
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} out of range", lineno)
                if not pending:
                    pending_line = lineno
                pending.append(lit)

    if num_vars is None:
        raise ParseError("missing 'p cnf' header", max(lineno, 1))
    if pending:
        raise ParseError("clause not terminated by 0", pending_line)
    if len(raw_clauses) != declared_clauses:
        warnings.warn(
            f"header declares {declared_clauses} clauses, file has {len(raw_clauses)}",
            FormulaWarning,
            stacklevel=2,
        )

    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for lits, line in raw_clauses:
        unique = set(lits)
        if len(set(map(abs, unique))) < len(unique):
            warnings.warn(
                f"line {line}: tautological clause dropped", FormulaWarning, stacklevel=2
            )
            continue
        clause = tuple(sorted(unique, key=abs))
        if clause in seen:
            warnings.warn(
                f"line {line}: duplicate clause dropped", FormulaWarning, stacklevel=2
            )
            continue
        seen.add(clause)
        clauses.append(clause)

    table: dict[int, Fraction] = {}
    for lit, value, line in weight_entries:
        if abs(lit) > num_vars:
            raise ParseError(f"weight for literal {lit} out of range", line)
        table[lit] = value

    return Formula(num_vars, tuple(clauses), name), WeightFunction(table)


def serialize_dimacs(formula: Formula, weights: WeightFunction | None = None) -> str:
    """Render a formula (and optional weights) as DIMACS text.

    Raises:
        ValueError: if a weight names a variable above ``formula.num_vars``,
            which `parse_dimacs` would reject.
    """
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    if weights is not None:
        for lit, value in weights.items():
            if abs(lit) > formula.num_vars:
                raise ValueError(
                    f"weight for literal {lit} out of range for {formula.num_vars} variables"
                )
            lines.append(f"c p weight {lit} {value} 0")
    # a clause already holds its literals, plain ints, in DIMACS order, so
    # one format per clause length writes it: "%d %d 0", and " 0" for the
    # empty clause.  The final "" ends the text with a newline
    clauses = formula.clauses
    lengths = list(map(len, clauses))
    line_of = {k: " ".join(["%d"] * k) + " 0" for k in set(lengths)}
    lines += map(mod, map(line_of.__getitem__, lengths), clauses)
    lines.append("")
    return "\n".join(lines)
