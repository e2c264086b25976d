import random
import tracemalloc
import warnings
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_formula,
    random_weights,
    reference_formula_check,
    reference_is_canonical,
    reference_serialize_dimacs,
)
from stww.cnf import (
    Formula,
    FormulaWarning,
    ParseError,
    WeightFunction,
    _is_canonical,
    _weight_value,
    assignment_weight,
    ones,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
)
from stww.sequence import parse_sequence
from stww.trigraph import parse_graph


def test_formula_basics():
    f = Formula(3, (frozenset({1, -2}), frozenset({2, 3})))
    assert f.num_clauses == 2
    assert list(f.variables()) == [1, 2, 3]
    assert f.clauses[0] == (1, -2)


def test_formula_allows_unused_variables_and_empty_clause():
    f = Formula(5, (frozenset(), frozenset({2})))
    assert f.num_vars == 5
    assert () in f.clauses


def test_formula_rejections():
    with pytest.raises(ValueError, match="out of range"):
        Formula(2, (frozenset({3}),))
    with pytest.raises(ValueError, match="complementary"):
        Formula(2, (frozenset({1, -1}),))
    with pytest.raises(ValueError, match="duplicate"):
        Formula(2, (frozenset({1, 2}), frozenset({2, 1})))
    with pytest.raises(ValueError, match="nonnegative"):
        Formula(-1, ())


def random_clause_list(rng):
    """Valid clauses over 1..4, each with a small chance of one defect."""
    clauses = []
    for _ in range(rng.randint(0, 6)):
        clause = {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 5), rng.randint(1, 3))}
        roll = rng.random()
        if roll < 0.04:
            clause.add(0)
        elif roll < 0.08:
            clause.add(rng.choice((5, -5, 9)))
        elif roll < 0.12:
            clause = {1.0, *(lit for lit in clause if abs(lit) != 1)}
        elif roll < 0.16:
            clause.add(True)
        elif roll < 0.20:
            clause.add(-next(iter(clause)))
        elif roll < 0.24 and clauses:
            clause = set(rng.choice(clauses))
        elif roll < 0.27:
            clause = set()
        clauses.append(frozenset(clause))
    return clauses


def test_formula_rejects_exactly_what_the_reference_loop_rejects():
    outcomes = set()
    for seed in range(400):
        clauses = random_clause_list(random.Random(seed))
        try:
            reference_formula_check(4, clauses)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            Formula(4, clauses)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (seed, clauses)
        outcomes.add(expected.split(": ", 1)[1].split()[0] if expected else None)
    # every verdict occurs: accepted, out of range (0, 5, 1.0), complementary, duplicate
    assert outcomes == {None, "literal", "complementary", "duplicate"}


def test_formula_checks_the_type_of_every_literal():
    with pytest.raises(ValueError, match=r"clause 1: literal 1.0 out of range"):
        Formula(2, (frozenset({1}), frozenset({1.0, 2})))
    assert Formula(2, (frozenset({True, 2}),)).num_clauses == 1

    class Literal(IntEnum):
        ONE = 1

    # a literal that only equals an int is stored, and written, as that int
    for clause in ([True, 2], (True, 2), frozenset({True, 2}), [Literal.ONE, 2]):
        f = Formula(2, [clause])
        assert f.clauses == ((1, 2),)
        assert [type(lit) for lit in f.clauses[0]] == [int, int]
        assert serialize_dimacs(f).splitlines()[1] == "1 2 0"
    assert serialize_dimacs(Formula(2, [[True, -2]])).splitlines()[1] == "1 -2 0"


def canonical_case(rng):
    """(num_vars, clauses, defect): distinct clauses, each a tuple sorted by
    variable, so a clause often starts below the one before it, then
    one defect or none."""
    n = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(0, 6)):
        chosen = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        if clause not in clauses:
            clauses.append(clause)
    # one empty clause, at the start, in the middle or at the end
    if rng.random() < 0.4:
        clauses.insert(rng.choice((0, len(clauses) // 2, len(clauses))), ())
    defect = rng.choice(("none", "tie", "descent", "zero", "out of range", "float", "bool",
                         "list", "duplicate"))
    where = [i for i, clause in enumerate(clauses) if len(clause) >= (2 if defect == "descent" else 1)]
    if not where:
        return n, tuple(clauses), "none"
    i = rng.choice(where)
    lits = list(clauses[i])
    j = rng.randrange(len(lits) - (defect == "descent"))
    if defect == "tie":
        lits.insert(j + 1, rng.choice((lits[j], -lits[j])))
    elif defect == "descent":
        lits[j], lits[j + 1] = lits[j + 1], lits[j]
    elif defect == "zero":
        lits[j] = 0
    elif defect == "out of range":
        lits[-1] = rng.choice((n + 1, -(n + 1)))
    elif defect == "float":
        lits[j] = float(lits[j])
    elif defect == "bool":
        # True is the literal 1: in place of ±1, or before a larger variable
        if abs(lits[0]) == 1:
            lits[0] = True
        else:
            lits.insert(0, True)
    if defect == "list":
        clauses[i] = lits
    elif defect == "duplicate":
        clauses.insert(rng.randint(0, len(clauses)), clauses[i])
    else:
        clauses[i] = tuple(lits)
    return n, tuple(clauses), defect


def test_canonical_check_matches_the_reference_predicate():
    seen = set()
    for seed in range(3000):
        n, clauses, defect = canonical_case(random.Random(seed))
        verdict = _is_canonical(clauses, n)
        assert verdict == reference_is_canonical(clauses, n), (seed, clauses)
        assert verdict == (defect == "none"), (seed, defect, clauses)
        if verdict:
            # accepted by the flat pass as it is, not by the sorting fallback
            assert Formula(n, clauses).clauses is clauses
        boundaries = [(a[-1], b[0]) for a, b in zip(clauses, clauses[1:]) if a and b]
        seen.add((defect, () in clauses, any(abs(x) >= abs(y) for x, y in boundaries)))
    # every defect occurs beside an empty clause and beside a clause that
    # starts at or below the variable the clause before it ends with
    for defect in ("none", "tie", "descent", "zero", "out of range", "float", "bool", "list",
                   "duplicate"):
        assert {(defect, True, False), (defect, False, True)} <= seen, defect
    for n, clauses, verdict in (
        (1, (), True),
        (1, ((),), True),
        (1, ((), ()), False),
        (2, ((), (1, 2)), True),
        (2, ((1, 2), (), (1,)), True),
        (2, ((1, 2), ()), True),
        (3, ((3,), (-1, 2)), True),
        (3, ((2, 3), (-2, 3)), True),
        (2, ((1, 1),), False),
        (2, ((1, -1),), False),
        (2, ((2, 1),), False),
        (2, ((1, 2), (-2, -1)), False),
        (2, ((0,),), False),
        (2, ((3,),), False),
        (2, ((-3,),), False),
        (2, ((1.0,),), False),
        (2, ((1.0, 2),), False),
        (2, ((True,),), False),
        (2, ((True, 2),), False),
        (2, ([1, 2],), False),
        (2, ((1,), [1]), False),
    ):
        assert _is_canonical(clauses, n) == reference_is_canonical(clauses, n) == verdict, clauses


@st.composite
def clause_lists(draw):
    """(num_vars, clauses, literal sets): distinct valid clauses, each given
    as a frozenset, list or tuple in any order, lists and tuples with
    repeated literals."""
    n = draw(st.integers(1, 6))
    signs = st.dictionaries(st.integers(1, n), st.booleans(), max_size=n)
    sets = draw(
        st.lists(signs.map(lambda c: frozenset(v if s else -v for v, s in c.items())),
                 unique=True, max_size=8)
    )
    clauses = []
    for lits in sets:
        items = sorted(lits)
        if items:
            items += draw(st.lists(st.sampled_from(items), max_size=3))
        items = draw(st.permutations(items))
        clauses.append(draw(st.sampled_from((frozenset, list, tuple)))(items))
    return n, clauses, sets


def is_canonical(clause):
    return type(clause) is tuple and all(abs(a) < abs(b) for a, b in zip(clause, clause[1:]))


@settings(max_examples=150, deadline=None)
@given(clause_lists(), st.randoms(use_true_random=False))
def test_formula_holds_each_clause_sorted_by_variable(case, rnd):
    n, clauses, sets = case
    f = Formula(n, clauses)
    assert all(map(is_canonical, f.clauses))
    assert list(map(frozenset, f.clauses)) == sets
    permuted = [rnd.sample(list(clause), len(clause)) for clause in clauses]
    assert Formula(n, permuted) == f
    # canonical input is taken as it is, with no second sort
    assert Formula(n, f.clauses).clauses is f.clauses
    # the text is what sorting each literal set by variable wrote before
    old = [f"p cnf {n} {len(sets)}"]
    old += [" ".join(map(str, sorted(frozenset(c), key=abs))) + " 0" for c in clauses]
    text = serialize_dimacs(f)
    assert text == "\n".join(old) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_dimacs(text)[0] == f


@settings(max_examples=150, deadline=None)
@given(clause_lists(), st.data())
def test_formula_rejects_a_sorted_complementary_pair(case, data):
    n, _, sets = case
    clauses = [tuple(sorted(lits, key=abs)) for lits in sets if lits]
    if not clauses:
        clauses = [(n,)]
    idx = data.draw(st.integers(0, len(clauses) - 1))
    clause = clauses[idx]
    pos = data.draw(st.integers(0, len(clause) - 1))
    # -lit right after lit: still sorted by |lit|, but not strictly
    clauses[idx] = clause[: pos + 1] + (-clause[pos],) + clause[pos + 1 :]
    with pytest.raises(ValueError) as expected:
        reference_formula_check(n, clauses)
    with pytest.raises(ValueError) as got:
        Formula(n, clauses)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == f"clause {idx}: complementary pair on variable {abs(clause[pos])}"


def test_formula_clause_form_examples():
    for clause, variable in (((1, -1), 1), ((2, -2, 3), 2), ((-1, 1), 1)):
        with pytest.raises(ValueError, match=f"clause 0: complementary pair on variable {variable}$"):
            Formula(3, (clause,))
    assert Formula(1, ((1, 1),)).clauses == ((1,),)
    assert Formula(3, ([3, -1, 3, 2],)).clauses == ((-1, 2, 3),)
    with pytest.raises(ValueError, match="clause 1: duplicate clause"):
        Formula(3, ((1, 2), [2, 1, 2]))
    # a literal abs() cannot read is named, never sorted
    with pytest.raises(ValueError, match="clause 1: literal 'a' out of range"):
        Formula(3, ((1,), ("a", 2)))


def test_weight_function_defaults_and_equality():
    w = WeightFunction({1: "2/3", -1: 4, 2: Fraction(1, 2)})
    assert w.of(1) == Fraction(2, 3)
    assert w.of(-1) == 4
    assert w.of(2) == Fraction(1, 2)
    assert w.of(-2) == 1
    assert w.of(17) == 1
    assert w == WeightFunction({1: Fraction(2, 3), -1: "4", 2: "0.5"})
    assert w != WeightFunction()
    assert WeightFunction({3: 1}) == WeightFunction()
    with pytest.raises(ValueError):
        WeightFunction({0: 2})


def test_assignment_helpers():
    f = Formula(2, (frozenset({1, 2}),))
    w = WeightFunction({1: 3, -1: 5, 2: 7, -2: 11})
    assert ones({1: 1, 2: 0}) == 1
    assert satisfies(f, {1: 0, 2: 1})
    assert not satisfies(f, {1: 0, 2: 0})
    assert assignment_weight(f, w, {1: 1, 2: 0}) == 33


def test_parse_dimacs_with_weights_and_comments():
    text = """c a comment
p cnf 3 2
c p weight 1 2/3 0
c p weight -2 0.25 0
1 -2 0
2 3 0
"""
    f, w = parse_dimacs(text, name="demo")
    assert f.name == "demo"
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))
    assert w.of(1) == Fraction(2, 3)
    assert w.of(-2) == Fraction(1, 4)
    assert w.of(3) == 1


# read through int: plain integers and a/b with an unsigned nonzero b
FAST_WEIGHT_TOKENS = ["0", "7", "+7", "-7", "007", "2/3", "-2/4", "+10/15", "0/5", "-0/3"]
# handed to Fraction: a signed or zero denominator, underscores, non-ASCII
# digits, decimals, exponents, and malformed tokens
SLOW_WEIGHT_TOKENS = [
    "1/-2", "1/+2", "1/0", "-3/00", "0/0", "1_000", "1_0/3", "3/1_0", "_1", "1__0",
    "\u0661", "\u0663/\u0664", "\u00b2", "1/\u00b2", "0.25", "-.5", "1.", "1e3", "2E-2", "1.5e1/2",
    "", "+", "-", "/", "1/", "/2", "--1", "+-1", "1/2/3", "a", "0x10", "inf", "nan", " 1",
]


@pytest.mark.parametrize("token", FAST_WEIGHT_TOKENS + SLOW_WEIGHT_TOKENS)
def test_weight_tokens_read_as_fraction_reads_them(token):
    # the int path for plain tokens must accept, value and reject exactly
    # as Fraction(token), which reads every other token; so must the file
    def outcome(read, token):
        try:
            value = read(token)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        assert type(value) is Fraction
        return value

    expected = outcome(Fraction, token)
    assert outcome(_weight_value, token) == expected
    text = f"p cnf 1 1\nc p weight 1 {token} 0\n1 0\n"
    if isinstance(expected, Fraction):
        assert parse_dimacs(text)[1].of(1) == expected
    elif token and not token.isspace() and " " not in token:
        with pytest.raises(ParseError, match="bad weight line") as raised:
            parse_dimacs(text)
        assert str(raised.value) == f"line 2: bad weight line: {expected[1]}"


def test_weight_tokens_split_between_the_int_path_and_fraction(monkeypatch):
    # the plain tokens never reach Fraction's string reader, the rest do
    seen = []
    fraction = Fraction

    def watched(*args):
        if len(args) == 1 and isinstance(args[0], str):
            seen.append(args[0])
        return fraction(*args)

    monkeypatch.setattr("stww.cnf.Fraction", watched)
    for token in FAST_WEIGHT_TOKENS + SLOW_WEIGHT_TOKENS:
        try:
            _weight_value(token)
        except (ValueError, ZeroDivisionError):
            pass
    assert seen == SLOW_WEIGHT_TOKENS


def test_parse_dimacs_multiline_and_percent_marker():
    text = "p cnf 3 1\n1\n2 3\n0\n%\nthis is ignored\n"
    f, _ = parse_dimacs(text)
    assert f.clauses == ((1, 2, 3),)


def test_parse_dimacs_normalizations_warn():
    with pytest.warns(FormulaWarning, match="tautological"):
        f, _ = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
    assert f.num_clauses == 1
    with pytest.warns(FormulaWarning, match="duplicate"):
        f, _ = parse_dimacs("p cnf 2 2\n1 2 0\n2 1 0\n")
    assert f.num_clauses == 1
    with pytest.warns(FormulaWarning, match="declares"):
        parse_dimacs("p cnf 2 5\n1 2 0\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("p cnf 2\n1 0\n", "header"),
        ("1 2 0\n", "before"),
        ("p cnf 2 1\n1 2\n", "terminated"),
        ("p cnf 2 1\n1 x 0\n", "bad token"),
        ("p cnf 2 1\n3 0\n", "out of range"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate header"),
        ("p cnf 2 1\nc p weight 0 3 0\n1 0\n", "literal 0"),
        ("p cnf 2 1\nc p weight 5 3 0\n1 0\n", "out of range"),
        ("p cnf 2 1\nc p weight 1 3 1\n1 0\n", "expected"),
        ("p cnf 2 1\nc p weight 1 1/0 0\n1 0\n", "bad weight"),
        ("", "missing"),
    ],
)
def test_parse_dimacs_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "parse, usage",
    [
        (parse_dimacs, "p cnf <vars> <clauses>"),
        (parse_sequence, "p tws <n> <steps>"),
        (parse_graph, "p stg <n> <m>"),
    ],
)
@pytest.mark.parametrize(
    "lines, message",
    [
        (["p {fmt} 2 1", "p {fmt} 2 1"], "line 3: duplicate header"),
        (["p {fmt} 2"], "line 2: expected header '{usage}'"),
        (["p {fmt} 2 1 0"], "line 2: expected header '{usage}'"),
        (["p {fmt} x 1"], "line 2: non-integer counts in header"),
        (["p {fmt} 2 banana"], "line 2: non-integer counts in header"),
        (["p {fmt} -3 0"], "line 2: negative counts in header"),
        (["p {fmt} 2 -3"], "line 2: negative counts in header"),
    ],
)
def test_one_header_rule_for_the_three_line_formats(parse, usage, lines, message):
    fmt = usage.split()[1]
    text = "c the header is on line 2\n" + "".join(line.format(fmt=fmt) + "\n" for line in lines)
    with pytest.raises(ParseError) as raised:
        parse(text)
    assert str(raised.value) == message.format(usage=usage)


def test_parse_dimacs_reads_utf8_bytes():
    text = "c caf\u00e9\np cnf 2 1\n1 -2 0\n"
    assert parse_dimacs(text.encode("utf-8")) == parse_dimacs(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_dimacs("p cnf 2 1\n1 zz 0\n")
    assert info.value.line == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_dimacs_round_trip(seed):
    rng = random.Random(seed)
    f = random_formula(rng, max_vars=8, max_clauses=10)
    w = random_weights(rng, f.num_vars)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, u = parse_dimacs(serialize_dimacs(f, w))
    assert g.num_vars == f.num_vars
    assert g.clauses == f.clauses
    assert u == w


def test_serialize_orders_literals_by_variable_then_sign():
    assert serialize_dimacs(Formula(3, [frozenset({-3, 2, -1})])) == "p cnf 3 1\n-1 2 -3 0\n"
    weights = WeightFunction({-2: Fraction(1, 3), 2: Fraction(2, 3), 1: 5})
    assert serialize_dimacs(Formula(2), weights).splitlines()[1:] == [
        "c p weight 1 5 0",
        "c p weight 2 2/3 0",
        "c p weight -2 1/3 0",
    ]


def test_serialize_rejects_a_weight_out_of_range():
    # such text would not parse back: parse_dimacs rejects the weight line
    f = Formula(2, ((1, -2),))
    for lit in (5, -3):
        with pytest.raises(ValueError, match=f"weight for literal {lit} out of range"):
            serialize_dimacs(f, WeightFunction({lit: Fraction(1, 2)}))
    weights = WeightFunction({2: Fraction(1, 2), -2: 3})
    g, u = parse_dimacs(serialize_dimacs(f, weights))
    assert (g, u) == (f, weights)


@st.composite
def formulas_with_weights(draw):
    """(formula, weights or None): any valid clauses over up to 6 variables,
    the empty clause among them, with unused variables and none at all."""
    n = draw(st.integers(0, 6))
    signs = st.dictionaries(st.integers(1, max(n, 1)), st.booleans(), max_size=n)
    sets = draw(st.lists(signs.map(lambda c: frozenset(v if s else -v for v, s in c.items())),
                         unique=True, max_size=8))
    formula = Formula(n + draw(st.integers(0, 3)), sets)
    literals = [lit for v in formula.variables() for lit in (v, -v)]
    if not literals or draw(st.booleans()):
        return formula, None
    table = draw(st.dictionaries(st.sampled_from(literals),
                                 st.fractions(-3, 3, max_denominator=4), max_size=4))
    return formula, WeightFunction(table)


@settings(max_examples=200, deadline=None)
@given(formulas_with_weights())
def test_serialize_matches_the_per_clause_reference(case):
    f, w = case
    text = serialize_dimacs(f, w)
    assert text == reference_serialize_dimacs(f, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, u = parse_dimacs(text)
    assert g == f and u == (w or WeightFunction())


def test_serialize_edge_cases_match_the_reference():
    weights = WeightFunction({1: 2, -4: Fraction(1, 3)})
    for f, w in (
        (Formula(0), None),
        (Formula(3), None),
        (Formula(4), weights),
        (Formula(4, ((),)), None),
        (Formula(4, ((1, -2), (), (3,))), weights),
    ):
        assert serialize_dimacs(f, w) == reference_serialize_dimacs(f, w)
    assert serialize_dimacs(Formula(2, ((), (2,)))) == "p cnf 2 2\n 0\n2 0\n"
    assert serialize_dimacs(Formula(0)) == "p cnf 0 0\n"


def test_serialize_memory_follows_the_literals_that_occur():
    # the text takes memory for the literals of the clauses, not for each
    # variable the header declares
    f = Formula(10**7, ((1, -2),))
    tracemalloc.start()
    try:
        text = serialize_dimacs(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "p cnf 10000000 1\n1 -2 0\n"
    assert peak < 2**20


def test_serialize_without_weights_has_no_weight_lines():
    f = Formula(2, (frozenset({1, -2}),))
    text = serialize_dimacs(f)
    assert "weight" not in text
    assert text.splitlines()[0] == "p cnf 2 1"
