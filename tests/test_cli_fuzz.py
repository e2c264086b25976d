"""Fuzz gate for the command line: no input ends in a traceback.

Small valid CNF, .stg and .tws files are generated, then truncated or
mutated, and every command runs on them through cli.main (exact runs the
bundled mini solver).  Whatever the input, the exit code must be one of
the documented ones and no exception may escape.  Mutations never lengthen
a number, so a mutated file stays as small as the valid one it came from.
"""

import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stww.bounds import greedy_sequence
from stww.cli import EX_DATA, EX_ENV, EX_INVALID_SEQUENCE, EX_OK, EX_USAGE, main
from stww.cnf import Formula, WeightFunction, parse_dimacs, serialize_dimacs
from stww.generators import SIGN_POLICIES, gen_grid
from stww.sequence import ContractionSequence, serialize_sequence
from stww.trigraph import NEG, POS, RED, SignedTrigraph, incidence_graph, parse_graph, serialize_graph

EXIT_CODES = {EX_OK, EX_INVALID_SEQUENCE, EX_USAGE, EX_DATA, EX_ENV}

# inserted as whole space-separated tokens, so no number grows; "\udcff" is
# written as the byte 0xff, which is not UTF-8
TOKENS = ["p", "cnf", "stg", "tws", "c", "s", "0", "-1", "+", "-", "r", "x", "1/0", "2/3", "0.5",
          "\n", "é", "\x00", "\udcff", "p cnf 1 1", "p stg 2 1", "p tws 2 1"]
# single-character replacements, none of them a digit
CHARS = " \n\t-+/.prscx\x00é"
# greedy width 2 and exact width 2: exact queries the solver at d = 1
GRID = serialize_graph(gen_grid(2, 3))


@st.composite
def cnf_text(draw):
    n = draw(st.integers(1, 4))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    signs = st.dictionaries(st.integers(1, n), st.booleans(), min_size=1, max_size=3)
    clauses = {frozenset(v if s else -v for v, s in c.items()) for c in draw(st.lists(signs, max_size=4))}
    weights = draw(st.dictionaries(literal, st.fractions(-3, 3, max_denominator=3), max_size=2))
    return serialize_dimacs(Formula(n, tuple(clauses)), WeightFunction(weights) if weights else None)


@st.composite
def stg_text(draw):
    n = draw(st.integers(1, 6))
    sides = draw(st.lists(st.sampled_from((0, 1, None)), min_size=n, max_size=n))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if sides[u - 1] is not None and sides[u - 1] == sides[v - 1]:
                continue
            kind = draw(st.sampled_from((None, None, POS, NEG, RED)))
            if kind is not None:
                edges.append((u, v, kind))
    side_map = {v: s for v, s in zip(range(1, n + 1), sides) if s is not None}
    return serialize_graph(SignedTrigraph(range(1, n + 1), edges, side_map))


@st.composite
def tws_text(draw, n):
    if draw(st.booleans()):
        labels = list(range(1, n + 1))
        steps = []
        for _ in range(draw(st.integers(0, max(n - 1, 0)))):
            keep, merge = draw(st.permutations(labels))[:2]
            labels.remove(max(keep, merge))
            steps.append((min(keep, merge), max(keep, merge)))
        return serialize_sequence(ContractionSequence(tuple(steps), num_vertices=n))
    return f"p tws {n} 0\n"


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(("truncate", "delete", "replace", "insert", "drop line")))
        if action == "truncate":
            text = text[:at]
        elif action == "delete":
            text = text[:at] + text[at + 1 :]
        elif action == "replace":
            text = text[:at] + draw(st.sampled_from(CHARS)) + text[at + 1 :]
        elif action == "insert":
            text = f"{text[:at]} {draw(st.sampled_from(TOKENS))} {text[at:]}"
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                del lines[at % len(lines)]
            text = "".join(lines)
    return text


@st.composite
def gen_args(draw, small):
    family = draw(st.sampled_from(("grid", "subclique", "hitset", "partclique", "ksat")))
    listing = st.sampled_from(("1,2", "2", "", "1,,3", "x", "-1", "1,1", "3 4"))
    if family == "grid":
        return ["grid", draw(small), draw(small), "--signs", draw(st.sampled_from(SIGN_POLICIES))]
    if family == "subclique":
        return ["subclique", draw(small)] + draw(st.lists(small, max_size=4))
    if family == "hitset":
        sets = draw(st.lists(listing, min_size=1, max_size=3))
        return ["hitset", "--universe", draw(small), "-k", draw(small)] + [f"--set={x}" for x in sets]
    if family == "partclique":
        parts = draw(st.lists(listing, min_size=1, max_size=3))
        edges = draw(st.lists(listing, max_size=2))
        return ["partclique"] + [f"--part={x}" for x in parts] + [f"--edge={x}" for x in edges]
    return ["ksat", draw(small), draw(small), draw(small), draw(small)]


@st.composite
def invocation(draw):
    """An argv and the files it names, as {name: text}."""
    cnf = draw(cnf_text())
    stg = draw(stg_text())
    source = draw(st.sampled_from(("in.cnf", "in.stg")))
    graph_text = cnf if source == "in.cnf" else stg
    graph = incidence_graph(parse_dimacs(cnf)[0]) if source == "in.cnf" else parse_graph(stg)
    if draw(st.booleans()):
        # the greedy sequence of the unmutated graph, a valid start
        tie_break = draw(st.sampled_from(("smallest", "largest")))
        tws = serialize_sequence(greedy_sequence(graph, tie_break=tie_break), graph.num_vertices)
    else:
        tws = draw(tws_text(graph.num_vertices))
    files = {source: draw(mutated(graph_text)), "cnf.cnf": draw(mutated(cnf)), "seq.tws": draw(mutated(tws))}
    small = st.integers(-1, 4).map(str)
    command = draw(st.sampled_from(("verify", "bipartize", "greedy", "exact", "bwmc", "oracle", "gen")))
    if command == "verify":
        argv = ["verify", source, "seq.tws"] + draw(st.sampled_from(([], ["--bipartite"])))
        if draw(st.booleans()):
            argv += ["--width", draw(small)]
    elif command == "bipartize":
        argv = ["bipartize", source, "seq.tws", "-o", "out.tws"]
    elif command == "greedy":
        argv = ["greedy", source, "--tie-break", draw(st.sampled_from(("smallest", "largest")))]
        argv += draw(st.sampled_from(([], ["--bipartite"])))
    elif command == "exact":
        # 1e9 s is longer than one poll can wait, and NaN is a usage error
        timeout = draw(st.sampled_from(("20", "0", "-1", "1e9", "inf", "nan")))
        argv = ["exact", source, f"--timeout={timeout}", "-o", "out.tws"]
    elif command == "bwmc":
        argv = ["bwmc", "cnf.cnf", "seq.tws", "-k", draw(small)] + draw(st.sampled_from(([], ["--stats"])))
    elif command == "oracle":
        argv = ["oracle", draw(st.sampled_from(("bwmc", "bsat"))), "cnf.cnf", "-k", draw(small)]
    else:
        argv = ["gen"] + draw(gen_args(small)) + ["-o", "out.txt"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files


def _run(argv, files, capsys, solver):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogateescape")
        named = set(files) | {"out.tws", "out.txt"}
        argv = [str(Path(tmp, a)) if a in named else a for a in argv]
        if argv[0] == "exact":
            argv += ["--solver", solver]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.filterwarnings("ignore::stww.cnf.FormulaWarning")
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                                  HealthCheck.too_slow])
@given(invocation())
@example(case=(["exact", "in.stg", "--timeout=inf", "-o", "out.tws"], {"in.stg": GRID}))
@example(case=(["exact", "in.stg", "--timeout=1e9", "-o", "out.tws"], {"in.stg": GRID}))
def test_every_command_exits_with_a_documented_code(capsys, mini_solver_cmd, case):
    argv, files = case
    code, _out, err = _run(argv, files, capsys, shlex.join(mini_solver_cmd))
    assert code in EXIT_CODES, (argv, files, code, err)
    assert "Traceback" not in err, (argv, files, err)
    if code in (EX_DATA, EX_ENV):
        assert err.startswith("stww: "), (argv, files, err)

