import hashlib
import random
import sys
from math import comb, nan

import pytest

from helpers import random_bipartite_graph, reference_serialize_dimacs
from stww.bounds import exact_tww_bruteforce, greedy_sequence
import stww.cnf
from stww.cnf import _is_canonical, serialize_dimacs
from stww.encoding import (
    DecodeError,
    SolverError,
    SolverUnavailableError,
    _encode_prefix,
    decode,
    encode,
    exact_tww_via_solver,
    run_solver,
)
from stww.generators import gen_random_ksat
from stww.sequence import verify
from stww.trigraph import NEG, POS, RED, SignedTrigraph, incidence_graph


def two_by_two():
    return SignedTrigraph(
        [1, 2, 3, 4],
        [(1, 3, POS), (1, 4, NEG), (2, 3, NEG), (2, 4, POS)],
        sides={1: 0, 2: 0, 3: 1, 4: 1},
    )


def test_encode_guards():
    with pytest.raises(ValueError, match="side"):
        encode(SignedTrigraph([1, 2], [(1, 2, POS)]), 1)
    red = SignedTrigraph([1, 2], [(1, 2, RED)], sides={1: 0, 2: 1})
    with pytest.raises(ValueError, match="red-free"):
        encode(red, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        encode(two_by_two(), -1)


def test_encoding_text_is_pinned():
    # the pin holds the clause order, d = 0's one unit clause per red
    # variable included, and the literal order within each line
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        graph = incidence_graph(gen_random_ksat(4, 3, 6, seed))
        for d in range(4):
            artifact = encode(graph, d)
            digest.update(serialize_dimacs(artifact.cnf).encode())
            # transitivity is the only rule over order variables alone
            order = set(artifact.order_vars.values())
            transitivity = [
                clause for clause in artifact.cnf.clauses
                if all(abs(lit) in order for lit in clause)
            ]
            assert len(transitivity) == 2 * comb(graph.num_vertices, 3)
    assert digest.hexdigest() == "528d78efe95dc511ba0939630a05472c9b1a829c00693b3f7ba3760748bf5fd8"


def test_encoding_text_is_pinned_at_the_benchmark_shape():
    # V = 14, the shape of the benchmark's widths workload
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        graph = incidence_graph(gen_random_ksat(5, 3, 9, seed))
        for d in range(4):
            digest.update(serialize_dimacs(encode(graph, d).cnf).encode())
    assert digest.hexdigest() == "a725b726ae3b30841770db3511c1d16f4ea0676357f3ff7edbfe587042ff1c19"


def test_encoding_clauses_are_literal_tuples(monkeypatch):
    # every rule writes its clause sorted by variable and the builder keeps
    # it as written, so Formula accepts the clauses in its one flat pass and
    # never reaches the per-literal loop.  V = 14 is the benchmark's shape;
    # the last two graphs have a side with one vertex, which has no parent
    def per_literal_loop(sets, num_vars):
        raise AssertionError("Formula fell back to its per-literal loop")

    monkeypatch.setattr(stww.cnf, "_check_clauses", per_literal_loop)
    for ksat in ((5, 3, 9, 1), (5, 3, 9, 2), (5, 3, 9, 3), (4, 3, 6, 2), (3, 2, 1, 1), (1, 1, 1, 1)):
        graph = incidence_graph(gen_random_ksat(*ksat))
        sides = [[v for v in graph.vertices() if graph.side(v) == side] for side in (0, 1)]
        assert any(len(side) == 1 for side in sides) == (ksat[2] == 1)
        prefix = _encode_prefix(graph)
        # the red variables are one contiguous block, last in the prefix
        reds = {var for t in prefix.red_of.values() for by_c in t.values() for var in by_c.values()}
        assert reds == set(prefix.reds) and prefix.reds.stop == prefix.count + 1
        for d in range(4):
            artifact = prefix.finish(d)
            clauses = artifact.cnf.clauses
            assert all(type(clause) is tuple for clause in clauses)
            assert _is_canonical(clauses, artifact.cnf.num_vars)
            assert artifact.cnf == encode(graph, d).cnf
            if ksat == (5, 3, 9, 1) and d == 3:
                assert len(clauses) == 19412
            if d == 0:
                # no red edge at all: one unit clause per red variable, in
                # the block's order, and no counter variable
                assert clauses[len(prefix.clauses):] == tuple((-var,) for var in prefix.reds)
                assert artifact.cnf.num_vars == prefix.count
            for side in sides:
                if len(side) == 1:
                    assert all(u != side[0] for u, _ in artifact.parent_vars)


def test_finish_leaves_the_prefix_as_it_is():
    # one prefix serves every d, in any order; the digest is of the texts
    # the encoder wrote when each d had a copy of the prefix of its own
    graph = incidence_graph(gen_random_ksat(4, 3, 6, 2))
    prefix = _encode_prefix(graph)
    count, clauses = prefix.count, prefix.clauses
    digest = hashlib.sha256()
    for d in (3, 0, 2, 1, 3):
        text = serialize_dimacs(prefix.finish(d).cnf)
        assert text == serialize_dimacs(encode(graph, d).cnf)
        assert prefix.count == count and prefix.clauses == clauses
        digest.update(text.encode())
    assert digest.hexdigest() == "837a3a82995e23a753154eebae629e85b82419782f6c08a3d6b27880b16ecc00"


def one_large_side(seed, large=21):
    """A sided graph with `large` vertices on one side and 2 on the other,
    every cross pair joined by a random sign: the `last` and `parent`
    rules then write clauses of up to large + 1 literals."""
    rng = random.Random(seed)
    small = [large + 1, large + 2]
    edges = [(u, v, rng.choice((POS, NEG))) for u in range(1, large + 1) for v in small]
    sides = {v: int(v in small) for v in range(1, large + 3)}
    return SignedTrigraph(list(range(1, large + 3)), edges, sides=sides)


def test_serialized_encoding_matches_the_per_clause_reference():
    # each clause length has its own line format; lengths run from the
    # unit clauses of d = 0 and d >= 2 to past 20 literals
    graph = one_large_side(1)
    lengths = set()
    for d in range(4):
        cnf = encode(graph, d).cnf
        lengths.update(map(len, cnf.clauses))
        assert serialize_dimacs(cnf) == reference_serialize_dimacs(cnf)
    assert min(lengths) == 1 and max(lengths) > 20


def test_run_solver_parses_competition_output(tmp_path):
    sat = tmp_path / "sat.sh"
    sat.write_text("#!/bin/sh\necho 'c hello'\necho 's SATISFIABLE'\necho 'v 1 -2 0'\n")
    sat.chmod(0o755)
    status, lits = run_solver("p cnf 2 1\n1 0\n", str(sat))
    assert status == "sat" and lits == {1, -2}

    unsat = tmp_path / "unsat.sh"
    unsat.write_text("#!/bin/sh\necho 's UNSATISFIABLE'\n")
    unsat.chmod(0o755)
    assert run_solver("p cnf 1 0\n", str(unsat))[0] == "unsat"

    unknown = tmp_path / "unknown.sh"
    unknown.write_text("#!/bin/sh\necho 's UNKNOWN'\n")
    unknown.chmod(0o755)
    assert run_solver("p cnf 1 0\n", str(unknown))[0] == "unknown"


def test_run_solver_unavailable_and_garbage(tmp_path):
    with pytest.raises(SolverUnavailableError):
        run_solver("p cnf 1 0\n", "/definitely/not/a/solver")
    with pytest.raises(SolverUnavailableError):
        run_solver("p cnf 1 0\n", "")
    silent = tmp_path / "silent.sh"
    silent.write_text("#!/bin/sh\necho nothing useful\n")
    silent.chmod(0o755)
    with pytest.raises(SolverError, match="status"):
        run_solver("p cnf 1 0\n", str(silent))
    garbled = [sys.executable, "-c", "print('s SATISFIABLE'); print('v 1 x 0')"]
    with pytest.raises(SolverError, match="^bad literal 'x' in solver output$"):
        run_solver("p cnf 1 0\n", garbled)


def test_run_solver_rejects_a_nan_timeout_before_starting_the_solver(tmp_path):
    marker = tmp_path / "started"
    solver = tmp_path / "solver.sh"
    solver.write_text(f"#!/bin/sh\ntouch {marker}\necho 's UNSATISFIABLE'\n")
    solver.chmod(0o755)
    assert run_solver("p cnf 1 0\n", str(solver), timeout=1.0)[0] == "unsat"
    marker.unlink()
    with pytest.raises(ValueError, match="^timeout is not a number$"):
        run_solver("p cnf 1 0\n", str(solver), timeout=nan)
    assert not marker.exists()


def test_run_solver_times_out():
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    assert run_solver("p cnf 1 0\n", sleeper, timeout=0.5) == ("timeout", set())


def test_exact_via_solver_rejects_a_nan_timeout_first():
    # the graph has no sides, so any later check would name something else
    with pytest.raises(ValueError, match="^timeout is not a number$"):
        exact_tww_via_solver(SignedTrigraph([1, 2]), [sys.executable, "-c", ""], timeout=nan)


def test_an_unknown_answer_keeps_the_greedy_witness():
    graph = incidence_graph(gen_random_ksat(3, 2, 5, 2))
    greedy = greedy_sequence(graph, bipartite=True)
    assert greedy.declared_width == 3
    unknown = [sys.executable, "-c", "import sys; sys.stdin.read(); print('s UNKNOWN')"]
    result = exact_tww_via_solver(graph, unknown)
    assert (result.width, result.seq, result.exact) == (3, greedy, False)


def test_exact_via_solver_matches_bruteforce(mini_solver_cmd):
    for seed in range(8):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng, max_n=6)
        expected, _ = exact_tww_bruteforce(g, bipartite=True)
        result = exact_tww_via_solver(g, mini_solver_cmd)
        assert result.exact
        assert result.width == expected
        report = verify(g, result.seq, require_bipartite=True)
        assert report.ok and report.width == expected


def test_exact_via_solver_decodes_verified_sequences(mini_solver_cmd):
    g = two_by_two()
    result = exact_tww_via_solver(g, mini_solver_cmd)
    report = verify(g, result.seq, require_bipartite=True)
    assert report.ok
    assert report.width == result.width


def test_decode_rejects_falsifying_model(mini_solver_cmd):
    g = two_by_two()
    greedy_width = greedy_sequence(g, bipartite=True).declared_width
    artifact = encode(g, greedy_width)
    status, model = run_solver(serialize_dimacs(artifact.cnf), mini_solver_cmd)
    assert status == "sat"
    seq = decode(artifact, model)
    assert verify(g, seq, require_bipartite=True).ok
    with pytest.raises(DecodeError):
        decode(artifact, set())  # the empty assignment falsifies the encoding


def first_falsified_clause(clauses, model):
    """Reference for decode's clause check, one literal at a time."""
    true_vars = {lit for lit in model if lit > 0}
    for idx, clause in enumerate(clauses):
        if not any((lit in true_vars) if lit > 0 else (-lit not in true_vars) for lit in clause):
            return idx
    return None


def test_decode_names_the_first_falsified_clause(mini_solver_cmd):
    graph = incidence_graph(gen_random_ksat(3, 2, 5, 2))
    artifact = encode(graph, 2)
    status, model = run_solver(serialize_dimacs(artifact.cnf), mini_solver_cmd)
    assert status == "sat"
    decode(artifact, model)
    rng = random.Random(1)
    falsified = 0
    for var in rng.sample(range(1, artifact.cnf.num_vars + 1), 60):
        # flip var; a model that leaves var out makes it false
        flipped = (model - {var, -var}) | ({-var} if var in model else {var})
        expected = first_falsified_clause(artifact.cnf.clauses, flipped)
        if expected is None:
            continue
        falsified += 1
        with pytest.raises(DecodeError, match=f"^assignment falsifies encoding clause {expected}$"):
            decode(artifact, flipped)
    assert falsified >= 10


def test_timeout_returns_upper_bound(mini_solver_cmd):
    g = two_by_two()
    result = exact_tww_via_solver(g, mini_solver_cmd, timeout=0.0)
    assert not result.exact
    assert result.width >= exact_tww_bruteforce(g, bipartite=True)[0]
    assert verify(g, result.seq, require_bipartite=True).ok


def test_exact_via_solver_sends_each_d_the_encoding_of_that_d(tmp_path, mini_solver_cmd):
    # greedy finds width 3 here and the optimum is 2, so the walk asks for
    # d = 2 (satisfiable) and then d = 1 (unsatisfiable); the recording
    # solver keeps each query's stdin before the bundled solver answers it
    graph = incidence_graph(gen_random_ksat(3, 2, 5, 2))
    assert greedy_sequence(graph, bipartite=True).declared_width == 3
    recorder = tmp_path / "recording_solver.py"
    recorder.write_text(
        "import pathlib, subprocess, sys\n"
        f"queries = pathlib.Path({str(tmp_path)!r})\n"
        "text = sys.stdin.read()\n"
        "(queries / f\"query{len(list(queries.glob('query*.cnf')))}.cnf\").write_text(text)\n"
        f"sys.exit(subprocess.run({mini_solver_cmd!r}, input=text, text=True).returncode)\n"
    )
    result = exact_tww_via_solver(graph, [sys.executable, str(recorder)])
    assert result.exact and result.width == 2
    sent = [(tmp_path / f"query{i}.cnf").read_text() for i in range(2)]
    assert not (tmp_path / "query2.cnf").exists()
    assert sent == [serialize_dimacs(encode(graph, d).cnf) for d in (2, 1)]
