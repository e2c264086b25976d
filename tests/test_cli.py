import contextlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stww.bwmc import solve_bwmc
from stww.cli import EX_DATA, EX_ENV, EX_INVALID_SEQUENCE, EX_OK, EX_USAGE, main
from stww.cnf import parse_dimacs
from stww.oracle import bwmc_oracle
from stww.sequence import parse_sequence, verify
from stww.trigraph import incidence_graph, parse_graph

SRC = Path(__file__).resolve().parent.parent / "src"

OR_CNF = "p cnf 2 1\n1 2 0\n"

WEIGHTED_CNF = """\
p cnf 3 2
c p weight 1 2/3 0
c p weight -2 -1 0
1 -2 0
2 3 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def or_cnf(tmp_path):
    path = tmp_path / "or.cnf"
    path.write_text(OR_CNF)
    return str(path)


def greedy_to_file(capsys, tmp_path, source):
    seq_path = tmp_path / "seq.tws"
    code, _out, err = run(capsys, "greedy", source, "-o", str(seq_path))
    assert code == EX_OK and err.startswith("width ")
    return str(seq_path)


def test_bwmc_pinned_example(capsys, tmp_path, or_cnf):
    seq = greedy_to_file(capsys, tmp_path, or_cnf)
    code, out, _err = run(capsys, "bwmc", or_cnf, seq, "-k", "1")
    assert code == EX_OK
    assert out.splitlines() == ["2", "2.000000"]
    code, out, _err = run(capsys, "bwmc", or_cnf, seq, "-k", "2")
    assert out.splitlines() == ["3", "3.000000"]


def test_bwmc_weighted_json_and_stats(capsys, tmp_path):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(WEIGHTED_CNF)
    seq = greedy_to_file(capsys, tmp_path, str(cnf))
    code, out, err = run(capsys, "bwmc", str(cnf), seq, "-k", "2", "--json", "--stats")
    assert code == EX_OK
    # the whole line, key order included
    line = '{"count": "-1", "decimal": "-1.000000", "k": 2}\n'
    assert out == line
    assert err == (
        "stats: width 2, region size cap 10, 3 regions evaluated "
        "(0 at the cap, 0 has_one splits), 12 fold states (4 dead states dropped), "
        "largest table 4, 8 entries copied\n"
    )
    # cross-check against the brute-force oracle subcommand
    code, out, _err = run(capsys, "oracle", "bwmc", str(cnf), "-k", "2")
    assert out.splitlines()[0] == "-1"
    code, out, _err = run(capsys, "oracle", "bwmc", str(cnf), "-k", "2", "--json")
    assert (code, out) == (EX_OK, line)


def test_bwmc_stats_count_the_has_one_splits(capsys, tmp_path):
    # the formula of tests/test_bwmc.py's capped-region checks: its one capped
    # region splits by the 4 has_one sets of at most one of its 3 variables
    cnf = tmp_path / "capped.cnf"
    cnf.write_text("p cnf 5 6\n-5 -3 -1 0\n-5 -3 0\n1 2 3 0\n-1 4 0\n-5 4 0\n-5 -1 2 0\n")
    seq = tmp_path / "capped.tws"
    code, _out, _err = run(capsys, "greedy", str(cnf), "--tie-break", "largest", "-o", str(seq))
    assert code == EX_OK
    code, out, err = run(capsys, "bwmc", str(cnf), str(seq), "-k", "1", "--stats")
    assert code == EX_OK
    assert err == (
        "stats: width 2, region size cap 5, 11 regions evaluated "
        "(1 at the cap, 4 has_one splits), 46 fold states (3 dead states dropped), "
        "largest table 4, 28 entries copied\n"
    )
    code, oracle_out, _err = run(capsys, "oracle", "bwmc", str(cnf), "-k", "1")
    assert out == oracle_out


def test_verify_round_trip_and_width_flag(capsys, tmp_path, or_cnf):
    seq = greedy_to_file(capsys, tmp_path, or_cnf)
    code, out, _err = run(capsys, "verify", or_cnf, seq, "--bipartite", "--json")
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["ok"] is True and payload["bipartite"] is True
    code, _out, err = run(capsys, "verify", or_cnf, seq, "--width", "-1")
    assert code == EX_INVALID_SEQUENCE
    assert "exceeds declared width -1" in err


def test_verify_rejects_cross_side_step(capsys, tmp_path, or_cnf):
    bad = tmp_path / "bad.tws"
    bad.write_text("p tws 3 1\n1 3\n")
    code, _out, err = run(capsys, "verify", or_cnf, str(bad), "--bipartite")
    assert code == EX_INVALID_SEQUENCE
    assert "cross-side" in err


def test_verify_bipartite_needs_sides(capsys, tmp_path):
    # an .stg graph without sides: plain verification reads it, a bipartite
    # one refuses it as a data error before any step is replayed
    graph = tmp_path / "unsided.stg"
    graph.write_text("1 2 +\n2 3 -\n")
    seq = tmp_path / "unsided.tws"
    code, _out, _err = run(capsys, "greedy", str(graph), "-o", str(seq))
    assert code == EX_OK
    code, out, _err = run(capsys, "verify", str(graph), str(seq))
    assert (code, out) == (EX_OK, "width 1\n")
    code, out, err = run(capsys, "verify", str(graph), str(seq), "--bipartite")
    assert code == EX_DATA and out == ""
    assert err == "stww: bipartite verification needs every vertex on a side; 1 has none\n"


def test_bwmc_stats_at_zero_budget_name_the_closed_form(capsys, tmp_path, or_cnf):
    seq = greedy_to_file(capsys, tmp_path, or_cnf)
    code, out, err = run(capsys, "bwmc", or_cnf, seq, "-k", "0", "--stats")
    assert code == EX_OK
    assert out.splitlines()[0] == "0"
    assert err == "stats: solved in closed form, no dynamic program ran\n"


def test_bwmc_names_the_failing_step_once(capsys, tmp_path):
    cnf = tmp_path / "s.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    cross = tmp_path / "cross.tws"
    cross.write_text("p tws 3 1\n1 3\n")
    code, out, err = run(capsys, "bwmc", str(cnf), str(cross), "-k", "1")
    assert code == EX_DATA and out == ""
    assert err == "stww: invalid contraction sequence: step 0: cross-side contraction (1,3)\n"
    # an unknown label already names its step; it is not named twice
    unknown = tmp_path / "unknown.tws"
    unknown.write_text("p tws 3 2\n1 2\n2 3\n")
    code, _out, err = run(capsys, "bwmc", str(cnf), str(unknown), "-k", "1")
    assert code == EX_DATA
    assert err == "stww: invalid contraction sequence: step 1: unknown vertex id 2\n"


def test_verify_names_the_failing_step_once(capsys, tmp_path):
    cnf = tmp_path / "s.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    unknown = tmp_path / "unknown.tws"
    unknown.write_text("p tws 3 2\n1 2\n2 3\n")
    code, _out, err = run(capsys, "verify", str(cnf), str(unknown))
    assert code == EX_INVALID_SEQUENCE
    assert err == "invalid sequence at step 1: unknown vertex id 2\n"
    code, out, _err = run(capsys, "verify", str(cnf), str(unknown), "--json")
    assert code == EX_INVALID_SEQUENCE
    assert json.loads(out) == {"ok": False, "step": 1, "reason": "unknown vertex id 2"}


def test_greedy_json_payload_and_no_threads_option(capsys, or_cnf):
    code, out, _err = run(capsys, "greedy", or_cnf, "--json")
    assert code == EX_OK
    payload = json.loads(out.splitlines()[-1])
    assert payload["bipartite"] is True and payload["steps"] == 1
    with pytest.raises(SystemExit) as info:
        main(["greedy", or_cnf, "--threads", "4"])
    assert info.value.code == EX_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("tws", ["p tws 3 0\n", "p tws 3 1\n2 3\n"])
def test_verify_width_flag_blames_an_input_graph_over_the_width(capsys, tmp_path, tws):
    graph = tmp_path / "star.stg"
    graph.write_text("p stg 3 2\n1 2 r\n1 3 r\n")
    seq = tmp_path / "seq.tws"
    seq.write_text(tws)
    code, _out, err = run(capsys, "verify", str(graph), str(seq), "--width", "1")
    assert code == EX_INVALID_SEQUENCE
    assert err.startswith("invalid sequence at step 0: input graph has red degree 2")
    code, out, _err = run(capsys, "verify", str(graph), str(seq), "--width", "1", "--json")
    assert code == EX_INVALID_SEQUENCE
    payload = json.loads(out)
    assert payload["ok"] is False and payload["step"] == 0
    assert "input graph" in payload["reason"]


def test_verify_width_flag_names_the_first_step_over_the_width(capsys, tmp_path):
    # 1 and 2 are twins, so the first step stays red-free and the second does not
    graph = tmp_path / "twins.stg"
    graph.write_text("p stg 4 3\n1 3 +\n2 3 +\n3 4 +\n")
    seq = tmp_path / "seq.tws"
    seq.write_text("p tws 4 2\n1 2\n1 3\n")
    code, out, _err = run(capsys, "verify", str(graph), str(seq), "--width", "0", "--json")
    assert code == EX_INVALID_SEQUENCE
    payload = json.loads(out)
    assert payload["step"] == 1 and payload["reason"] == "red degree 1 exceeds declared width 0"


def test_gen_grid_parses_back_and_bipartize(capsys, tmp_path):
    grid = tmp_path / "grid.stg"
    code, _out, _err = run(capsys, "gen", "grid", "2", "3", "-o", str(grid))
    assert code == EX_OK
    graph = parse_graph(grid.read_text())
    assert graph.num_vertices == 9 and graph.num_edges() == 12

    free = tmp_path / "free.tws"
    code, _out, _err = run(capsys, "greedy", str(grid), "-o", str(free))
    assert code == EX_OK
    bip = tmp_path / "bip.tws"
    code, _out, err = run(capsys, "bipartize", str(grid), str(free), "-o", str(bip))
    assert code == EX_OK
    assert "output width" in err
    report = verify(graph, parse_sequence(bip.read_text()), require_bipartite=True)
    assert report.failure is None


def test_a_graph_file_cut_at_a_line_is_a_data_error(capsys, tmp_path):
    grid = tmp_path / "g.stg"
    code, _out, _err = run(capsys, "gen", "grid", "2", "4", "--signs", "random", "-o", str(grid))
    assert code == EX_OK
    cut = tmp_path / "t.stg"
    cut.write_text("".join(grid.read_text().splitlines(keepends=True)[:-1]))
    code, out, err = run(capsys, "greedy", str(cut))
    assert (code, out, err) == (EX_DATA, "", "stww: line 1: header declares 24 edges, file has 23\n")


def test_bipartize_reports_widths(capsys, tmp_path):
    grid = tmp_path / "grid.stg"
    run(capsys, "gen", "grid", "2", "3", "-o", str(grid))
    free = tmp_path / "free.tws"
    run(capsys, "greedy", str(grid), "-o", str(free))
    code, out, _err = run(capsys, "bipartize", str(grid), str(free), "--json")
    assert code == EX_OK
    lines = out.splitlines()
    payload = json.loads(lines[-1])
    assert payload["output_width"] <= payload["input_width"] + 2
    assert payload["output_steps"] <= 2 * payload["input_steps"]
    seq = parse_sequence("\n".join(lines[:-1]) + "\n")
    assert len(seq.steps) == payload["output_steps"]


def test_gen_families_parse_back(capsys, tmp_path):
    code, out, _err = run(capsys, "gen", "subclique", "3", "1", "0", "2")
    assert code == EX_OK
    assert out.splitlines()[0] == "c clique 1 2 3"
    parse_graph("\n".join(out.splitlines()[1:]))

    code, out, _err = run(capsys, "gen", "hitset", "--universe", "3",
                          "--set", "1,2", "--set", "2,3", "-k", "1")
    assert code == EX_OK
    assert out.splitlines()[0] == "c k 1"
    formula, _w = parse_dimacs(out)
    assert formula.num_clauses == 3
    # a negative budget is one that bwmc and oracle refuse, so it is not written
    code, out, err = run(capsys, "gen", "hitset", "--universe", "3", "--set", "1,2", "-k", "-1")
    assert code == EX_DATA and out == "" and "nonnegative" in err

    code, out, _err = run(capsys, "gen", "partclique",
                          "--part", "1,2", "--part", "3,4", "--edge", "1,3")
    assert code == EX_OK
    assert out.splitlines()[0] == "c k 2"
    parse_dimacs(out)

    code, out, _err = run(capsys, "gen", "ksat", "5", "2", "4", "7")
    assert code == EX_OK
    formula, _w = parse_dimacs(out)
    assert formula.num_vars == 5 and formula.num_clauses == 4


def test_oracle_bsat_output(capsys, or_cnf):
    code, out, _err = run(capsys, "oracle", "bsat", or_cnf, "-k", "0")
    assert code == EX_OK and out.strip() == "false"
    code, out, _err = run(capsys, "oracle", "bsat", or_cnf, "-k", "1", "--json")
    assert json.loads(out) == {"satisfiable": True, "k": 1}


def test_oracle_bsat_on_a_long_chain(capsys, tmp_path):
    n = 1100
    cnf = tmp_path / "chain.cnf"
    cnf.write_text(f"p cnf {n} {n - 1}\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, n)))
    code, out, _err = run(capsys, "oracle", "bsat", str(cnf), "-k", "0")
    assert code == EX_OK
    assert out.strip() == "true"


def test_oracle_bwmc_past_24_variables(capsys, tmp_path):
    # the oracle walks the 821 sets of at most 2 ones out of 40 variables;
    # at k = 7 there are more than 2^24 such sets, past its bound
    cnf = tmp_path / "wide.cnf"
    code, _out, _err = run(capsys, "gen", "ksat", "40", "3", "40", "5", "-o", str(cnf))
    assert code == EX_OK
    seq = greedy_to_file(capsys, tmp_path, str(cnf))
    code, dp_out, _err = run(capsys, "bwmc", str(cnf), seq, "-k", "2")
    assert code == EX_OK and dp_out.splitlines()[0] == "52"
    assert run(capsys, "oracle", "bwmc", str(cnf), "-k", "2") == (EX_OK, dp_out, "")
    code, out, err = run(capsys, "oracle", "bwmc", str(cnf), "-k", "7")
    assert (code, out) == (EX_DATA, "")
    assert err.startswith("stww: oracle refuses ") and err.count("\n") == 1


def test_exact_without_solver_is_an_env_error(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("TWW_SOLVER", raising=False)
    grid = tmp_path / "grid.stg"
    run(capsys, "gen", "grid", "2", "2", "-o", str(grid))
    code, _out, err = run(capsys, "exact", str(grid))
    assert code == EX_ENV
    assert "TWW_SOLVER" in err


def test_misbehaving_solver_is_an_env_error(capsys, tmp_path):
    grid = tmp_path / "grid.stg"
    run(capsys, "gen", "grid", "2", "3", "-o", str(grid))
    binary = tmp_path / "binary.sh"
    binary.write_text("#!/bin/sh\nprintf 's SATISFIABLE\\n\\377\\n'\n")
    binary.chmod(0o755)
    code, out, err = run(capsys, "exact", str(grid), "--solver", str(binary))
    assert (code, out) == (EX_ENV, "")
    assert err.startswith("stww: solver output is not UTF-8 text")
    code, out, err = run(capsys, "exact", str(grid), "--solver", "'unbalanced")
    assert (code, out) == (EX_ENV, "")
    assert err.startswith("stww: cannot parse solver command")


def test_exact_with_bundled_solver(capsys, monkeypatch, tmp_path, mini_solver_cmd):
    monkeypatch.setenv("TWW_SOLVER", shlex.join(mini_solver_cmd))
    grid = tmp_path / "grid.stg"
    run(capsys, "gen", "grid", "2", "3", "-o", str(grid))
    witness = tmp_path / "w.tws"
    code, out, _err = run(capsys, "exact", str(grid), "--json", "-o", str(witness))
    assert code == EX_OK
    payload = json.loads(out)
    assert payload == {"width": 2, "exact": True}
    graph = parse_graph(grid.read_text())
    report = verify(graph, parse_sequence(witness.read_text()), require_bipartite=True)
    assert report.failure is None and report.width == 2


def test_exact_on_an_unsided_graph_names_the_exact_search(capsys, tmp_path, mini_solver_cmd):
    graph = tmp_path / "unsided.stg"
    graph.write_text("p stg 2 1\n1 2 +\n")
    code, out, err = run(capsys, "exact", str(graph), "--solver", shlex.join(mini_solver_cmd))
    assert (code, out) == (EX_DATA, "")
    assert err == "stww: the exact search needs every vertex on a side; 1 has none\n"


@pytest.mark.parametrize("timeout, code, printed", [
    ("inf", EX_OK, "2\n"),  # no limit
    ("1e9", EX_OK, "2\n"),  # longer than one poll can wait: no limit
    ("nan", EX_USAGE, ""),
    ("abc", EX_USAGE, ""),
    ("-1", EX_OK, "*2\n"),  # spent before the first query: the greedy bound
])
def test_exact_timeout_values(capsys, tmp_path, mini_solver_cmd, timeout, code, printed):
    grid = tmp_path / "grid.stg"
    run(capsys, "gen", "grid", "2", "3", "-o", str(grid))
    argv = ["exact", str(grid), "--solver", shlex.join(mini_solver_cmd), f"--timeout={timeout}"]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, printed)
    assert "Traceback" not in captured.err
    if code == EX_USAGE:
        assert captured.err.splitlines()[-1].endswith(f"not a number of seconds: {timeout!r}")


def test_usage_errors_exit_64(capsys, or_cnf):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EX_USAGE
    with pytest.raises(SystemExit) as info:
        main(["oracle", "bwmc", or_cnf])  # missing -k
    assert info.value.code == EX_USAGE
    # gen writes DIMACS or .stg only; --json is not one of its options
    for argv in (["gen", "ksat", "3", "2", "2", "1", "--json"], ["gen", "--json", "ksat", "3", "2", "2", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EX_USAGE
    capsys.readouterr()


def test_data_errors_exit_65(capsys, tmp_path):
    code, _out, err = run(capsys, "oracle", "bsat", str(tmp_path / "absent.cnf"), "-k", "0")
    assert code == EX_DATA and err.startswith("stww: ")
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 zebra 0\n")
    code, _out, err = run(capsys, "oracle", "bsat", str(bad), "-k", "0")
    assert code == EX_DATA and "zebra" in err
    stg = tmp_path / "g.stg"
    stg.write_text("p stg 2 0\ns 1 0\ns 2 1\n")
    code, _out, err = run(capsys, "bwmc", str(stg), str(stg), "-k", "1")
    assert code == EX_DATA
    stg.write_text("p stg 3 2\nc note\n1 2 +\n2 7 -\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out) == (EX_DATA, "")
    assert err == "stww: line 4: vertex id 7 exceeds declared count 3\n"
    # text without a problem line is read as stg, whose header is optional
    stg.write_text("1 2 +\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out, err) == (EX_OK, "p tws 2 1\n1 2\n", "width 0\n")
    stg.write_text("c no header\n1 2 +\n2 zebra -\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out) == (EX_DATA, "")
    assert err == "stww: line 3: non-integer vertex id\n"
    for text, message in [
        ("0 1 +\n", "line 1: vertex id 0 must be positive"),
        ("s 0 1\n", "line 1: vertex id 0 must be positive"),
        ("1 1 +\n", "line 1: loop at vertex 1"),
        ("1 2 +\n2 1 -\n", "line 2: edge (2,1) repeats line 1"),
    ]:
        stg.write_text(text)
        code, out, err = run(capsys, "greedy", str(stg))
        assert (code, out, err) == (EX_DATA, "", f"stww: {message}\n")
    stg.write_text("p foo 1 2\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out) == (EX_DATA, "")
    assert err == f"stww: line 1: unsupported problem line 'p foo' in {stg}\n"
    partclique = ["gen", "partclique", "--part", "1,2", "--part", "3,4"]
    code, out, err = run(capsys, *partclique, "--edge", "1,3,4")
    assert (code, out, err) == (EX_DATA, "", "stww: each --edge needs exactly two vertices\n")


def int_digit_limit():
    """The interpreter's int <-> str digit limit, None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def unlimited_int_digits():
    limit = int_digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_counts_past_the_int_digit_limit(capsys, tmp_path, flags):
    # two exact counts whose denominators pass 4300 digits, the default
    # limit on int <-> str conversion: 800 variables with 7-digit weight
    # denominators, counted by the DP, and 3 variables with 2,002-digit
    # ones, counted by the oracle
    n = 800
    many = tmp_path / "long.cnf"
    many.write_text(f"p cnf {n} 1\n" + "".join(
        f"c p weight {v} {1 + v % 2}/1000003 0\nc p weight {-v} {2 - v % 2}/1000003 0\n"
        for v in range(1, n + 1)) + "1 2 0\n")
    seq = tmp_path / "long.tws"
    seq.write_text(f"p tws {n + 1} {n - 1}\n" + "".join(f"1 {v}\n" for v in range(2, n + 1)))
    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 3 1\n" + "".join(
        f"c p weight {lit} {i + 1}/{10**2001 + 2 * i + 1} 0\n"
        for i, lit in enumerate((1, -1, 2, -2, 3, -3))) + "1 2 3 0\n")
    limit = int_digit_limit()
    printed = []
    for argv in (["bwmc", str(many), str(seq)], ["oracle", "bwmc", str(wide)]):
        code, out, err = run(capsys, *argv, "-k", "2", *flags)
        assert (code, err) == (EX_OK, "")
        # the caller's setting is back once main returns
        assert int_digit_limit() == limit
        printed.append(json.loads(out)["count"] if flags else out.splitlines()[0])
    with unlimited_int_digits():
        formula, weights = parse_dimacs(many.read_text())
        expected = [solve_bwmc(formula, weights, 2, parse_sequence(seq.read_text())),
                    bwmc_oracle(*parse_dimacs(wide.read_text()), 2)]
        assert [Fraction(text) for text in printed] == expected
        assert min(len(str(value.denominator)) for value in expected) > 4300


def test_recursion_limit_is_an_env_error(capsys, monkeypatch, tmp_path, or_cnf):
    seq = greedy_to_file(capsys, tmp_path, or_cnf)

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("stww.cli.solve_bwmc", too_deep)
    code, out, err = run(capsys, "bwmc", or_cnf, seq, "-k", "1")
    assert code == EX_ENV
    assert out == ""
    assert err.startswith("stww: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "bwmc" in out and "verify" in out


def test_module_entry_point(tmp_path):
    cnf = tmp_path / "or.cnf"
    cnf.write_text(OR_CNF)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "stww.cli", "oracle", "bwmc", str(cnf), "-k", "1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["2", "2.000000"]
