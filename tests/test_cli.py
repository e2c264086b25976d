import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stww.cli import EX_DATA, EX_ENV, EX_INVALID_SEQUENCE, EX_OK, EX_USAGE, main
from stww.cnf import parse_dimacs
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
    payload = json.loads(out)
    assert payload["k"] == 2
    assert err.startswith("stats: ")
    assert "(0 at the cap, 0 peel candidates)" in err
    # cross-check against the brute-force oracle subcommand
    code, out, _err = run(capsys, "oracle", "bwmc", str(cnf), "-k", "2")
    assert out.splitlines()[0] == payload["count"]


def test_bwmc_stats_count_the_peel_candidates(capsys, tmp_path):
    # the formula of tests/test_bwmc.py's peel-path checks: its one capped
    # region peels 3 of the 6 vertices of its expansion
    cnf = tmp_path / "peel.cnf"
    cnf.write_text("p cnf 5 6\n-5 -3 -1 0\n-5 -3 0\n1 2 3 0\n-1 4 0\n-5 4 0\n-5 -1 2 0\n")
    seq = tmp_path / "peel.tws"
    code, _out, _err = run(capsys, "greedy", str(cnf), "--tie-break", "largest", "-o", str(seq))
    assert code == EX_OK
    code, out, err = run(capsys, "bwmc", str(cnf), str(seq), "-k", "1", "--stats")
    assert code == EX_OK
    assert "region size cap 5, 14 regions evaluated (1 at the cap, 3 peel candidates)" in err
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


def test_usage_errors_exit_64(capsys, or_cnf):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EX_USAGE
    with pytest.raises(SystemExit) as info:
        main(["oracle", "bwmc", or_cnf])  # missing -k
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
    stg.write_text("1 2 +\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out) == (EX_DATA, "")
    assert err == "stww: line 1: no problem line found\n"
    stg.write_text("p foo 1 2\n")
    code, out, err = run(capsys, "greedy", str(stg))
    assert (code, out) == (EX_DATA, "")
    assert err == f"stww: line 1: unsupported problem line 'p foo' in {stg}\n"


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
