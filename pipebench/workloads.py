"""Seeded corpora, the timed pipeline of each instance, and reference checks.

Set-up (``build_corpus``) uses ``stww.generators`` and writes every input to
disk, so the pipelines receive only files.  A pipeline replays what the
``stww`` commands do with those files, calling the public function of each
module through the tracer, in the order the commands call them.  Checks
compare the outputs with references that share no code with the timed
path; they run after timing.

The caller puts the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from stww import cli
from stww.bipartize import bipartize
from stww.bounds import exact_tww_bruteforce, greedy_sequence, subdivided_clique_sequence
from stww.bwmc import solve_bwmc
from stww.cnf import Formula, WeightFunction, parse_dimacs, serialize_dimacs
from stww.encoding import decode, encode, run_solver
from stww.generators import gen_grid, gen_random_ksat, gen_subdivided_clique
from stww.oracle import bwmc_oracle
from stww.sequence import ContractionSequence, parse_sequence, serialize_sequence, verify
from stww.trigraph import incidence_graph, parse_graph, serialize_graph

ROOT = Path(__file__).resolve().parent.parent
MINI_SOLVER = ROOT / "tests" / "mini_solver.py"

WORKLOADS = ("ksat-greedy", "chain-dp", "ksat-dp", "widths")

# ksat-greedy: random 3-CNF, m = 2n, V = 3n incidence vertices.  Both
# tie-breaks run on the smallest formula.
GREEDY_SIZES = (30, 34)
GREEDY_BOTH_TIES = (30,)
# chain-dp: width-2 implication chains, each counted at every k.
CHAIN_SIZES = (40, 80, 100)
CHAIN_KS = (2, 3)
# ksat-dp: random 3-CNF, m = 2n, each counted at k = 2 and 3.  k = 1 runs
# on one pinned formula only: there a random formula now and then takes the
# large-region peel path and runs for seconds (n = 13: 1 in 100, 11 s; n = 16:
# 1 in 13 past 20 s), which would swing the corpus time from seed to seed.
# n stays small so that a run times every formula many times, and all random
# formulas have one size: with n = 12 and 13 mixed, the median instance fell
# between the two sizes' times on some seeds and not on others.  The pinned
# formula takes that path with two large regions, and it is the slowest
# instance, so instance_s.max does not depend on the seed.
DP_SIZES = (12,) * 16
DP_KS = (2, 3)
CLIFF = (16, 3, 32, 48)  # gen ksat 16 3 32 seed 48, counted at k = 1
# widths: small graphs for the exact and encoding tools.
# Brute force stays at V = 9: at V = 10 and 11 a width-3 graph takes ten to
# a hundred times longer than a width-2 one, so a few such graphs would
# swing the corpus time from seed to seed.
BRUTE_SHAPES = ((3, 6),) * 6  # 2-CNF (vars, clauses)
ENCODE_SHAPES = ((5, 9),) * 3  # 3-CNF, V = 14
ENCODE_DS = (1, 2, 3)
# Solver queries stay at V = 8: at V = 9 the UNSAT query at d = 1 takes
# from 0.2 to 0.6 s depending on the graph.
SOLVE_SHAPES = ((3, 5),) * 3  # 2-CNF, solved with mini_solver
SOLVE_DS = (1, 2)
GRID_SIDES = (6, 7, 8)
SUBCLIQUE_DS = (6, 8)

# Known defect, run once per traced run outside the timed corpus: a chain
# above the DP's recursion limit at this commit.
CHAIN_PROBE_N = 250


class CheckFailure(AssertionError):
    """An output disagrees with its reference."""


@dataclass
class Instance:
    id: str
    kind: str
    params: dict
    files: dict[str, Path]


@dataclass
class Result:
    """What one instance emitted (fingerprinted) and counted (layer metrics)."""

    outputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


# ---------------------------------------------------------------- set-up


def _weights(rng: random.Random, num_vars: int, zero_negatives: bool) -> WeightFunction:
    """Rational literal weights with zero and negative values.

    Zeros go on positive literals only unless zero_negatives is set; a zero
    negative literal would make every chain count vanish.
    """
    table = {}
    for v in range(1, num_vars + 1):
        for lit in (v, -v):
            numerator = rng.randint(-6, 6)
            if numerator == 0 and lit < 0 and not zero_negatives:
                numerator = rng.choice((-1, 1))
            table[lit] = Fraction(numerator, rng.randint(1, 4))
    return WeightFunction(table)


def implication_chain(num_vars: int):
    """x_1 -> x_2 -> ... -> x_n; its incidence graph is a path."""
    return Formula(num_vars, tuple(frozenset((-v, v + 1)) for v in range(1, num_vars)))


def zip_sequence(num_vars: int) -> ContractionSequence:
    """Width-2 bipartite schedule for a chain formula's incidence path."""
    steps = [(1, 2)]
    first_clause = num_vars + 1
    for i in range(1, num_vars - 1):
        steps.append((first_clause, first_clause + i))
        steps.append((1, 2 + i))
    return ContractionSequence(tuple(steps), num_vertices=2 * num_vars - 1)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _chain_files(directory: Path, n: int, rng: random.Random) -> dict[str, Path]:
    weights = _weights(rng, n, zero_negatives=False)
    return {
        "cnf": _write(directory / f"chain{n}.cnf", serialize_dimacs(implication_chain(n), weights)),
        "tws": _write(directory / f"chain{n}.tws", serialize_sequence(zip_sequence(n))),
    }


def build_corpus(workload: str, seed: int, directory: Path) -> list[Instance]:
    """Generate the workload's inputs from the seed and write them to directory."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    corpus: list[Instance] = []

    def ksat(name: str, n: int, width: int, m: int, weighted: bool) -> Path:
        formula = gen_random_ksat(n, width, m, rng.randrange(2**31))
        weights = _weights(rng, n, zero_negatives=True) if weighted else None
        return _write(directory / f"{name}.cnf", serialize_dimacs(formula, weights))

    if workload == "ksat-greedy":
        for i, n in enumerate(GREEDY_SIZES):
            path = ksat(f"g{i}", n, 3, 2 * n, weighted=False)
            ties = ("smallest", "largest") if n in GREEDY_BOTH_TIES else ("smallest",)
            for tie in ties:
                corpus.append(Instance(f"g{i}-n{n}-{tie}", "greedy",
                                       {"n": n, "tie_break": tie}, {"cnf": path}))
    elif workload == "chain-dp":
        for n in CHAIN_SIZES:
            files = _chain_files(directory, n, rng)
            corpus.append(Instance(f"chain{n}", "chain", {"n": n, "ks": CHAIN_KS}, files))
    elif workload == "ksat-dp":
        for i, n in enumerate(DP_SIZES):
            path = ksat(f"d{i}", n, 3, 2 * n, weighted=True)
            corpus.append(Instance(f"d{i}-n{n}", "dp", {"n": n, "ks": DP_KS}, {"cnf": path}))
        n, width, m, formula_seed = CLIFF
        weights = _weights(rng, n, zero_negatives=True)
        path = _write(directory / "cliff.cnf",
                      serialize_dimacs(gen_random_ksat(n, width, m, formula_seed), weights))
        corpus.append(Instance(f"cliff-n{n}", "dp", {"n": n, "ks": (1,)}, {"cnf": path}))
    elif workload == "widths":
        for i, (n, m) in enumerate(BRUTE_SHAPES):
            path = ksat(f"b{i}", n, 2, m, weighted=False)
            corpus.append(Instance(f"b{i}-brute", "brute", {"n": n, "m": m}, {"cnf": path}))
        for i, (n, m) in enumerate(ENCODE_SHAPES):
            path = ksat(f"e{i}", n, 3, m, weighted=False)
            for d in ENCODE_DS:
                corpus.append(Instance(f"e{i}-d{d}-encode", "encode", {"n": n, "m": m, "d": d},
                                       {"cnf": path}))
        for i, (n, m) in enumerate(SOLVE_SHAPES):
            path = ksat(f"x{i}", n, 2, m, weighted=False)
            corpus.append(Instance(f"x{i}-solve", "solve", {"n": n, "m": m, "ds": SOLVE_DS},
                                   {"cnf": path}))
        for side in GRID_SIDES:
            graph = gen_grid(2, side, "random", rng.randrange(2**31))
            path = _write(directory / f"grid{side}.stg", serialize_graph(graph))
            corpus.append(Instance(f"grid{side}", "grid", {"side": side}, {"stg": path}))
        for d in SUBCLIQUE_DS:
            counts = [rng.randint(1, 3) for _ in range(d * (d - 1) // 2)]
            graph, _clique = gen_subdivided_clique(d, counts, "random", rng.randrange(2**31))
            path = _write(directory / f"subclique{d}.stg", serialize_graph(graph))
            corpus.append(Instance(f"subclique{d}", "subclique", {"d": d}, {"stg": path}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return corpus


def corpus_digest(corpus: list[Instance]) -> str:
    """SHA-256 over every input file of the corpus, in instance order."""
    digest = hashlib.sha256()
    seen: set[Path] = set()
    for inst in corpus:
        digest.update(json.dumps([inst.id, inst.kind, inst.params], sort_keys=True).encode())
        for role, path in sorted(inst.files.items()):
            if path not in seen:
                seen.add(path)
                digest.update(f"{role}:{path.name}\n".encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def output_digest(result: Result) -> str:
    """SHA-256 over what one instance emitted: .tws texts, exact counts, widths."""
    return hashlib.sha256(json.dumps(result.outputs, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------- pipelines
# Each helper is the body of one stww command, with its file reads/writes.


def _read_graph(tr, path: Path):
    """A command's graph input: a CNF through its incidence graph, or a .stg file."""
    text = path.read_text()
    if path.suffix == ".cnf":
        formula, _weights = tr.call("cnf.parse_dimacs", parse_dimacs, text, name=str(path))
        return tr.call("trigraph.incidence_graph", incidence_graph, formula)
    return tr.call("trigraph.parse_graph", parse_graph, text)


def _greedy_pairs(graph, seq: ContractionSequence, bipartite: bool) -> int:
    """Candidate pairs greedy scores over all its steps, from side counts."""
    if not bipartite:
        v = graph.num_vertices
        return sum(math.comb(v - i, 2) for i in range(len(seq)))
    sizes = {0: 0, 1: 0}
    for v in graph.vertices():
        sizes[graph.side(v)] += 1
    pairs = 0
    for keep, _merge in seq.steps:
        pairs += math.comb(sizes[0], 2) + math.comb(sizes[1], 2)
        sizes[graph.side(keep)] -= 1
    return pairs


def cmd_greedy(tr, res: Result, graph_path: Path, out: Path, tie_break: str = "smallest") -> str:
    graph = _read_graph(tr, graph_path)
    bipartite = graph_path.suffix == ".cnf"
    seq = tr.call("bounds.greedy_sequence", greedy_sequence, graph,
                  bipartite=bipartite, tie_break=tie_break)
    text = tr.call("sequence.serialize_sequence", serialize_sequence, seq, graph.num_vertices)
    out.write_text(text)
    res.count("greedy_pairs", _greedy_pairs(graph, seq, bipartite))
    res.count("greedy_width_sum", seq.declared_width)
    res.outputs["greedy_width"] = seq.declared_width
    return text


def cmd_verify(tr, res: Result, graph_path: Path, seq_path: Path, bipartite: bool):
    graph = _read_graph(tr, graph_path)
    seq = tr.call("sequence.parse_sequence", parse_sequence, seq_path.read_text())
    report = tr.call("sequence.verify", verify, graph, seq, require_bipartite=bipartite)
    res.count("verify_steps", len(seq))
    return report


def cmd_bwmc(tr, res: Result, cnf_path: Path, seq_path: Path, k: int) -> Fraction:
    formula, weights = tr.call("cnf.parse_dimacs", parse_dimacs, cnf_path.read_text(),
                               name=str(cnf_path))
    seq = tr.call("sequence.parse_sequence", parse_sequence, seq_path.read_text())
    stats: dict = {}
    try:
        value = tr.call("bwmc.solve_bwmc", solve_bwmc, formula, weights, k, seq, stats=stats)
    finally:
        res.count("regions_evaluated", stats.get("regions_evaluated", 0))
        res.count("large_regions", stats.get("large_regions", 0))
    res.outputs.setdefault("counts", {})[str(k)] = str(value)
    return value


def cmd_bipartize(tr, res: Result, graph_path: Path, seq_path: Path, out: Path) -> str:
    graph = _read_graph(tr, graph_path)
    seq = tr.call("sequence.parse_sequence", parse_sequence, seq_path.read_text())
    result = tr.call("bipartize.bipartize", bipartize, graph, seq)
    text = tr.call("sequence.serialize_sequence", serialize_sequence, result.seq,
                   graph.num_vertices)
    out.write_text(text)
    res.count("bipartize_in_steps", len(seq))
    res.count("bipartize_out_steps", len(result.seq))
    res.outputs.update(input_width=result.input_width, output_width=result.output_width)
    return text


def solve_queries(tr, res: Result, graph_path: Path, ds) -> None:
    """One `stww exact` query per d: encode, solve with mini_solver, decode, verify."""
    graph = _read_graph(tr, graph_path)
    answers = []
    for d in ds:
        artifact = _encode(tr, res, graph, d)
        dimacs = tr.call("cnf.serialize_dimacs", serialize_dimacs, artifact.cnf)
        status, model = tr.call("encoding.run_solver", run_solver, dimacs,
                                [sys.executable, str(MINI_SOLVER)])
        answer = {"d": d, "status": status}
        if status == "sat":
            seq = tr.call("encoding.decode", decode, artifact, model)
            report = tr.call("sequence.verify", verify, graph, seq, require_bipartite=True)
            res.count("verify_steps", len(seq))
            answer.update(width=report.width, ok=report.ok,
                          tws=serialize_sequence(seq, graph.num_vertices))
        answers.append(answer)
    res.outputs["answers"] = answers


def _encode(tr, res: Result, graph, d: int):
    artifact = tr.call("encoding.encode", encode, graph, d)
    res.count("cnf_vars", artifact.cnf.num_vars)
    res.count("cnf_clauses", artifact.cnf.num_clauses)
    return artifact


def run_instance(inst: Instance, tr, workdir: Path) -> Result:
    """The timed pipeline of one instance."""
    res = Result()
    p = inst.params
    tws = workdir / f"{inst.id}.tws"
    if inst.kind == "greedy":
        res.outputs["tws"] = cmd_greedy(tr, res, inst.files["cnf"], tws, p["tie_break"])
        report = cmd_verify(tr, res, inst.files["cnf"], tws, bipartite=True)
        res.outputs.update(verify_width=report.width, verify_ok=report.ok)
    elif inst.kind == "chain":
        report = cmd_verify(tr, res, inst.files["cnf"], inst.files["tws"], bipartite=True)
        res.outputs.update(verify_width=report.width, verify_ok=report.ok)
        for k in p["ks"]:
            cmd_bwmc(tr, res, inst.files["cnf"], inst.files["tws"], k)
    elif inst.kind == "dp":
        res.outputs["tws"] = cmd_greedy(tr, res, inst.files["cnf"], tws)
        report = cmd_verify(tr, res, inst.files["cnf"], tws, bipartite=True)
        res.outputs.update(verify_width=report.width, verify_ok=report.ok)
        for k in p["ks"]:
            cmd_bwmc(tr, res, inst.files["cnf"], tws, k)
    elif inst.kind == "brute":
        graph = _read_graph(tr, inst.files["cnf"])
        width, seq = tr.call("bounds.exact_tww_bruteforce", exact_tww_bruteforce, graph,
                             bipartite=True, max_vertices=11)
        text = tr.call("sequence.serialize_sequence", serialize_sequence, seq, graph.num_vertices)
        res.outputs.update(width=width, tws=text)
    elif inst.kind == "encode":
        graph = _read_graph(tr, inst.files["cnf"])
        artifact = _encode(tr, res, graph, p["d"])
        dimacs = tr.call("cnf.serialize_dimacs", serialize_dimacs, artifact.cnf)
        res.outputs.update(
            vars=artifact.cnf.num_vars,
            clauses=artifact.cnf.num_clauses,
            dimacs_sha256=hashlib.sha256(dimacs.encode()).hexdigest(),
            dimacs_header=dimacs[: dimacs.index("\n")],
        )
    elif inst.kind == "solve":
        solve_queries(tr, res, inst.files["cnf"], p["ds"])
    elif inst.kind == "grid":
        res.outputs["tws"] = cmd_greedy(tr, res, inst.files["stg"], tws)
        out = workdir / f"{inst.id}.bip.tws"
        res.outputs["bipartite_tws"] = cmd_bipartize(tr, res, inst.files["stg"], tws, out)
    elif inst.kind == "subclique":
        graph = _read_graph(tr, inst.files["stg"])
        seq = tr.call("bounds.subdivided_clique_sequence", subdivided_clique_sequence, graph)
        res.outputs["tws"] = tr.call("sequence.serialize_sequence", serialize_sequence, seq,
                                     graph.num_vertices)
    else:
        raise ValueError(f"unknown instance kind {inst.kind!r}")
    return res


def run_probes(workload: str, directory: Path, limited, tr) -> dict:
    """The chain-dp defect on a pinned input, untimed and not retried.

    The DP on a chain above the recursion limit; `limited` runs a call under
    the per-instance time limit and returns (error or None, value).
    """
    if workload != "chain-dp":
        return {}
    directory.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    files = _chain_files(directory, CHAIN_PROBE_N, random.Random("probe"))
    error, _value = limited(cmd_bwmc, tr, Result(), files["cnf"], files["tws"], 2)
    return {"chain_probe_failed": int(error is not None),
            "chain_probe_s": perf_counter() - start, "chain_probe_error": error}


# ---------------------------------------------------------------- checks


def chain_closed_form(weights: WeightFunction, n: int, k: int) -> Fraction:
    """Weighted count of x_1 -> ... -> x_n models with at most k ones.

    The models set a suffix x_{n-t+1..n} true, t = 0..n; each has weight
    prod_{v > n-t} w(v) * prod_{v <= n-t} w(-v).
    """
    total = Fraction(0)
    for t in range(min(k, n) + 1):
        term = Fraction(1)
        for v in range(1, n + 1):
            term *= weights.of(v) if v > n - t else weights.of(-v)
        total += term
    return total


def _expect(condition: bool, inst: Instance, message: str) -> None:
    if not condition:
        raise CheckFailure(f"{inst.id}: {message}")


def _parse_graph_file(path: Path):
    text = path.read_text()
    if path.suffix == ".cnf":
        return incidence_graph(parse_dimacs(text)[0])
    return parse_graph(text)


def check_instance(inst: Instance, res: Result, tr) -> None:
    """Compare one instance's outputs with an independent reference.

    Only the oracle goes through the tracer: its time is the base of the
    DP-versus-oracle ratio.
    """
    out = res.outputs
    if "verify_width" in out:
        _expect(out["verify_ok"], inst, "sequence fails bipartite verification")
        if "greedy_width" in out:
            _expect(out["greedy_width"] == out["verify_width"], inst,
                    f"declared width {out['greedy_width']} != verified {out['verify_width']}")
    if inst.kind in ("chain", "dp"):
        formula, weights = parse_dimacs(inst.files["cnf"].read_text())
        for k in inst.params["ks"]:
            if inst.kind == "chain":
                expected = chain_closed_form(weights, formula.num_vars, k)
            else:
                expected = tr.call("oracle.bwmc_oracle", bwmc_oracle, formula, weights, k)
            got = out["counts"][str(k)]
            _expect(Fraction(got) == expected, inst, f"count {got} at k={k} != {expected}")
    elif inst.kind == "brute":
        graph = _parse_graph_file(inst.files["cnf"])
        report = verify(graph, parse_sequence(out["tws"]), require_bipartite=True)
        _expect(report.ok and report.width == out["width"], inst,
                f"witness verifies at {report.width}, claimed {out['width']}")
    elif inst.kind == "solve":
        exact, _seq = exact_tww_bruteforce(_parse_graph_file(inst.files["cnf"]), bipartite=True)
        for answer in out["answers"]:
            d, status = answer["d"], answer["status"]
            _expect(status == ("sat" if d >= exact else "unsat"), inst,
                    f"solver said {status} at d={d}, brute-force width {exact}")
            if status == "sat":
                _expect(answer["ok"] and answer["width"] <= d, inst,
                        f"decoded sequence at d={d} verifies at width {answer['width']}")
    elif inst.kind == "encode":
        _expect(out["dimacs_header"] == f"p cnf {out['vars']} {out['clauses']}", inst,
                f"DIMACS header {out['dimacs_header']!r} disagrees with the encoding")
    elif inst.kind == "grid":
        graph = _parse_graph_file(inst.files["stg"])
        before = verify(graph, parse_sequence(out["tws"]))
        _expect(before.ok and before.width == out["greedy_width"] == out["input_width"], inst,
                f"greedy width {out['greedy_width']} verifies at {before.width}")
        after = verify(graph, parse_sequence(out["bipartite_tws"]), require_bipartite=True)
        _expect(after.ok and after.width == out["output_width"], inst,
                f"bipartized sequence verifies at {after.width}, claimed {out['output_width']}")
        _expect(after.width <= before.width + 2, inst,
                f"bipartized width {after.width} > input width {before.width} + 2")
    elif inst.kind == "subclique":
        graph = _parse_graph_file(inst.files["stg"])
        report = verify(graph, parse_sequence(out["tws"]))
        d = inst.params["d"]
        _expect(report.ok and report.width <= d - 1, inst,
                f"subdivided K_{d} sequence has width {report.width} > {d - 1}")


def _run_cli(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailure(f"stww {' '.join(argv)} exited {code}")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


CLI_KINDS = ("greedy", "chain", "dp", "grid")


def check_cli(corpus: list[Instance], results: dict[str, Result], workdir: Path) -> None:
    """One in-process `stww ... --json` call, on the first instance with a command."""
    inst = next(i for i in corpus if i.kind in CLI_KINDS and i.id in results)
    res = results[inst.id].outputs
    out = workdir / "cli.tws"
    if inst.kind == "greedy":
        got = _run_cli(["greedy", str(inst.files["cnf"]), "--tie-break",
                        inst.params["tie_break"], "-o", str(out), "--json"])
        _expect(got["width"] == res["greedy_width"] and out.read_text() == res["tws"], inst,
                f"`stww greedy` reports width {got['width']}")
    elif inst.kind in ("chain", "dp"):
        seq = inst.files.get("tws") or workdir / f"{inst.id}.tws"
        k = inst.params["ks"][-1]
        got = _run_cli(["bwmc", str(inst.files["cnf"]), str(seq), "-k", str(k), "--json"])
        _expect(Fraction(got["count"]) == Fraction(res["counts"][str(k)]), inst,
                f"`stww bwmc -k {k}` counts {got['count']}, pipeline {res['counts'][str(k)]}")
    else:
        got = _run_cli(["bipartize", str(inst.files["stg"]), str(workdir / f"{inst.id}.tws"),
                        "-o", str(out), "--json"])
        _expect(got["output_width"] == res["output_width"] and out.read_text()
                == res["bipartite_tws"], inst, "`stww bipartize` disagrees with the pipeline")
