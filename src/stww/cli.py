"""Command-line front end: one binary exposing the whole toolkit.

Exit codes: 0 success, 2 invalid contraction sequence (verify), 64 usage,
65 malformed input data, 71 environment problems such as a missing or
misbehaving SAT solver, or an input that exceeds an internal limit of the
interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bipartize import bipartize
from .bounds import greedy_sequence
from .bwmc import solve_bwmc
from .cnf import ParseError, parse_dimacs, serialize_dimacs, token_lines
from .encoding import DecodeError, SolverError, SolverUnavailableError, exact_tww_via_solver
from .generators import (
    SIGN_POLICIES,
    gen_grid,
    gen_hitting_set_formula,
    gen_partitioned_clique_formula,
    gen_random_ksat,
    gen_subdivided_clique,
)
from .oracle import bsat_oracle, bwmc_oracle
from .sequence import parse_sequence, serialize_sequence, verify
from .trigraph import SignedTrigraph, incidence_graph, parse_graph, require_sides, serialize_graph

EX_OK = 0
EX_INVALID_SEQUENCE = 2
EX_USAGE = 64
EX_DATA = 65
EX_ENV = 71

SOLVER_ENV = "TWW_SOLVER"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _decimal(value: Fraction, places: int = 6) -> str:
    scaled = round(value * 10**places)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _seconds(text: str) -> float:
    """A --timeout value: any float but NaN; inf means no limit."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}")
    return value


def _sniff(text: str) -> tuple[str, int]:
    """The problem line's format token and its 1-based line number.  Text
    without one is read as `stg`, the one format whose header is optional."""
    for number, tokens in token_lines(text):
        if tokens[0] == "p" and len(tokens) > 1:
            return tokens[1], number
    return "stg", 1


def _load_graph(path: str) -> tuple[SignedTrigraph, bool]:
    """Accept either a signed trigraph file or a CNF (via its incidence
    graph); the flag tells which it was."""
    text = Path(path).read_text()
    kind, number = _sniff(text)
    if kind == "cnf":
        formula, _ = parse_dimacs(text, name=path)
        return incidence_graph(formula), True
    if kind == "stg":
        return parse_graph(text), False
    raise ParseError(f"unsupported problem line 'p {kind}' in {path}", number)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_count(value: Fraction, k: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"count": str(value), "decimal": _decimal(value), "k": k}))
    else:
        print(value)
        print(_decimal(value))


def _cmd_verify(args) -> int:
    graph, _ = _load_graph(args.input)
    seq = parse_sequence(Path(args.seq).read_text())
    if args.bipartite:
        require_sides(graph, "bipartite verification")
    log = verify(graph, seq, require_bipartite=args.bipartite)
    failure = log.failure
    if failure is None and args.width is not None and log.width > args.width:
        initial = graph.max_red_degree()
        if initial > args.width:
            failure = (0, f"input graph has red degree {initial}, which exceeds declared width {args.width}")
        else:
            over, red = next((i, r) for i, r in enumerate(log.per_step_max_red) if r > args.width)
            failure = (over, f"red degree {red} exceeds declared width {args.width}")
    if failure is not None:
        step, reason = failure
        if args.json:
            print(json.dumps({"ok": False, "step": step, "reason": reason}))
        else:
            print(f"invalid sequence at step {step}: {reason}", file=sys.stderr)
        return EX_INVALID_SEQUENCE
    if args.json:
        print(json.dumps({"ok": True, "width": log.width, "bipartite": log.bipartite}))
    else:
        print(f"width {log.width}")
    return EX_OK


def _cmd_bipartize(args) -> int:
    graph, _ = _load_graph(args.input)
    seq = parse_sequence(Path(args.seq).read_text())
    result = bipartize(graph, seq)
    _emit(serialize_sequence(result.seq, graph.num_vertices), args.output)
    if args.json:
        print(json.dumps({
            "input_width": result.input_width,
            "output_width": result.output_width,
            "input_steps": len(seq.steps),
            "output_steps": len(result.seq.steps),
        }))
    else:
        print(f"input width {result.input_width}, output width {result.output_width}", file=sys.stderr)
    return EX_OK


def _cmd_greedy(args) -> int:
    graph, is_cnf = _load_graph(args.input)
    bipartite = args.bipartite or is_cnf
    seq = greedy_sequence(graph, bipartite=bipartite, tie_break=args.tie_break)
    _emit(serialize_sequence(seq, graph.num_vertices), args.output)
    if args.json:
        print(json.dumps({"width": seq.declared_width, "steps": len(seq.steps), "bipartite": bipartite}))
    else:
        print(f"width {seq.declared_width}", file=sys.stderr)
    return EX_OK


def _cmd_exact(args) -> int:
    graph, _ = _load_graph(args.input)
    solver = args.solver or os.environ.get(SOLVER_ENV)
    if not solver:
        print(f"no SAT solver: pass --solver or set {SOLVER_ENV}", file=sys.stderr)
        return EX_ENV
    result = exact_tww_via_solver(graph, solver, timeout=args.timeout)
    if args.output:
        Path(args.output).write_text(serialize_sequence(result.seq, graph.num_vertices))
    if args.json:
        print(json.dumps({"width": result.width, "exact": result.exact}))
    else:
        print(f"{result.width}" if result.exact else f"*{result.width}")
    return EX_OK


def _cmd_bwmc(args) -> int:
    formula, weights = parse_dimacs(Path(args.input).read_text(), name=args.input)
    seq = parse_sequence(Path(args.seq).read_text())
    stats: dict | None = {} if args.stats else None
    value = solve_bwmc(formula, weights, args.k, seq, stats=stats)
    if stats is not None:
        if "region_cap" not in stats:
            print("stats: solved in closed form, no dynamic program ran", file=sys.stderr)
        else:
            print(
                f"stats: width {stats['width']}, region size cap {stats['region_cap']}, "
                f"{stats['regions_evaluated']} regions evaluated "
                f"({stats['large_regions']} at the cap, "
                f"{stats['has_one_splits']} has_one splits), "
                f"{stats['fold_states']} fold states "
                f"({stats['dead_states']} dead states dropped), "
                f"largest table {stats['largest_table']}, "
                f"{stats['entries_copied']} entries copied",
                file=sys.stderr,
            )
    _print_count(value, args.k, args.json)
    return EX_OK


def _cmd_oracle(args) -> int:
    formula, weights = parse_dimacs(Path(args.input).read_text(), name=args.input)
    if args.mode == "bwmc":
        _print_count(bwmc_oracle(formula, weights, args.k), args.k, args.json)
    else:
        answer = bsat_oracle(formula, args.k)
        print(json.dumps({"satisfiable": answer, "k": args.k}) if args.json
              else ("true" if answer else "false"))
    return EX_OK


def _cmd_gen(args) -> int:
    if args.family == "grid":
        graph = gen_grid(args.dimension, args.side, args.signs, args.seed)
        _emit(serialize_graph(graph), args.output)
    elif args.family == "subclique":
        graph, clique = gen_subdivided_clique(args.d, args.counts, args.signs, args.seed)
        text = "c clique " + " ".join(map(str, clique)) + "\n" + serialize_graph(graph)
        _emit(text, args.output)
    elif args.family == "hitset":
        universe = range(1, args.universe + 1)
        sets = [_int_list(s) for s in args.set]
        formula, k = gen_hitting_set_formula(universe, sets, args.k)
        _emit(f"c k {k}\n" + serialize_dimacs(formula), args.output)
    elif args.family == "partclique":
        parts = [_int_list(p) for p in args.part]
        edges = [tuple(_int_list(e)) for e in args.edge]
        if any(len(e) != 2 for e in edges):
            raise ValueError("each --edge needs exactly two vertices")
        formula, k = gen_partitioned_clique_formula(parts, edges)
        _emit(f"c k {k}\n" + serialize_dimacs(formula), args.output)
    else:
        formula = gen_random_ksat(args.num_vars, args.width, args.num_clauses, args.seed)
        _emit(serialize_dimacs(formula), args.output)
    return EX_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated list of ints, got {text!r}") from exc


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = _Parser(prog="stww", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="check a contraction sequence")
    p.add_argument("input", help="signed trigraph or CNF file")
    p.add_argument("seq", help="contraction sequence (.tws)")
    p.add_argument("--bipartite", action="store_true", help="require same-side steps")
    p.add_argument("--width", type=int, default=None, help="declared width to enforce")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bipartize", parents=[common], help="turn a d-sequence into a bipartite one")
    p.add_argument("input", help="sided signed trigraph or CNF file")
    p.add_argument("seq", help="unrestricted contraction sequence (.tws)")
    p.add_argument("-o", "--output", help="write the bipartite sequence here")
    p.set_defaults(run=_cmd_bipartize)

    p = sub.add_parser("greedy", parents=[common], help="greedy contraction sequence")
    p.add_argument("input", help="signed trigraph or CNF file")
    p.add_argument("--bipartite", action="store_true",
                   help="same-side steps only (implied for CNF input)")
    p.add_argument("--tie-break", choices=("smallest", "largest"), default="smallest")
    p.add_argument("-o", "--output", help="write the sequence here")
    p.set_defaults(run=_cmd_greedy)

    p = sub.add_parser("exact", parents=[common], help="exact bipartite width via a SAT solver")
    p.add_argument("input", help="sided signed trigraph or CNF file")
    p.add_argument("--solver", help=f"solver command (default ${SOLVER_ENV})")
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="overall budget in seconds; inf means no limit")
    p.add_argument("-o", "--output", help="write the witness sequence here")
    p.set_defaults(run=_cmd_exact)

    p = sub.add_parser("bwmc", parents=[common], help="bounded-ones weighted model count")
    p.add_argument("input", help="CNF file (weights via 'c p weight' lines)")
    p.add_argument("seq", help="bipartite contraction sequence (.tws)")
    p.add_argument("-k", type=int, required=True, help="ones budget")
    p.add_argument("--stats", action="store_true",
                   help="report the width, region cap and region and fold counts on stderr")
    p.set_defaults(run=_cmd_bwmc)

    p = sub.add_parser("oracle", parents=[common], help="brute-force reference answers")
    p.add_argument("mode", choices=("bwmc", "bsat"))
    p.add_argument("input", help="CNF file")
    p.add_argument("-k", type=int, required=True, help="ones budget")
    p.set_defaults(run=_cmd_oracle)

    # gen writes files only, so none of its parsers takes --json
    p = sub.add_parser("gen", help="emit generated instances")
    p.set_defaults(run=_cmd_gen)
    fam = p.add_subparsers(dest="family", required=True)

    q = fam.add_parser("grid")
    q.add_argument("dimension", type=int)
    q.add_argument("side", type=int)
    q.add_argument("--signs", choices=SIGN_POLICIES, default="all-pos")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--output")

    q = fam.add_parser("subclique")
    q.add_argument("d", type=int)
    q.add_argument("counts", type=int, nargs="*", help="one count per K_d edge, lexicographic")
    q.add_argument("--signs", choices=SIGN_POLICIES, default="all-pos")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--output")

    q = fam.add_parser("hitset")
    q.add_argument("--universe", type=int, required=True, help="universe size (elements 1..N)")
    q.add_argument("--set", action="append", required=True, help="comma-separated set, repeatable")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-o", "--output")

    q = fam.add_parser("partclique")
    q.add_argument("--part", action="append", required=True, help="comma-separated part, repeatable")
    q.add_argument("--edge", action="append", default=[], help="u,v cross-part edge, repeatable")
    q.add_argument("-o", "--output")

    q = fam.add_parser("ksat")
    q.add_argument("num_vars", type=int)
    q.add_argument("width", type=int)
    q.add_argument("num_clauses", type=int)
    q.add_argument("seed", type=int)
    q.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # an exact count or a weight may pass the interpreter's limit on int <->
    # str conversion (4300 digits by default; 0 is no limit, and 3.10.0 to
    # 3.10.6 have none): lift it while the command runs, then restore it
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except (SolverUnavailableError, SolverError, DecodeError) as exc:
        print(f"stww: {exc}", file=sys.stderr)
        return EX_ENV
    except RecursionError as exc:
        print(f"stww: input exceeds an internal limit ({exc})", file=sys.stderr)
        return EX_ENV
    except (ParseError, OSError, ValueError) as exc:
        print(f"stww: {exc}", file=sys.stderr)
        return EX_DATA
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
