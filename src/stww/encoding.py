"""SAT encoding of "signed bipartite twin-width <= d" and solver plumbing.

Relative encoding: order variables give a total elimination order, parent
variables say which later same-side vertex each eliminated vertex merges
into, and red variables r(u,a,b) say that after u's elimination the alive
pair a,b carries a red edge.  Red variables are only implied, never fixed,
so a model may overapproximate the red sets; the cardinality counters bound
the overapproximation by d, which is what makes decoded sequences verify.

Soundness is never taken from the encoding alone: every satisfying model is
decoded into a sequence and re-verified by replay.
"""

from __future__ import annotations

import shlex
import subprocess
import time
from dataclasses import dataclass
from itertools import combinations, permutations

from .bounds import greedy_sequence
from .cnf import Formula, serialize_dimacs
from .sequence import ContractionSequence, verify
from .trigraph import RED, SignedTrigraph


class DecodeError(ValueError):
    """The given assignment does not fit the encoding."""


class SolverError(RuntimeError):
    """The external solver produced output we cannot interpret."""


class SolverUnavailableError(RuntimeError):
    """The external solver command cannot be run at all."""


@dataclass(frozen=True)
class EncodingArtifact:
    cnf: Formula
    # encoding variable -> semantic role, e.g. ("order", u, v) or ("red", t, a, b)
    legend: dict[int, tuple]
    graph: SignedTrigraph
    d: int
    order_vars: dict[tuple[int, int], int]
    parent_vars: dict[tuple[int, int], int]
    red_vars: dict[tuple[int, int, int], int]
    last_vars: dict[int, int]


@dataclass(frozen=True)
class ExactResult:
    width: int
    seq: ContractionSequence
    # False when the search was cut short: width is then only an upper bound
    exact: bool


class _Builder:
    """Allocates variables and collects clauses, dropping exact duplicates.

    Duplicates do occur: at d = 0 the degree counters of v and w both emit
    the unit clause -r(t,v,w) for their shared red variable.  (Each
    transitivity clause would come from all 3 rotations of its triple; that
    rule emits only the first.)  Tautologies do not: the literals of every
    rule name distinct variables, and Formula rejects a tautology loudly
    should a change to the encoder ever build one.
    """

    def __init__(self) -> None:
        self.count = 0
        self.legend: dict[int, tuple] = {}
        # clause -> None, kept in first-insertion order
        self.clauses: dict[frozenset[int], None] = {}

    def new_var(self, role: tuple) -> int:
        self.count += 1
        self.legend[self.count] = role
        return self.count

    def add(self, *lits: int) -> None:
        self.clauses[frozenset(lits)] = None

    def add_at_most(self, lits: list[int], bound: int, tag: tuple) -> None:
        """Sequential-counter cardinality constraint: at most `bound` true."""
        m = len(lits)
        if bound >= m:
            return
        if bound == 0:
            for lit in lits:
                self.add(-lit)
            return
        reg = [
            [self.new_var(("card", *tag, i, j)) for j in range(bound)]
            for i in range(m - 1)
        ]
        self.add(-lits[0], reg[0][0])
        for j in range(1, bound):
            self.add(-reg[0][j])
        for i in range(1, m - 1):
            self.add(-lits[i], reg[i][0])
            self.add(-reg[i - 1][0], reg[i][0])
            for j in range(1, bound):
                self.add(-lits[i], -reg[i - 1][j - 1], reg[i][j])
                self.add(-reg[i - 1][j], reg[i][j])
            self.add(-lits[i], -reg[i - 1][bound - 1])
        self.add(-lits[m - 1], -reg[m - 2][bound - 1])


def encode(graph: SignedTrigraph, d: int) -> EncodingArtifact:
    """CNF that is satisfiable iff the graph has a bipartite d-sequence.

    The graph must be bipartite with sides assigned and free of red edges.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    vertices = graph.vertices()
    for v in vertices:
        if graph.side(v) is None:
            raise ValueError(f"vertex {v} has no side; the encoding is bipartite-only")
    for _, _, kind in graph.edges():
        if kind == RED:
            raise ValueError("the encoding starts from a red-free graph")

    b = _Builder()
    order = {(u, v): b.new_var(("order", u, v)) for u, v in combinations(vertices, 2)}

    def olit(u: int, v: int) -> int:
        return order[(u, v)] if u < v else -order[(v, u)]

    same_side = {
        u: [v for v in vertices if v != u and graph.side(v) == graph.side(u)]
        for u in vertices
    }
    cross_side = {
        u: [v for v in vertices if graph.side(v) != graph.side(u)] for u in vertices
    }
    parent = {
        (u, v): b.new_var(("parent", u, v)) for u in vertices for v in same_side[u]
    }
    last = {u: b.new_var(("last", u)) for u in vertices}
    red = {}
    for t in vertices:
        for a, bb in combinations(vertices, 2):
            if a != t and bb != t and graph.side(a) != graph.side(bb):
                red[(t, a, bb)] = b.new_var(("red", t, a, bb))

    def rlit(t: int, a: int, c: int) -> int:
        return red[(t, a, c) if a < c else (t, c, a)]

    # total elimination order: the three rotations of (x, y, z) give the same
    # clause, so emit the one starting at the smallest vertex, which comes
    # first in permutation order; that leaves 2 clauses per vertex triple
    for x, y, z in permutations(vertices, 3):
        if x < y and x < z:
            b.add(-olit(x, y), -olit(y, z), olit(x, z))

    # last(u) <-> u comes after every same-side vertex
    for u in vertices:
        for v in same_side[u]:
            b.add(-last[u], olit(v, u))
        b.add(last[u], *(-olit(v, u) for v in same_side[u]))

    # survivors sit after every eliminated vertex, so the order guards in the
    # red-edge rules treat them as alive throughout (cross-side pairs only;
    # the same-side case is the definition of last above)
    for u in vertices:
        for w in cross_side[u]:
            b.add(-last[w], last[u], olit(u, w))

    # every eliminated vertex picks exactly one later same-side parent
    for u in vertices:
        candidates = same_side[u]
        if candidates:
            b.add(last[u], *(parent[(u, v)] for v in candidates))
        for v in candidates:
            b.add(-parent[(u, v)], olit(u, v))
            b.add(-parent[(u, v)], -last[u])
        for v, w in combinations(candidates, 2):
            b.add(-parent[(u, v)], -parent[(u, w)])

    # merging u into v makes (v,w) red when the original symbols disagree
    for u in vertices:
        for v in same_side[u]:
            for w in cross_side[u]:
                if graph.edge(u, w) != graph.edge(v, w):
                    b.add(-parent[(u, v)], -olit(u, w), rlit(u, v, w))

    # not_before[u][w] is the literal -o(u,w): u is not eliminated before w
    not_before = {u: {w: -olit(u, w) for w in vertices if w != u} for u in vertices}

    # a red edge (u,w) alive at an earlier time t transfers to u's parent:
    # -r(t,u,w) | -o(t,u) | -p(u,v) | -o(u,w) | r(u,v,w), with the literals
    # that do not depend on v looked up once per (t, u)
    for t in vertices:
        for u in vertices:
            if u == t:
                continue
            not_tu = not_before[t][u]
            per_w = [(w, -rlit(t, u, w), not_before[u][w]) for w in cross_side[u] if w != t]
            for v in same_side[u]:
                if v == t:
                    continue
                not_parent = -parent[(u, v)]
                for w, not_red, not_uw in per_w:
                    b.add(not_red, not_tu, not_parent, not_uw, rlit(u, v, w))

    # red edges persist while both endpoints stay alive:
    # -r(t,a,c) | -o(t,u) | -o(u,a) | -o(u,c) | r(u,a,c)
    red_at: dict[int, list[tuple[int, int, int]]] = {t: [] for t in vertices}
    for (t, a, c), var in red.items():
        red_at[t].append((a, c, -var))
    for t in vertices:
        for u in vertices:
            if u == t:
                continue
            not_tu, not_u = not_before[t][u], not_before[u]
            for a, c, not_red in red_at[t]:
                if a == u or c == u:
                    continue
                b.add(not_red, not_tu, not_u[a], not_u[c], rlit(u, a, c))

    # after any step, every vertex has at most d red edges
    for t in vertices:
        for v in vertices:
            if v == t:
                continue
            lits = [rlit(t, v, w) for w in cross_side[v] if w != t]
            b.add_at_most(lits, d, ("deg", t, v))

    cnf = Formula(b.count, tuple(b.clauses))
    return EncodingArtifact(cnf, b.legend, graph, d, order, parent, red, last)


def decode(artifact: EncodingArtifact, model) -> ContractionSequence:
    """Turn a satisfying assignment into the contraction sequence it encodes.

    `model` is anything iterable as DIMACS literals (positive = true);
    variables not mentioned count as false.  Raises DecodeError if the
    assignment does not satisfy the encoding or is internally inconsistent.
    """
    true_vars = {lit for lit in model if lit > 0}

    def val(lit: int) -> bool:
        return (lit in true_vars) if lit > 0 else (-lit not in true_vars)

    for idx, clause in enumerate(artifact.cnf.clauses):
        if not any(val(lit) for lit in clause):
            raise DecodeError(f"assignment falsifies encoding clause {idx}")

    graph = artifact.graph
    vertices = graph.vertices()

    def olit(u: int, v: int) -> int:
        return artifact.order_vars[(u, v)] if u < v else -artifact.order_vars[(v, u)]

    rank = {u: sum(1 for v in vertices if v != u and val(olit(v, u))) for u in vertices}
    by_rank = sorted(vertices, key=lambda u: rank[u])
    if sorted(rank.values()) != list(range(len(vertices))):
        raise DecodeError("order variables do not describe a total order")

    survivors = set()
    for side in (0, 1):
        side_vertices = [u for u in by_rank if graph.side(u) == side]
        if side_vertices:
            survivors.add(side_vertices[-1])

    steps: list[tuple[int, int]] = []
    for u in by_rank:
        if u in survivors:
            continue
        parents = [
            v
            for (uu, v), var in artifact.parent_vars.items()
            if uu == u and val(var)
        ]
        if len(parents) != 1:
            raise DecodeError(f"vertex {u} has {len(parents)} parents in the model")
        steps.append((parents[0], u))
    return ContractionSequence(tuple(steps), num_vertices=max(vertices, default=0))


def run_solver(
    dimacs: str, command: str | list[str], timeout: float | None = None
) -> tuple[str, set[int]]:
    """Run an external SAT solver on DIMACS text.

    The solver reads the problem on stdin and answers in SAT-competition
    format: an `s SATISFIABLE` / `s UNSATISFIABLE` status line and, when
    satisfiable, `v` lines of literals.  Returns one of ("sat", literals),
    ("unsat", empty), ("unknown", empty) or ("timeout", empty).
    """
    try:
        args = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as exc:
        raise SolverUnavailableError(f"cannot parse solver command {command!r}: {exc}") from None
    if not args:
        raise SolverUnavailableError("empty solver command")
    try:
        proc = subprocess.run(
            args, input=dimacs, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout", set()
    except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
        raise SolverUnavailableError(f"cannot run solver {args[0]!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SolverError(f"solver output is not UTF-8 text: {exc}") from None

    status = None
    literals: set[int] = set()
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            status = line[2:].strip().upper()
        elif line.startswith("v "):
            for token in line[2:].split():
                try:
                    lit = int(token)
                except ValueError:
                    raise SolverError(f"bad literal {token!r} in solver output") from None
                if lit != 0:
                    literals.add(lit)
    if status == "SATISFIABLE":
        return "sat", literals
    if status == "UNSATISFIABLE":
        return "unsat", set()
    if status == "UNKNOWN":
        return "unknown", set()
    detail = (proc.stderr or proc.stdout or "").strip().splitlines()
    raise SolverError(
        "solver gave no status line"
        + (f" (last output: {detail[-1]!r})" if detail else "")
    )


def exact_tww_via_solver(
    graph: SignedTrigraph,
    solver: str | list[str],
    timeout: float | None = None,
) -> ExactResult:
    """Minimal bipartite width via repeated SAT queries.

    Starts from the greedy upper bound and walks d downward; every
    satisfiable answer is decoded and re-verified before it is trusted.  On
    timeout or an unknown answer the best verified width so far is returned
    with exact=False (an upper bound only).
    """
    base = greedy_sequence(graph, bipartite=True)
    best_width = base.declared_width or 0
    best_seq = base
    deadline = time.monotonic() + timeout if timeout is not None else None

    d = best_width - 1
    while d >= 0:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return ExactResult(best_width, best_seq, False)
        artifact = encode(graph, d)
        status, model = run_solver(serialize_dimacs(artifact.cnf), solver, remaining)
        if status == "sat":
            seq = decode(artifact, model)
            report = verify(graph, seq, require_bipartite=True)
            if not report.ok or report.width > d:
                raise SolverError(
                    f"decoded sequence fails verification at d={d}: {report.failure}"
                )
            best_width, best_seq = report.width, seq
            d = report.width - 1
        elif status == "unsat":
            return ExactResult(best_width, best_seq, True)
        else:
            return ExactResult(best_width, best_seq, False)
    return ExactResult(best_width, best_seq, True)
