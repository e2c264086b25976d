"""SAT encoding of "signed bipartite twin-width <= d" and solver plumbing.

Relative encoding: order variables give a total elimination order, parent
variables say which later same-side vertex each eliminated vertex merges
into, and red variables r(u,a,b) say that after u's elimination the alive
pair a,b carries a red edge.  Red variables are only implied, never fixed,
so a model may overapproximate the red sets; the cardinality counters bound
the overapproximation by d, which is what makes decoded sequences verify.

Variables are numbered in blocks, in this order:

- order o(u,v) for each vertex pair u < v, pairs in lexicographic order, so
  for a fixed u the variable of the pair {u, x} grows with x;
- parent p(u,v), by u and then v;
- last(u), by u;
- red r(t,a,b), by t and then by pair, so r(t,·) < r(u,·) exactly when
  t < u; at d = 0 one unit clause -r per red variable forbids them all;
- the registers of the degree counters, row by row, each allocated after
  every literal it counts.

Every rule writes its clause's literals in that order, sorted by variable,
which is the clause form `Formula` holds and DIMACS text writes, so no
clause is sorted after it is built.  Where the order depends on vertex ids
the rule compares the vertices once per loop iteration outside its
innermost loop.  Each rule appends its clause tuple straight to a list,
once, and it is kept as written; `Formula` is the one duplicate guard.

Each query is encoded in one pass: `encode(graph, d)` writes the rules that
do not depend on d, then d = 0's unit clauses or the degree counters, all
into one builder, and no clause is kept from one d to the next.

Soundness is never taken from the encoding alone: every satisfying model is
decoded into a sequence and re-verified by `verify`.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import time
from dataclasses import dataclass
from itertools import combinations
from operator import neg

from .bounds import greedy_sequence
from .cnf import Formula, serialize_dimacs
from .sequence import ContractionSequence, verify
from .trigraph import RED, SignedTrigraph, require_sides


class DecodeError(ValueError):
    """The given assignment does not fit the encoding."""


class SolverError(RuntimeError):
    """The external solver produced output we cannot interpret."""


class SolverUnavailableError(RuntimeError):
    """The external solver command cannot be run at all."""


@dataclass(frozen=True)
class EncodingArtifact:
    cnf: Formula
    graph: SignedTrigraph
    order_vars: dict[tuple[int, int], int]
    parent_vars: dict[tuple[int, int], int]


@dataclass(frozen=True)
class ExactResult:
    width: int
    seq: ContractionSequence
    # False when the search was cut short: width is then only an upper bound
    exact: bool


class _Builder:
    """Allocates variables from 1 on and collects clauses in a list.

    The rules append each clause to `clauses` themselves, with the list's
    own `append`, as a tuple of literals already sorted by variable, the
    clause form `Formula` holds: nothing here sorts or deduplicates.  A rule
    that wrote a clause out of order would not be wrong, only slow, as
    `Formula` would then sort every clause again; the encoding tests check
    that it never has to.  A rule that wrote a clause twice, or a tautology,
    is an error that `Formula` raises.  (Each transitivity clause would come
    from all 3 rotations of its triple; that rule writes only the first.)
    """

    def __init__(self) -> None:
        self.count = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.count += 1
        return self.count

    def add_at_most(self, lits: list[int], bound: int) -> None:
        """Sequential-counter cardinality constraint: at most `bound` true,
        for a bound of at least 1."""
        m = len(lits)
        if bound >= m:
            return
        reg = [[self.new_var() for j in range(bound)] for i in range(m - 1)]
        append = self.clauses.append
        append((-lits[0], reg[0][0]))
        for j in range(1, bound):
            append((-reg[0][j],))
        for i in range(1, m - 1):
            append((-lits[i], reg[i][0]))
            append((-reg[i - 1][0], reg[i][0]))
            for j in range(1, bound):
                append((-lits[i], -reg[i - 1][j - 1], reg[i][j]))
                append((-reg[i - 1][j], reg[i][j]))
            append((-lits[i], -reg[i - 1][bound - 1]))
        append((-lits[m - 1], -reg[m - 2][bound - 1]))


def encode(graph: SignedTrigraph, d: int) -> EncodingArtifact:
    """CNF that is satisfiable iff the graph has a bipartite d-sequence.

    The graph must be bipartite with sides assigned and free of red edges.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    vertices = graph.vertices()
    require_sides(graph, "the encoding")
    for _, _, kind in graph.edges():
        if kind == RED:
            raise ValueError("the encoding starts from a red-free graph")

    b = _Builder()
    append = b.clauses.append
    order = {(u, v): b.new_var() for u, v in combinations(vertices, 2)}

    def olit(u: int, v: int) -> int:
        return order[(u, v)] if u < v else -order[(v, u)]

    same_side = {
        u: [v for v in vertices if v != u and graph.side(v) == graph.side(u)]
        for u in vertices
    }
    cross_side = {
        u: [v for v in vertices if graph.side(v) != graph.side(u)] for u in vertices
    }
    parent = {(u, v): b.new_var() for u in vertices for v in same_side[u]}
    last = {u: b.new_var() for u in vertices}
    # red_of[t][a][c] is r(t,a,c) under either order of a and c; red_at[t]
    # lists the pairs a < c of time t, each with t, a and c sorted
    red_of: dict[int, dict[int, dict[int, int]]] = {
        t: {a: {} for a in vertices} for t in vertices
    }
    red_at: dict[int, list[tuple[int, int, tuple[int, int, int], int]]] = {
        t: [] for t in vertices
    }
    # the red variables are one block, the last before the counters'
    first_red = b.count + 1
    for t in vertices:
        for a, c in combinations(vertices, 2):
            if a != t and c != t and graph.side(a) != graph.side(c):
                var = b.new_var()
                red_of[t][a][c] = red_of[t][c][a] = var
                red_at[t].append((a, c, tuple(sorted((t, a, c))), var))
    red_vars = range(first_red, b.count + 1)

    # total elimination order: the three rotations of (x, y, z) give the same
    # clause, so emit only the one starting at the smallest vertex x, for the
    # ordered pairs (y, z) of later vertices; that leaves 2 clauses per
    # vertex triple.  o(x,·) precedes o(y,z), and o(x,y) precedes o(x,z)
    # iff y < z
    for i, x in enumerate(vertices):
        later = vertices[i + 1 :]
        for j, y in enumerate(later):
            xy = order[(x, y)]
            for z in later[:j]:
                append((order[(x, z)], -xy, order[(z, y)]))
            for z in later[j + 1 :]:
                append((-xy, order[(x, z)], -order[(y, z)]))

    # last(u) <-> u comes after every same-side vertex
    for u in vertices:
        for v in same_side[u]:
            append((olit(v, u), -last[u]))
        append((*(-olit(v, u) for v in same_side[u]), last[u]))

    # survivors sit after every eliminated vertex, so the order guards in the
    # red-edge rules treat them as alive throughout (cross-side pairs only;
    # the same-side case is the definition of last above)
    for u in vertices:
        for w in cross_side[u]:
            if u < w:
                append((olit(u, w), last[u], -last[w]))
            else:
                append((olit(u, w), -last[w], last[u]))

    # every eliminated vertex picks exactly one later same-side parent
    for u in vertices:
        candidates = same_side[u]
        if candidates:
            append((*(parent[(u, v)] for v in candidates), last[u]))
        for v in candidates:
            append((olit(u, v), -parent[(u, v)]))
            append((-parent[(u, v)], -last[u]))
        for v, w in combinations(candidates, 2):
            append((-parent[(u, v)], -parent[(u, w)]))

    # merging u into v makes (v,w) red when the original symbols disagree
    for u in vertices:
        for v in same_side[u]:
            for w in cross_side[u]:
                if graph.edge(u, w) != graph.edge(v, w):
                    append((-olit(u, w), -parent[(u, v)], red_of[u][v][w]))

    # In the two rules below, a time t and a vertex u fix guard[x], the order
    # literal on the pair {u, x}: -o(t,u) for x = t, and otherwise -o(u,x),
    # "u is not eliminated before x".  o(u,x) grows with x, so the guards
    # sort as their vertices x do, and the red literals as their times:
    # r(t,·) before r(u,·) iff t < u.
    not_before = {u: {w: -olit(u, w) for w in vertices if w != u} for u in vertices}

    # a red edge (u,w) alive at an earlier time t transfers to u's parent:
    # -o(t,u) | -o(u,w) | -p(u,v) | -r(t,u,w) | r(u,v,w), with the literals
    # that do not depend on v looked up and ordered once per (t, u, w)
    for t in vertices:
        for u in vertices:
            if u == t:
                continue
            guard = {**not_before[u], t: not_before[t][u]}
            per_w = [
                (guard[min(t, w)], guard[max(t, w)], w, -red_of[t][u][w])
                for w in cross_side[u]
                if w != t
            ]
            for v in same_side[u]:
                if v == t:
                    continue
                not_parent, red_uv = -parent[(u, v)], red_of[u][v]
                if t < u:
                    for o1, o2, w, not_red in per_w:
                        append((o1, o2, not_parent, not_red, red_uv[w]))
                else:
                    for o1, o2, w, not_red in per_w:
                        append((o1, o2, not_parent, red_uv[w], not_red))

    # red edges persist while both endpoints stay alive:
    # -o(t,u) | -o(u,a) | -o(u,c) | -r(t,a,c) | r(u,a,c), the three guards
    # in the order of the sorted vertices x, y, z
    for t in vertices:
        for u in vertices:
            if u == t:
                continue
            guard, red_u = {**not_before[u], t: not_before[t][u]}, red_of[u]
            if t < u:
                for a, c, (x, y, z), red_t in red_at[t]:
                    if a != u and c != u:
                        append((guard[x], guard[y], guard[z], -red_t, red_u[a][c]))
            else:
                for a, c, (x, y, z), red_t in red_at[t]:
                    if a != u and c != u:
                        append((guard[x], guard[y], guard[z], red_u[a][c], -red_t))

    # after any step, every vertex has at most d red edges; at d = 0 that
    # forbids every red edge, by one unit clause (-r,) each
    if d == 0:
        b.clauses.extend(zip(map(neg, red_vars)))
    else:
        for t in vertices:
            for v in vertices:
                if v == t:
                    continue
                lits = [red_of[t][v][w] for w in cross_side[v] if w != t]
                b.add_at_most(lits, d)
    return EncodingArtifact(Formula(b.count, b.clauses), graph, order, parent)


def decode(artifact: EncodingArtifact, model) -> ContractionSequence:
    """Turn a satisfying assignment into the contraction sequence it encodes.

    `model` is anything iterable as DIMACS literals (positive = true);
    variables not mentioned count as false.  Raises DecodeError if the
    assignment does not satisfy the encoding or is internally inconsistent.
    """
    true_vars = {lit for lit in model if lit > 0}
    # the literals the assignment makes true: a falsified clause has none
    negatives = range(-artifact.cnf.num_vars, 0)
    true_lits = true_vars.union(negatives).difference(map(neg, true_vars))
    falsified = list(map(true_lits.isdisjoint, artifact.cnf.clauses))
    if True in falsified:
        raise DecodeError(f"assignment falsifies encoding clause {falsified.index(True)}")

    graph = artifact.graph
    vertices = graph.vertices()

    def olit(u: int, v: int) -> int:
        return artifact.order_vars[(u, v)] if u < v else -artifact.order_vars[(v, u)]

    rank = {u: sum(1 for v in vertices if v != u and olit(v, u) in true_lits) for u in vertices}
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
            if uu == u and var in true_lits
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
    ("unsat", empty), ("unknown", empty) or ("timeout", empty).  A timeout
    longer than one poll can wait (24 days), `inf` included, means no limit;
    a NaN timeout is a ValueError, raised before any process starts.
    """
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout is not a number")
    # subprocess polls the solver's pipes with a C int of milliseconds
    if timeout is not None and timeout > (2**31 - 1) // 1000:
        timeout = None
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

    Starts from the greedy upper bound and walks d downward, one query per
    d, each encoded in one pass by `encode`; every satisfiable answer is
    decoded and re-verified before it is trusted.  On timeout or an unknown
    answer the best verified width so far is returned with exact=False (an
    upper bound only).  A NaN timeout is a ValueError.
    """
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout is not a number")
    require_sides(graph, "the exact search")
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
            log = verify(graph, seq, require_bipartite=True)
            if not log.ok or log.width > d:
                raise SolverError(
                    f"decoded sequence fails verification at d={d}: {log.failure}"
                )
            best_width, best_seq = log.width, seq
            d = log.width - 1
        elif status == "unsat":
            return ExactResult(best_width, best_seq, True)
        else:
            return ExactResult(best_width, best_seq, False)
    return ExactResult(best_width, best_seq, True)
