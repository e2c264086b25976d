"""Signed twin-width toolkit for CNF incidence graphs.

Builds signed trigraphs, verifies and transforms bipartite contraction
sequences, bounds signed twin-width, and solves bounded-ones weighted model
counting over a provided contraction sequence.
"""

from .bipartize import BipartizationResult, HalfDegreeError, bipartize
from .bounds import exact_tww_bruteforce, greedy_sequence, subdivided_clique_sequence
from .bwmc import (
    Profile,
    dp_records,
    enumerate_red_connected,
    finalize,
    region_cap,
    solve_bwmc,
)
from .cnf import (
    Formula,
    FormulaWarning,
    ParseError,
    WeightFunction,
    assignment_weight,
    ones,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
)
from .cwexpr import (
    CliqueWidthExpression,
    cw_to_sequence,
    evaluate,
    expression,
    parse_cw,
    serialize_cw,
)
from .encoding import (
    DecodeError,
    EncodingArtifact,
    ExactResult,
    SolverError,
    SolverUnavailableError,
    decode,
    encode,
    exact_tww_via_solver,
    run_solver,
)
from .generators import (
    SIGN_POLICIES,
    gen_grid,
    gen_hitting_set_formula,
    gen_partitioned_clique_formula,
    gen_random_ksat,
    gen_subdivided_clique,
)
from .oracle import bsat_oracle, bwmc_oracle
from .sequence import (
    ContractionSequence,
    parse_sequence,
    serialize_sequence,
    verify,
)
from .trigraph import (
    NEG,
    POS,
    RED,
    SIDE_CLA,
    SIDE_VAR,
    SignedTrigraph,
    clause_vertex,
    incidence_graph,
    parse_graph,
    serialize_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
