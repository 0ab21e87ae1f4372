"""Exact solvers for the minimum-weight dominating induced matching problem.

A dominating induced matching (DIM) of a graph is a set of edges that
every edge of the graph touches exactly once: the chosen edges form an
induced matching, and every other edge shares an endpoint with exactly
one of them. Not every graph has one; deciding existence is NP-complete.
This package finds a minimum-weight DIM, counts all DIMs, and ships the
small brute-force oracle the fast solvers are tested against.
"""

from .coloring import (
    BLACK,
    NO_PAIR,
    UNCOLORED,
    WHITE,
    Coloring,
)
from .domset import (
    classify_parts,
    find_dominating_set,
    solve_domset,
)
from .generate import FAMILIES, gen_instance
from .graph import (
    ContractViolation,
    CountResult,
    Dim,
    Graph,
    GraphFormatError,
    PreprocessResult,
    SolveOutcome,
    SolveStats,
    format_weight,
    parse_graph,
    preprocess,
    serialize_graph,
    validate_dim,
)
from .mis import (
    count_dims,
    enumerate_mis,
    solve_mis,
)
from .oracle import (
    MAX_ORACLE_N,
    InstanceTooLargeError,
    OracleResult,
    brute_mis,
    brute_solve,
)
from .solve import (
    ALGORITHMS,
    count_instance,
    solve_instance,
)
from .trace import DotTracer

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BLACK",
    "Coloring",
    "ContractViolation",
    "CountResult",
    "Dim",
    "DotTracer",
    "FAMILIES",
    "Graph",
    "GraphFormatError",
    "InstanceTooLargeError",
    "MAX_ORACLE_N",
    "NO_PAIR",
    "OracleResult",
    "PreprocessResult",
    "SolveOutcome",
    "SolveStats",
    "UNCOLORED",
    "WHITE",
    "brute_mis",
    "brute_solve",
    "classify_parts",
    "count_dims",
    "count_instance",
    "enumerate_mis",
    "find_dominating_set",
    "format_weight",
    "gen_instance",
    "parse_graph",
    "preprocess",
    "serialize_graph",
    "solve_domset",
    "solve_instance",
    "solve_mis",
    "validate_dim",
    "__version__",
]
