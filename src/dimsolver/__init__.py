"""Exact solvers for the minimum-weight dominating induced matching problem.

A dominating induced matching (DIM) of a graph is a set of edges that
every edge of the graph touches exactly once: the chosen edges form an
induced matching, and every other edge shares an endpoint with exactly
one of them. Not every graph has one; deciding existence is NP-complete.
This package finds a minimum-weight DIM, counts all DIMs, and ships the
small brute-force oracle the fast solvers are tested against.

The package exports what a library user calls: solve_instance and
count_instance, solve_domset for a known dominating set, the graph,
result and error types, the generator and the oracle, brute_solve, which
answers in the same CountResult as count_instance. Engine internals stay
in their modules: the coloring in dimsolver.coloring, the search's parts
and default dominating set in dimsolver.domset, the walk in
dimsolver.mis, and brute_dims and brute_mis in dimsolver.oracle.
"""

from .domset import solve_domset
from .generate import FAMILIES, gen_instance
from .graph import (
    ContractViolation,
    CountResult,
    Dim,
    Graph,
    GraphFormatError,
    SolveOutcome,
    SolveStats,
    format_weight,
    parse_graph,
    serialize_graph,
    validate_dim,
)
from .oracle import MAX_ORACLE_N, InstanceTooLargeError, brute_solve
from .solve import ALGORITHMS, count_instance, solve_instance
from .trace import DotTracer

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ContractViolation",
    "CountResult",
    "Dim",
    "DotTracer",
    "FAMILIES",
    "Graph",
    "GraphFormatError",
    "InstanceTooLargeError",
    "MAX_ORACLE_N",
    "SolveOutcome",
    "SolveStats",
    "brute_solve",
    "count_instance",
    "format_weight",
    "gen_instance",
    "parse_graph",
    "serialize_graph",
    "solve_domset",
    "solve_instance",
    "validate_dim",
    "__version__",
]
