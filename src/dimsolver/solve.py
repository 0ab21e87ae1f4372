"""Front door: preprocessing, engine choice, and result assembly.

Both exact algorithms enumerate the same solution space from different
ends. The dominating set route searches the colorings of a small
dominating set D depth-first and prunes every prefix that propagation
refutes; the independent set route walks every maximal independent set,
of which there are at most 3^(n/3). "auto" runs the dominating set
route: with pruning it was never measurably slower than the independent
set route on random and planted graphs, so nothing is selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .coloring import ContractViolation
from .domset import SolveOutcome, SolveStats, solve_domset
from .graph import Dim, Graph, PreprocessResult, preprocess, validate_dim
from .mis import CountResult, MisStats, count_dims, solve_mis
from .oracle import OracleResult, brute_solve
from .trace import DotTracer

ALGORITHMS = ("auto", "domset", "mis", "brute")


@dataclass(frozen=True)
class InstanceResult:
    """Outcome for one input graph, expressed in its original vertex ids."""

    dim: Optional[Dim]
    algorithm: str
    stats: SolveStats | MisStats | OracleResult
    preprocess: PreprocessResult


def _solve_residual(
    residual: Graph,
    algo: str,
    observer,
    tracer: Optional[DotTracer],
) -> tuple[str, SolveOutcome]:
    if algo in ("auto", "domset"):
        return "domset", solve_domset(residual, observer=observer, tracer=tracer)
    if tracer is not None:
        raise ValueError("branch tracing is only available with the domset algorithm")
    if algo == "mis":
        return "mis", solve_mis(residual)
    oc = brute_solve(residual)  # "brute"; solve_instance rejected the rest
    dim = oc.min_dim(residual) if oc.total else None
    return "brute", SolveOutcome(dim=dim, stats=oc)


def solve_instance(
    g: Graph,
    algo: str = "auto",
    observer: Optional[Callable] = None,
    tracer: Optional[DotTracer] = None,
) -> InstanceResult:
    """Minimum-weight DIM of g, or None when g has no DIM.

    Isolated vertices and isolated edges are split off first; the chosen
    algorithm runs on the remainder and forced edges are merged back in,
    so the returned edge ids index g.edges.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    pre = preprocess(g)
    used, outcome = _solve_residual(pre.residual, algo, observer, tracer)
    if outcome.dim is None:
        return InstanceResult(None, used, outcome.stats, pre)
    dim = pre.original_dim(outcome.dim)
    if not validate_dim(g, dim.edge_ids):
        raise ContractViolation("merged solution fails validation on the input graph")
    return InstanceResult(dim, used, outcome.stats, pre)


def count_instance(g: Graph) -> CountResult:
    """Count the DIMs of g; the minimum weight is that of the counter's
    witness DIM on g, forced isolated edges included."""
    pre = preprocess(g)
    res = count_dims(pre.residual)
    if res.witness is None:
        return res
    dim = pre.original_dim(res.witness)
    return CountResult(res.total, dim.weight, res.min_count, dim)
