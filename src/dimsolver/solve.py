"""Front door: preprocessing, algorithm selection, and result assembly.

Both exact algorithms enumerate the same solution space from different
ends. The dominating set route explores 2^|D| colorings of a small
dominating set D; the independent set route walks every maximal
independent set, of which there are at most 3^(n/3). Auto selection
picks domset only when |D| <= n*log2(3)/6 (about 0.264*n), that is when
2^|D| <= sqrt(3^(n/3)); otherwise it picks mis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .coloring import ContractViolation
from .domset import SolveOutcome, find_dominating_set, solve_domset
from .graph import Dim, Graph, PreprocessResult, preprocess, validate_dim
from .mis import CountResult, count_dims, solve_mis
from .oracle import brute_solve
from .trace import DotTracer

ALGORITHMS = ("auto", "domset", "mis", "brute")

# log2 of the MIS-count base 3^(1/3). select_algorithm compares |D| with
# half this slope times n, so domset needs 2^|D| <= sqrt(3^(n/3)).
_MIS_EXPONENT_PER_VERTEX = math.log2(3.0) / 3.0


@dataclass(frozen=True)
class InstanceResult:
    """Outcome for one input graph, expressed in its original vertex ids."""

    dim: Optional[Dim]
    algorithm: str
    stats: object
    preprocess: PreprocessResult


def select_algorithm(g: Graph) -> tuple[str, Optional[list[int]]]:
    """Pick an enumeration for a preprocessed graph by the rule above.

    Returns ("domset", d) with the dominating set it found, or
    ("mis", None).
    """
    d = find_dominating_set(g)
    if len(d) <= g.n * _MIS_EXPONENT_PER_VERTEX / 2.0:
        return "domset", d
    return "mis", None


def _solve_residual(
    residual: Graph,
    algo: str,
    observer,
    tracer: Optional[DotTracer],
) -> tuple[str, SolveOutcome]:
    d = None
    if algo == "auto":
        if tracer is not None:
            algo = "domset"
        else:
            algo, d = select_algorithm(residual)
    if algo == "domset":
        return "domset", solve_domset(residual, d, observer=observer, tracer=tracer)
    if tracer is not None:
        raise ValueError("branch tracing is only available with the domset algorithm")
    if algo == "mis":
        return "mis", solve_mis(residual)
    if algo == "brute":
        oc = brute_solve(residual)
        dim = oc.min_dim(residual) if oc.total else None
        return "brute", SolveOutcome(dim=dim, stats=oc)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


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
    """Count the DIMs of g; weights include any forced isolated edges."""
    pre = preprocess(g)
    res = count_dims(pre.residual)
    if res.total == 0:
        return res
    return CountResult(res.total, res.min_weight + pre.forced_weight, res.min_count)
