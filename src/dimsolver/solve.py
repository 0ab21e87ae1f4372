"""Front door: engine choice and the count's cross-check.

Both exact algorithms enumerate the same solution space from different
ends. The dominating set route searches the colorings of a small
dominating set D depth-first and prunes every prefix that propagation
refutes; the independent set route walks every maximal independent set,
of which there are at most 3^(n/3). "auto" runs the dominating set
route: with pruning it was never measurably slower than the independent
set route on random and planted graphs, so nothing is selected. "mis"
runs the independent set route.

Both engines run on the input graph itself, isolated vertices and
isolated edges included, and weigh whole DIMs with Graph.dim.
solve_instance returns the SolveOutcome the engine returned; its
stats.engine names the engine that ran, "domset" or "mis".

count_instance uses both routes. The search decides existence first, so
a graph without a DIM never reaches the walk, which on such a graph
would visit every maximal independent set and complete none. When a DIM
exists the walk counts them, and its minimum must equal the search's bit
for bit: both take the least math.fsum over the same DIMs, so any
difference is a broken engine and raises ContractViolation.
"""

from __future__ import annotations

from typing import Callable, Optional

from .domset import solve_domset
from .graph import ContractViolation, CountResult, Graph, SolveOutcome, validate_dim
from .mis import count_dims, solve_mis
from .trace import DotTracer

ALGORITHMS = ("auto", "mis")


def solve_instance(
    g: Graph,
    algo: str = "auto",
    observer: Optional[Callable] = None,
    tracer: Optional[DotTracer] = None,
) -> SolveOutcome:
    """Minimum-weight DIM of g, or None when g has no DIM: the outcome of
    the chosen engine run on g, whose own check has validated the DIM.

    observer and tracer are solve_domset's, so "mis", which has no roots
    or branches, rejects them with ValueError.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if algo == "auto":
        return solve_domset(g, observer=observer, tracer=tracer)
    if tracer is not None or observer is not None:
        what = "branch tracing" if tracer is not None else "a root observer"
        raise ValueError(f"{what} is only available with the auto algorithm")
    return solve_mis(g)


def count_instance(g: Graph) -> CountResult:
    """Count the DIMs of g.

    The dominating set search runs first. When it finds no DIM the count
    is 0 and stats is the search's record (engine "domset"); otherwise
    the result is the maximal independent set walk's, stats included
    (engine "mis"). A walk minimum that differs from the search's, or a
    witness that is not a DIM of g, raises ContractViolation.
    """
    found = solve_domset(g)
    if found.dim is None:
        return CountResult(0, None, 0, stats=found.stats)
    res = count_dims(g)
    if res.min_weight != found.dim.weight:
        raise ContractViolation(
            f"count walk minimum {res.min_weight!r} != search minimum {found.dim.weight!r}"
        )
    if not validate_dim(g, res.witness.edge_ids):
        raise ContractViolation("count witness fails validation on the input graph")
    return res
