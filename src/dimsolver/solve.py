"""Front door: preprocessing, engine choice, and result assembly.

Both exact algorithms enumerate the same solution space from different
ends. The dominating set route searches the colorings of a small
dominating set D depth-first and prunes every prefix that propagation
refutes; the independent set route walks every maximal independent set,
of which there are at most 3^(n/3). "auto" runs the dominating set
route: with pruning it was never measurably slower than the independent
set route on random and planted graphs, so nothing is selected.

solve_instance returns the SolveOutcome the engine returned, with the DIM
mapped back to the input graph's edge ids. Its stats.engine names the
engine that ran; "brute" runs the oracle, which counts nothing, so its
record holds the engine name alone.

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
from .graph import (
    ContractViolation, CountResult, Graph, SolveOutcome, SolveStats, preprocess, validate_dim,
)
from .mis import count_dims, solve_mis
from .oracle import brute_solve
from .trace import DotTracer

ALGORITHMS = ("auto", "domset", "mis", "brute")


def solve_instance(
    g: Graph,
    algo: str = "auto",
    observer: Optional[Callable] = None,
    tracer: Optional[DotTracer] = None,
) -> SolveOutcome:
    """Minimum-weight DIM of g, or None when g has no DIM.

    Isolated vertices and isolated edges are split off first; the chosen
    engine runs on the remainder and forced edges are merged back in, so
    the returned edge ids index g.edges; stats is the engine's own record.
    observer and tracer are solve_domset's, so "mis" and "brute", which
    have no roots or branches, reject them with ValueError.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    pre = preprocess(g)
    residual = pre.residual
    if algo in ("auto", "domset"):
        outcome = solve_domset(residual, observer=observer, tracer=tracer)
    elif tracer is not None or observer is not None:
        what = "branch tracing" if tracer is not None else "a root observer"
        raise ValueError(f"{what} is only available with the domset algorithm")
    elif algo == "mis":
        outcome = solve_mis(residual)
    else:
        outcome = SolveOutcome(brute_solve(residual).min_dim(residual), SolveStats("brute"))
    if outcome.dim is None:
        return outcome
    dim = pre.original_dim(outcome.dim)
    if not validate_dim(g, dim.edge_ids):
        raise ContractViolation("merged solution fails validation on the input graph")
    return SolveOutcome(dim, outcome.stats)


def count_instance(g: Graph) -> CountResult:
    """Count the DIMs of g; the minimum weight is that of the counter's
    witness DIM on g, forced isolated edges included.

    The dominating set search runs first. When it finds no DIM the count
    is 0 and stats is the search's record (engine "domset"); otherwise
    the maximal independent set walk counts, stats is the walk's record
    (engine "mis"), and a walk minimum that differs from the search's
    raises ContractViolation.
    """
    pre = preprocess(g)
    found = solve_domset(pre.residual)
    if found.dim is None:
        return CountResult(0, None, 0, stats=found.stats)
    res = count_dims(pre.residual)
    if res.min_weight != found.dim.weight:
        raise ContractViolation(
            f"count walk minimum {res.min_weight!r} != search minimum {found.dim.weight!r}"
        )
    dim = pre.original_dim(res.witness)
    return CountResult(res.total, dim.weight, res.min_count, dim, res.stats)
