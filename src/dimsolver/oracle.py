"""Exhaustive ground truth for small instances.

Enumerates all 2^n black/white vertex partitions (respectively all vertex
subsets) and keeps the ones meeting the definition. No propagation, no
pruning beyond the subset loop; this module must stay independent of the
solvers so it can arbitrate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Dim, Graph

MAX_ORACLE_N = 20


class InstanceTooLargeError(ValueError):
    """The instance exceeds the exhaustive-search cap."""

    def __init__(self, n: int):
        super().__init__(
            f"instance too large for the brute-force oracle: n={n} > {MAX_ORACLE_N}"
        )


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v, _ in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


@dataclass(frozen=True)
class OracleResult:
    """All DIMs of a graph, in increasing order of their black-set bitmask."""

    dims: tuple[frozenset[int], ...]
    min_weight: float | None
    total: int
    min_count: int

    def min_dim(self, g: Graph) -> Dim | None:
        """First minimum-weight DIM in enumeration order."""
        if self.min_weight is None:
            return None
        for d in self.dims:
            if _weight_of(g.edges, d) == self.min_weight:
                return Dim(d, self.min_weight)
        raise AssertionError("min_weight without a witness")


def _weight_of(
    edges: tuple[tuple[int, int, float], ...], edge_ids: frozenset[int]
) -> float:
    """The correctly rounded sum of the DIM's edge weights: exact before one
    rounding, so it does not depend on the order of the edges."""
    return math.fsum(edges[e][2] for e in edge_ids)


def brute_solve(g: Graph) -> OracleResult:
    """Every DIM of g by definition: a black set inducing a 1-regular
    subgraph whose complement is an independent set.
    """
    n = g.n
    if n > MAX_ORACLE_N:
        raise InstanceTooLargeError(n)
    adj = _adjacency_masks(g)
    eid_of = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    full = (1 << n) - 1
    dims: list[frozenset[int]] = []
    for black in range(1 << n):
        white = full ^ black
        ok = True
        for v in range(n):
            if (black >> v) & 1:
                if (adj[v] & black).bit_count() != 1:
                    ok = False
                    break
            else:
                if adj[v] & white:
                    ok = False
                    break
        if not ok:
            continue
        ids = set()
        for v in range(n):
            if (black >> v) & 1:
                u = (adj[v] & black).bit_length() - 1
                if u > v:
                    ids.add(eid_of[(v, u)])
        dims.append(frozenset(ids))

    min_weight = None
    min_count = 0
    for d in dims:
        w = _weight_of(g.edges, d)
        if min_weight is None or w < min_weight:
            min_weight, min_count = w, 1
        elif w == min_weight:
            min_count += 1
    return OracleResult(
        dims=tuple(dims),
        min_weight=min_weight,
        total=len(dims),
        min_count=min_count,
    )


def brute_mis(g: Graph) -> set[frozenset[int]]:
    """All maximal independent sets of g, by subset filtering."""
    n = g.n
    if n > MAX_ORACLE_N:
        raise InstanceTooLargeError(n)
    adj = _adjacency_masks(g)
    result: set[frozenset[int]] = set()
    for s in range(1 << n):
        ok = True
        for v in range(n):
            if (s >> v) & 1:
                if adj[v] & s:
                    ok = False
                    break
            else:
                if not (adj[v] & s):
                    ok = False
                    break
        if ok:
            result.add(frozenset(v for v in range(n) if (s >> v) & 1))
    return result
