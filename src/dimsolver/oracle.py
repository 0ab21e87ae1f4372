"""Exhaustive ground truth for small instances.

Enumerates all 2^n black/white vertex partitions (respectively all vertex
subsets) and keeps the ones meeting the definition. No propagation, no
pruning beyond the subset loop; this module must stay independent of the
solvers so it can arbitrate them. brute_solve answers in the engines'
CountResult, so a count and the oracle compare with ==.
"""

from __future__ import annotations

import math

from .graph import CountResult, Dim, Graph

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


def _weight_of(
    edges: tuple[tuple[int, int, float], ...], edge_ids: frozenset[int]
) -> float:
    """The correctly rounded sum of the DIM's edge weights: exact before one
    rounding, so it does not depend on the order of the edges."""
    return math.fsum(edges[e][2] for e in edge_ids)


def brute_dims(g: Graph) -> tuple[frozenset[int], ...]:
    """Every DIM of g by definition, as edge-id sets in increasing order of
    the black-set bitmask: a black set inducing a 1-regular subgraph whose
    complement is an independent set.
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
    return tuple(dims)


def brute_solve(g: Graph) -> CountResult:
    """The count, minimum and ties of brute_dims(g); the witness is the
    first minimum-weight DIM in its order, and stats is None."""
    dims = brute_dims(g)
    witness = None
    min_count = 0
    for d in dims:
        w = _weight_of(g.edges, d)
        if witness is None or w < witness.weight:
            witness, min_count = Dim(d, w), 1
        elif w == witness.weight:
            min_count += 1
    if witness is None:
        return CountResult(0, None, 0)
    return CountResult(len(dims), witness.weight, min_count, witness)


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
