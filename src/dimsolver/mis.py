"""Exact DIM solver and counter driven by maximal independent set enumeration.

The white side of any DIM is an independent set, and on graphs without
isolated edges its non-matched vertices lie in exactly one maximal
independent set. An isolated edge would put each DIM in two sets, one
per white end, so the walk leaves isolated edges out, with the isolated
vertices, and adds the isolated edges, which every DIM contains, to
every completion. On the rest: enumerate every MIS I and color the rest
minus I black; the walk reduces each I once, on bit masks. Blacks pair
up among themselves, and the first black whose neighbors in the black
mask hold two vertices kills the MIS; one neighbor there is its pair,
none makes it a single. A member of I can only ever turn black if it has
degree exactly 1 and its sole neighbor is a single black, so exactly
those members are the pair options of the singles, computed once per
graph; everything else in I is white. Each single must pick one of its
options, choices are independent, and picking cheapest per single is
optimal. One walk over the sets, count_dims, does both jobs: it adds up
the product counts, which hold every DIM exactly once, and solve_mis
reads the cheapest DIM off it. Edge ids are looked up only for the sets
that complete, and every weight is summed by Graph.dim, correctly
rounded and so the same in any order. No Coloring is built here; that
class serves the dominating set engine.

The walk takes each MIS as the mask that _maximal_sets, a pivoting
Bron-Kerbosch loop on bit masks, yields. It raises ContractViolation
rather than yield more than the 3^ceil(n/3) maximal independent sets of
Moon and Moser.
"""

from __future__ import annotations

import math
from typing import Iterator

from .graph import (
    ContractViolation, CountResult, Dim, Graph, SolveOutcome, SolveStats, validate_dim,
)


def _maximal_sets(n: int, adj: list[int]) -> Iterator[int]:
    """Yield every maximal independent set of the graph whose vertex v has
    the neighbor mask adj[v], as a bit mask, exactly once.

    Pivoting Bron-Kerbosch on the complement graph (Bron and Kerbosch
    1973; Tomita, Tanaka and Takahashi 2006), on an iterative stack of
    (chosen, allowed, excluded) masks: allowed holds the vertices that
    may still join chosen, excluded those already tried, none of them
    next to chosen. Every maximal set below contains a vertex of
    N[p] & allowed for each p in allowed | excluded, so a node branches
    on the p with the fewest, or on the first with at most one, and
    moves each tried vertex from allowed to excluded. An excluded vertex
    with no allowed neighbor left can never be dominated, so its branch
    ends; chosen is maximal when allowed and excluded are both empty.
    Deterministic order, O(3^(n/3)) time, no recursion.
    Raises ContractViolation before yielding more than 3^ceil(n/3) sets.
    """
    cap = 3 ** ((n + 2) // 3)
    found = 0
    closed = [near | 1 << v for v, near in enumerate(adj)]
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        chosen, allowed, excluded = stack.pop()
        if not allowed:
            if not excluded:
                found += 1
                if found > cap:
                    raise ContractViolation(
                        f"enumerated {found} maximal independent sets > 3^ceil(n/3) = {cap}"
                    )
                yield chosen
            continue
        branch, size = allowed, allowed.bit_count()
        rest = allowed | excluded
        while rest and size > 1:
            low = rest & -rest
            rest ^= low
            near = closed[low.bit_length() - 1] & allowed
            if near.bit_count() < size:
                branch, size = near, near.bit_count()
        # tried from the highest vertex down, so the lowest is popped first
        while branch:
            v = branch.bit_length() - 1
            bit = 1 << v
            branch ^= bit
            stack.append((chosen | bit, allowed & ~closed[v], excluded & ~closed[v]))
            allowed ^= bit
            excluded |= bit


def _members(mask: int) -> list[int]:
    """The vertices of a mask, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _singles(adj: list[int], black: int) -> list[int] | None:
    """The black vertices without a black neighbor, in increasing order, or
    None at the first black vertex with two black neighbors."""
    singles = []
    rest = black
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        near = adj[v] & black
        if not near:
            singles.append(v)
        elif near & (near - 1):
            return None
    return singles


def _matched(g: Graph, kept: list[int], adj: list[int], black: int) -> list[int]:
    """The ids of the edges between paired blacks, by lower endpoint, once
    _singles has passed the black mask; bit i of the masks is the vertex
    kept[i] of g."""
    ids = []
    for v in _members(black):
        u = (adj[v] & black).bit_length() - 1
        if u > v:
            ids.append(g.edge_id(kept[v], kept[u]))
    return ids


def _pair_options(g: Graph, kept: list[int]) -> list[tuple[tuple[float, int, int], ...]]:
    """Each kept vertex's neighbors of degree 1 as (weight, vertex, edge
    id), cheapest first: the partners it may take when it is a single."""
    adj = g.adjacency
    return [
        tuple(sorted([(g.edges[eid][2], u, eid) for u, eid in adj[v] if len(adj[u]) == 1]))
        for v in kept
    ]


def count_dims(g: Graph) -> CountResult:
    """Count all DIMs of g and the multiplicity at the minimum weight, in
    one pass over every maximal independent set of g without its isolated
    vertices and isolated edges. Any graph will do: isolated edges are
    counted once, in every DIM.

    Keeps the first cheapest DIM found as the witness (each single takes
    its first, cheapest option), and counts the DIMs that tie with it:
    within a set, the singles' choices at their cheapest weight, which
    give the same multiset of edge weights. Its stats count the sets
    walked and those that completed; solve_mis returns the same record.
    """
    adjacency = g.adjacency
    kept = g.core_vertices()
    index = [-1] * g.n
    for i, v in enumerate(kept):
        index[v] = i
    adj = [sum([1 << index[u] for u, _ in adjacency[v]]) for v in kept]
    isolated = [eid for eid, (u, _, _) in enumerate(g.edges) if index[u] < 0]
    everyone = (1 << len(kept)) - 1
    pair_options = _pair_options(g, kept)
    best: Dim | None = None
    total = min_count = mis_count = completions = 0
    for white in _maximal_sets(len(kept), adj):
        mis_count += 1
        black = everyone & ~white
        singles = _singles(adj, black)
        if singles is None:
            continue
        options = [pair_options[s] for s in singles]
        if not all(options):
            continue
        completions += 1
        total += math.prod(map(len, options))
        dim = g.dim(_matched(g, kept, adj, black) + isolated + [opts[0][2] for opts in options])
        ties = math.prod(sum(1 for w, _, _ in opts if w == opts[0][0]) for opts in options)
        # strict: ties keep the earliest MIS
        if best is None or dim.weight < best.weight:
            best, min_count = dim, ties
        elif dim.weight == best.weight:
            min_count += ties
    stats = SolveStats("mis", mis_count=mis_count, completions=completions)
    if best is None:
        return CountResult(0, None, 0, stats=stats)
    return CountResult(total, best.weight, min_count, best, stats)


def solve_mis(g: Graph) -> SolveOutcome:
    """Minimum-weight DIM of g via MIS enumeration."""
    res = count_dims(g)
    if res.witness is not None and not validate_dim(g, res.witness.edge_ids):
        raise ContractViolation("solver produced an edge set that fails validation")
    return SolveOutcome(dim=res.witness, stats=res.stats)
