"""Exact DIM solver and counter driven by maximal independent set enumeration.

The white side of any DIM is an independent set, and on graphs without
isolated edges its non-matched vertices lie in exactly one maximal
independent set. So: enumerate every MIS I and color V minus I black;
the walk reduces each I once, on bit masks. Blacks pair up among
themselves, and the first black whose neighbors in the black mask hold
two vertices kills the MIS; one neighbor there is its pair, none makes it
a single. A member of I can only ever turn black if it has degree exactly
1 and its sole neighbor is a single black, so exactly those members are
the pair options of the singles, computed once per graph; everything else
in I is white. Each single must pick one of its options, choices are
independent, and picking cheapest per single is optimal. One walk over
the sets does both jobs: solve_mis reads the cheapest DIM off it and
count_dims the product counts, which hold every DIM exactly once. Edge
ids are looked up only for the sets that complete, and every weight is
summed by Graph.dim, correctly rounded and so the same in any order.
No Coloring is built here; that class serves the dominating set engine.

The walk takes each MIS as the mask enumerate_mis's generator holds
(Tsukiyama et al. 1977), which tests each child with bit operations: the
union of the neighbors of the parent's members outside N(k) is one
lookup per 8 vertices in tables built once per graph (one OR per member
on graphs too small or too large for the tables). It raises
ContractViolation rather than yield more than the 3^ceil(n/3) maximal
independent sets of Moon and Moser; enumerate_mis is the frozenset view
of the same sets in the same order.
"""

from __future__ import annotations

import math
from typing import Iterator

from .graph import (
    ContractViolation, CountResult, Dim, Graph, SolveOutcome, SolveStats, validate_dim,
)

# Graph sizes whose walk looks up neighbor unions in _union_tables. Below
# them building the tables costs more than it saves (the two ways cross at
# n = 17-18 on random graphs of density 0.15-0.4); above them the tables'
# 32n entries of n bits (about 5 MB at n = 1024) grow as n^2.
_TABLE_SIZES = range(18, 1025)


def enumerate_mis(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every maximal independent set exactly once, as a frozenset;
    the sets and their order are those of _maximal_sets."""
    for white in _maximal_sets(g.n, _adjacency_masks(g)):
        yield frozenset(_members(white))


def _maximal_sets(n: int, adj: list[int]) -> Iterator[int]:
    """Yield every maximal independent set of the graph whose vertex v has
    the neighbor mask adj[v], as a bit mask, exactly once.

    Vertex-by-vertex extension: a MIS of the first k vertices either
    absorbs vertex k, survives unchanged, or spawns a repaired set that is
    kept only when this MIS is its canonical (greedily re-extended) parent,
    which makes the emission duplicate-free without storing any sets.
    Iterative stack, deterministic order. Each of the up to n child tests
    per set takes one _union_tables lookup per 8 vertices when n is in
    _TABLE_SIZES, one OR per member of the set otherwise, plus one step per
    member next to k, each on n-bit integers; against one OR per member
    on every graph, the tables made the planted_dense count 37% faster.
    Raises ContractViolation before yielding more than 3^ceil(n/3) sets.
    """
    cap = 3 ** ((n + 2) // 3)
    found = 0
    tables = _union_tables(adj) if n in _TABLE_SIZES else None
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        k, cur = stack.pop()
        while k < n:
            if adj[k] & cur == 0:
                cur |= 1 << k
            elif _is_child(adj, tables, cur, k):
                stack.append((k + 1, (cur & ~adj[k]) | (1 << k)))
            k += 1
        found += 1
        if found > cap:
            raise ContractViolation(
                f"enumerated {found} maximal independent sets > 3^ceil(n/3) = {cap}"
            )
        yield cur


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << u for u, _ in nbrs) for nbrs in g.adjacency]


def _members(mask: int) -> list[int]:
    """The vertices of a mask, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _is_child(adj: list[int], tables: list[list[int]] | None, cur: int, k: int) -> bool:
    """Whether cur, a MIS of vertices 0..k-1 that clashes with k, is the
    canonical parent of A + k, A being cur minus the neighbors B of k:
    A + k is maximal on 0..k, and each earlier non-member not next to A
    has a neighbor in B below it, so greedily extending A gives back cur.
    tables are _union_tables(adj), or None to OR A's members one by one."""
    near_k = adj[k]
    a = cur & ~near_k
    near_a = 0
    if tables is None:
        while a:
            low = a & -a
            a ^= low
            near_a |= adj[low.bit_length() - 1]
    else:
        for table in tables:
            if not a:
                break
            near_a |= table[a & 255]
            a >>= 8
    free = ((1 << k) - 1) & ~cur & ~near_a
    if free & ~near_k:
        return False
    rest = cur & near_k
    while rest and free:
        low = rest & -rest
        rest ^= low
        free &= ~adj[low.bit_length() - 1] | (low << 1) - 1  # drop its neighbors above it
    return free == 0


def _union_tables(adj: list[int]) -> list[list[int]]:
    """For each run of 8 vertices from 8i on, the table whose entry m is
    the union of the neighbor masks of the vertices 8i + j with bit j of m
    set. Vertex 8i + j fills entries 2^j to 2^(j+1) - 1, each one OR of
    its neighbor mask into the entry 2^j below."""
    tables = []
    for base in range(0, len(adj), 8):
        table = [0]
        for near_v in adj[base:base + 8]:
            table += [near | near_v for near in table]
        tables.append(table)
    return tables


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


def _matched(g: Graph, adj: list[int], black: int) -> list[int]:
    """The ids of the edges between paired blacks, by lower endpoint, once
    _singles has passed the black mask."""
    ids = []
    for v in _members(black):
        u = (adj[v] & black).bit_length() - 1
        if u > v:
            ids.append(g.edge_id(v, u))
    return ids


def _pair_options(g: Graph) -> list[tuple[tuple[float, int, int], ...]]:
    """Each vertex's neighbors of degree 1 as (weight, vertex, edge id),
    cheapest first: the partners it may take when it is a single."""
    adjacency = g.adjacency
    return [
        tuple(sorted([(g.edges[eid][2], u, eid) for u, eid in nbrs if len(adjacency[u]) == 1]))
        for nbrs in adjacency
    ]


def _walk(g: Graph) -> CountResult:
    """The one pass over every maximal independent set.

    Counts every DIM, keeps the first cheapest one found as the witness
    (each single takes its first, cheapest option), and counts the DIMs
    that tie with it: within a set, the singles' choices at their cheapest
    weight, which give the same multiset of edge weights. Its stats count
    the sets walked and those that completed.
    """
    adj = _adjacency_masks(g)
    everyone = (1 << g.n) - 1
    pair_options = _pair_options(g)
    best: Dim | None = None
    total = min_count = mis_count = completions = 0
    for white in _maximal_sets(g.n, adj):
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
        dim = g.dim(_matched(g, adj, black) + [opts[0][2] for opts in options])
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
    """Minimum-weight DIM of a preprocessed graph via MIS enumeration."""
    res = _walk(g)
    if res.witness is not None and not validate_dim(g, res.witness.edge_ids):
        raise ContractViolation("solver produced an edge set that fails validation")
    return SolveOutcome(dim=res.witness, stats=res.stats)


def count_dims(g: Graph) -> CountResult:
    """Count all DIMs of a preprocessed graph and the multiplicity at the
    minimum weight; stats is the walk's record, as solve_mis returns it.

    Requires a graph without isolated edges (preprocessing guarantees it);
    with one, a DIM's white side would sit inside two maximal independent
    sets and completions would be double counted.
    """
    for u, v, _ in g.edges:
        if g.degree(u) == 1 and g.degree(v) == 1:
            raise ValueError(
                f"graph has an isolated edge {u}-{v}; preprocess before counting"
            )
    return _walk(g)
