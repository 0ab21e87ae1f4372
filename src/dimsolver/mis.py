"""Exact DIM solver and counter driven by maximal independent set enumeration.

The white side of any DIM is an independent set, and on graphs without
isolated edges its non-matched vertices lie in exactly one maximal
independent set. So: enumerate every MIS I and color V minus I black;
induced_coloring reduces each I once. Blacks pair up among themselves; a
black with two black neighbors kills the MIS. A member of I can only ever
turn black if it has degree exactly 1 and its sole neighbor is a single
black, so exactly those members are the pair options of the singles;
everything else in I is white. Each single must pick one of its options,
choices are independent, and picking cheapest per single is optimal.
One walk over the sets does both jobs: solve_mis reads the cheapest DIM
off it and count_dims the product counts, which hold every DIM exactly
once. Every weight is summed by Graph.dim, correctly rounded and so the
same in any order.

enumerate_mis (Tsukiyama et al. 1977) tests each child with bit operations
over its parent's members, and raises ContractViolation rather than yield
more than the 3^ceil(n/3) maximal independent sets of Moon and Moser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import NO_PAIR, Coloring
from .graph import (
    ContractViolation, CountResult, Dim, Graph, SolveOutcome, SolveStats, validate_dim,
)


def enumerate_mis(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every maximal independent set exactly once.

    Vertex-by-vertex extension: a MIS of the first k vertices either
    absorbs vertex k, survives unchanged, or spawns a repaired set that is
    kept only when this MIS is its canonical (greedily re-extended) parent,
    which makes the emission duplicate-free without storing any sets.
    Iterative stack, O(n * |set|) integer operations per set, deterministic order.
    Raises ContractViolation before yielding more than 3^ceil(n/3) sets.
    """
    n = g.n
    adj = [sum(1 << u for u, _ in nbrs) for nbrs in g.adjacency]
    cap = 3 ** ((n + 2) // 3)
    found = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        k, cur = stack.pop()
        while k < n:
            if adj[k] & cur == 0:
                cur |= 1 << k
            elif _is_child(adj, cur, k):
                stack.append((k + 1, (cur & ~adj[k]) | (1 << k)))
            k += 1
        found += 1
        if found > cap:
            raise ContractViolation(
                f"enumerated {found} maximal independent sets > 3^ceil(n/3) = {cap}"
            )
        members = []
        while cur:
            low = cur & -cur
            members.append(low.bit_length() - 1)
            cur ^= low
        yield frozenset(members)


def _is_child(adj: list[int], cur: int, k: int) -> bool:
    """Whether cur, a MIS of vertices 0..k-1 that clashes with k, is the
    canonical parent of A + k, A being cur minus the neighbors B of k:
    A + k is maximal on 0..k, and each earlier non-member not next to A
    has a neighbor in B below it, so greedily extending A gives back cur."""
    near_k = adj[k]
    near_a = 0
    rest = cur & ~near_k
    while rest:
        low = rest & -rest
        rest ^= low
        near_a |= adj[low.bit_length() - 1]
    free = ((1 << k) - 1) & ~cur & ~near_a
    if free & ~near_k:
        return False
    rest = cur & near_k
    while rest:
        low = rest & -rest
        rest ^= low
        free &= ~adj[low.bit_length() - 1] | (low << 1) - 1  # drop its neighbors above it
    return free == 0


@dataclass(frozen=True)
class InducedColoring:
    """The reduction a MIS forces, before pair choices for the singles.

    valid is False when some black vertex got two black neighbors. matched
    holds the ids of the edges already matched between paired blacks, by
    lower endpoint. Each single's pair_options lists its candidate
    partners, the members of degree 1 next to it, as (weight, vertex,
    edge id), cheapest first.
    """

    valid: bool
    matched: tuple[int, ...]
    singles: tuple[int, ...]
    pair_options: dict[int, tuple[tuple[float, int, int], ...]]


def induced_coloring(g: Graph, independent: Iterable[int]) -> InducedColoring:
    """Reduce one independent set.

    A set that is not independent is never reported valid. Independence
    is checked only once the black side has passed, so such a set raises
    ContractViolation when every black vertex has at most one black
    neighbor, and returns valid=False otherwise. Checking first would scan
    the members of every invalid set, and those make up most of a count.
    """
    col = Coloring(g)
    members = set(independent)
    for v in range(g.n):
        if v not in members and not col.set_black(v):
            return InducedColoring(False, (), (), {})
    for v in members:
        if col.black_nbrs[v] != g.degree(v):
            raise ContractViolation(f"vertex {v} has a neighbor inside the independent set")

    # a single has no black neighbor, so its neighbors are members; those
    # of degree 1 are the only members that may still turn black
    singles = tuple(
        v for v in range(g.n) if v not in members and col.pair[v] == NO_PAIR
    )
    options = {
        s: tuple(
            sorted(
                (g.edges[eid][2], u, eid)
                for u, eid in g.adjacency[s]
                if g.degree(u) == 1
            )
        )
        for s in singles
    }
    matched = tuple(g.edge_id(v, col.pair[v]) for v in range(g.n) if col.pair[v] > v)
    return InducedColoring(True, matched, singles, options)


def _walk(g: Graph) -> CountResult:
    """The one pass over every maximal independent set.

    Counts every DIM, keeps the first cheapest one found as the witness
    (each single takes its first, cheapest option), and counts the DIMs
    that tie with it: within a set, the singles' choices at their cheapest
    weight, which give the same multiset of edge weights. Its stats count
    the sets walked and those that completed.
    """
    best: Dim | None = None
    total = min_count = mis_count = completions = 0
    for mis in enumerate_mis(g):
        mis_count += 1
        ic = induced_coloring(g, mis)
        options = [ic.pair_options[s] for s in ic.singles]
        if not ic.valid or not all(options):
            continue
        completions += 1
        total += math.prod(map(len, options))
        dim = g.dim(ic.matched + tuple(opts[0][2] for opts in options))
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
