"""Exact DIM solver and counter driven by maximal independent set enumeration.

The white side of any DIM is an independent set, and on graphs without
isolated edges its non-matched vertices lie in exactly one maximal
independent set. So: enumerate every MIS I and color V minus I black;
induced_coloring reduces each I once. Blacks pair up among themselves; a
black with two black neighbors kills the MIS. A member of I can only ever
turn black if it has degree exactly 1 and its sole neighbor is a single
black, so exactly those members are the pair options of the singles;
everything else in I is white. Each single must pick one of its options,
choices are independent, and picking cheapest per single is optimal:
solve_mis reads its DIM off the reduction. The same product structure
counts all DIMs without duplicates in count_dims.

There are at most 3^ceil(n/3) maximal independent sets (Moon and Moser);
enumerate_mis raises ContractViolation rather than yield more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import NO_PAIR, Coloring, ContractViolation
from .domset import SolveOutcome
from .graph import Dim, Graph, validate_dim


@dataclass(frozen=True)
class MisStats:
    mis_count: int
    completions: int


@dataclass(frozen=True)
class CountResult:
    """Number of distinct DIMs, plus multiplicity at the minimum weight."""

    total: int
    min_weight: float | None
    min_count: int


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v, _ in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def enumerate_mis(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every maximal independent set exactly once.

    Vertex-by-vertex extension: a MIS of the first k vertices either
    absorbs vertex k, survives unchanged, or spawns a repaired set that is
    kept only when this MIS is its canonical (greedily re-extended) parent,
    which makes the emission duplicate-free without storing any sets.
    Iterative stack, polynomial delay per set, deterministic order.
    Raises ContractViolation before yielding more than 3^ceil(n/3) sets.
    """
    n = g.n
    if n == 0:
        yield frozenset()
        return
    adj = _adjacency_masks(g)
    cap = 3 ** ((n + 2) // 3)
    found = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        k, cur = stack.pop()
        while k < n:
            if adj[k] & cur == 0:
                cur |= 1 << k
            else:
                cand = (cur & ~adj[k]) | (1 << k)
                if _maximal_prefix(adj, cand, k + 1) and _greedy_extend(
                    adj, cand & ~(1 << k), k
                ) == cur:
                    stack.append((k + 1, cand))
            k += 1
        found += 1
        if found > cap:
            raise ContractViolation(
                f"enumerated {found} maximal independent sets > 3^ceil(n/3) = {cap}"
            )
        yield frozenset(v for v in range(n) if (cur >> v) & 1)


def _maximal_prefix(adj: list[int], s: int, upto: int) -> bool:
    for u in range(upto):
        if not (s >> u) & 1 and not (adj[u] & s):
            return False
    return True


def _greedy_extend(adj: list[int], s: int, upto: int) -> int:
    for u in range(upto):
        if not (s >> u) & 1 and not (adj[u] & s):
            s |= 1 << u
    return s


@dataclass(frozen=True)
class InducedColoring:
    """The reduction a MIS forces, before pair choices for the singles.

    valid is False when some black vertex got two black neighbors. matched
    holds the ids of the edges already matched between paired blacks, by
    lower endpoint, and base_weight their total weight. Each single's
    pair_options lists its candidate partners, the members of degree 1
    next to it, as (weight, vertex, edge id), cheapest first.
    """

    valid: bool
    matched: tuple[int, ...]
    singles: tuple[int, ...]
    pair_options: dict[int, tuple[tuple[float, int, int], ...]]
    base_weight: float


def induced_coloring(g: Graph, independent: Iterable[int]) -> InducedColoring:
    """Reduce one independent set; raises ContractViolation when it is not
    independent."""
    col = Coloring(g)
    members = set(independent)
    for v in range(g.n):
        if v not in members and not col.set_black(v):
            return InducedColoring(False, (), (), {}, 0.0)
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
    matched = tuple(col.pair_edge[v] for v in range(g.n) if col.pair[v] > v)
    base = sum(g.edges[eid][2] for eid in matched)
    return InducedColoring(True, matched, singles, options, float(base))


def solve_mis(g: Graph) -> SolveOutcome:
    """Minimum-weight DIM of a preprocessed graph via MIS enumeration."""
    best: Dim | None = None
    mis_count = 0
    completions = 0
    for mis in enumerate_mis(g):
        mis_count += 1
        ic = induced_coloring(g, mis)
        if not ic.valid or not all(ic.pair_options[s] for s in ic.singles):
            continue
        completions += 1
        # each single takes its cheapest option
        ids = ic.matched + tuple(ic.pair_options[s][0][2] for s in ic.singles)
        # summed by lower endpoint, as Coloring.to_dim sums, so the weight
        # equals the domset engine's bit for bit
        weight = sum((w for _, _, w in sorted(g.edges[eid] for eid in ids)), 0.0)
        # strict: ties keep the earliest MIS
        if best is None or weight < best.weight:
            best = Dim(frozenset(ids), weight)

    stats = MisStats(mis_count=mis_count, completions=completions)
    if best is None:
        return SolveOutcome(dim=None, stats=stats)
    if not validate_dim(g, best.edge_ids):
        raise ContractViolation("solver produced an edge set that fails validation")
    return SolveOutcome(dim=best, stats=stats)


def count_dims(g: Graph) -> CountResult:
    """Count all DIMs of a preprocessed graph and the multiplicity at the
    minimum weight.

    Requires a graph without isolated edges (preprocessing guarantees it);
    with one, a DIM's white side would sit inside two maximal independent
    sets and completions would be double counted.
    """
    for u, v, _ in g.edges:
        if g.degree(u) == 1 and g.degree(v) == 1:
            raise ValueError(
                f"graph has an isolated edge {u}-{v}; preprocess before counting"
            )
    total = 0
    best_weight: float | None = None
    best_count = 0
    for mis in enumerate_mis(g):
        ic = induced_coloring(g, mis)
        if not ic.valid:
            continue
        ways = 1
        min_extra = 0.0
        min_ways = 1
        for s in ic.singles:
            opts = ic.pair_options[s]
            if not opts:
                ways = 0
                break
            ways *= len(opts)
            cheapest = opts[0][0]
            min_extra += cheapest
            min_ways *= sum(1 for w, _, _ in opts if w == cheapest)
        if ways == 0:
            continue
        total += ways
        weight = ic.base_weight + min_extra
        if best_weight is None or weight < best_weight:
            best_weight, best_count = weight, min_ways
        elif weight == best_weight:
            best_count += min_ways
    if total == 0:
        return CountResult(0, None, 0)
    return CountResult(total, best_weight, best_count)
