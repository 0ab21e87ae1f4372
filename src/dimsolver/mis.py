"""Exact DIM solver and counter driven by maximal independent set enumeration.

The white side of any DIM is an independent set, and on graphs without
isolated edges its non-matched vertices lie in exactly one maximal
independent set. So: enumerate every MIS I, color V minus I black, and
read off the forced structure. Blacks pair up among themselves; a black
with two black neighbors kills the MIS. A member of I can only ever turn
black if it has degree exactly 1 and its sole neighbor is a single black,
so exactly those members stay uncolored as pair candidates; everything
else in I is white. Each single must pick one of its uncolored neighbors,
choices are independent, and picking cheapest per single is optimal. The
same product structure counts all DIMs without duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import BLACK, NO_PAIR, UNCOLORED, Coloring, ContractViolation
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
    """
    n = g.n
    if n == 0:
        yield frozenset()
        return
    adj = _adjacency_masks(g)
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
    """The coloring a MIS forces, before pair choices for the singles.

    valid is False when some black vertex got two black neighbors. Each
    single's pair_options lists its uncolored neighbors as (weight, vertex,
    edge id), cheapest first; base_weight is the weight of the edges
    already matched between paired blacks.
    """

    coloring: Coloring
    valid: bool
    singles: tuple[int, ...]
    uncolored: tuple[int, ...]
    pair_options: dict[int, tuple[tuple[float, int, int], ...]]
    base_weight: float


def induced_coloring(g: Graph, independent: Iterable[int]) -> InducedColoring:
    col = Coloring(g)
    members = set(independent)
    for v in range(g.n):
        if v not in members:
            if not col.set_black(v):
                return InducedColoring(col, False, (), (), {}, 0.0)

    uncolored = tuple(
        v
        for v in sorted(members)
        if g.degree(v) == 1
        and col.pair[g.adjacency[v][0][0]] == NO_PAIR
    )
    hold = set(uncolored)
    for v in sorted(members):
        if v not in hold:
            if not col.set_white(v):
                raise ContractViolation("white placement failed inside an independent set")

    singles = tuple(
        v for v in range(g.n) if col.state[v] == BLACK and col.pair[v] == NO_PAIR
    )
    options: dict[int, tuple[tuple[float, int, int], ...]] = {}
    for s in singles:
        opts = sorted(
            (g.edges[eid][2], u, eid)
            for u, eid in g.adjacency[s]
            if col.state[u] == UNCOLORED
        )
        options[s] = tuple(opts)
    base = sum(
        g.edges[col.pair_edge[v]][2]
        for v in range(g.n)
        if col.state[v] == BLACK and col.pair[v] > v
    )
    return InducedColoring(col, True, singles, uncolored, options, float(base))


def complete_min(g: Graph, ic: InducedColoring) -> Dim | None:
    """Cheapest completion of an induced coloring, or None when impossible
    (invalid coloring, or some single has no pair candidate)."""
    if not ic.valid:
        return None
    if any(not ic.pair_options[s] for s in ic.singles):
        return None
    col = ic.coloring
    for s in ic.singles:
        _, v, _ = ic.pair_options[s][0]
        if not col.set_black(v):
            raise ContractViolation("pair choice broke validity")
    for v in ic.uncolored:
        if col.state[v] == UNCOLORED and not col.set_white(v):
            raise ContractViolation("white completion broke validity")
    return col.to_dim()


def solve_mis(g: Graph) -> SolveOutcome:
    """Minimum-weight DIM of a preprocessed graph via MIS enumeration."""
    best: Dim | None = None
    mis_count = 0
    completions = 0
    for mis in enumerate_mis(g):
        mis_count += 1
        dim = complete_min(g, induced_coloring(g, mis))
        if dim is None:
            continue
        completions += 1
        # strict: ties keep the earliest MIS
        if best is None or dim.weight < best.weight:
            best = dim

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
