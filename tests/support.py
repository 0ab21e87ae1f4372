"""Shared builders for the test suite.

Everything here is deliberately dumb: tests should depend on hand-written
constructions, not on the code under test. The exceptions are the two
test-only views of engine code, mis_sets and ShuffledColoring, which
drive it in ways no solver does.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from dimsolver import ContractViolation, CountResult, Graph, SolveStats
from dimsolver.coloring import NO_PAIR, Coloring, PropagationResult
from dimsolver.mis import _maximal_sets, _members


def graph(n: int, edges: Sequence[tuple[int, int, float]]) -> Graph:
    return Graph(n, tuple((u, v, float(w)) for u, v, w in edges))


def path(weights: Sequence[float]) -> Graph:
    """Path with one weight per edge; n = len(weights) + 1."""
    return graph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])


def cycle(weights: Sequence[float]) -> Graph:
    n = len(weights)
    return graph(n, [(i, (i + 1) % n, w) for i, w in enumerate(weights)])


def star(spokes: Sequence[float]) -> Graph:
    """Center 0, leaves 1..k with the given spoke weights."""
    return graph(len(spokes) + 1, [(0, i + 1, w) for i, w in enumerate(spokes)])


def complete(n: int, weight: float = 1.0) -> Graph:
    return graph(n, [(u, v, weight) for u, v in itertools.combinations(range(n), 2)])


def random_graph(rng: random.Random, n: int, p: float, wmax: int = 10) -> Graph:
    edges = [
        (u, v, float(rng.randint(1, wmax)))
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return graph(n, edges)


def random_corpus(
    count: int,
    seed: int,
    n_lo: int = 2,
    n_hi: int = 9,
    probs: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
) -> Iterator[Graph]:
    """Seeded stream of small weighted graphs covering all (n, p) cells."""
    rng = random.Random(seed)
    cells = list(itertools.product(range(n_lo, n_hi + 1), probs))
    for i in range(count):
        n, p = cells[i % len(cells)]
        yield random_graph(rng, n, p)


def adjacency_masks(g: Graph) -> list[int]:
    """Bit v of entry u is set when u and v are adjacent."""
    adj = [0] * g.n
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def mis_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Every maximal independent set of g exactly once, as a frozenset, in
    the order of the masks _maximal_sets yields over all of g."""
    for white in _maximal_sets(g.n, adjacency_masks(g)):
        yield frozenset(_members(white))


def reference_mis(g: Graph) -> Iterator[frozenset[int]]:
    """Every maximal independent set exactly once, the sets mis_sets must
    yield in any order: Tsukiyama et al.'s vertex-by-vertex extension,
    with the canonical-parent check written as two loops over all earlier
    vertices."""
    adj = adjacency_masks(g)

    def maximal_prefix(s: int, upto: int) -> bool:
        return all((s >> u) & 1 or adj[u] & s for u in range(upto))

    def greedy_extend(s: int, upto: int) -> int:
        for u in range(upto):
            if not (s >> u) & 1 and not (adj[u] & s):
                s |= 1 << u
        return s

    stack = [(0, 0)]
    while stack:
        k, cur = stack.pop()
        while k < g.n:
            if adj[k] & cur == 0:
                cur |= 1 << k
            else:
                cand = (cur & ~adj[k]) | (1 << k)
                if maximal_prefix(cand, k + 1) and greedy_extend(cand & ~(1 << k), k) == cur:
                    stack.append((k + 1, cand))
            k += 1
        yield frozenset(v for v in range(g.n) if (cur >> v) & 1)


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


def reference_induced_coloring(g: Graph, independent: Iterable[int]) -> InducedColoring:
    """The reduction the count walk must make of one MIS, computed with a
    Coloring: every non-member set black in increasing order, pairs and
    singles read off the coloring, options from each single's neighbors."""
    col = Coloring(g)
    members = set(independent)
    for v in range(g.n):
        if v not in members and not col.set_black(v):
            return InducedColoring(False, (), (), {})
    for v in members:
        if col.black_nbrs[v] != g.degree(v):
            raise ContractViolation(f"vertex {v} has a neighbor inside the independent set")
    singles = tuple(v for v in range(g.n) if v not in members and col.mate(v) == NO_PAIR)
    options = {
        s: tuple(sorted((g.edges[eid][2], u, eid) for u, eid in g.adjacency[s] if g.degree(u) == 1))
        for s in singles
    }
    matched = tuple(g.edge_id(v, col.mate(v)) for v in range(g.n) if col.mate(v) > v)
    return InducedColoring(True, matched, singles, options)


def strip_trivial(g: Graph) -> tuple[Graph, list[int], list[int]]:
    """g without its isolated vertices and isolated edges, the rest
    renumbered in order; the ids in g of the stripped graph's edges, in
    order; and the ids of g's isolated edges. The DIMs of g are those of
    the stripped graph, each plus every isolated edge."""
    kept = [
        v for v in range(g.n)
        if g.degree(v) > 1 or any(g.degree(u) > 1 for u, _ in g.adjacency[v])
    ]
    new = {v: i for i, v in enumerate(kept)}
    core_ids = [eid for eid, (u, _, _) in enumerate(g.edges) if u in new]
    isolated = [eid for eid, (u, _, _) in enumerate(g.edges) if u not in new]
    core = graph(len(kept), [(new[u], new[v], w) for u, v, w in (g.edges[e] for e in core_ids)])
    return core, core_ids, isolated


def reference_count(
    g: Graph, sets: Callable[[Graph], Iterable[Iterable[int]]] = reference_mis
) -> CountResult:
    """What count_dims must return, stats included: the walk over sets of
    strip_trivial(g), each reduced by reference_induced_coloring and its
    DIM weighed on g with every isolated edge added. The witness is the
    first cheapest DIM in the order of sets, so it is count_dims's when
    sets is mis_sets."""
    core, core_ids, isolated = strip_trivial(g)
    best = None
    total = min_count = mis_count = completions = 0
    for mis in sets(core):
        mis_count += 1
        ic = reference_induced_coloring(core, mis)
        options = [ic.pair_options[s] for s in ic.singles]
        if not ic.valid or not all(options):
            continue
        completions += 1
        total += math.prod(len(opts) for opts in options)
        chosen = [*ic.matched, *(opts[0][2] for opts in options)]
        dim = g.dim([*(core_ids[e] for e in chosen), *isolated])
        ties = math.prod(sum(1 for w, _, _ in opts if w == opts[0][0]) for opts in options)
        if best is None or dim.weight < best.weight:
            best, min_count = dim, ties
        elif dim.weight == best.weight:
            min_count += ties
    stats = SolveStats("mis", mis_count=mis_count, completions=completions)
    if best is None:
        return CountResult(0, None, 0, stats=stats)
    return CountResult(total, best.weight, min_count, best, stats)


class ShuffledColoring(Coloring):
    """A Coloring whose propagate visits the not yet visited suffix of the
    trail in the order rng draws: it swaps a random entry of the suffix to
    its front before each visit. The rules reach the same fixpoint in any
    order, so the result must not depend on rng. Take marks at fixpoints
    only: one taken inside the suffix would be invalidated."""

    __slots__ = ("rng",)

    def __init__(self, g: Graph, rng: random.Random):
        super().__init__(g)
        self.rng = rng

    def propagate(self) -> PropagationResult:
        trail = self._trail
        stable = True
        while stable and self._done < len(trail):
            i = self._done
            j = self.rng.randrange(i, len(trail))
            trail[i], trail[j] = trail[j], trail[i]
            self._done = i + 1
            stable = self._visit(trail[i])
        return PropagationResult(stable=stable)


def path_dim_weight(weights: Sequence[float]) -> float | None:
    """Minimum DIM weight of the path with these edge weights in order, or
    None. A left-to-right DP over vertex colors: a white is followed by a
    black that still needs its pair, that black by its pair (taking the
    edge between them), and a paired black by a white."""
    inf = float("inf")
    white, open_black, paired = 0.0, 0.0, inf  # the first vertex
    for w in weights:
        white, open_black, paired = paired, white, open_black + w
    best = min(white, paired)
    return None if best == inf else best


def is_bipartite(g: Graph) -> bool:
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, _ in g.adjacency[u]:
                if side[v] == -1:
                    side[v] = side[u] ^ 1
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


# Golden instances used across test modules. Weights chosen so the minimum
# is unique where a test wants a unique witness.
P4_527 = path([5.0, 2.0, 7.0])
K3_123 = graph(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
C4_UNIT = cycle([1.0, 1.0, 1.0, 1.0])
C5_UNIT = cycle([1.0] * 5)
C6_UNIT = cycle([1.0] * 6)
STAR_419 = star([4.0, 1.0, 9.0])
