"""Exact DIM solver branching over bi-colorings of a dominating set.

Every DIM colors each vertex of a dominating set D white or black. The
solver searches these assignments depth-first, one vertex of D at a time,
and propagates the forcing rules after each one. Every rule holds in any
DIM that extends the partial coloring, so a prefix whose propagation
breaks has no DIM and its subtree is skipped; a vertex of D that
propagation has already colored keeps its color. Each complete assignment
that propagates stably is a root. Its leftover uncolored vertices split
into parts, one per single black vertex, and each part is resolved by
structure:

  dead    the part cannot host the single's pair; prune
  forced  exactly one viable pair candidate; take it
  free    several candidates, no edge into another part; the cheapest
          candidate is optimal independently of everything else
  cross   an edge links two parts; branch on its endpoint (black or white)

Only cross parts branch, and each branch settles at least one single, so a
root explores at most 2^q leaves where q is the number of singles left
after the dead/forced reduction; q never exceeds min(|D|, ceil(n/3)).
Those bounds are enforced at runtime, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .coloring import BLACK, UNCOLORED, WHITE, Coloring, ContractViolation
from .graph import Dim, Graph, format_weight, validate_dim


@dataclass(frozen=True)
class SolveStats:
    """Per-run search statistics.

    search_nodes counts the assignments tried in D, pruned ones included;
    roots_explored counts the complete assignments that propagated stably,
    and the two lists hold one entry per such root, in root order.
    """

    dominating_set_size: int
    search_nodes: int
    roots_explored: int
    branch_leaves_per_root: tuple[int, ...]
    residual_singles_per_root: tuple[int, ...]


@dataclass(frozen=True)
class SolveOutcome:
    """Result of an exact solver: a minimum-weight DIM or a certified absence."""

    dim: Dim | None
    stats: object


Observer = Callable[[int, frozenset[int], tuple[int, ...]], None]


def find_dominating_set(g: Graph) -> list[int]:
    """Greedy maximal independent set, or its complement when that is
    strictly smaller and still dominating. Size is at most floor(n/2) on
    graphs without isolated vertices.
    """
    taken = [False] * g.n
    independent = []
    for v in range(g.n):
        if not any(taken[u] for u, _ in g.adjacency[v]):
            taken[v] = True
            independent.append(v)
    complement = [v for v in range(g.n) if not taken[v]]
    if len(complement) < len(independent) and all(
        g.degree(v) > 0 for v in independent
    ):
        return complement
    return independent


def _is_dominating(g: Graph, vertices: Sequence[int]) -> bool:
    covered = [False] * g.n
    for v in vertices:
        covered[v] = True
        for u, _ in g.adjacency[v]:
            covered[u] = True
    return all(covered)


@dataclass(frozen=True)
class PartInfo:
    """Classification of one single's part of the uncolored vertices.

    candidates are the viable pair choices for the single: the maximum
    degree vertices of the subgraph induced by the part, which must be a
    star plus an independent set. cross is the lexicographically smallest
    (part index, other part index, vertex, other vertex) edge leaving the
    part, if any.
    """

    single: int
    members: tuple[int, ...]
    kind: str  # "dead" | "forced" | "free" | "cross"
    candidates: tuple[int, ...]
    cross: tuple[int, int, int, int] | None


def classify_part(
    col: Coloring,
    single: int,
    members: Sequence[int],
    part_of: dict[int, int],
    part_index: dict[int, int],
) -> PartInfo:
    """Classify N_U(single); part_of maps uncolored vertices to their
    single, part_index maps singles to their rank among all singles."""
    g = col.graph
    members = tuple(sorted(members))
    if not members:
        return PartInfo(single, members, "dead", (), None)
    member_set = set(members)

    induced: list[tuple[int, int]] = []
    cross_edges: list[tuple[int, int, int, int]] = []
    own = part_index[single]
    for a in members:
        for b, _ in g.adjacency[a]:
            if b in member_set:
                if a < b:
                    induced.append((a, b))
            elif col.state[b] == UNCOLORED:
                other = part_index[part_of[b]]
                cross_edges.append((own, other, a, b))

    if induced:
        x, y = induced[0]
        if all(a == x or b == x for a, b in induced):
            center = x
        elif all(a == y or b == y for a, b in induced):
            center = y
        else:
            # edges without a common vertex: not a star plus independent set
            return PartInfo(single, members, "dead", (), None)
        if len(induced) >= 2:
            candidates: tuple[int, ...] = (center,)
        else:
            candidates = induced[0]
    else:
        candidates = members

    cross = min(cross_edges) if cross_edges else None
    if len(candidates) == 1:
        kind = "forced"
    elif cross is not None:
        kind = "cross"
    else:
        kind = "free"
    return PartInfo(single, members, kind, candidates, cross)


class _RootSearch:
    """Mutable search state for one root: DFS, leaf count, best completion."""

    __slots__ = ("col", "leaves", "singles_after_reduce", "best", "tracer")

    def __init__(self, col: Coloring, tracer):
        self.col = col
        self.leaves = 0
        self.singles_after_reduce: int | None = None
        self.best: Dim | None = None
        self.tracer = tracer

    def _leaf(self, node, note: str) -> None:
        self.leaves += 1
        if self.tracer is not None and node is not None:
            self.tracer.annotate(node, note)

    def _complete(self, node) -> None:
        if not self.col.is_total():
            raise ContractViolation("stable coloring without singles is not total")
        dim = self.col.to_dim()
        if self.best is None or dim.weight < self.best.weight:
            self.best = dim
        self._leaf(node, f"complete w={format_weight(dim.weight)}")

    def _spoke_weight(self, single: int, v: int) -> float:
        eid = self.col.graph.edge_id(single, v)
        assert eid is not None
        return self.col.graph.edges[eid][2]

    def resolve(self, node) -> None:
        """Resolve all parts below the current stable coloring.

        Cross branches wait on an explicit stack of (mark, branch, node)
        entries, so the depth (up to q <= n/3) never meets the recursion
        limit; the black branch runs before the white one.
        """
        col = self.col
        tracer = self.tracer
        stack: list[tuple[int, tuple[int, bool] | None, object]] = [
            (col.mark(), None, node)
        ]
        while stack:
            mark, branch, node = stack.pop()
            col.undo_to(mark)
            if branch is not None:
                v, make_black = branch
                ok = (
                    col.set_black(v) if make_black else col.set_white(v)
                ) and col.propagate().stable
                if tracer is not None:
                    tag = "black" if make_black else "white"
                    node = tracer.add(node, f"cross {v}={tag}")
                if not ok:
                    self._leaf(node, "invalid")
                    continue
            cross = self._reduce(node)
            if cross is not None:
                v, node = cross
                # v black pairs its own single; v white forces the far
                # endpoint black, pairing the other part's single
                mark = col.mark()
                stack.append((mark, (v, False), node))
                stack.append((mark, (v, True), node))

    def _reduce(self, node):
        """Settle dead, forced and free parts in place; return (v, node)
        for the cross vertex to branch on, or None once this branch has
        reached its leaf."""
        col = self.col
        tracer = self.tracer
        while True:
            parts = col.uncolored_partition()
            if not parts:
                self._complete(node)
                return None
            singles = sorted(parts)
            part_of = {u: s for s, us in parts.items() for u in us}
            part_index = {s: i for i, s in enumerate(singles)}
            infos = [
                classify_part(col, s, parts[s], part_of, part_index) for s in singles
            ]

            dead = next((i for i in infos if i.kind == "dead"), None)
            if dead is not None:
                self._leaf(node, f"dead s={dead.single}")
                return None

            forced = next((i for i in infos if i.kind == "forced"), None)
            if forced is not None:
                v = forced.candidates[0]
                ok = col.set_black(v) and col.propagate().stable
                if tracer is not None:
                    node = tracer.add(node, f"forced {v} pairs {forced.single}")
                if not ok:
                    self._leaf(node, "invalid")
                    return None
                continue

            if self.singles_after_reduce is None:
                # dead/forced exhausted for the first time in this root
                self.singles_after_reduce = len(singles)

            free = next((i for i in infos if i.kind == "free"), None)
            if free is not None:
                v = min(
                    free.candidates,
                    key=lambda c: (self._spoke_weight(free.single, c), c),
                )
                ok = col.set_black(v) and col.propagate().stable
                if tracer is not None:
                    node = tracer.add(node, f"free {v} pairs {free.single}")
                if not ok:
                    # free choices cannot clash with anything outside the part
                    self._leaf(node, "invalid")
                    return None
                continue

            cross_info = next(i for i in infos if i.kind == "cross")
            assert cross_info.cross is not None
            return cross_info.cross[2], node


def solve_domset(
    g: Graph,
    dominating_set: Sequence[int] | None = None,
    observer: Observer | None = None,
    tracer=None,
) -> SolveOutcome:
    """Minimum-weight DIM of a preprocessed graph, or certified absence.

    dominating_set defaults to find_dominating_set(g); passing a set that
    is not dominating is misuse and raises ValueError. observer, if given,
    is called as observer(root_index, root_black_set, singles) at each
    complete assignment of D that propagates stably, in increasing root
    order; bit k of root_index is 1 when the k-th smallest vertex of D is
    black. tracer receives one node per assignment in D and per
    propagation fixpoint below a complete one, for DOT output.
    """
    if dominating_set is None:
        d_sorted = find_dominating_set(g)
    else:
        d_sorted = sorted(set(dominating_set))
        if any(v < 0 or v >= g.n for v in d_sorted):
            raise ValueError("dominating set contains out-of-range vertex ids")
        if not _is_dominating(g, d_sorted):
            raise ValueError("the given vertex set is not dominating")

    col = Coloring(g)
    state = col.state
    trace_top = (
        tracer.add(None, f"search over dominating set {list(d_sorted)}")
        if tracer
        else None
    )
    best: Dim | None = None
    nodes = 0
    leaves_per_root: list[int] = []
    singles_per_root: list[int] = []
    bound = min(len(d_sorted), (g.n + 2) // 3)

    # Depth-first over D from its last vertex to its first, white before
    # black, so complete assignments arrive in increasing root order. A
    # vertex that propagation already colored keeps its color. Entries are
    # (index in D, color to give it or None for the start, trail mark to
    # undo to first, parent trace node); the index bounds what is left.
    stack: list[tuple[int, int | None, int, object]] = [
        (len(d_sorted), None, col.mark(), trace_top)
    ]
    singles: tuple[int, ...] = ()
    while stack:
        k, color, mark, node = stack.pop()
        col.undo_to(mark)
        if color is not None:
            nodes += 1
            v = d_sorted[k]
            ok = col.set_color(v, color)
            if ok:
                result = col.propagate()
                ok = result.stable
            if tracer:
                node = tracer.add(node, f"{v}={'B' if color == BLACK else 'W'}")
            if not ok:
                if tracer:
                    tracer.annotate(node, "invalid")
                continue
            singles = result.singles
        k -= 1
        while k >= 0 and state[d_sorted[k]] != UNCOLORED:
            k -= 1
        if k >= 0:
            mark = col.mark()
            stack.append((k, BLACK, mark, node))
            stack.append((k, WHITE, mark, node))
            continue

        # a complete assignment of D that propagated stably
        root = sum(1 << i for i, v in enumerate(d_sorted) if state[v] == BLACK)
        if tracer:
            bits = " ".join(
                f"{v}={'B' if state[v] == BLACK else 'W'}" for v in d_sorted
            )
            node = tracer.add(node, f"root {root}: {bits or 'empty'}")
        if observer is not None:
            root_blacks = frozenset(v for v in d_sorted if state[v] == BLACK)
            observer(root, root_blacks, singles)
        search = _RootSearch(col, tracer)
        search.resolve(node)
        q = search.singles_after_reduce or 0
        if q > bound or search.leaves > (1 << q):
            raise ContractViolation(
                f"root {root}: leaves={search.leaves}, singles after reduce={q}, "
                f"bound=2^min(|D|, ceil(n/3))=2^{bound}"
            )
        leaves_per_root.append(search.leaves)
        singles_per_root.append(q)
        # strict: ties keep the earliest root
        if search.best is not None and (best is None or search.best.weight < best.weight):
            best = search.best

    stats = SolveStats(
        dominating_set_size=len(d_sorted),
        search_nodes=nodes,
        roots_explored=len(leaves_per_root),
        branch_leaves_per_root=tuple(leaves_per_root),
        residual_singles_per_root=tuple(singles_per_root),
    )
    if best is None:
        return SolveOutcome(dim=None, stats=stats)
    if not validate_dim(g, best.edge_ids):
        raise ContractViolation("solver produced an edge set that fails validation")
    return SolveOutcome(dim=best, stats=stats)
