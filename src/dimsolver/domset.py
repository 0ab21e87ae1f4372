"""Exact DIM solver branching over bi-colorings of a dominating set.

Every DIM colors each vertex of a dominating set D white or black, so all
2^|D| assignments of D are tried as roots. Each root is propagated to a
stable coloring; the leftover uncolored vertices split into parts, one per
single black vertex, and each part is resolved by structure:

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

from .coloring import UNCOLORED, Coloring, ContractViolation
from .graph import Dim, Graph, format_weight, validate_dim


@dataclass(frozen=True)
class SolveStats:
    """Per-run search statistics; lists are indexed by root."""

    dominating_set_size: int
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
        """Resolve all parts below the current stable coloring."""
        col = self.col
        tracer = self.tracer
        while True:
            parts = col.uncolored_partition()
            if not parts:
                self._complete(node)
                return
            singles = sorted(parts)
            part_of = {u: s for s, us in parts.items() for u in us}
            part_index = {s: i for i, s in enumerate(singles)}
            infos = [
                classify_part(col, s, parts[s], part_of, part_index) for s in singles
            ]

            dead = next((i for i in infos if i.kind == "dead"), None)
            if dead is not None:
                self._leaf(node, f"dead s={dead.single}")
                return

            forced = next((i for i in infos if i.kind == "forced"), None)
            if forced is not None:
                v = forced.candidates[0]
                ok = col.set_black(v) and col.propagate().stable
                if tracer is not None:
                    node = tracer.add(node, f"forced {v} pairs {forced.single}")
                if not ok:
                    self._leaf(node, "invalid")
                    return
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
                    return
                continue

            cross_info = next(i for i in infos if i.kind == "cross")
            assert cross_info.cross is not None
            _, _, v, _ = cross_info.cross
            # v black pairs its own single; v white forces the far endpoint
            # black, pairing the other part's single
            for make_black in (True, False):
                mark = col.mark()
                ok = (
                    col.set_black(v) if make_black else col.set_white(v)
                ) and col.propagate().stable
                tag = "black" if make_black else "white"
                child = (
                    tracer.add(node, f"cross {v}={tag}") if tracer is not None else None
                )
                if ok:
                    self.resolve(child)
                else:
                    self._leaf(child, "invalid")
                col.undo_to(mark)
            return


def solve_domset(
    g: Graph,
    dominating_set: Sequence[int] | None = None,
    observer: Observer | None = None,
    tracer=None,
) -> SolveOutcome:
    """Minimum-weight DIM of a preprocessed graph, or certified absence.

    dominating_set defaults to find_dominating_set(g); passing a set that
    is not dominating is misuse and raises ValueError. observer, if given,
    is called as observer(root_index, root_black_set, singles) after each
    root that propagates to a stable coloring, in increasing root order.
    tracer receives one node per propagation fixpoint for DOT output.
    """
    if dominating_set is None:
        d_sorted = find_dominating_set(g)
    else:
        d_sorted = sorted(set(dominating_set))
        if any(v < 0 or v >= g.n for v in d_sorted):
            raise ValueError("dominating set contains out-of-range vertex ids")
        if not _is_dominating(g, d_sorted):
            raise ValueError("the given vertex set is not dominating")

    roots = 1 << len(d_sorted)
    trace_top = (
        tracer.add(None, f"{roots} roots over dominating set {list(d_sorted)}")
        if tracer
        else None
    )
    col = Coloring(g)
    base = col.mark()
    best: Dim | None = None
    leaves_per_root: list[int] = []
    singles_per_root: list[int] = []
    bound = min(len(d_sorted), (g.n + 2) // 3)
    for root in range(roots):
        bits = " ".join(
            f"{v}={'B' if (root >> k) & 1 else 'W'}" for k, v in enumerate(d_sorted)
        )
        node = tracer.add(trace_top, f"root {root}: {bits or 'empty'}") if tracer else None
        ok = True
        for k, v in enumerate(d_sorted):
            if (root >> k) & 1:
                ok = col.set_black(v)
            else:
                ok = col.set_white(v)
            if not ok:
                break
        search = _RootSearch(col, tracer)
        if ok:
            result = col.propagate()
            ok = result.stable
            if ok and observer is not None:
                root_blacks = frozenset(
                    v for k, v in enumerate(d_sorted) if (root >> k) & 1
                )
                observer(root, root_blacks, result.singles)
        if not ok:
            search._leaf(node, "invalid")
        else:
            search.resolve(node)
        col.undo_to(base)

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
        roots_explored=roots,
        branch_leaves_per_root=tuple(leaves_per_root),
        residual_singles_per_root=tuple(singles_per_root),
    )
    if best is None:
        return SolveOutcome(dim=None, stats=stats)
    if not validate_dim(g, best.edge_ids):
        raise ContractViolation("solver produced an edge set that fails validation")
    return SolveOutcome(dim=best, stats=stats)
