"""Exact DIM solver branching over bi-colorings of a dominating set.

Every DIM colors each vertex of a dominating set D white or black. The
solver runs one depth-first search and propagates the forcing rules after
every assignment. Every rule holds in any DIM that extends the partial
coloring, so an assignment whose propagation breaks has no DIM below it
and its subtree is skipped. The search does three things:

  assign D  one vertex of D at a time, white before black; a vertex that
            propagation has already colored keeps its color. Each
            complete assignment that propagates stably is a root.
  settle    the uncolored vertices left at a root split into parts, one
            per single black vertex, and classify_parts gives each part
            a kind by its structure:
              dead    the part cannot host the single's pair; prune
              forced  exactly one viable pair candidate; take it
              free    several candidates, no edge into another part; the
                      cheapest candidate is optimal independently of
                      everything else
              cross   an edge links two parts
            Parts are settled a wave at a time from one classification:
            every forced pair at once, or, when none is left, every free
            part's cheapest candidate at once, then one propagation.
  branch    on a cross edge's endpoint, black before white, then settle
            again.

There are at most 2^|D| roots. Only cross parts branch, and each branch
settles at least one single, so a root explores at most 2^q leaves where
q is the number of singles left after the dead/forced reduction; q never
exceeds min(|D|, ceil(n/3)). Those bounds are enforced at runtime, not
assumed: the root count as each root is reached, q when it is fixed, the
leaf count as each leaf is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .coloring import BLACK, UNCOLORED, WHITE, Coloring
from .graph import (
    ContractViolation, Dim, Graph, SolveOutcome, SolveStats, format_weight, validate_dim,
)


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
    star plus an independent set. cross is the edge (a, b) leaving the
    part, a inside it, with the smallest (owner of b, a, b), if any.
    """

    single: int
    members: tuple[int, ...]
    kind: str  # "dead" | "forced" | "free" | "cross"
    candidates: tuple[int, ...]
    cross: tuple[int, int] | None


def classify_part(
    col: Coloring,
    single: int,
    members: Sequence[int],
    part_of: dict[int, int],
) -> PartInfo:
    """Classify N_U(single); part_of maps uncolored vertices to their
    single.

    The induced edges form a star plus an independent set exactly when
    they all meet at one vertex, that is when the top degree t inside the
    part equals the number e of induced edges; the candidates are then
    the members of degree t: every member of an independent part, both
    ends of a lone edge, a star's center. Any other part is dead, and so
    is an empty one, which has no top degree.
    """
    g = col.graph
    members = tuple(sorted(members))
    member_set = set(members)
    degrees: list[int] = []
    cross_edges: list[tuple[int, int, int]] = []
    for a in members:
        d = 0
        for b, _ in g.adjacency[a]:
            if b in member_set:
                d += 1
            elif col.state[b] == UNCOLORED:
                cross_edges.append((part_of[b], a, b))
        degrees.append(d)
    top = max(degrees, default=-1)
    if top != sum(degrees) // 2:
        return PartInfo(single, members, "dead", (), None)
    candidates = tuple([a for a, d in zip(members, degrees) if d == top])

    cross = min(cross_edges)[1:] if cross_edges else None
    if len(candidates) == 1:
        kind = "forced"
    elif cross is not None:
        kind = "cross"
    else:
        kind = "free"
    return PartInfo(single, members, kind, candidates, cross)


def classify_parts(col: Coloring) -> list[PartInfo]:
    """Split the uncolored vertices into one part per single black vertex
    and classify each part, in increasing order of the single.

    On a stable coloring grown from a dominating colored set, every
    uncolored vertex has exactly one black neighbor, and it is single;
    anything else raises ContractViolation (the usual cause is a
    non-dominating root). A single with no uncolored neighbor gets an
    empty part, which is dead.
    """
    g = col.graph
    state, black_nbrs = col.state, col.black_nbrs
    parts: dict[int, list[int]] = {}
    part_of: dict[int, int] = {}
    for v in range(g.n):
        if state[v] == BLACK and not black_nbrs[v]:
            parts.setdefault(v, [])
        elif state[v] == UNCOLORED:
            if black_nbrs[v] != 1:
                raise ContractViolation(
                    f"uncolored vertex {v} has {black_nbrs[v]} black neighbors, "
                    "expected exactly 1 (is the root set dominating?)"
                )
            owner = next(b for b, _ in g.adjacency[v] if state[b] == BLACK)
            if black_nbrs[owner]:
                raise ContractViolation(
                    f"uncolored vertex {v} borders the paired black vertex {owner}"
                )
            parts.setdefault(owner, []).append(v)
            part_of[v] = owner
    return [classify_part(col, s, parts[s], part_of) for s in sorted(parts)]


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
    return _search(Coloring(g), d_sorted, observer, tracer)


def _search(
    col: Coloring, d_sorted: Sequence[int], observer: Observer | None, tracer
) -> SolveOutcome:
    """The search of solve_domset below col, a stable coloring; the
    vertices of the sorted dominating set d_sorted that col leaves
    uncolored are assigned, the others keep their colors."""
    g = col.graph
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
    root = 0
    q: int | None = None

    # Entries are (index in D of the vertex to color, or -1 below a root;
    # that vertex; its color, or None for the start; trail mark to undo to
    # first; parent trace node). D is assigned from its last vertex to its
    # first, white before black, so roots arrive in increasing root order.
    stack: list[tuple[int, int, int | None, int, object]] = [
        (len(d_sorted), -1, None, col.mark(), trace_top)
    ]
    while stack:
        k, v, color, mark, node = stack.pop()
        col.undo_to(mark)
        note = None
        if color is not None:
            ok = col.set_color(v, color) and col.propagate().stable
            if k >= 0:
                nodes += 1
            if tracer:
                black = color == BLACK
                if k >= 0:
                    label = f"{v}={'B' if black else 'W'}"
                else:
                    label = f"cross {v}={'black' if black else 'white'}"
                node = tracer.add(node, label)
            if not ok:
                note = "invalid"

        if note is None and k >= 0:
            k -= 1
            while k >= 0 and state[d_sorted[k]] != UNCOLORED:
                k -= 1
            if k >= 0:
                mark = col.mark()
                stack.append((k, d_sorted[k], BLACK, mark, node))
                stack.append((k, d_sorted[k], WHITE, mark, node))
                continue
            # a complete assignment of D that propagated stably
            root = sum(1 << i for i, u in enumerate(d_sorted) if state[u] == BLACK)
            if tracer:
                # bit k is the k-th vertex of D, listed in the top label
                node = tracer.add(node, f"root {root:#x}")
            if observer is not None:
                root_blacks = frozenset(u for u in d_sorted if state[u] == BLACK)
                observer(root, root_blacks, col.singles())
            leaves_per_root.append(0)
            singles_per_root.append(0)
            q = None
            if len(leaves_per_root) > 1 << len(d_sorted):
                raise ContractViolation(
                    f"explored {len(leaves_per_root)} roots > 2^|D| = "
                    f"{1 << len(d_sorted)}"
                )

        # settle this branch a wave at a time until it reaches a leaf, a
        # dead part or a cross vertex to branch on
        while note is None:
            infos = classify_parts(col)
            if not infos:
                dim = col.to_dim()
                # strict: ties keep the earliest leaf in search order
                if best is None or dim.weight < best.weight:
                    best = dim
                note = f"complete w={format_weight(dim.weight)}"
                break
            dead = next((i for i in infos if i.kind == "dead"), None)
            if dead is not None:
                note = f"dead s={dead.single}"
                break
            wave = [i for i in infos if i.kind == "forced"]
            if not wave:
                if q is None:
                    # dead/forced exhausted for the first time in this root
                    q = singles_per_root[-1] = len(infos)
                    if q > bound:
                        raise ContractViolation(
                            f"root {root:#x}: singles after reduce={q} > "
                            f"min(|D|, ceil(n/3))={bound}"
                        )
                wave = [i for i in infos if i.kind == "free"]
            if not wave:
                # v black pairs its own single; v white forces the far
                # endpoint black, pairing the other part's single
                cross = next(i for i in infos if i.kind == "cross").cross
                assert cross is not None
                mark = col.mark()
                stack.append((-1, cross[0], WHITE, mark, node))
                stack.append((-1, cross[0], BLACK, mark, node))
                break
            # a wave is applied whole and propagated once: every forced
            # pair holds in each DIM below, and a free part shares no edge
            # with any other part, so a break means there is no DIM below
            ok = True
            for info in wave:
                s = info.single
                v = min(info.candidates, key=lambda c: (g.edges[g.edge_id(s, c)][2], c))
                ok = col.set_black(v)
                if tracer:
                    node = tracer.add(node, f"{info.kind} {v} pairs {s}")
                if not ok:
                    break
            if not (ok and col.propagate().stable):
                note = "invalid"

        if note is None:
            continue
        if tracer:
            tracer.annotate(node, note)
        if k >= 0:
            continue  # a refuted assignment in D, not a leaf
        leaves_per_root[-1] += 1
        if leaves_per_root[-1] > 1 << (q or 0):
            raise ContractViolation(
                f"root {root:#x}: leaves={leaves_per_root[-1]} > 2^q, "
                f"singles after reduce q={q or 0}"
            )

    stats = SolveStats(
        "domset",
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
