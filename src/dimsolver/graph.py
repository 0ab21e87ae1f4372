"""Weighted simple undirected graphs: representation, file I/O, preprocessing.

The file format is DIMACS-like, one record per line:

    c <comment>            optional, anywhere; c is the first token
    p dim <n> <m>          exactly once, before any edge
    e <u> <v> <w>          m times; 1-based endpoints, non-negative weight

Vertices are 0-based internally and 1-based in files. Graphs are immutable
once constructed, so many colorings can share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class GraphFormatError(ValueError):
    """Malformed instance text; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _finite_total(edges) -> bool:
    # every DIM weight is a partial sum of the edge weights
    return math.isfinite(sum(w for _, _, w in edges))


def _index(n: int, edges) -> tuple[tuple[tuple[int, int], ...], ...]:
    """adjacency[v]: the (neighbor, edge id) pairs of v in edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return tuple(map(tuple, adj))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with non-negative edge weights.

    edges holds (u, v, weight) with u < v; the edge id is the position in
    this tuple. adjacency[v] lists (neighbor, edge_id) pairs in edge
    insertion order.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {u}-{v}: vertex id out of range")
            if u == v:
                raise ValueError(f"edge {u}-{v}: self-loop")
            w = float(w)
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"edge {u}-{v}: weight must be finite and >= 0")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"edge {u}-{v}: duplicate")
            seen.add((u, v))
            norm.append((u, v, w))
        if not _finite_total(norm):
            raise ValueError("total edge weight is not finite")
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adjacency", _index(self.n, norm))

    @classmethod
    def _checked(
        cls,
        n: int,
        edges: tuple[tuple[int, int, float], ...],
        adjacency: tuple[tuple[tuple[int, int], ...], ...],
    ) -> Graph:
        """A graph from edges that already passed the checks of __post_init__,
        normalized to u < v with float weights, and their adjacency in edge
        order. Nothing is checked or indexed again."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "adjacency", adjacency)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of the edge between u and v, or None if they are not adjacent."""
        a, b = (u, v) if self.degree(u) <= self.degree(v) else (v, u)
        for nbr, eid in self.adjacency[a]:
            if nbr == b:
                return eid
        return None


@dataclass(frozen=True)
class Dim:
    """A dominating induced matching given by edge ids plus its total weight."""

    edge_ids: frozenset[int]
    weight: float


def format_weight(w: float) -> str:
    """Shortest exact decimal form; integral values print without a point."""
    if w == int(w):
        return str(int(w))
    return repr(w)


def _parse_weight(token: str, lineno: int) -> float:
    try:
        w = float(token)
    except ValueError:
        raise GraphFormatError(f"invalid weight {token!r}", lineno) from None
    if math.isnan(w) or math.isinf(w):
        raise GraphFormatError(f"invalid weight {token!r}", lineno)
    if w < 0:
        raise GraphFormatError(f"negative weight {token!r}", lineno)
    return w


def parse_graph(text: str | bytes) -> Graph:
    """Parse instance text, raising GraphFormatError with a line number.

    Each edge is checked as its line is read, with the same checks as
    Graph(n, edges), and indexed once the whole text has passed; the graph
    is not checked again.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = None
    edges: list[tuple[int, int, float]] = []
    # 0-based endpoints a < b, keyed a * n + b, map to their first line
    seen: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphFormatError("duplicate 'p dim' header", lineno)
            if len(parts) != 4 or parts[1] != "dim":
                raise GraphFormatError(
                    "malformed header, expected 'p dim <n> <m>'", lineno
                )
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(
                    "malformed header, expected 'p dim <n> <m>'", lineno
                ) from None
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be non-negative", lineno)
        elif kind == "e":
            if n is None:
                raise GraphFormatError("edge record before 'p dim' header", lineno)
            if len(parts) != 4:
                raise GraphFormatError("malformed edge, expected 'e <u> <v> <w>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("malformed edge, expected 'e <u> <v> <w>'", lineno) from None
            w = _parse_weight(parts[3], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range in edge {u} {v}", lineno)
            if u < v:
                a, b = u - 1, v - 1
            elif u > v:
                a, b = v - 1, u - 1
            else:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = a * n + b
            if key in seen:
                raise GraphFormatError(
                    f"duplicate edge {u} {v} (first seen at line {seen[key]})", lineno
                )
            seen[key] = lineno
            if len(edges) == m:
                raise GraphFormatError(f"more than the declared {m} edges", lineno)
            edges.append((a, b, w))
        elif kind != "c":
            raise GraphFormatError(f"unknown record type {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p dim <n> <m>' header")
    if len(edges) != m:
        raise GraphFormatError(
            f"edge count mismatch: header declares {m}, found {len(edges)}"
        )
    if not _finite_total(edges):
        # the same error Graph(n, edges) raises, not tied to a line
        raise ValueError("total edge weight is not finite")
    return Graph._checked(n, tuple(edges), _index(n, edges))


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph up to comment lines and edge normalization."""
    lines = [f"p dim {g.n} {g.m}"]
    for u, v, w in g.edges:
        lines.append(f"e {u + 1} {v + 1} {format_weight(w)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of trivial-component elimination.

    forced_edges are isolated-edge components (original edge id, weight):
    each such edge belongs to every DIM of the original graph. The residual
    graph has minimum degree >= 1 and no single-edge components. Vertex and
    edge ids are remapped densely; *_to_original map residual ids back,
    original_to_residual maps forward with -1 for removed vertices.
    """

    residual: Graph
    forced_edges: tuple[tuple[int, float], ...]
    removed_isolated_vertices: tuple[int, ...]
    vertex_to_original: tuple[int, ...]
    original_to_residual: tuple[int, ...]
    edge_to_original: tuple[int, ...]

    @property
    def forced_weight(self) -> float:
        return float(sum(w for _, w in self.forced_edges))

    def original_dim(self, dim: Dim) -> Dim:
        """Map a DIM of the residual back to the original graph, adding forced edges."""
        ids = {self.edge_to_original[e] for e in dim.edge_ids}
        ids.update(e for e, _ in self.forced_edges)
        return Dim(frozenset(ids), dim.weight + self.forced_weight)


def preprocess(g: Graph) -> PreprocessResult:
    """Strip isolated vertices and isolated-edge components.

    Any DIM of the original graph is the union of the forced edges and a
    DIM of the residual, and vice versa; preprocess is idempotent. When
    nothing is stripped the residual is g itself, with identity maps.
    """
    adj = g.adjacency
    # a vertex is in a component of three or more vertices exactly when it
    # or its one neighbor has degree >= 2
    kept = [
        v
        for v, nbrs in enumerate(adj)
        if len(nbrs) > 1 or (nbrs and len(adj[nbrs[0][0]]) > 1)
    ]
    if len(kept) == g.n:
        ident = tuple(range(g.n))
        return PreprocessResult(g, (), (), ident, ident, tuple(range(g.m)))

    fwd = [-1] * g.n
    for new, old in enumerate(kept):
        fwd[old] = new
    res_edges: list[tuple[int, int, float]] = []
    edge_map: list[int] = []
    forced: list[tuple[int, float]] = []
    res_eid = [-1] * g.m
    for eid, (u, v, w) in enumerate(g.edges):
        if fwd[u] == -1:
            # u and v have degree 1: an isolated-edge component
            forced.append((eid, w))
        else:
            res_eid[eid] = len(res_edges)
            res_edges.append((fwd[u], fwd[v], w))
            edge_map.append(eid)
    # every neighbor of a kept vertex is kept, and edge ids keep their
    # order, so each remapped list is still in residual edge order
    res_adj = tuple(
        tuple((fwd[u], res_eid[eid]) for u, eid in adj[old]) for old in kept
    )
    return PreprocessResult(
        residual=Graph._checked(len(kept), tuple(res_edges), res_adj),
        forced_edges=tuple(forced),
        removed_isolated_vertices=tuple(v for v in range(g.n) if not adj[v]),
        vertex_to_original=tuple(kept),
        original_to_residual=tuple(fwd),
        edge_to_original=tuple(edge_map),
    )


def validate_dim(g: Graph, candidate: frozenset[int] | set[int]) -> bool:
    """Check the defining property directly: every edge of g is dominated by
    exactly one candidate edge, where an edge dominates itself and every
    edge sharing an endpoint.

    Deliberately independent of the solvers; works from incidence counts
    only. Edge ids outside range raise ValueError.
    """
    incident = [0] * g.n
    cand = set(candidate)
    for eid in cand:
        if not (0 <= eid < g.m):
            raise ValueError(f"edge id {eid} out of range")
        u, v, _ = g.edges[eid]
        incident[u] += 1
        incident[v] += 1
    for eid, (u, v, _) in enumerate(g.edges):
        # candidate edges touching u plus those touching v double-count only
        # the edge u-v itself (simple graph), i.e. eid when it is a candidate
        count = incident[u] + incident[v] - (1 if eid in cand else 0)
        if count != 1:
            return False
    return True
