"""Weighted simple undirected graphs: representation, file I/O, preprocessing.

The file format is DIMACS-like, one record per line:

    c <comment>            optional, anywhere
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
        seen: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v, w) in enumerate(self.edges):
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
            seen[(u, v)] = eid
            norm.append((u, v, w))
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        # every DIM weight is a partial sum of the edge weights
        if not math.isfinite(sum(w for _, _, w in norm)):
            raise ValueError("total edge weight is not finite")
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

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
    """Parse instance text, raising GraphFormatError with a line number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = None
    edges: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        parts = line.split()
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
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(
                    f"duplicate edge {u} {v} (first seen at line {seen[key]})", lineno
                )
            seen[key] = lineno
            if len(edges) == m:
                raise GraphFormatError(f"more than the declared {m} edges", lineno)
            edges.append((u - 1, v - 1, w))
        else:
            raise GraphFormatError(f"unknown record type {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p dim <n> <m>' header")
    if len(edges) != m:
        raise GraphFormatError(
            f"edge count mismatch: header declares {m}, found {len(edges)}"
        )
    return Graph(n, tuple(edges))


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
    DIM of the residual, and vice versa; preprocess is idempotent.
    """
    comp = [-1] * g.n
    comps: list[list[int]] = []
    for start in range(g.n):
        if comp[start] != -1:
            continue
        cid = len(comps)
        comp[start] = cid
        stack, members = [start], [start]
        while stack:
            v = stack.pop()
            for u, _ in g.adjacency[v]:
                if comp[u] == -1:
                    comp[u] = cid
                    stack.append(u)
                    members.append(u)
        comps.append(sorted(members))

    removed: list[int] = []
    forced: list[tuple[int, float]] = []
    kept: list[int] = []
    for members in comps:
        if len(members) == 1:
            removed.append(members[0])
        elif len(members) == 2:
            # a 2-vertex component is exactly one edge
            eid = g.edge_id(members[0], members[1])
            assert eid is not None
            forced.append((eid, g.edges[eid][2]))
        else:
            kept.extend(members)

    kept.sort()
    fwd = [-1] * g.n
    for new, old in enumerate(kept):
        fwd[old] = new
    res_edges: list[tuple[int, int, float]] = []
    edge_map: list[int] = []
    for eid, (u, v, w) in enumerate(g.edges):
        if fwd[u] != -1 and fwd[v] != -1:
            res_edges.append((fwd[u], fwd[v], w))
            edge_map.append(eid)
    residual = Graph(len(kept), tuple(res_edges))
    return PreprocessResult(
        residual=residual,
        forced_edges=tuple(sorted(forced)),
        removed_isolated_vertices=tuple(sorted(removed)),
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
