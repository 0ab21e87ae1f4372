"""Weighted simple undirected graphs: representation, file I/O, the DIM
validator, and the result types every engine answers with.

The file format is DIMACS-like, one record per line:

    c <comment>            optional, anywhere; c is the first token
    p dim <n> <m>          exactly once, before any edge
    e <u> <v> <w>          m times; 1-based endpoints, non-negative weight

Numbers use ASCII digits, no underscores; vertices are 1-based in files and
0-based internally. Graphs are immutable, so many colorings can share one.

A solve returns a SolveOutcome (the DIM or None, and the run's
SolveStats), a count a CountResult, and an engine raises
ContractViolation when one of its own guarantees breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


class GraphFormatError(ValueError):
    """A malformed edge or instance text; `line` is the 1-based offending
    line number, None when no single line is at fault or there is no text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _finite_total(edges) -> bool:
    # every DIM weight is a math.fsum of some of the edge weights, and no
    # such sum exceeds the correctly rounded total
    try:
        return math.isfinite(math.fsum(w for _, _, w in edges))
    except OverflowError:
        return False


def _index(n: int, edges) -> tuple[tuple[tuple[int, int], ...], ...]:
    """adjacency[v]: the (neighbor, edge id) pairs of v in edge order.

    Here and on every other per-instance path, tuples are built from lists,
    never from a generator or map: CPython 3.10/3.11 takes such a tuple from
    its 10-slot free list and resizes it, so each call would move a tuple
    from that free list to another one, and over a run the free lists of
    small sizes would fill to their caps."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return tuple([tuple(nbrs) for nbrs in adj])


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
        seen: dict[int, int | None] = {}
        edges = tuple([_check_edge(self.n, u, v, w, seen) for u, v, w in self.edges])
        if not _finite_total(edges):
            raise ValueError("total edge weight is not finite")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adjacency", _index(self.n, edges))

    @classmethod
    def _checked(
        cls,
        n: int,
        edges: tuple[tuple[int, int, float], ...],
        adjacency: tuple[tuple[tuple[int, int], ...], ...],
    ) -> Graph:
        """A graph from edges that already passed _check_edge, and their
        adjacency in edge order. Nothing is checked or indexed again."""
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

    def core_vertices(self) -> list[int]:
        """The vertices in components of three or more vertices, in order:
        those whose degree, or whose one neighbor's, is at least 2. The
        rest are isolated vertices and the ends of isolated edges."""
        adj = self.adjacency
        return [
            v for v, nbrs in enumerate(adj)
            if len(nbrs) > 1 or (nbrs and len(adj[nbrs[0][0]]) > 1)
        ]

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of the edge between u and v, or None if they are not adjacent."""
        a, b = (u, v) if self.degree(u) <= self.degree(v) else (v, u)
        for nbr, eid in self.adjacency[a]:
            if nbr == b:
                return eid
        return None

    def dim(self, edge_ids: Iterable[int]) -> Dim:
        """The DIM made of these edges. Its weight is the math.fsum of
        their weights, correctly rounded and so the same in any order; no
        other code sums a DIM's weight."""
        ids = frozenset(edge_ids)
        return Dim(ids, math.fsum(self.edges[e][2] for e in ids))


@dataclass(frozen=True)
class Dim:
    """A dominating induced matching given by edge ids plus its total weight."""

    edge_ids: frozenset[int]
    weight: float


class ContractViolation(RuntimeError):
    """An invariant the algorithms are supposed to guarantee was observed broken."""


@dataclass(frozen=True)
class SolveStats:
    """What one run of an engine counted.

    engine names the engine that ran: "domset" or "mis". The
    domset search fills the next five fields: search_nodes counts the
    assignments tried in D, pruned ones included; roots_explored counts
    the complete assignments that propagated stably, and the two tuples
    hold one entry per such root, in root order. The MIS walk fills
    mis_count, the maximal independent sets it visited, and completions,
    those that completed to a DIM. A field the engine does not fill stays
    0 or ().
    """

    engine: str
    dominating_set_size: int = 0
    search_nodes: int = 0
    roots_explored: int = 0
    branch_leaves_per_root: tuple[int, ...] = ()
    residual_singles_per_root: tuple[int, ...] = ()
    mis_count: int = 0
    completions: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    """Result of an exact engine: a minimum-weight DIM or a certified
    absence (dim is None), and what the run counted."""

    dim: Dim | None
    stats: SolveStats


@dataclass(frozen=True)
class CountResult:
    """Number of distinct DIMs, plus multiplicity at the minimum weight.

    witness is a DIM of that weight, None when there is none, and stats
    is the record of the engine that decided the count: the count walk's,
    or the dominating set search's when count_instance finds no DIM, and
    None for the oracle's brute_solve. Neither takes part in equality or
    the repr.
    """

    total: int
    min_weight: float | None
    min_count: int
    witness: Dim | None = field(default=None, compare=False, repr=False)
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


def format_weight(w: float) -> str:
    """An integral weight prints as its integer, every digit and no point,
    so 1e300 prints 301 digits; any other weight prints as repr, the
    shortest decimal that reads back as the same float."""
    if w == int(w):
        return str(int(w))
    return repr(w)


def _check_edge(
    n: int, u: int, v: int, w, seen: dict[int, int | None], line: int | None = None, base: int = 0,
    plain: bool = False,
) -> tuple[int, int, float]:
    """The one check of an edge u-v of weight w as written, where vertex ids
    start at base and w is a number or its text; plain says the text is
    already known to be ASCII without underscores. Returns (a, b, weight),
    0-based with a < b, and records the edge in seen, which maps key
    a * n + b of each edge checked so far to its line. Errors carry line."""
    if not plain and isinstance(w, str) and not _plain(w):
        raise GraphFormatError(f"invalid weight {w!r}", line)
    try:
        weight = float(w)
    except ValueError:
        raise GraphFormatError(f"invalid weight {w!r}", line) from None
    if not math.isfinite(weight):
        raise GraphFormatError(f"invalid weight {w!r}", line)
    if weight < 0:
        raise GraphFormatError(f"negative weight {w!r}", line)
    if not (base <= u < n + base and base <= v < n + base):
        raise GraphFormatError(f"vertex id out of range in edge {u} {v}", line)
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}", line)
    a, b = (u - base, v - base) if u < v else (v - base, u - base)
    key = a * n + b
    if key in seen:
        first = seen[key]
        where = "" if first is None else f" (first seen at line {first})"
        raise GraphFormatError(f"duplicate edge {u} {v}{where}", line)
    seen[key] = line
    return a, b, weight


def _plain(token: str) -> bool:
    # int() and float() also read underscores and non-ASCII digits
    return token.isascii() and "_" not in token


def parse_graph(text: str) -> Graph:
    """Parse instance text, raising GraphFormatError with a line number.

    Each edge is checked as its line is read, by the same function as in
    Graph(n, edges), and indexed once the whole text has passed; the graph
    is not checked again.
    """
    plain = _plain(text)  # one scan spares the check per number
    n = m = None
    edges: list[tuple[int, int, float]] = []
    seen: dict[int, int | None] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphFormatError("duplicate 'p dim' header", lineno)
            try:
                if len(parts) != 4 or parts[1] != "dim" or not (plain or _plain(parts[2] + parts[3])):
                    raise ValueError
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
            try:
                if len(parts) != 4 or not (plain or _plain(parts[1] + parts[2])):
                    raise ValueError
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("malformed edge, expected 'e <u> <v> <w>'", lineno) from None
            edge = _check_edge(n, u, v, parts[3], seen, lineno, base=1, plain=plain)
            if len(edges) == m:
                raise GraphFormatError(f"more than the declared {m} edges", lineno)
            edges.append(edge)
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
