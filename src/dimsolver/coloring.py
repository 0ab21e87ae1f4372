"""Partial black/white vertex colorings with rule propagation and undo.

A coloring assigns each vertex Uncolored, White, or Black. The target total
colorings are exactly the DIMs: whites form an independent set, blacks a
1-regular induced subgraph (each black has one "pair"). Four forcing rules
and one refutation drive propagation:

  * every neighbor of a white vertex is black
  * every neighbor of a paired black vertex, other than its pair, is white
  * a vertex with two black neighbors is white
  * a single (unpaired) black vertex with exactly one uncolored neighbor
    pairs with that neighbor, which becomes black
  * a single black vertex with no uncolored neighbor refutes the coloring:
    it can never be paired

All five run off one worklist; coloring a vertex enqueues it and its
neighbors. Each rule's precondition stays true as more vertices are
colored: the pairing rule reads "v is black and every neighbor but u is
white, so u is black", the refutation "v is black and every neighbor is
white". So the worklist reaches the same fixpoint, or the same
refutation, in any processing order. propagate reports only whether
that fixpoint is stable; the singles are a separate query, singles().
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Dim, Graph

UNCOLORED, WHITE, BLACK = 0, 1, 2
NO_PAIR = -1


class ContractViolation(RuntimeError):
    """An invariant the algorithms are supposed to guarantee was observed broken."""


@dataclass(frozen=True)
class PropagationResult:
    stable: bool


class Coloring:
    """Mutable color state over an immutable graph.

    All changes go through set_white/set_black so the per-vertex counters
    (black neighbors, uncolored neighbors) and pair links stay exact and
    every change lands on the undo trail. Either setter returns False when
    the change breaks partial validity (two adjacent whites, or a black
    with two black neighbors); the state is then dirty and the caller is
    expected to undo_to() an earlier mark.

    A Coloring has a single owner; independent colorings may share one
    graph.
    """

    __slots__ = (
        "graph",
        "state",
        "pair",
        "pair_edge",
        "black_nbrs",
        "uncolored_nbrs",
        "_trail",
        "_pending",
        "_queued",
        "_head",
    )

    def __init__(self, g: Graph):
        self.graph = g
        n = g.n
        self.state = bytearray(n)
        self.pair = [NO_PAIR] * n
        self.pair_edge = [NO_PAIR] * n
        self.black_nbrs = [0] * n
        self.uncolored_nbrs = [g.degree(v) for v in range(n)]
        self._trail: list[int] = []
        self._pending: list[int] = []
        self._queued = bytearray(n)
        self._head = 0

    # -- undo -------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Revert to a previous mark; also drops any pending rule work."""
        trail = self._trail
        state = self.state
        while len(trail) > mark:
            v = trail.pop()
            was_black = state[v] == BLACK
            state[v] = UNCOLORED
            p = self.pair[v]
            if p != NO_PAIR:
                self.pair[p] = NO_PAIR
                self.pair_edge[p] = NO_PAIR
                self.pair[v] = NO_PAIR
                self.pair_edge[v] = NO_PAIR
            for u, _ in self.graph.adjacency[v]:
                self.uncolored_nbrs[u] += 1
                if was_black:
                    self.black_nbrs[u] -= 1
        self._clear_pending()

    # -- assignment -------------------------------------------------------

    def set_white(self, v: int) -> bool:
        assert self.state[v] == UNCOLORED, f"vertex {v} is already colored"
        self.state[v] = WHITE
        self._trail.append(v)
        self._enqueue(v)
        ok = True
        for u, _ in self.graph.adjacency[v]:
            self.uncolored_nbrs[u] -= 1
            self._enqueue(u)
            if self.state[u] == WHITE:
                ok = False
        return ok

    def set_black(self, v: int) -> bool:
        assert self.state[v] == UNCOLORED, f"vertex {v} is already colored"
        state = self.state
        state[v] = BLACK
        self._trail.append(v)
        self._enqueue(v)
        ok = self.black_nbrs[v] <= 1
        mate = NO_PAIR
        mate_eid = NO_PAIR
        for u, eid in self.graph.adjacency[v]:
            self.uncolored_nbrs[u] -= 1
            self.black_nbrs[u] += 1
            self._enqueue(u)
            if state[u] == BLACK:
                if self.black_nbrs[u] > 1:
                    ok = False
                mate, mate_eid = u, eid
        if ok and mate != NO_PAIR:
            # v's unique black neighbor was single, they pair up
            self.pair[v] = mate
            self.pair[mate] = v
            self.pair_edge[v] = mate_eid
            self.pair_edge[mate] = mate_eid
        return ok

    def set_color(self, v: int, color: int) -> bool:
        if color == WHITE:
            return self.set_white(v)
        if color == BLACK:
            return self.set_black(v)
        raise ValueError(f"cannot assign color {color}")

    # -- propagation ------------------------------------------------------

    def _enqueue(self, v: int) -> None:
        # one queue slot per vertex; dispatch reads fresh state anyway
        if not self._queued[v]:
            self._queued[v] = 1
            self._pending.append(v)

    def _clear_pending(self) -> None:
        for v in self._pending[self._head :]:
            self._queued[v] = 0
        self._pending.clear()
        self._head = 0

    def _pop_pending(self, rng: random.Random | None) -> int:
        pend = self._pending
        head = self._head
        if rng is not None and len(pend) - head > 1:
            i = rng.randrange(head, len(pend))
            pend[i], pend[head] = pend[head], pend[i]
        v = pend[head]
        self._queued[v] = 0
        self._head = head + 1
        if self._head > 1024 and self._head * 2 > len(pend):
            del pend[: self._head]
            self._head = 0
        return v

    def _close_monotone(self, rng: random.Random | None) -> bool:
        """Run every rule to its fixpoint; False on a validity break or a
        dead single."""
        state = self.state
        adjacency = self.graph.adjacency
        while self._head < len(self._pending):
            v = self._pop_pending(rng)
            c = state[v]
            if c == WHITE:
                for u, _ in adjacency[v]:
                    if state[u] == UNCOLORED and not self.set_black(u):
                        return False
            elif c == BLACK:
                p = self.pair[v]
                if p != NO_PAIR:
                    for u, _ in adjacency[v]:
                        if u != p and state[u] == UNCOLORED and not self.set_white(u):
                            return False
                elif self.uncolored_nbrs[v] == 0:
                    return False
                elif self.uncolored_nbrs[v] == 1:
                    u = next(u for u, _ in adjacency[v] if state[u] == UNCOLORED)
                    if not self.set_black(u):
                        return False
            else:
                if self.black_nbrs[v] >= 2 and not self.set_white(v):
                    return False
        return True

    def propagate(self, rng: random.Random | None = None) -> PropagationResult:
        """Run all rules to a fixpoint.

        rng, when given, randomizes the worklist processing order; the
        result does not depend on it. Returns a non-stable result on a
        validity break or a dead single, leaving the state dirty for the
        caller to undo.
        """
        stable = self._close_monotone(rng)
        self._clear_pending()
        return PropagationResult(stable=stable)

    # -- queries ----------------------------------------------------------

    def singles(self) -> tuple[int, ...]:
        """The black vertices without a pair, in increasing order."""
        state, pair = self.state, self.pair
        return tuple(
            v for v in range(self.graph.n) if state[v] == BLACK and pair[v] == NO_PAIR
        )

    def is_total(self) -> bool:
        return UNCOLORED not in self.state

    def to_dim(self) -> Dim:
        """Extract the matched black edges of a total valid coloring."""
        state = self.state
        ids = []
        weight = 0.0
        for v in range(self.graph.n):
            if state[v] == UNCOLORED:
                raise ContractViolation(f"vertex {v} is uncolored, coloring not total")
            if state[v] == BLACK:
                p = self.pair[v]
                if p == NO_PAIR:
                    raise ContractViolation(f"black vertex {v} has no pair")
                if p > v:
                    eid = self.pair_edge[v]
                    ids.append(eid)
                    weight += self.graph.edges[eid][2]
        return Dim(frozenset(ids), weight)
