"""Partial black/white vertex colorings with rule propagation and undo.

A coloring assigns each vertex Uncolored, White, or Black. The target total
colorings are exactly the DIMs: whites form an independent set, blacks a
1-regular induced subgraph (each black has one "pair"). So pairs are read
off the colors, not stored: in a valid coloring a black vertex has at most
one black neighbor, and that neighbor is its pair. Four forcing rules and
one refutation drive propagation:

  * every neighbor of a white vertex is black
  * every neighbor of a paired black vertex, other than its pair, is white
  * a vertex with two black neighbors is white
  * a single (unpaired) black vertex with exactly one uncolored neighbor
    pairs with that neighbor, which becomes black
  * a single black vertex with no uncolored neighbor refutes the coloring:
    it can never be paired

All five run off the undo trail, which doubles as the worklist:
propagate walks the trail from the first entry it has not visited and,
for each colored vertex, fires only the rules that coloring can have
enabled, on the vertex, its pair and its neighbors. Each rule's
precondition stays true as more vertices are colored: the pairing rule
reads "v is black and every neighbor but u is white, so u is black", the
refutation "v is black and every neighbor is white". So the rules reach
the same fixpoint, or the same refutation, in any visiting order.
propagate reports only whether that fixpoint is stable; the singles are
a separate query, singles().
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ContractViolation, Dim, Graph

UNCOLORED, WHITE, BLACK = 0, 1, 2
NO_PAIR = -1


@dataclass(frozen=True)
class PropagationResult:
    stable: bool


class Coloring:
    """Mutable color state over an immutable graph.

    All changes go through set_white/set_black so the black-neighbor
    counters stay exact and every change lands on the undo trail. Either
    setter returns False when the change breaks partial validity (two
    adjacent whites, or a black with two black neighbors); the state is
    then dirty and the caller is expected to undo_to() an earlier mark.
    Pairs are not stored: mate(v) reads a black vertex's pair off the
    colors, and a black vertex is single when black_nbrs is 0.

    A Coloring has a single owner; independent colorings may share one
    graph.
    """

    __slots__ = ("graph", "state", "black_nbrs", "_trail", "_done")

    def __init__(self, g: Graph):
        self.graph = g
        self.state = bytearray(g.n)
        self.black_nbrs = [0] * g.n
        self._trail: list[int] = []
        self._done = 0  # trail entries propagate has visited

    # -- undo -------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Revert to a previous mark, taken where the trail was propagated."""
        trail = self._trail
        state = self.state
        while len(trail) > mark:
            v = trail.pop()
            if state[v] == BLACK:
                for u, _ in self.graph.adjacency[v]:
                    self.black_nbrs[u] -= 1
            state[v] = UNCOLORED
        self._done = min(self._done, mark)

    # -- assignment -------------------------------------------------------

    def set_white(self, v: int) -> bool:
        assert self.state[v] == UNCOLORED, f"vertex {v} is already colored"
        state = self.state
        state[v] = WHITE
        self._trail.append(v)
        for u, _ in self.graph.adjacency[v]:
            if state[u] == WHITE:
                return False
        return True

    def set_black(self, v: int) -> bool:
        assert self.state[v] == UNCOLORED, f"vertex {v} is already colored"
        state = self.state
        state[v] = BLACK
        self._trail.append(v)
        ok = self.black_nbrs[v] <= 1
        for u, _ in self.graph.adjacency[v]:
            self.black_nbrs[u] += 1
            if state[u] == BLACK and self.black_nbrs[u] > 1:
                ok = False
        return ok

    def set_color(self, v: int, color: int) -> bool:
        if color == WHITE:
            return self.set_white(v)
        if color == BLACK:
            return self.set_black(v)
        raise ValueError(f"cannot assign color {color}")

    # -- propagation ------------------------------------------------------

    def propagate(self) -> PropagationResult:
        """Run all rules to a fixpoint over the colorings made since the
        last propagate. Returns a non-stable result on a validity break or
        a dead single, leaving the state dirty for the caller to undo.
        """
        trail = self._trail
        stable = True
        while stable and self._done < len(trail):
            v = trail[self._done]
            self._done += 1
            stable = self._visit(v)
        return PropagationResult(stable=stable)

    def _visit(self, v: int) -> bool:
        """Fire the rules that coloring v can have enabled; False on a
        validity break or a dead single."""
        state, black_nbrs = self.state, self.black_nbrs
        adjacency = self.graph.adjacency
        if state[v] == WHITE:
            for u, _ in adjacency[v]:
                if state[u] == UNCOLORED and not self.set_black(u):
                    return False
        elif black_nbrs[v]:
            # the mate may have been visited while still single; pairs are black
            for x in (v, self.mate(v)):
                for u, _ in adjacency[x]:
                    if state[u] == UNCOLORED and not self.set_white(u):
                        return False
        # coloring v raised each u's black_nbrs or left it fewer uncolored neighbors
        for u, _ in adjacency[v]:
            if state[u] == UNCOLORED:
                if black_nbrs[u] >= 2 and not self.set_white(u):
                    return False
            elif state[u] == BLACK and not black_nbrs[u] and not self._settle_single(u):
                return False
        return state[v] == WHITE or black_nbrs[v] > 0 or self._settle_single(v)

    def _settle_single(self, s: int) -> bool:
        """The single rule on the black vertex s: pair it with its one
        uncolored neighbor; False when it has none left."""
        state = self.state
        only = NO_PAIR
        for u, _ in self.graph.adjacency[s]:
            if state[u] == UNCOLORED:
                if only != NO_PAIR:
                    return True  # a second one: nothing is forced yet
                only = u
        return only != NO_PAIR and self.set_black(only)

    # -- queries ----------------------------------------------------------

    def mate(self, v: int) -> int:
        """The pair of v: its one black neighbor when v is black and has
        one, else NO_PAIR."""
        state = self.state
        if state[v] == BLACK and self.black_nbrs[v]:
            for u, _ in self.graph.adjacency[v]:
                if state[u] == BLACK:
                    return u
        return NO_PAIR

    def singles(self) -> tuple[int, ...]:
        """The black vertices without a pair, in increasing order."""
        state, black_nbrs = self.state, self.black_nbrs
        return tuple(
            [v for v in range(self.graph.n) if state[v] == BLACK and not black_nbrs[v]]
        )

    def to_dim(self) -> Dim:
        """Extract the matched black edges of a total valid coloring."""
        state = self.state
        ids = []
        for v in range(self.graph.n):
            if state[v] == UNCOLORED:
                raise ContractViolation(f"vertex {v} is uncolored, coloring not total")
            if state[v] == BLACK:
                for u, eid in self.graph.adjacency[v]:
                    if state[u] == BLACK:
                        break
                else:
                    raise ContractViolation(f"black vertex {v} has no pair")
                if u > v:
                    ids.append(eid)
        return self.graph.dim(ids)
