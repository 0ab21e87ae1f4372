"""Seeded instance generator for the test corpus and the benchmark runner.

All randomness comes from random.Random(seed) (the stdlib Mersenne
Twister), so every (family, n, seed, weights, p) tuple maps to one exact
graph on every platform. Topology is drawn first, then weights are
assigned over the sorted edge list, so the two stages never interleave.
"""

from __future__ import annotations

import random
import sys
from typing import Callable

from .graph import Graph, validate_dim

FAMILIES = ("path", "cycle", "star", "complete", "random", "random_dim")


def _weight_fn(spec: str, rng: random.Random) -> Callable[[], float]:
    if spec == "unit":
        return lambda: 1.0
    parts = spec.split(":")
    if len(parts) == 3 and parts[0] == "uniform":
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"bad weight spec {spec!r}: bounds must be integers")
        if lo < 0 or lo > hi:
            raise ValueError(f"bad weight spec {spec!r}: need 0 <= lo <= hi")
        if hi > sys.float_info.max:
            raise ValueError(f"bad weight spec {spec!r}: hi is past the float range")
        return lambda: float(rng.randint(lo, hi))
    raise ValueError(f"bad weight spec {spec!r}: expected 'unit' or 'uniform:lo:hi'")


def gen_instance(
    family: str,
    n: int,
    seed: int = 0,
    weights: str = "unit",
    p: float = 0.5,
) -> Graph:
    """Build one deterministic instance.

    p is the edge density knob for the random and random_dim families. A
    random_dim graph is built around a planted solution: a perfect
    matching on a shuffled block of vertices plus density-p edges from the
    remaining (independent) vertices into the matched block, which keeps
    the matching a DIM by construction, so the instance is always
    solvable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)

    if family == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif family == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif family == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "random":
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
    elif family == "random_dim":
        pairs, matching = _planted_pairs(n, p, rng)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    pairs = sorted(tuple(sorted(e)) for e in pairs)
    draw = _weight_fn(weights, rng)
    g = Graph(n, tuple((u, v, draw()) for u, v in pairs))
    if family == "random_dim":
        planted = frozenset(g.edge_id(u, v) for u, v in matching)
        assert validate_dim(g, planted), "planted matching is not a DIM"
    return g


def _planted_pairs(
    n: int, p: float, rng: random.Random
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    if n < 2:
        return [], []
    k = max(1, n // 4)
    perm = rng.sample(range(n), n)
    matched = perm[: 2 * k]
    free = perm[2 * k :]
    matching = [(matched[2 * i], matched[2 * i + 1]) for i in range(k)]
    pairs = list(matching)
    for w in free:
        for b in matched:
            if rng.random() < p:
                pairs.append((w, b))
    return pairs, matching
