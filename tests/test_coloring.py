"""Propagation engine: the four forcing rules, validity, undo, pairing.

Colorings here are built by hand so every expected outcome can be checked
against the rules directly.
"""

import random

import pytest

from dimsolver import (
    BLACK,
    NO_PAIR,
    Coloring,
    ContractViolation,
    UNCOLORED,
    WHITE,
    brute_solve,
    classify_parts,
    validate_dim,
)
from support import C6_UNIT, P4_527, STAR_419, path, random_corpus

P3 = path([1.0, 1.0])


def colors(col):
    return bytes(col.state)


def test_set_color_basics():
    col = Coloring(P3)
    assert col.set_white(0)
    assert col.state[0] == WHITE
    with pytest.raises(AssertionError):
        col.set_white(0)


def test_adjacent_whites_rejected():
    col = Coloring(P3)
    assert col.set_white(0)
    assert not col.set_white(1)


def test_two_black_neighbors_rejected():
    col = Coloring(P3)
    assert col.set_black(0)
    assert col.set_black(2)
    assert not col.set_black(1)


def test_pairing_is_symmetric_and_recorded():
    col = Coloring(P3)
    assert col.set_black(0) and col.set_black(1)
    assert col.mate(0) == 1 and col.mate(1) == 0
    assert col.set_white(2)
    assert col.to_dim().edge_ids == frozenset({P3.edge_id(0, 1)})


def test_white_forces_neighbors_black():
    col = Coloring(P3)
    col.set_white(0)
    res = col.propagate()
    # 1 turns black (unique uncolored neighbor rule then pairs it with 2)
    assert res.stable
    assert colors(col) == bytes([WHITE, BLACK, BLACK])
    assert col.mate(1) == 2
    assert col.singles() == () and UNCOLORED not in col.state


def test_paired_black_whitens_other_neighbors():
    col = Coloring(P3)
    col.set_black(0)
    col.set_black(1)
    res = col.propagate()
    assert res.stable
    assert colors(col) == bytes([BLACK, BLACK, WHITE])


def test_double_black_neighborhood_whitens():
    # 1 has two black neighbors, so it is white in every extension, and
    # then the singles 0 and 2 have no neighbor left to pair with
    col = Coloring(P3)
    col.set_black(0)
    col.set_black(2)
    res = col.propagate()
    assert not res.stable


def test_single_with_one_exit_pulls_it_black():
    # 2 would pull its one exit 3 black, but 0 turns black next to the
    # white 1 and is a single whose every neighbor is white: refuted
    col = Coloring(P4_527)
    col.set_white(1)
    col.set_black(2)
    res = col.propagate()
    assert not res.stable


def test_propagation_detects_dead_end():
    # both ends of P4 black: the two pair-forcing steps collide in the middle
    col = Coloring(P4_527)
    col.set_black(0)
    col.set_black(3)
    res = col.propagate()
    assert not res.stable


def test_star_center_black_stalls_with_leaves_uncolored():
    col = Coloring(STAR_419)
    col.set_black(0)
    res = col.propagate()
    assert res.stable
    assert col.singles() == (0,)
    assert {v for v in range(4) if col.state[v] == UNCOLORED} == {1, 2, 3}
    assert [(i.single, i.members) for i in classify_parts(col)] == [(0, (1, 2, 3))]


def test_empty_singles_means_total():
    # from a dominating start, a stable coloring without singles is total
    hits = 0
    for i, g in enumerate(random_corpus(500, seed=21)):
        col = Coloring(g)
        rng = random.Random(i)
        seeded = []
        for v in range(g.n):
            if col.state[v] == UNCOLORED and rng.random() < 0.6:
                if not col.set_color(v, rng.choice((WHITE, BLACK))):
                    seeded = None
                    break
                seeded.append(v)
        if seeded is None:
            continue
        covered = set(seeded)
        for v in seeded:
            covered.update(u for u, _ in g.adjacency[v])
        if len(covered) < g.n:
            continue
        res = col.propagate()
        if res.stable and not col.singles():
            hits += 1
            assert UNCOLORED not in col.state
    assert hits > 20  # the corpus must actually exercise the property


def test_to_dim_golden():
    col = Coloring(P4_527)
    col.set_white(0)
    assert col.propagate().stable
    dim = col.to_dim()
    assert dim.edge_ids == frozenset({1}) and dim.weight == 2.0
    assert validate_dim(P4_527, dim.edge_ids)


def test_to_dim_rejects_partial_or_single():
    col = Coloring(P3)
    col.set_black(0)
    with pytest.raises(ContractViolation):
        col.to_dim()


def test_undo_restores_counters_and_pairs():
    col = Coloring(C6_UNIT)
    snap_mark = col.mark()
    col.set_black(0)
    col.set_black(1)
    assert col.propagate().stable
    col.undo_to(snap_mark)
    assert colors(col) == bytes([UNCOLORED] * 6)
    assert all(col.mate(v) == NO_PAIR for v in range(6))
    assert list(col.black_nbrs) == [0] * 6
    # the coloring is fully reusable after undo
    col.set_white(0)
    res = col.propagate()
    assert res.stable


def test_extension_soundness():
    # a start that agrees with some DIM coloring can only propagate toward it
    rng = random.Random(5)
    for g in random_corpus(60, seed=33, n_lo=3, n_hi=8):
        res = brute_solve(g)
        for edge_ids in res.dims[:4]:
            blacks = {v for eid in edge_ids for v in g.edges[eid][:2]}
            full = [BLACK if v in blacks else WHITE for v in range(g.n)]
            keep = [v for v in range(g.n) if rng.random() < 0.5]
            col = Coloring(g)
            ok = all(col.set_color(v, full[v]) for v in keep)
            assert ok, "restriction of a valid total coloring must be valid"
            out = col.propagate()
            assert out.stable
            for v in range(g.n):
                if col.state[v] != UNCOLORED:
                    assert col.state[v] == full[v]


def test_classify_parts_requires_stability():
    # without propagation an uncolored vertex can see two black neighbors,
    # or border a paired black; either breaks the partition contract
    g = path([1.0, 1.0])  # 0-1-2
    col = Coloring(g)
    col.set_black(0)
    col.set_black(2)
    with pytest.raises(ContractViolation, match="vertex 1 has 2 black neighbors"):
        classify_parts(col)
    col = Coloring(g)
    col.set_black(0)
    col.set_black(1)
    with pytest.raises(ContractViolation, match="borders the paired black vertex 1"):
        classify_parts(col)


def test_propagate_rng_orders_agree():
    # sanity slice of the confluence property (full sweep in acceptance)
    for g in random_corpus(30, seed=55, n_lo=3, n_hi=8):
        base = Coloring(g)
        base.set_black(0)
        reference = None
        for seed in range(6):
            col = Coloring(g)
            col.set_black(0)
            res = col.propagate(rng=random.Random(seed))
            outcome = (res.stable, colors(col) if res.stable else None,
                       mates(col) if res.stable else None)
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference


def assert_closed(col):
    # a direct scan of every vertex finds no rule that still applies
    g, state = col.graph, col.state
    for v in range(g.n):
        nbrs = [u for u, _ in g.adjacency[v]]
        uncolored = [u for u in nbrs if state[u] == UNCOLORED]
        if state[v] == WHITE:
            assert not uncolored, f"white {v} has uncolored neighbors {uncolored}"
        elif state[v] == BLACK and col.mate(v) != NO_PAIR:
            assert not uncolored, f"paired {v} has uncolored neighbors {uncolored}"
        elif state[v] == BLACK:
            assert len(uncolored) >= 2, f"single {v} has uncolored {uncolored}"
        else:
            assert sum(state[u] == BLACK for u in nbrs) <= 1, f"{v} sees two blacks"


def mates(col):
    return tuple(col.mate(v) for v in range(col.graph.n))


def snapshot(col):
    return (bytes(col.state), mates(col), list(col.black_nbrs))


def test_incremental_propagation_equals_propagation_from_scratch():
    # seeded walks of decide, propagate and undo to a random earlier mark;
    # after every stable propagate the coloring is closed under the rules
    # and equals one fresh propagate over the live decisions
    checks = undos = refuted = 0
    for i, g in enumerate(random_corpus(200, seed=61, n_lo=4, n_hi=14)):
        rng = random.Random(i)
        col = Coloring(g)
        decisions = []
        marks = [(col.mark(), 0)]  # (trail mark, live decisions), all at fixpoints
        for _ in range(3 * g.n):
            free = [v for v in range(g.n) if col.state[v] == UNCOLORED]
            if free:
                v = rng.choice(free)
                decisions.append((v, rng.choice((WHITE, BLACK))))
                stable = col.set_color(*decisions[-1]) and col.propagate().stable
            else:
                stable = True
            if not stable or not free or rng.random() < 0.25:
                refuted += not stable
                undos += 1
                del marks[rng.randrange(len(marks)) + 1 :]
                mark, live = marks[-1]
                col.undo_to(mark)
                del decisions[live:]
            else:
                marks.append((col.mark(), len(decisions)))
            assert_closed(col)
            fresh = Coloring(g)
            assert all(fresh.set_color(v, c) for v, c in decisions)
            assert fresh.propagate().stable
            assert snapshot(col) == snapshot(fresh)
            checks += 1
    # the walks must actually refute and undo, not only descend
    assert refuted > 1000 and undos > 2000 and checks > 4000
