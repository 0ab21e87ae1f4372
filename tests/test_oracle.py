"""The brute-force oracle itself, pinned by hand-checkable instances.

The solvers are later judged against these results, so this module leans
on values small enough to verify by hand.
"""

import pytest

from dimsolver import Graph, InstanceTooLargeError, MAX_ORACLE_N, brute_solve, validate_dim
from dimsolver.oracle import brute_dims, brute_mis
from support import C4_UNIT, C5_UNIT, C6_UNIT, K3_123, P4_527, STAR_419, complete, graph


def test_p4_unique_dim():
    res = brute_solve(P4_527)
    assert (res.total, res.min_weight, res.min_count) == (1, 2.0, 1)
    assert res.witness.edge_ids == frozenset({1})


def test_k3_three_dims():
    res = brute_solve(K3_123)
    assert (res.total, res.min_weight, res.min_count) == (3, 1.0, 1)


def test_c4_has_none():
    assert brute_solve(C4_UNIT).total == 0


def test_c5_has_none():
    assert brute_solve(C5_UNIT).total == 0


def test_c6_three_at_weight_two():
    res = brute_solve(C6_UNIT)
    assert (res.total, res.min_weight, res.min_count) == (3, 2.0, 3)


def test_star_picks_cheapest_spoke():
    res = brute_solve(STAR_419)
    assert (res.total, res.min_weight, res.min_count) == (3, 1.0, 1)
    assert res.witness.edge_ids == frozenset({1})


def test_every_reported_dim_validates():
    for g in (P4_527, K3_123, C6_UNIT, STAR_419, complete(5)):
        res = brute_solve(g)
        dims = brute_dims(g)
        assert len(dims) == res.total
        for edge_ids in dims:
            assert validate_dim(g, edge_ids)
        weights = sorted(
            sum(g.edges[eid][2] for eid in edge_ids) for edge_ids in dims
        )
        if res.total:
            assert weights[0] == res.min_weight
            assert weights.count(res.min_weight) == res.min_count


def test_empty_and_single_vertex():
    for g in (Graph(0, ()), Graph(1, ())):
        res = brute_solve(g)
        assert res.total == 1 and res.min_weight == 0.0
        assert res.witness.edge_ids == frozenset()


def test_size_cap():
    big = Graph(MAX_ORACLE_N + 1, ())
    with pytest.raises(InstanceTooLargeError):
        brute_solve(big)
    with pytest.raises(InstanceTooLargeError):
        brute_mis(big)


def test_brute_mis_small_goldens():
    p4 = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert brute_mis(p4) == {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 3}),
    }
    assert brute_mis(complete(3)) == {frozenset({v}) for v in range(3)}
    assert brute_mis(C5_UNIT) == {
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({2, 4}),
        frozenset({0, 3}),
        frozenset({1, 4}),
    }
    assert brute_mis(Graph(0, ())) == {frozenset()}
