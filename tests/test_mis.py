"""Independent set enumeration, induced colorings, and the DIM counter."""

import itertools
import random

import pytest

from dimsolver import (
    ContractViolation,
    CountResult,
    Dim,
    Graph,
    brute_solve,
    gen_instance,
    solve_domset,
    validate_dim,
)
from dimsolver.mis import _matched, _maximal_sets, _pair_options, _singles, count_dims, solve_mis
from dimsolver.oracle import brute_mis
from support import (
    C4_UNIT,
    C5_UNIT,
    C6_UNIT,
    K3_123,
    P4_527,
    STAR_419,
    InducedColoring,
    adjacency_masks,
    complete,
    graph,
    is_bipartite,
    mis_sets,
    random_corpus,
    random_graph,
    reference_count,
    reference_induced_coloring,
    reference_mis,
)


def walk_reduction(g, independent):
    """What the count walk makes of one MIS, from the helpers it calls:
    _singles on the black complement, then _matched and the singles'
    _pair_options, with every vertex of g kept under its own id."""
    adj = adjacency_masks(g)
    kept = list(range(g.n))
    black = ((1 << g.n) - 1) & ~sum(1 << v for v in independent)
    singles = _singles(adj, black)
    if singles is None:
        return InducedColoring(False, (), (), {})
    options = _pair_options(g, kept)
    return InducedColoring(
        True, tuple(_matched(g, kept, adj, black)), tuple(singles), {s: options[s] for s in singles}
    )


def test_enumerates_exactly_the_maximal_sets():
    for g in random_corpus(200, seed=13, n_lo=2, n_hi=10):
        got = list(mis_sets(g))
        assert len(got) == len(set(got)), "stream must be duplicate-free"
        assert set(got) == brute_mis(g)


def test_enumeration_exhaustive_tiny():
    # every graph on up to 4 vertices
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = graph(
                n, [(u, v, 1.0) for i, (u, v) in enumerate(pairs) if bits >> i & 1]
            )
            assert set(mis_sets(g)) == brute_mis(g)


def test_enumeration_count_ceiling():
    for g in random_corpus(200, seed=31, n_lo=2, n_hi=10):
        mu = sum(1 for _ in mis_sets(g))
        assert mu <= 3 ** ((g.n + 2) // 3)
        if is_bipartite(g):
            assert mu <= 2 ** ((g.n + 1) // 2)


def test_enumeration_matches_the_two_loop_reference():
    # dense graphs, graphs of 17-19, 24 and 70 vertices (masks past a
    # machine word), and a path through every 97th of 1,024 and 1,025
    # vertices, the rest isolated and so in every set
    rng = random.Random(59)
    dense = [random_graph(rng, n, 0.35) for n in (30, 36, 40, 44)]
    rng = random.Random(61)
    mid = [random_graph(rng, n, 0.35) for n in (17, 18, 19, 24)]
    wide = random_graph(rng, 70, 0.6)
    sparse = [graph(n, [(v, v + 97, 1.0) for v in range(0, n - 97, 97)]) for n in (1024, 1025)]
    for g in [*random_corpus(512, seed=53, n_lo=2, n_hi=14), *dense, *mid, wide, *sparse]:
        got = list(mis_sets(g))
        assert len(got) == len(set(got)), "stream must be duplicate-free"
        assert set(got) == set(reference_mis(g))


def test_mask_reduction_matches_the_coloring_reference():
    # the walk reduces each set on bit masks; the reference colors the
    # complement black vertex by vertex with a Coloring. Every dense
    # random graph lacks a DIM, every planted one has one.
    rng = random.Random(59)
    dense = [random_graph(rng, n, 0.35) for n in (30, 36, 40, 44)]
    planted = [
        gen_instance("random_dim", n, seed=n, weights="uniform:1:9", p=0.35)
        for n in (30, 36, 40, 44)
    ]
    for g in [*random_corpus(512, seed=53), *dense, *planted]:
        for mis in mis_sets(g):
            assert walk_reduction(g, mis) == reference_induced_coloring(g, mis)
        got = count_dims(g)
        assert got == reference_count(g)
        # the same walk over the sets of mis_sets in their order: its
        # witness is the first cheapest DIM in that order
        first = reference_count(g, mis_sets)
        assert got.witness == first.witness
        assert got.stats == first.stats
        if got.witness is not None:
            assert validate_dim(g, got.witness.edge_ids)
            assert got.witness.weight == solve_domset(g).dim.weight


def test_enumeration_scales_without_recursion():
    # 1001 vertices would blow Python's recursion limit if this recursed
    g = graph(1001, [(0, i, 1.0) for i in range(1, 1001)])
    assert sum(1 for _ in mis_sets(g)) == 2


def test_induced_coloring_star():
    ic = walk_reduction(STAR_419, {1, 2, 3})
    assert ic.valid
    assert ic.singles == (0,) and ic.matched == ()
    assert ic.pair_options == {0: ((1.0, 2, 1), (4.0, 1, 0), (9.0, 3, 2))}
    dim = solve_mis(STAR_419).dim
    assert dim.weight == 1.0 and dim.edge_ids == frozenset({1})


def test_induced_coloring_adjacent_blacks_pair_up():
    ic = walk_reduction(P4_527, {0, 3})
    assert ic.valid and ic.singles == () and ic.pair_options == {}
    assert ic.matched == (1,)
    dim = solve_mis(P4_527).dim
    assert dim.weight == 2.0 and dim.edge_ids == frozenset({1})


def test_induced_coloring_dead_ends():
    # {1,3}: vertex 0 stays a single with no candidate, no completion
    ic = walk_reduction(P4_527, {1, 3})
    assert ic.valid and ic.pair_options[0] == ()
    # {0}: 1-2 paired; fine
    ic = walk_reduction(K3_123, {0})
    assert ic.valid and ic.singles == () and ic.matched == (2,)
    assert solve_mis(K3_123).dim.edge_ids == frozenset({0})
    # {3} in K4: the three other vertices are black and mutually adjacent
    ic = walk_reduction(complete(4), {3})
    assert not ic.valid
    # only {0, 3} of P4's maximal independent sets completes
    out = solve_mis(P4_527)
    assert (out.stats.mis_count, out.stats.completions) == (3, 1)


def test_high_degree_members_never_turn_black():
    # member 1 of the independent set touches two blacks; only the
    # degree-1 member 3 is a pair option
    g = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    ic = walk_reduction(g, {1, 3})
    assert ic.valid
    assert ic.pair_options == {0: (), 2: ((1.0, 3, 2),)}


def test_enumeration_raises_past_the_ceiling():
    # the pivot keeps the walk within 3^ceil(n/3) sets on any adjacency,
    # so the fault is in n: the walk spans nine vertices, three disjoint
    # triangles with 27 sets, while the ceiling is six's, 3^ceil(6/3) = 9
    class SixSpanningNine(int):
        def __rlshift__(self, one):  # the walk's (1 << n) - 1
            return one << 9

    triangles = graph(9, [(u + t, v + t, w) for t in (0, 3, 6) for u, v, w in complete(3).edges])
    with pytest.raises(ContractViolation, match=r"10 maximal independent sets > 3\^ceil\(n/3\) = 9"):
        list(_maximal_sets(SixSpanningNine(6), adjacency_masks(triangles)))


def test_engines_report_the_same_bits():
    # 0.7 + 0.2 + 0.2 gives 1.0999999999999999 left to right, 1.1 in any
    # order that adds 0.2 + 0.2 first; the correctly rounded sum is 1.1
    g = graph(
        8,
        [(0, 3, 0.7), (0, 7, 0.3), (1, 5, 0.2), (2, 4, 0.2),
         (2, 7, 0.7), (3, 7, 0.1), (5, 6, 0.3), (5, 7, 0.2)],
    )
    for out in (solve_mis(g), solve_domset(g)):
        assert out.dim.weight == 1.1
        assert out.dim.edge_ids == frozenset({0, 2, 3})
    assert count_dims(g) == CountResult(2, 1.1, 1)
    want = brute_solve(g)
    assert want.min_weight == 1.1 and want.witness.edge_ids == frozenset({0, 2, 3})


def test_solver_golden_weights():
    assert solve_mis(P4_527).dim.weight == 2.0
    assert solve_mis(K3_123).dim.weight == 1.0
    assert solve_mis(C4_UNIT).dim is None
    assert solve_mis(C6_UNIT).dim.weight == 2.0
    assert solve_mis(STAR_419).dim.weight == 1.0


def test_solver_stats_count_all_sets():
    out = solve_mis(C5_UNIT)
    assert out.dim is None
    assert out.stats.mis_count == 5
    assert out.stats.completions == 0


def test_count_goldens():
    assert count_dims(P4_527) == CountResult(1, 2.0, 1)
    res = count_dims(K3_123)
    assert (res.total, res.min_weight, res.min_count) == (3, 1.0, 1)
    res = count_dims(C6_UNIT)
    assert (res.total, res.min_weight, res.min_count) == (3, 2.0, 3)
    res = count_dims(C4_UNIT)
    assert (res.total, res.min_weight, res.min_count) == (0, None, 0)


def test_count_takes_isolated_edges_once():
    # each white end of the isolated edge 4-5 would hold the same DIMs
    g = graph(7, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (4, 5, 5.0)])
    want = brute_solve(g)
    res = count_dims(g)
    assert res == want
    assert res.witness == Dim(frozenset({1, 3}), 6.0)
    assert res.stats.mis_count == 3
    assert count_dims(graph(2, [(0, 1, 3.0)])) == CountResult(1, 3.0, 1)


def test_oracle_agreement_including_counts():
    for g in random_corpus(150, seed=47):
        want = brute_solve(g)
        out = solve_mis(g)
        if want.total == 0:
            assert out.dim is None
        else:
            assert out.dim is not None and out.dim.weight == want.min_weight
            assert validate_dim(g, out.dim.edge_ids)
        got = count_dims(g)
        assert got == want


def test_empty_graph_has_the_empty_dim():
    out = solve_mis(Graph(0, ()))
    assert out.dim.weight == 0.0 and out.dim.edge_ids == frozenset()
    res = count_dims(Graph(0, ()))
    assert (res.total, res.min_weight, res.min_count) == (1, 0.0, 1)
