"""Independent set enumeration, induced colorings, and the DIM counter."""

import itertools
import random

import pytest

import dimsolver.mis
from dimsolver import (
    ContractViolation,
    CountResult,
    Graph,
    brute_mis,
    brute_solve,
    count_dims,
    enumerate_mis,
    gen_instance,
    preprocess,
    solve_domset,
    solve_mis,
    validate_dim,
)
from dimsolver.mis import _adjacency_masks, _matched, _pair_options, _singles
from support import (
    C4_UNIT,
    C5_UNIT,
    C6_UNIT,
    K3_123,
    P4_527,
    STAR_419,
    InducedColoring,
    complete,
    graph,
    is_bipartite,
    path,
    random_corpus,
    random_graph,
    reference_count,
    reference_induced_coloring,
    reference_mis,
)


def walk_reduction(g, independent):
    """What the count walk makes of one MIS, from the helpers it calls:
    _singles on the black complement, then _matched and the singles'
    _pair_options."""
    adj = _adjacency_masks(g)
    black = ((1 << g.n) - 1) & ~sum(1 << v for v in independent)
    singles = _singles(adj, black)
    if singles is None:
        return InducedColoring(False, (), (), {})
    options = _pair_options(g)
    return InducedColoring(
        True, tuple(_matched(g, adj, black)), tuple(singles), {s: options[s] for s in singles}
    )


def test_enumerates_exactly_the_maximal_sets():
    for g in random_corpus(200, seed=13, n_lo=2, n_hi=10):
        got = list(enumerate_mis(g))
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
            assert set(enumerate_mis(g)) == brute_mis(g)


def test_enumeration_count_ceiling():
    for g in random_corpus(200, seed=31, n_lo=2, n_hi=10):
        mu = sum(1 for _ in enumerate_mis(g))
        assert mu <= 3 ** ((g.n + 2) // 3)
        if is_bipartite(g):
            assert mu <= 2 ** ((g.n + 1) // 2)


def test_enumeration_order_matches_the_two_loop_reference():
    # the first cheapest set becomes the witness, so a reordering would
    # change what solve --algo mis prints on ties
    rng = random.Random(59)
    dense = [random_graph(rng, n, 0.35) for n in (30, 36, 40, 44)]
    # both ways of computing A's neighbors: either side of and at each end
    # of _TABLE_SIZES, a partial last run of 8 vertices and a full one, and
    # masks past a machine word
    lo, hi = dimsolver.mis._TABLE_SIZES.start, dimsolver.mis._TABLE_SIZES.stop
    rng = random.Random(61)
    near_lo = [random_graph(rng, n, 0.35) for n in (lo - 1, lo, lo + 1, 24)]
    wide = random_graph(rng, 70, 0.6)
    # a path through every 97th vertex, the rest isolated and so in every set
    near_hi = [graph(n, [(v, v + 97, 1.0) for v in range(0, n - 97, 97)]) for n in (hi - 1, hi)]
    for g in [*random_corpus(512, seed=53, n_lo=2, n_hi=14), *dense, *near_lo, wide, *near_hi]:
        assert list(enumerate_mis(g)) == list(reference_mis(g))


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
        for mis in enumerate_mis(g):
            assert walk_reduction(g, mis) == reference_induced_coloring(g, mis)
        res = preprocess(g).residual
        got, want = count_dims(res), reference_count(res)
        assert got == want
        assert got.witness == want.witness
        assert got.stats == want.stats


def test_enumeration_scales_without_recursion():
    # 1001 vertices would blow Python's recursion limit if this recursed
    g = graph(1001, [(0, i, 1.0) for i in range(1, 1001)])
    assert sum(1 for _ in enumerate_mis(g)) == 2


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


def test_enumeration_raises_past_the_ceiling(monkeypatch):
    # with the canonical-parent test accepting every child, P6 would
    # yield 13 sets, duplicates included, > 3^ceil(6/3) = 9
    monkeypatch.setattr(dimsolver.mis, "_is_child", lambda adj, tables, cur, k: True)
    with pytest.raises(ContractViolation, match=r"10 maximal independent sets > 3\^ceil\(n/3\) = 9"):
        list(enumerate_mis(path([1.0] * 5)))


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
    assert want.min_weight == 1.1 and want.min_dim(g).edge_ids == frozenset({0, 2, 3})


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


def test_count_rejects_isolated_edges():
    with pytest.raises(ValueError):
        count_dims(graph(2, [(0, 1, 3.0)]))


def test_oracle_agreement_including_counts():
    for g in random_corpus(150, seed=47):
        res = preprocess(g).residual
        want = brute_solve(res)
        out = solve_mis(res)
        if want.total == 0:
            assert out.dim is None
        else:
            assert out.dim is not None and out.dim.weight == want.min_weight
            assert validate_dim(res, out.dim.edge_ids)
        got = count_dims(res)
        assert got.total == want.total
        assert got.min_weight == want.min_weight
        assert got.min_count == want.min_count


def test_empty_graph_has_the_empty_dim():
    out = solve_mis(Graph(0, ()))
    assert out.dim.weight == 0.0 and out.dim.edge_ids == frozenset()
    res = count_dims(Graph(0, ()))
    assert (res.total, res.min_weight, res.min_count) == (1, 0.0, 1)
