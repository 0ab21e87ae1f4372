"""Dominating set branch solver.

Covers the greedy dominating set, part classification, the branch
statistics with their guaranteed ceilings, observer and tracer hooks, and
agreement with the brute-force oracle on a random corpus.
"""

import dataclasses
import re
import sys

import pytest

import dimsolver.domset
from dimsolver import (
    ContractViolation,
    Dim,
    DotTracer,
    brute_solve,
    solve_domset,
    validate_dim,
)
from dimsolver.coloring import BLACK, WHITE, Coloring
from dimsolver.domset import _search, classify_parts, find_dominating_set
from support import (
    C4_UNIT,
    C6_UNIT,
    K3_123,
    P4_527,
    STAR_419,
    complete,
    graph,
    path,
    path_dim_weight,
    random_corpus,
    star,
)


def is_dominating(g, d):
    covered = set(d)
    for v in d:
        covered.update(u for u, _ in g.adjacency[v])
    return len(covered) == g.n


def test_find_dominating_set_is_dominating():
    for g in random_corpus(150, seed=3):
        d = find_dominating_set(g)
        assert d == sorted(set(d))
        assert is_dominating(g, d)


def test_find_dominating_set_star_prefers_center():
    g = star([1.0] * 9)
    assert find_dominating_set(g) == [0]


def classify(g, blacks, single):
    col = Coloring(g)
    for v in blacks:
        assert col.set_black(v)
    res = col.propagate()
    assert res.stable
    return next(i for i in classify_parts(col) if i.single == single)


def test_classify_empty_part_is_dead():
    #  P3 colored B W B by hand: both singles own nothing. propagate
    #  refutes such a coloring, so it is built without it.
    g = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    col = Coloring(g)
    assert col.set_black(0) and col.set_white(1) and col.set_black(2)
    infos = classify_parts(col)
    assert [(i.single, i.kind, i.members) for i in infos] == [
        (0, "dead", ()),
        (2, "dead", ()),
    ]


def part_of_single(n, induced):
    """Single 0 black, every other vertex in its part, plus the given
    edges induced inside the part."""
    return graph(n, [(0, v, 1.0) for v in range(1, n)] + [(a, b, 1.0) for a, b in induced])


def test_classify_star_part_forces_center():
    #  single 0 sees leaves 1..3; the part {1,2,3} plus edges 1-2, 1-3
    #  has the unique star center 1; an isolated member 4 changes nothing
    for n in (4, 5):
        info = classify(part_of_single(n, [(1, 2), (1, 3)]), [0], 0)
        assert info.kind == "forced" and info.candidates == (1,), n


def test_classify_single_edge_part_offers_both_endpoints():
    #  the lone edge 1-2, beside one or two isolated members
    for n in (4, 5):
        info = classify(part_of_single(n, [(1, 2)]), [0], 0)
        assert info.kind == "free" and info.candidates == (1, 2), n


def test_classify_independent_part_offers_everyone():
    info = classify(STAR_419, [0], 0)
    assert info.kind == "free" and info.candidates == (1, 2, 3)


def test_classify_triangle_part_is_dead():
    #  no vertex meets every induced edge: a triangle, two disjoint edges,
    #  a path of three edges
    for n, induced in [
        (4, [(1, 2), (1, 3), (2, 3)]),
        (5, [(1, 2), (3, 4)]),
        (5, [(1, 2), (2, 3), (3, 4)]),
    ]:
        info = classify(part_of_single(n, induced), [0], 0)
        assert (info.kind, info.candidates, info.cross) == ("dead", (), None), induced


def test_classify_cross_edge_reported():
    #  two singles 0 and 5 with parts {1,2} and {3,4}; cross edge 2-3
    g = graph(
        6,
        [(0, 1, 1.0), (0, 2, 1.0), (5, 3, 1.0), (5, 4, 1.0), (2, 3, 1.0)],
    )
    info = classify(g, [0, 5], 0)
    assert info.kind == "cross"
    assert info.cross == (2, 3)
    assert info.candidates == (1, 2)


def test_solve_goldens():
    out = solve_domset(P4_527)
    assert out.dim.weight == 2.0 and out.dim.edge_ids == frozenset({1})
    assert solve_domset(K3_123).dim.weight == 1.0
    assert solve_domset(C4_UNIT).dim is None
    out = solve_domset(STAR_419)
    assert out.dim.weight == 1.0 and out.dim.edge_ids == frozenset({1})


def test_c6_stats_with_forced_dominating_set():
    out = solve_domset(C6_UNIT, dominating_set=[0, 3])
    assert out.dim.weight == 2.0
    st = out.stats
    assert st.dominating_set_size == 2
    # 3=W forces 2 and 4 black, they pair with 1 and 5, and 0 turns white:
    # root 1 (0=B 3=W) is never tried. Under 3=B both colors of 0 are, and
    # 0=W is refuted: it turns 1 and 5 black, and 1's one exit 2 also
    # borders the black 3, so 1 can never pair and root 2 is never reached.
    assert st.search_nodes == 4
    assert st.roots_explored == 2
    assert st.branch_leaves_per_root == (1, 2)
    assert st.residual_singles_per_root == (0, 2)


def test_stats_respect_ceilings():
    for g in random_corpus(120, seed=17):
        out = solve_domset(g)
        st = out.stats
        d = st.dominating_set_size
        assert st.roots_explored <= 2 ** d
        # at most a full binary tree over D, its top excluded
        assert st.search_nodes <= 2 ** (d + 1) - 2
        cap = min(d, (g.n + 2) // 3)
        for leaves, q in zip(
            st.branch_leaves_per_root, st.residual_singles_per_root
        ):
            assert q <= cap
            assert leaves <= 2 ** q


def test_search_raises_past_the_leaf_ceiling(monkeypatch):
    # a free part branched on as if it were a cross part: the black-center
    # root of STAR_419 (q = 1) then reaches 3 leaves > 2^1
    real = dimsolver.domset.classify_part

    def free_as_cross(col, single, members, part_of):
        info = real(col, single, members, part_of)
        if info.kind != "free":
            return info
        own = info.candidates[0]
        return dataclasses.replace(info, kind="cross", cross=(own, own))

    monkeypatch.setattr(dimsolver.domset, "classify_part", free_as_cross)
    with pytest.raises(ContractViolation, match=r"leaves=3 > 2\^q, singles after reduce q=1"):
        solve_domset(STAR_419)


def test_search_raises_past_the_singles_ceiling():
    # three stars with black centers; D = [0] caps q at min(|D|, ceil(n/3)) = 1.
    # The isolated vertices 12-17 in D leave the cap as it is: |D| and n
    # count only the vertices in components of three or more
    g = graph(18, [(c, c + i, 1.0) for c in (0, 4, 8) for i in (1, 2, 3)])
    col = Coloring(g)
    for c in (0, 4, 8):
        assert col.set_black(c)
    for v in range(12, 18):
        assert col.set_white(v)
    assert col.propagate().stable
    with pytest.raises(ContractViolation, match=r"singles after reduce=3 > min\(\|D\|, ceil\(n/3\)\)=1"):
        _search(col, [0, *range(12, 18)], None, None)


def test_oracle_agreement():
    for g in random_corpus(150, seed=29):
        want = brute_solve(g)
        out = solve_domset(g)
        if want.total == 0:
            assert out.dim is None
        else:
            assert out.dim is not None
            assert out.dim.weight == want.min_weight
            assert validate_dim(g, out.dim.edge_ids)


def test_rejects_non_dominating_set():
    with pytest.raises(ValueError):
        solve_domset(P4_527, dominating_set=[0])


def test_observer_sees_each_stable_root():
    seen = []
    out = solve_domset(
        C6_UNIT,
        dominating_set=[0, 3],
        observer=lambda root, blacks, singles: seen.append((root, blacks, singles)),
    )
    assert out.dim is not None
    roots = [r for r, _, _ in seen]
    # root 1 (0=B 3=W) is pruned: 3=W forces 0 white; root 2 (0=W 3=B) is
    # refuted: 0=W leaves a single with no exit
    assert roots == [0, 3]
    for root, blacks, singles in seen:
        expect = frozenset(v for k, v in enumerate([0, 3]) if (root >> k) & 1)
        assert blacks == expect


def test_search_reaches_exactly_the_flat_stable_roots():
    # every rule is monotone, so coloring D one vertex at a time prunes a
    # prefix only when the whole root fails to propagate as well
    for g in random_corpus(512, seed=77, n_lo=2, n_hi=11):
        d = find_dominating_set(g)
        seen = {}
        solve_domset(
            g,
            dominating_set=d,
            observer=lambda root, blacks, singles: seen.setdefault(root, singles),
        )
        flat = {}
        for root in range(1 << len(d)):
            col = Coloring(g)
            if all(
                col.set_color(v, BLACK if (root >> k) & 1 else WHITE)
                for k, v in enumerate(d)
            ):
                res = col.propagate()
                if res.stable:
                    flat[root] = col.singles()
        assert seen == flat


C6_DOT = """\
digraph branchtree {
  node [shape=box];
  n0 [label="search over dominating set [0, 3]"];
  n1 [label="3=W"];
  n2 [label="root 0x0\\ncomplete w=2"];
  n3 [label="3=B"];
  n4 [label="0=W\\ninvalid"];
  n5 [label="0=B"];
  n6 [label="root 0x3"];
  n7 [label="cross 1=black\\ncomplete w=2"];
  n8 [label="cross 1=white\\ncomplete w=2"];
  n0 -> n1;
  n1 -> n2;
  n0 -> n3;
  n3 -> n4;
  n3 -> n5;
  n5 -> n6;
  n6 -> n7;
  n6 -> n8;
}
"""


# a free part settled at its cheapest candidate, and a dead root
STAR_DOT = """\
digraph branchtree {
  node [shape=box];
  n0 [label="search over dominating set [0]"];
  n1 [label="0=W\\ninvalid"];
  n2 [label="0=B"];
  n3 [label="root 0x1"];
  n4 [label="free 2 pairs 0\\ncomplete w=1"];
  n0 -> n1;
  n0 -> n2;
  n2 -> n3;
  n3 -> n4;
}
"""
K4_DOT = """\
digraph branchtree {
  node [shape=box];
  n0 [label="search over dominating set [0]"];
  n1 [label="0=W\\ninvalid"];
  n2 [label="0=B"];
  n3 [label="root 0x1\\ndead s=0"];
  n0 -> n1;
  n0 -> n2;
  n2 -> n3;
}
"""


def test_tracer_records_branches():
    tracer = DotTracer()
    out = solve_domset(C6_UNIT, dominating_set=[0, 3], tracer=tracer)
    assert out.dim is not None
    dot = tracer.to_dot()
    assert dot.startswith("digraph")
    assert "root 0x3" in dot
    assert dot.count("->") >= 4
    # the whole branch tree: D assignments, roots, settled parts, cross
    # branches and leaf notes, in search order
    assert dot == C6_DOT
    for g, golden in ((STAR_419, STAR_DOT), (complete(4), K4_DOT)):
        tracer = DotTracer()
        solve_domset(g, tracer=tracer)
        assert tracer.to_dot() == golden

    # leaf labels print weights exactly, as solve prints them
    tracer = DotTracer()
    big = graph(4, [(0, 1, 5.0), (1, 2, 1234567.0), (2, 3, 7.0)])
    assert solve_domset(big, tracer=tracer).dim.weight == 1234567.0
    assert 'complete w=1234567"' in tracer.to_dot()


def test_wave_refutes_forced_centers_joined_by_an_edge():
    # at the root 0 and 1 are black and each has one forced pair; one
    # wave pairs 0 with 2, then 1 with 5, whose black neighbors are 1 and
    # 2, so the wave breaks and no DIM exists
    g = graph(8, [(0, 2, 1), (0, 3, 1), (0, 4, 1), (2, 3, 1), (2, 4, 1), (1, 5, 1),
                  (1, 6, 1), (1, 7, 1), (5, 6, 1), (5, 7, 1), (2, 5, 1)])
    tracer = DotTracer()
    assert solve_domset(g, tracer=tracer).dim is None
    assert brute_solve(g).witness is None
    dot = tracer.to_dot()
    assert "forced 2 pairs 0" in dot
    assert "forced 5 pairs 1\\ninvalid" in dot


def test_tracer_labels_roots_too_long_for_decimal():
    # D of P30000 has 15000 vertices, so the root index has 15000 bits,
    # past the interpreter's 4300-digit cap on int to decimal conversion.
    # Only the top label lists D; a root label is just the index, so the
    # DOT text stays near 107 KB
    weights = [float(i % 7 + 1) for i in range(29999)]
    g = path(weights)
    tracer = DotTracer()
    out = solve_domset(g, tracer=tracer)
    assert out.dim.weight == path_dim_weight(weights)
    dot = tracer.to_dot()
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)
    d = find_dominating_set(g)
    assert len(d) == 15000
    assert [i for i, label in enumerate(labels) if str(d) in label] == [0]
    roots = [label.split("\\n")[0] for label in labels if label.startswith("root")]
    assert roots and all(re.fullmatch(r"root 0x[0-9a-f]+", r) for r in roots)
    assert len(dot) < 120_000


def test_complete_graphs():
    # K3: each edge alone is a DIM; K4 and up: none (a lone edge leaves the
    # opposite edge undominated, two disjoint edges hit a crossing edge twice)
    out = solve_domset(complete(3, weight=2.0))
    assert out.dim is not None and out.dim.weight == 2.0
    assert solve_domset(complete(4)).dim is None
    assert solve_domset(complete(5)).dim is None


def test_isolated_vertices_are_fine_without_preprocess():
    # the isolated vertices 0 and 4 and the isolated edge 5-6 each put one
    # vertex in D, colored before the search starts: the search has the
    # two nodes and the one root and leaf of the path 1-2-3 alone
    g = graph(7, [(1, 2, 4.0), (2, 3, 1.0), (5, 6, 2.0)])
    out = solve_domset(g)
    assert out.dim == Dim(frozenset({1, 2}), 3.0)
    st = out.stats
    assert (st.dominating_set_size, st.search_nodes) == (4, 2)
    assert st.search_nodes == solve_domset(path([4.0, 1.0])).stats.search_nodes
    assert (st.roots_explored, st.branch_leaves_per_root, st.residual_singles_per_root) == (
        1, (1,), (1,)
    )


def test_resolve_branches_without_recursion():
    # k copies of: singles s, t with parts {a, b} and {x, y, z}, cross
    # edges a-x and a-y. Branching on a: white makes x and y black next to
    # t (invalid), black settles the copy and leaves the next one, so the
    # branch tree is a path k deep with k + 1 leaves.
    k = 150
    edges = []
    for i in range(k):
        s, t, a, b, x, y, z = range(7 * i, 7 * i + 7)
        edges += [(s, a, 1.0), (s, b, 2.0), (t, x, 1.0), (t, y, 1.0),
                  (t, z, 3.0), (a, x, 1.0), (a, y, 1.0)]
    g = graph(7 * k, edges)
    col = Coloring(g)
    blacks = [v for i in range(k) for v in (7 * i, 7 * i + 1)]
    for v in blacks:
        assert col.set_black(v)
    assert col.propagate().stable

    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)  # far fewer frames than k
    try:
        # the singles dominate and are all black already: one root
        out = _search(col, blacks, None, None)
    finally:
        sys.setrecursionlimit(old)
    assert out.stats.branch_leaves_per_root == (k + 1,)
    assert out.stats.residual_singles_per_root == (2 * k,)
    assert out.dim.weight == 4.0 * k
    assert validate_dim(g, out.dim.edge_ids)
