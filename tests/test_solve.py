"""Engine dispatch and end-to-end orchestration over raw input graphs."""

import io
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dimsolver.cli
from dimsolver import (
    ContractViolation,
    Dim,
    Graph,
    SolveOutcome,
    brute_solve,
    count_dims,
    count_instance,
    gen_instance,
    parse_graph,
    preprocess,
    solve_domset,
    solve_instance,
    validate_dim,
)
from support import (
    C5_UNIT,
    P4_527,
    cycle,
    graph,
    path,
    path_dim_weight,
    random_corpus,
    star,
)

ALL_ALGOS = ("auto", "mis")


def test_auto_runs_domset_on_tiny_dominating_sets():
    g = star([1.0] * 9)
    r = solve_instance(g, algo="auto")
    assert r.stats.engine == "domset"
    assert r.stats.dominating_set_size == 1
    assert r == solve_domset(g)


def test_auto_runs_domset_on_spread_graphs():
    # cycles with |D| = n/2, and a lone edge that preprocessing removes
    for g in (cycle([1.0] * 12), cycle([1.0, 2.0, 3.0] * 10), graph(2, [(0, 1, 2.0)])):
        r = solve_instance(g, algo="auto")
        assert r.stats.engine == "domset"
        assert r.stats == solve_domset(preprocess(g).residual).stats
        assert r.dim.weight == solve_instance(g, algo="mis").dim.weight
        assert r.stats.search_nodes <= 2 * g.n


def test_all_algorithms_share_answers():
    for g in random_corpus(60, seed=71):
        want = brute_solve(g)
        for algo in ALL_ALGOS:
            r = solve_instance(g, algo=algo)
            if want.total == 0:
                assert r.dim is None, algo
            else:
                assert r.dim is not None, algo
                assert r.dim.weight == want.min_weight, algo
                assert validate_dim(g, r.dim.edge_ids)


def test_forced_edges_and_isolated_vertices_merge_back():
    #  0 isolated; 1-2 forced; 3-4-5 star with a cheap and a dear spoke
    g = graph(6, [(1, 2, 5.0), (3, 4, 2.0), (3, 5, 7.0)])
    for algo in ALL_ALGOS:
        r = solve_instance(g, algo=algo)
        assert r.dim.weight == 7.0
        assert r.dim.edge_ids == frozenset({0, 1})
        assert validate_dim(g, r.dim.edge_ids)
    assert brute_solve(g).min_dim(g) == Dim(frozenset({0, 1}), 7.0)
    res = count_instance(g)
    assert (res.total, res.min_weight, res.min_count) == (2, 7.0, 1)


def test_count_instance_offsets_forced_weight():
    # two isolated edges only: exactly one DIM containing both
    g = graph(4, [(0, 1, 3.0), (2, 3, 4.0)])
    res = count_instance(g)
    assert (res.total, res.min_weight, res.min_count) == (1, 7.0, 1)
    r = solve_instance(g)
    assert r.dim.weight == 7.0 and r.dim.edge_ids == frozenset({0, 1})


def test_counting_survives_what_would_be_an_isolated_edge():
    # the counter itself refuses isolated edges; the front door must not
    res = count_instance(graph(2, [(0, 1, 3.0)]))
    assert (res.total, res.min_weight, res.min_count) == (1, 3.0, 1)


def test_no_dim_reported_as_none_everywhere():
    for algo in ALL_ALGOS:
        assert solve_instance(C5_UNIT, algo=algo).dim is None
    assert brute_solve(C5_UNIT).min_dim(C5_UNIT) is None
    res = count_instance(C5_UNIT)
    assert (res.total, res.min_weight, res.min_count) == (0, None, 0)


# derandomized, so every run checks the same 200 graphs
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            # one- or two-decimal weights k / 10 or k / 100
            st.sampled_from((10, 100)),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 999))
                .filter(lambda t: t[0] != t[1]),
                unique_by=lambda t: tuple(sorted(t[:2])),
                max_size=n * (n - 1) // 2,
            ),
            # the weights of 0-2 isolated edges, which preprocessing forces
            st.lists(st.integers(0, 999), max_size=2),
        )
    )
)
def test_every_path_reports_the_oracle_weight_on_decimal_weights(instance):
    n, scale, core, isolated = instance
    edges = [(u, v, k / scale) for u, v, k in core]
    edges += [(n + 2 * i, n + 2 * i + 1, k / scale) for i, k in enumerate(isolated)]
    g = graph(n + 2 * len(isolated), edges)
    want = brute_solve(g)
    for algo in ("auto", "mis"):
        dim = solve_instance(g, algo=algo).dim
        assert (None if dim is None else dim.weight) == want.min_weight, algo
    res = count_instance(g)
    assert (res.total, res.min_weight) == (want.total, want.min_weight)


def test_reports_which_algorithm_ran():
    r = solve_instance(star([1.0] * 9), algo="auto")
    assert r.stats.engine == "domset"
    r = solve_instance(cycle([1.0] * 10), algo="auto")
    assert r.stats.engine == "domset"
    r = solve_instance(cycle([1.0] * 10), algo="mis")
    assert r.stats.engine == "mis"


def test_engine_counters_are_pinned():
    # the counters are machine-free, so a change to either engine's work
    # shows here; the forced edge 1-2 is summed into the weight
    pinned = [  # (graph, |D|, roots, leaves, sets walked, weight)
        (gen_instance("cycle", 4), 2, 0, 0, 2, None),
        (parse_graph("p dim 5 3\ne 1 2 5\ne 3 4 1\ne 4 5 2\n"), 1, 1, 1, 2, 6.0),
        (gen_instance("path", 4, weights="uniform:1:9"), 2, 1, 1, 3, 7.0),
        (gen_instance("path", 5, weights="uniform:1:9"), 2, 1, 1, 4, 12.0),
        (gen_instance("path", 6, weights="uniform:1:9"), 3, 2, 2, 5, 12.0),
    ]
    for g, d, roots, leaves, mis_count, weight in pinned:
        dom = solve_instance(g, "auto")
        got = (
            dom.stats.dominating_set_size,
            dom.stats.roots_explored,
            sum(dom.stats.branch_leaves_per_root),
            solve_instance(g, "mis").stats.mis_count,
            dom.dim.weight if dom.dim is not None else None,
        )
        assert got == (d, roots, leaves, mis_count, weight), g


def test_unknown_algorithm_rejected():
    # the search runs as "auto" and the oracle as brute_solve
    for algo in ("magic", "domset", "brute"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve_instance(P4_527, algo=algo)


def test_tracing_with_non_branching_algorithms_rejected():
    from dimsolver import DotTracer

    with pytest.raises(ValueError, match="branch tracing .* auto"):
        solve_instance(P4_527, algo="mis", tracer=DotTracer())


def test_root_observer_with_non_branching_algorithms_rejected():
    calls = []
    with pytest.raises(ValueError, match="root observer .* auto"):
        solve_instance(P4_527, algo="mis", observer=lambda *args: calls.append(args))
    assert calls == []


def test_count_record_is_the_deciding_engine_record():
    # the search's record when it rules a DIM out, else the walk's
    for g in random_corpus(60, seed=5):
        res = count_instance(g)
        algo = "auto" if res.total == 0 else "mis"
        assert res.stats == solve_instance(g, algo).stats, algo


def test_dim_free_cycle_counts_to_zero_without_the_walk(default_recursion_limit):
    # 3001 is not a multiple of 3; the walk would visit every one of the
    # cycle's maximal independent sets, a number exponential in n
    g = cycle([float(i % 7 + 1) for i in range(3001)])
    t0 = time.perf_counter()
    res = count_instance(g)
    elapsed = time.perf_counter() - t0
    assert (res.total, res.min_weight, res.min_count) == (0, None, 0)
    assert res.stats.engine == "domset"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_dim_free_random_graph_counts_like_the_walk():
    g = gen_instance("random", 60, p=0.3)
    res = count_instance(g)
    assert (res.total, res.min_weight, res.min_count) == (0, None, 0)
    assert res == count_dims(preprocess(g).residual)


def test_count_walk_and_search_must_agree(monkeypatch, capsys):
    real = dimsolver.solve.solve_domset

    def heavier(g, **kwargs):
        out = real(g, **kwargs)
        return SolveOutcome(Dim(out.dim.edge_ids, out.dim.weight + 1.0), out.stats)

    monkeypatch.setattr(dimsolver.solve, "solve_domset", heavier)
    with pytest.raises(ContractViolation, match=r"count walk minimum 2\.0 != search minimum 3\.0"):
        count_instance(P4_527)

    monkeypatch.setattr(sys, "stdin", io.StringIO("p dim 4 3\ne 1 2 5\ne 2 3 2\ne 3 4 7\n"))
    assert dimsolver.cli.main(["count"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: ") and out.err.count("\n") == 1


def test_count_witness_must_be_a_dim_of_the_input(monkeypatch, capsys):
    # on the unit P4 the edge 0-1 weighs as much as the DIM {1-2}, but it
    # does not dominate the edge 2-3
    g = path([1.0, 1.0, 1.0])
    real = dimsolver.solve.count_dims

    def wrong_witness(residual):
        res = real(residual)
        return replace(res, witness=Dim(frozenset({0}), res.min_weight))

    monkeypatch.setattr(dimsolver.solve, "count_dims", wrong_witness)
    with pytest.raises(ContractViolation, match="count witness fails validation"):
        count_instance(g)

    monkeypatch.setattr(sys, "stdin", io.StringIO("p dim 4 3\ne 1 2 1\ne 2 3 1\ne 3 4 1\n"))
    assert dimsolver.cli.main(["count"]) == 3
    assert capsys.readouterr().err.startswith("internal error: count witness")


# Twelve sweeps of the per-instance path over small graphs; prints how many
# memory blocks the last ten left allocated after the first two warmed up.
_SWEEPS = """
import gc, sys
from dimsolver import count_instance, parse_graph, serialize_graph, solve_instance
from support import random_corpus

texts = [serialize_graph(g) for g in random_corpus(200, seed=5, n_lo=8, n_hi=16)]

def sweep():
    for text in texts:
        g = parse_graph(text)
        solve_instance(g)
        count_instance(g)

sweep()
sweep()
gc.collect()
before = sys.getallocatedblocks()
for _ in range(10):
    sweep()
print(sys.getallocatedblocks() - before)
"""


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's block count")
def test_repeated_instances_do_not_fill_the_tuple_free_lists():
    # a tuple built from a generator or map moves from CPython's 10-slot
    # free list to the one of its final size, so a run would fill the
    # small free lists; a fresh interpreter, since earlier tests may
    # already have filled them in this one
    src = str(Path(dimsolver.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SWEEPS], capture_output=True, text=True, env=env, check=True
    )
    grown = int(out.stdout)
    assert grown < 2000, f"{grown} more blocks after ten sweeps"


def test_auto_with_tracer_falls_back_to_domset():
    from dimsolver import DotTracer

    tracer = DotTracer()
    r = solve_instance(cycle([1.0] * 10), algo="auto", tracer=tracer)
    assert r.stats.engine == "domset"
    assert "->" in tracer.to_dot()


def chain_dim_weight(weights, closed):
    """Minimum DIM weight of a path (closed=False) or cycle with these edge
    weights in order, or None. In the line graph, a path or cycle of
    edges, a DIM is a perfect code: consecutive chosen edges are exactly
    three apart, so an offset fixes the whole set."""
    m = len(weights)
    best = None
    for first in range(3 if closed else 2):
        chosen = range(first, m, 3)
        if closed:
            ok = m % 3 == 0
        else:
            ok = chosen[-1] >= m - 2 if chosen else m == 0
        if ok:
            w = sum(weights[i] for i in chosen)
            best = w if best is None else min(best, w)
    return best


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("closed", [False, True])
def test_long_chains_solve_without_recursion(closed, default_recursion_limit):
    weights = [float(i % 7 + 1) for i in range(2999 if not closed else 3000)]
    g = cycle(weights) if closed else path(weights)
    r = solve_instance(g, algo="auto")
    assert r.dim is not None and validate_dim(g, r.dim.edge_ids)
    assert r.dim.weight == chain_dim_weight(weights, closed)


def _timed_auto(g):
    t0 = time.perf_counter()
    r = solve_instance(g, algo="auto")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"n={g.n} took {elapsed:.1f}s"
    return r


def test_long_path_and_cycles_within_budget(default_recursion_limit):
    weights = [float(i % 7 + 1) for i in range(9999)]
    g = path(weights)  # P10000
    r = _timed_auto(g)
    assert r.dim is not None and validate_dim(g, r.dim.edge_ids)
    assert r.dim.weight == path_dim_weight(weights)

    g = cycle(weights)  # C9999
    r = _timed_auto(g)
    assert r.dim is not None and validate_dim(g, r.dim.edge_ids)
    assert r.dim.weight == chain_dim_weight(weights, closed=True)

    # C10000: 10000 is not a multiple of 3, so there is no DIM
    assert _timed_auto(cycle(weights + [1.0])).dim is None


def test_disjoint_forced_center_gadgets_within_budget():
    # in each copy 0=W fails, and under 0=B the part {1, 2, 3} of the
    # single 0 is a star centered at 1: one root, 2000 forced parts, and
    # the only DIM takes every copy's 0-1 edge
    gadget = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    k = 2000
    edges = [
        (4 * c + u, 4 * c + v, float((c + 3 * i) % 9 + 1))
        for c in range(k)
        for i, (u, v) in enumerate(gadget)
    ]
    g = graph(4 * k, edges)
    r = _timed_auto(g)
    assert r.dim is not None and validate_dim(g, r.dim.edge_ids)
    assert r.dim.weight == sum(float(c % 9 + 1) for c in range(k))


def test_large_forest_without_dim_within_budget(default_recursion_limit):
    tree = [(0, 1), (1, 2), (0, 3), (1, 4), (1, 5), (5, 6)]
    assert brute_solve(graph(7, [(u, v, 1.0) for u, v in tree])).total == 0
    k = 1400
    g = graph(7 * k, [(7 * c + u, 7 * c + v, 1.0) for c in range(k) for u, v in tree])
    assert _timed_auto(g).dim is None


def test_wide_star_and_degenerate_graphs(default_recursion_limit):
    spokes = [float(i % 11 + 2) for i in range(3000)]
    spokes[1777] = 1.0
    r = solve_instance(star(spokes), algo="auto")
    assert r.dim.weight == 1.0 and r.dim.edge_ids == frozenset({1777})

    for g in (Graph(0, ()), Graph(5, ())):
        r = solve_instance(g, algo="auto")
        assert r.dim.weight == 0.0 and r.dim.edge_ids == frozenset()
    g = graph(6, [(0, 1, 2.0), (2, 3, 3.0), (4, 5, 4.0)])
    r = solve_instance(g, algo="auto")
    assert r.dim.weight == 9.0 and r.dim.edge_ids == frozenset({0, 1, 2})
