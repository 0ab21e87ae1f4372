"""Acceptance gate: one test per shipped guarantee, run at full strength.

Each test prints one PASS line with the measured evidence (visible with
pytest -s; pytest -v shows the per-test verdicts). Tolerances are exact
equality unless a test says otherwise.
"""

import random
import time

import pytest

from dimsolver import (
    BLACK,
    Coloring,
    NO_PAIR,
    UNCOLORED,
    WHITE,
    brute_mis,
    brute_solve,
    count_dims,
    count_instance,
    enumerate_mis,
    find_dominating_set,
    gen_instance,
    parse_graph,
    preprocess,
    serialize_graph,
    solve_domset,
    solve_instance,
    solve_mis,
    validate_dim,
)
from support import (
    C4_UNIT,
    C6_UNIT,
    K3_123,
    P4_527,
    STAR_419,
    graph,
    random_corpus,
    star,
)

CORPUS_SIZE = 512


def corpus():
    return random_corpus(CORPUS_SIZE, seed=20240214)


def _report(label, detail):
    print(f"PASS {label}: {detail}")


def test_solvers_match_oracle_everywhere():
    """Both exact solvers, the counter and the front door's count agree
    with brute force on 512 seeded random graphs (n 2..9, densities
    .2/.4/.6/.8, weights 1..10); the front door counts on the whole graph,
    forced isolated edges included."""
    checked = 0
    for g in corpus():
        whole = brute_solve(g)
        counted = count_instance(g)
        assert (counted.total, counted.min_weight, counted.min_count) == (
            whole.total, whole.min_weight, whole.min_count
        )
        res = preprocess(g).residual
        want = brute_solve(res)
        dom = solve_domset(res)
        mis = solve_mis(res)
        have = count_dims(res)
        if want.total == 0:
            assert dom.dim is None, "domset found a DIM the oracle rules out"
            assert mis.dim is None, "mis found a DIM the oracle rules out"
        else:
            assert dom.dim is not None and dom.dim.weight == want.min_weight
            assert mis.dim is not None and mis.dim.weight == want.min_weight
            assert validate_dim(res, dom.dim.edge_ids)
            assert validate_dim(res, mis.dim.edge_ids)
        assert have.total == want.total
        assert have.min_weight == want.min_weight
        assert have.min_count == want.min_count
        checked += 1
    assert checked == CORPUS_SIZE
    _report(
        "oracle equivalence",
        f"{checked} instances, existence + minimum weight + counts all exact,"
        " front door included",
    )



def test_engines_agree_on_the_generated_corpus():
    """On 16 generated graphs, path, cycle, random_dim and random at
    n = 8/12/16/20 (seed 0, p = .3, weights 1..9), each read back from
    its file text: both solve engines and the counter agree on existence
    and minimum weight, every DIM validates, and the counter matches
    brute force on the total, the minimum and the ties."""
    with_dim = 0
    for family in ("path", "cycle", "random_dim", "random"):
        for n in (8, 12, 16, 20):
            g = parse_graph(serialize_graph(gen_instance(family, n, weights="uniform:1:9", p=0.3)))
            want = brute_solve(g)
            counted = count_instance(g)
            assert (counted.total, counted.min_weight, counted.min_count) == (
                want.total, want.min_weight, want.min_count
            ), (family, n)
            for algo in ("auto", "mis"):
                dim = solve_instance(g, algo).dim
                if want.total == 0:
                    assert dim is None, (family, n, algo)
                else:
                    assert dim is not None and dim.weight == want.min_weight, (family, n, algo)
                    assert validate_dim(g, dim.edge_ids), (family, n, algo)
            with_dim += want.total > 0
    _report(
        "generated corpus",
        f"16 graphs, {with_dim} with a DIM, engines + counter + brute force agree",
    )


def test_solvers_match_oracle_on_decimal_gadget_unions():
    """On 600 unions of 1-4 copies of K4 minus an edge with weights k/10,
    brute force and both solve paths report bit-equal minimum weights."""
    gadget = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    rng = random.Random(20261018)
    for i in range(600):
        k = 1 + i % 4
        g = graph(
            4 * k,
            [(4 * c + u, 4 * c + v, rng.randint(1, 99) / 10) for c in range(k) for u, v in gadget],
        )
        want = brute_solve(g).min_weight
        for algo in ("auto", "mis"):
            assert solve_instance(g, algo=algo).dim.weight == want, (i, algo)
    _report("decimal oracle equivalence", "600 gadget unions, weights bit-equal")


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 8: exact decimal weights"
)
def test_near_tie_across_forced_edges_counts_like_the_oracle():
    """Two residual DIMs sum to 0.8999999999999999 and 0.9, and both
    totals round to 5.9 once the forced edges are added, so the oracle
    counts two at the minimum. The counter compares the residual sums and
    counts one."""
    g = graph(
        10,
        [(0, 1, 0.9), (0, 5, 0.7), (1, 2, 0.4), (2, 3, 0.2), (3, 4, 0.7), (4, 5, 0.5),
         (6, 7, 1.4), (8, 9, 3.6)],
    )
    want = brute_solve(g)
    res = count_instance(g)
    assert (res.total, res.min_weight) == (want.total, want.min_weight)
    assert res.min_count == want.min_count == 2

def test_golden_instances():
    """Hand-checked instances pin both solvers and the counter."""
    cases = [
        ("P4 weights 5,2,7", P4_527, 2.0, 1, None),
        ("K3 weights 1,2,3", K3_123, 1.0, 3, 1),
        ("C4 unit", C4_UNIT, None, 0, None),
        ("star weights 4,1,9", STAR_419, 1.0, 3, 1),
        ("C6 unit", C6_UNIT, 2.0, 3, None),
    ]
    for name, g, weight, total, min_count in cases:
        dom = solve_domset(g)
        mis = solve_mis(g)
        cnt = count_dims(g)
        if weight is None:
            assert dom.dim is None and mis.dim is None, name
        else:
            assert dom.dim is not None and dom.dim.weight == weight, name
            assert mis.dim is not None and mis.dim.weight == weight, name
        assert cnt.total == total, name
        if min_count is not None:
            assert cnt.min_count == min_count, name
    _report("golden instances", f"{len(cases)} fixed instances, both solvers match")


def test_branch_leaves_within_guarantee():
    """Per root, the branch tree has at most 2^q leaves with q bounded by
    min(|D|, ceil(n/3)); checked on every corpus instance."""
    roots_total = 0
    for g in corpus():
        res = preprocess(g).residual
        out = solve_domset(res)
        st = out.stats
        cap = min(st.dominating_set_size, (res.n + 2) // 3)
        assert st.roots_explored <= 2 ** st.dominating_set_size
        for leaves, q in zip(
            st.branch_leaves_per_root, st.residual_singles_per_root
        ):
            assert q <= cap, f"q={q} exceeds min(|D|, ceil(n/3))={cap}"
            assert leaves <= 2 ** q, f"{leaves} leaves exceed 2^{q}"
        roots_total += st.roots_explored
    _report(
        "branch leaf guarantee",
        f"{roots_total} roots across {CORPUS_SIZE} instances, zero breaches",
    )


def test_stable_root_colorings_keep_their_contracts():
    """The search reports its stable complete assignments of D in strictly
    increasing root order. At every root whose flat propagation (all of D
    colored at once) is stable, uncolored vertices have exactly one black
    neighbor and it is unpaired, and if the search reached that root its
    singles equal the flat ones. Every root that agrees with some actual
    DIM is flat-stable, is reached, and its singles all sit inside the
    root's black set. Verified against oracle enumeration.

    Every propagation rule is monotone, so the search in fact reaches
    exactly the flat-stable roots (test_domset checks that). This gate asks
    only what correctness needs: a root it skips has no DIM."""
    stable_count = 0
    extensible_count = 0
    observed_count = 0
    for g in random_corpus(96, seed=77):
        d = find_dominating_set(g)
        seen = []
        solve_domset(
            g,
            dominating_set=d,
            observer=lambda r, blacks, singles: seen.append((r, blacks, singles)),
        )
        roots = [r for r, _, _ in seen]
        assert roots == sorted(set(roots)), "roots not strictly increasing"
        observed = {r: (blacks, singles) for r, blacks, singles in seen}
        for r, (blacks, _) in observed.items():
            assert blacks == {v for k, v in enumerate(d) if (r >> k) & 1}
        observed_count += len(observed)
        dims = brute_solve(g).dims
        extensible = set()
        for edge_ids in dims:
            blacks = {v for eid in edge_ids for v in g.edges[eid][:2]}
            extensible.add(sum(1 << k for k, v in enumerate(d) if v in blacks))

        for root in range(1 << len(d)):
            col = Coloring(g)
            ok = True
            for k, v in enumerate(d):
                want = BLACK if (root >> k) & 1 else WHITE
                if not col.set_color(v, want):
                    ok = False
                    break
            res = col.propagate() if ok else None
            if res is not None and res.stable:
                stable_count += 1
                if root in observed:
                    assert observed[root][1] == col.singles()
                for v in range(g.n):
                    if col.state[v] == UNCOLORED:
                        black_nbrs = [
                            u for u, _ in g.adjacency[v] if col.state[u] == BLACK
                        ]
                        assert len(black_nbrs) == 1, "uncolored vertex contract"
                        assert col.mate(black_nbrs[0]) == NO_PAIR
            if root in extensible:
                extensible_count += 1
                assert res is not None and res.stable, (
                    "a root matching a real DIM must propagate cleanly"
                )
                assert root in observed, "solver skipped a root with a DIM"
                root_blacks = {v for k, v in enumerate(d) if (root >> k) & 1}
                assert set(observed[root][1]) <= root_blacks, (
                    f"singles {observed[root][1]} escape root blacks {root_blacks}"
                )
    assert extensible_count > 0
    _report(
        "stable coloring contracts",
        f"{observed_count} roots reached, {stable_count} flat-stable roots "
        f"checked, {extensible_count} extensible, zero violations",
    )


def test_mis_enumeration_exact_and_bounded():
    """The enumerator matches brute force set-for-set, never repeats, and
    never exceeds the 3^ceil(n/3) ceiling."""
    biggest = 0
    for g in corpus():
        sets = list(enumerate_mis(g))
        assert len(sets) == len(set(sets)), "duplicate maximal set in stream"
        assert set(sets) == brute_mis(g)
        assert len(sets) <= 3 ** ((g.n + 2) // 3)
        biggest = max(biggest, len(sets))
    for g in random_corpus(64, seed=10, n_lo=10, n_hi=10):
        sets = list(enumerate_mis(g))
        assert len(sets) == len(set(sets))
        assert set(sets) == brute_mis(g)
        assert len(sets) <= 3 ** 4
    _report(
        "maximal set enumeration",
        f"{CORPUS_SIZE + 64} graphs exact and duplicate-free, max stream {biggest}",
    )


def test_propagation_is_order_independent():
    """100 random valid-partial starts, 10 shuffled worklist orders each:
    identical stable coloring, or invalid under every order."""
    graphs = list(random_corpus(100, seed=4242, n_lo=3, n_hi=9))
    rng = random.Random(99)
    starts_done = 0
    for g in graphs:
        # grow a random valid-partial start, recording the accepted moves
        probe = Coloring(g)
        moves = []
        for v in rng.sample(range(g.n), g.n):
            if rng.random() < 0.55:
                continue
            color = rng.choice((WHITE, BLACK))
            mark = probe.mark()
            if probe.set_color(v, color):
                moves.append((v, color))
            else:
                probe.undo_to(mark)

        reference = None
        for order_seed in range(10):
            col = Coloring(g)
            for v, color in moves:
                assert col.set_color(v, color)
            res = col.propagate(rng=random.Random(order_seed))
            outcome = (
                (True, bytes(col.state), tuple(col.mate(v) for v in range(g.n)))
                if res.stable
                else (False,)
            )
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference, (
                    f"order {order_seed} disagrees on {moves}"
                )
        starts_done += 1
    assert starts_done == 100
    _report(
        "propagation confluence",
        "100 starts x 10 orders, stable colorings and verdicts identical",
    )


def test_fixed_dominating_set_scales_linearly():
    """Stars with 10, 100, 1000 spokes and D = {center}: two roots, at most
    two leaves each, and wall time growing at most linearly in edge count
    (factor-10 slack)."""

    def timed(k):
        rng = random.Random(k)
        g = star([float(rng.randint(1, 50)) for _ in range(k)])
        best = min(w for _, _, w in g.edges)
        elapsed = []
        out = None
        for _ in range(5):
            t0 = time.perf_counter()
            out = solve_domset(g, dominating_set=[0])
            elapsed.append(time.perf_counter() - t0)
        assert out.dim is not None and out.dim.weight == best
        assert out.stats.roots_explored <= 2
        assert all(leaves <= 2 for leaves in out.stats.branch_leaves_per_root)
        return min(elapsed)

    t10, t100, t1000 = timed(10), timed(100), timed(1000)
    floor = 2e-4  # below this, interpreter noise dominates the measurement
    assert t1000 <= max(t100, floor) * 10 * 10, (t100, t1000)
    assert t1000 <= max(t10, floor) * 100 * 10, (t10, t1000)
    _report(
        "fixed dominating set scaling",
        f"times {t10:.5f}/{t100:.5f}/{t1000:.5f}s for 10/100/1000 spokes, "
        "2 roots each",
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_desk_scale_auto_n30(seed):
    """Planted 30-vertex instances solve in well under a minute on auto."""
    g = gen_instance("random_dim", 30, seed=seed, weights="uniform:1:10", p=0.5)
    t0 = time.perf_counter()
    result = solve_instance(g, algo="auto")
    elapsed = time.perf_counter() - t0
    assert result.dim is not None
    assert elapsed < 60.0, f"n=30 seed={seed} took {elapsed:.1f}s"
    _report(
        "desk scale n=30",
        f"seed {seed} via {result.stats.engine} in {elapsed:.2f}s",
    )


# the search runs as algo "auto"; the oracle is called directly
DESK_ENGINES = {
    "domset": lambda g: solve_instance(g, algo="auto").dim,
    "mis": lambda g: solve_instance(g, algo="mis").dim,
    "brute": lambda g: brute_solve(g).min_dim(g),
}


@pytest.mark.parametrize("engine", list(DESK_ENGINES))
def test_desk_scale_all_algorithms_n20(engine):
    """Both engines, and brute force, each clear n = 20 in < 60 s."""
    g = gen_instance("random_dim", 20, seed=5, weights="uniform:1:10", p=0.5)
    t0 = time.perf_counter()
    dim = DESK_ENGINES[engine](g)
    elapsed = time.perf_counter() - t0
    assert dim is not None
    assert elapsed < 60.0, f"{engine} took {elapsed:.1f}s"
    _report("desk scale n=20", f"{engine} in {elapsed:.2f}s")
