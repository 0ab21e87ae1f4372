"""Instance generator: shapes, determinism, planted solvability."""

import pytest

from dimsolver import brute_solve, gen_instance, serialize_graph, solve_instance


def test_path_and_cycle_shapes():
    p = gen_instance("path", 4)
    assert p.n == 4 and [e[:2] for e in p.edges] == [(0, 1), (1, 2), (2, 3)]
    assert all(w == 1.0 for _, _, w in p.edges)
    c = gen_instance("cycle", 4)
    assert c.n == 4 and c.m == 4
    assert brute_solve(c).total == 0


def test_star_and_complete_shapes():
    s = gen_instance("star", 7)
    assert s.m == 6 and all(u == 0 for u, _, _ in s.edges)
    k = gen_instance("complete", 5)
    assert k.m == 10


def test_single_vertex_instances():
    assert gen_instance("path", 1).m == 0
    assert gen_instance("star", 1).m == 0
    assert gen_instance("random", 1).m == 0
    assert gen_instance("random_dim", 1).m == 0


def test_reproducible_and_seed_sensitive():
    a = serialize_graph(gen_instance("random", 14, seed=5, weights="uniform:1:10"))
    b = serialize_graph(gen_instance("random", 14, seed=5, weights="uniform:1:10"))
    c = serialize_graph(gen_instance("random", 14, seed=6, weights="uniform:1:10"))
    assert a == b
    assert a != c


def test_weight_spec_does_not_disturb_topology():
    unit = gen_instance("random", 10, seed=3, p=0.5)
    priced = gen_instance("random", 10, seed=3, p=0.5, weights="uniform:1:10")
    assert [e[:2] for e in unit.edges] == [e[:2] for e in priced.edges]


def test_density_zero_and_one():
    empty = gen_instance("random", 8, seed=1, p=0.0)
    assert empty.m == 0
    full = gen_instance("random", 8, seed=1, p=1.0)
    assert full.m == 28


def test_planted_instances_always_solvable():
    for seed in range(25):
        for n in (2, 3, 7, 12, 20):
            g = gen_instance("random_dim", n, seed=seed, weights="uniform:1:9", p=0.6)
            assert solve_instance(g).dim is not None, (n, seed)


def test_planted_pinned_instance():
    g = gen_instance("random_dim", 12, seed=7)
    assert brute_solve(g).total >= 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        gen_instance("path", 0)
    with pytest.raises(ValueError):
        gen_instance("cycle", 2)
    with pytest.raises(ValueError):
        gen_instance("blob", 4)
    with pytest.raises(ValueError):
        gen_instance("random", 4, p=1.5)
    too_big = "uniform:0:1" + "0" * 400  # past the float range
    for spec in ("uniform:5:2", "uniform:-1:4", "uniform:a:b", "gauss:0:1", too_big):
        with pytest.raises(ValueError):
            gen_instance("path", 4, weights=spec)


def test_integer_weights_within_bounds():
    g = gen_instance("complete", 8, seed=11, weights="uniform:3:5")
    assert all(w in (3.0, 4.0, 5.0) for _, _, w in g.edges)
