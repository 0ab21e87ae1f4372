"""Graph construction, file format, preprocessing, and the DIM validator."""

import math

import pytest
from hypothesis import given, strategies as st

from dimsolver import (
    Dim,
    Graph,
    GraphFormatError,
    parse_graph,
    preprocess,
    serialize_graph,
    validate_dim,
)
from support import C4_UNIT, P4_527, graph, random_corpus


def test_edges_normalized_and_indexed():
    g = graph(3, [(2, 0, 1.5), (1, 2, 3.0)])
    assert g.edges[0] == (0, 2, 1.5)
    assert g.m == 2
    assert g.degree(2) == 2 and g.degree(1) == 1
    assert g.edge_id(2, 0) == 0 and g.edge_id(0, 2) == 0
    assert g.edge_id(1, 2) == 1


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        graph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        graph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        graph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        graph(2, [(0, 1, math.nan)])
    with pytest.raises(ValueError):
        graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        # every weight is finite, their total is not
        graph(7, [(i, i + 1, 1e308) for i in range(6)])


def test_parse_roundtrip_golden():
    text = "c tiny\np dim 4 3\ne 1 2 5\ne 2 3 2\ne 3 4 7\n"
    g = parse_graph(text)
    assert g == P4_527
    assert parse_graph(serialize_graph(g)) == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2 3\np dim 2 1\n", "before 'p dim' header"),
        ("p dim 2 1\np dim 2 1\ne 1 2 3\n", "duplicate 'p dim'"),
        ("p dim 2\ne 1 2 3\n", "malformed header"),
        ("p dim 2 1\ne 1 2\n", "malformed edge"),
        ("p dim 2 1\ne 1 2 -3\n", "negative weight"),
        ("p dim 2 1\ne 1 2 x\n", "invalid weight"),
        ("p dim 2 1\ne 1 3 4\n", "out of range"),
        ("p dim 2 1\ne 1 1 4\n", "self-loop"),
        ("p dim 3 2\ne 1 2 4\ne 2 1 5\n", "first seen at line 2"),
        ("p dim 3 1\ne 1 2 4\ne 1 3 4\n", "more than the declared"),
        ("p dim 2 2\ne 1 2 4\n", "declares 2, found 1"),
        ("", "missing 'p dim"),
        ("p dim 2 1\nx 1 2\n", "unknown record"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert fragment in str(info.value)


def test_parse_error_reports_offending_line():
    with pytest.raises(GraphFormatError) as info:
        parse_graph("c ok\np dim 2 1\ne 1 5 2\n")
    assert info.value.line == 3


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.builds(
            lambda pairs, ws: graph(
                n, [(u, v, w) for (u, v), w in zip(pairs, ws)]
            ),
            st.lists(
                st.tuples(
                    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                ).filter(lambda t: t[0] != t[1]),
                unique_by=lambda t: tuple(sorted(t)),
                max_size=n * (n - 1) // 2 if n else 0,
            ),
            st.lists(st.integers(0, 50).map(float), min_size=36, max_size=36),
        )
        if n
        else st.just(Graph(0, ()))
    )
)
def test_serialize_parse_is_identity(g):
    assert parse_graph(serialize_graph(g)) == g


def test_preprocess_splits_trivial_components():
    #  0 isolated; 1-2 isolated edge; 3-4-5 path
    g = graph(6, [(1, 2, 5.0), (3, 4, 2.0), (4, 5, 7.0)])
    pre = preprocess(g)
    assert pre.removed_isolated_vertices == (0,)
    assert pre.forced_edges == ((0, 5.0),)
    assert pre.forced_weight == 5.0
    assert pre.residual.n == 3 and pre.residual.m == 2
    # vertex maps are mutually inverse where defined
    for rv, ov in enumerate(pre.vertex_to_original):
        assert pre.original_to_residual[ov] == rv
    # residual DIM {cheap edge} lifts to original ids with forced edge merged
    lifted = pre.original_dim(Dim(frozenset({0}), 2.0))
    assert lifted.weight == 7.0
    assert lifted.edge_ids == {0, 1}


def test_preprocess_idempotent():
    for g in random_corpus(40, seed=9):
        pre = preprocess(g)
        again = preprocess(pre.residual)
        assert again.residual == pre.residual
        assert again.forced_edges == () and again.removed_isolated_vertices == ()


def test_validate_dim_golden():
    assert validate_dim(P4_527, {1})
    assert not validate_dim(P4_527, {0})        # edge 2-3 undominated
    assert not validate_dim(P4_527, {0, 2})     # middle edge dominated twice
    assert not validate_dim(P4_527, set())
    assert not validate_dim(C4_UNIT, {0, 2})    # adjacent chosen edges
    assert validate_dim(Graph(0, ()), set())


def test_validate_dim_rejects_unknown_edge_ids():
    with pytest.raises(ValueError):
        validate_dim(P4_527, {99})
