"""Graph construction, file format, preprocessing, and the DIM validator."""

import math

import pytest
from hypothesis import given, strategies as st

import dimsolver.cli as cli
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
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1, ())
    # weight text follows the file format: ASCII digits, no underscores
    for text in ("1_5", "\u0661\u0665"):
        with pytest.raises(GraphFormatError, match=f"invalid weight {text!r}"):
            Graph(2, ((0, 1, text),))


def test_parse_roundtrip_golden():
    text = "c tiny\np dim 4 3\ne 1 2 5\ne 2 3 2\ne 3 4 7\n"
    g = parse_graph(text)
    assert g == P4_527
    assert parse_graph(text.encode()) == g
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


# one case per message parse_graph can raise: (text, type, message, line)
PARSE_ERRORS = [
    ("p dim 2 0\np dim 2 0\n", GraphFormatError, "line 2: duplicate 'p dim' header", 2),
    ("p dim 2\n", GraphFormatError, "line 1: malformed header, expected 'p dim <n> <m>'", 1),
    ("p dim x 1\n", GraphFormatError, "line 1: malformed header, expected 'p dim <n> <m>'", 1),
    ("p dim 2 -1\n", GraphFormatError, "line 1: header counts must be non-negative", 1),
    # int() and float() read underscores and non-ASCII digits; the format does not
    ("p dim 1_0 1\n", GraphFormatError, "line 1: malformed header, expected 'p dim <n> <m>'", 1),
    ("p dim \u0663 0\n", GraphFormatError, "line 1: malformed header, expected 'p dim <n> <m>'", 1),
    (
        "c \u0663_\np dim 10 1\ne 1_0 2 1\n",
        GraphFormatError,
        "line 3: malformed edge, expected 'e <u> <v> <w>'",
        3,
    ),
    (
        "p dim 3 1\ne 1 \u0662 1\n",
        GraphFormatError,
        "line 2: malformed edge, expected 'e <u> <v> <w>'",
        2,
    ),
    ("p dim 10 1\ne 10 2 1_5\n", GraphFormatError, "line 2: invalid weight '1_5'", 2),
    ("p dim 3 1\ne 1 2 \u0661\u0665\n", GraphFormatError, "line 2: invalid weight '\u0661\u0665'", 2),
    (
        "c x\ne 1 2 3\np dim 2 1\n",
        GraphFormatError,
        "line 2: edge record before 'p dim' header",
        2,
    ),
    (
        "p dim 2 1\ne 1 b 3\n",
        GraphFormatError,
        "line 2: malformed edge, expected 'e <u> <v> <w>'",
        2,
    ),
    ("p dim 2 1\ne 1 2 inf\n", GraphFormatError, "line 2: invalid weight 'inf'", 2),
    ("p dim 2 1\ne 1 2 -0.5\n", GraphFormatError, "line 2: negative weight '-0.5'", 2),
    ("p dim 2 1\ne 3 1 4\n", GraphFormatError, "line 2: vertex id out of range in edge 3 1", 2),
    ("p dim 2 1\ne 2 2 4\n", GraphFormatError, "line 2: self-loop at vertex 2", 2),
    (
        "p dim 3 3\ne 2 3 1\n\ne 3 2 1\n",
        GraphFormatError,
        "line 4: duplicate edge 3 2 (first seen at line 2)",
        4,
    ),
    (
        "p dim 3 1\ne 1 2 4\ne 2 3 4\n",
        GraphFormatError,
        "line 3: more than the declared 1 edges",
        3,
    ),
    ("p dim 2 1\ncx 1\n", GraphFormatError, "line 2: unknown record type 'cx'", 2),
    ("c only\n", GraphFormatError, "missing 'p dim <n> <m>' header", None),
    (
        "p dim 2 2\ne 1 2 4\n",
        GraphFormatError,
        "edge count mismatch: header declares 2, found 1",
        None,
    ),
    # each weight is finite, their total is not; no single line is at fault
    (
        "p dim 3 2\ne 1 2 1e308\ne 2 3 1e308\n",
        ValueError,
        "total edge weight is not finite",
        None,
    ),
]


@pytest.mark.parametrize("text,kind,message,line", PARSE_ERRORS)
def test_parse_error_corpus(text, kind, message, line, tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        parse_graph(text)
    assert type(info.value) is kind
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line
    path = tmp_path / "bad.dim"
    path.write_text(text)
    assert cli.main(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_comment_is_any_line_whose_first_token_is_c():
    text = "c\tnote\np dim 2 1\n  c\n\tc  x_y \u0663\ne 1 2 5\nc\n"
    assert parse_graph(text) == graph(2, [(0, 1, 5.0)])


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, max(n - 1, 0)),
                    st.integers(0, max(n - 1, 0)),
                    st.integers(0, 500).map(lambda k: k / 10),
                ).filter(lambda t: t[0] != t[1]),
                unique_by=lambda t: tuple(sorted(t[:2])),
                max_size=n * (n - 1) // 2 if n else 0,
            ),
        )
    )
)
def test_serialize_parse_is_identity(instance):
    # the edges keep their file order and either endpoint order, so parsing
    # must normalize and index them exactly as the constructor does
    n, edges = instance
    g = Graph(n, tuple(edges))
    text = f"p dim {n} {len(edges)}\n" + "".join(
        f"e {u + 1} {v + 1} {w!r}\n" for u, v, w in edges
    )
    for parsed in (parse_graph(text), parse_graph(serialize_graph(g))):
        assert parsed == g
        assert (parsed.n, parsed.edges, parsed.adjacency) == (g.n, g.edges, g.adjacency)


def test_preprocess_splits_trivial_components():
    #  0 isolated; 1-2 isolated edge; 3-4-5 path
    g = graph(6, [(1, 2, 5.0), (3, 4, 2.0), (4, 5, 7.0)])
    pre = preprocess(g)
    assert pre.forced_edges == (0,)
    assert pre.residual.n == 3 and pre.residual.m == 2
    assert pre.edge_to_original == (1, 2)
    # residual DIM {cheap edge} lifts to original ids with forced edge merged;
    # the weight is summed from the edges, not taken from the residual DIM
    lifted = pre.original_dim(Dim(frozenset({0}), 0.0))
    assert lifted.weight == 7.0
    assert lifted.edge_ids == {0, 1}


def test_preprocess_idempotent():
    for g in random_corpus(40, seed=9):
        pre = preprocess(g)
        again = preprocess(pre.residual)
        assert again.residual is pre.residual
        assert again.forced_edges == ()


def test_preprocess_returns_the_input_when_nothing_is_stripped():
    for g in (P4_527, C4_UNIT, Graph(0, ())):
        pre = preprocess(g)
        assert pre.residual is g
        assert pre.forced_edges == ()
        assert pre.edge_to_original == tuple(range(g.m))


def test_preprocess_residual_matches_the_public_constructor():
    stripped = 0
    for g in random_corpus(120, seed=31):
        pre = preprocess(g)
        # the vertices of components with three or more vertices
        kept = [
            v for v in range(g.n)
            if g.degree(v) > 1 or any(g.degree(u) > 1 for u, _ in g.adjacency[v])
        ]
        fwd = {old: new for new, old in enumerate(kept)}
        want = Graph(
            len(kept),
            tuple((fwd[u], fwd[v], w) for u, v, w in g.edges if u in fwd and v in fwd),
        )
        res = pre.residual
        assert (res.n, res.edges, res.adjacency) == (want.n, want.edges, want.adjacency)
        mapped = [g.edges[e] for e in pre.edge_to_original]
        assert [(fwd[u], fwd[v], w) for u, v, w in mapped] == list(res.edges)
        stripped += res is not g
    assert 0 < stripped < 120

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
