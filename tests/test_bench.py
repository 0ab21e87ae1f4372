"""Benchmark runner: corpus discovery, engine breaches, report shape."""

import pytest

import dimsolver.cli
import dimsolver.solve
from dimsolver import (
    ContractViolation,
    Dim,
    SolveOutcome,
    SolveStats,
    gen_instance,
    parse_graph,
    run_bench,
    serialize_graph,
    solve_instance,
)


def write_corpus(directory, specs):
    for name, family, n, seed in specs:
        g = gen_instance(family, n, seed=seed, weights="uniform:1:9")
        (directory / name).write_text(serialize_graph(g))


def test_empty_corpus_empty_report(tmp_path):
    report = run_bench(tmp_path)
    assert report.rows == () and report.violations == ()
    assert report.to_tsv().splitlines() == [
        "name\tn\tm\td\troots\tleaves\tmu\tweight\tt_domset\tt_mis"
    ]


def test_missing_corpus_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_bench(tmp_path / "absent")


def test_rows_sorted_by_name_and_bounds_hold(tmp_path):
    write_corpus(
        tmp_path,
        [(f"path{n:02d}.dim", "path", n, n) for n in range(4, 13)]
        + [(f"star{n:02d}.dim", "star", n, n) for n in range(4, 9)],
    )
    report = run_bench(tmp_path)
    assert report.violations == ()
    names = [r.name for r in report.rows]
    assert names == sorted(names) and len(names) == 14
    for row in report.rows:
        if row.name.startswith("star"):
            stats = row.domset.stats
            assert stats.dominating_set_size == 1 and stats.roots_explored <= 2
        assert row.mis.stats.mis_count <= 3 ** ((row.n + 2) // 3)
        assert row.domset_seconds >= 0 and row.mis_seconds >= 0


def test_non_dim_files_ignored(tmp_path):
    (tmp_path / "README.txt").write_text("not a graph")
    write_corpus(tmp_path, [("one.dim", "path", 5, 1)])
    report = run_bench(tmp_path)
    assert len(report.rows) == 1


def test_nodim_instances_render_in_report(tmp_path):
    write_corpus(tmp_path, [("c4.dim", "cycle", 4, 0)])
    report = run_bench(tmp_path)
    assert report.rows[0].domset.dim is None
    assert "NODIM" in report.to_tsv()


def test_weight_column_includes_forced_isolated_edges(tmp_path):
    # 1-2 is an isolated edge, so it is in every DIM; the path 3-4-5 adds 1
    text = "p dim 5 3\ne 1 2 5\ne 3 4 1\ne 4 5 2\n"
    (tmp_path / "forced.dim").write_text(text)
    report = run_bench(tmp_path)
    assert report.violations == ()
    assert report.rows[0].domset.dim.weight == solve_instance(parse_graph(text)).dim.weight == 6.0
    assert report.to_tsv().splitlines()[1].split("\t")[7] == "6"


# columns 1-8 of the report on a fixed corpus; the timing columns vary
PINNED_TSV = """\
name\tn\tm\td\troots\tleaves\tmu\tweight
c4.dim\t4\t4\t2\t0\t0\t2\tNODIM
forced.dim\t5\t3\t1\t1\t1\t2\t6
p4.dim\t4\t3\t2\t1\t1\t3\t7
p5.dim\t5\t4\t2\t1\t1\t4\t12
p6.dim\t6\t5\t3\t2\t2\t5\t12
"""


def test_report_columns_are_pinned(tmp_path):
    write_corpus(tmp_path, [(f"p{n}.dim", "path", n, 0) for n in (4, 5, 6)])
    (tmp_path / "c4.dim").write_text(serialize_graph(gen_instance("cycle", 4)))
    (tmp_path / "forced.dim").write_text("p dim 5 3\ne 1 2 5\ne 3 4 1\ne 4 5 2\n")
    report = run_bench(tmp_path)
    assert report.violations == ()
    lines = report.to_tsv().splitlines()
    assert "".join("\t".join(line.split("\t")[:8]) + "\n" for line in lines) == PINNED_TSV


def test_malformed_file_stops_the_run_and_is_named(tmp_path, capsys):
    write_corpus(tmp_path, [(f"p{n}.dim", "path", n, n) for n in (4, 6)])
    (tmp_path / "p5.dim").write_text("p dim 2 1\ne 1 5 1\n")
    code = dimsolver.cli.main(["bench", "--corpus", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: p5.dim: line 2: vertex id out of range in edge 1 5\n"
    assert captured.out == ""


def test_engine_breach_is_one_violation_not_an_abort(tmp_path, monkeypatch, capsys):
    real = dimsolver.solve.solve_domset

    def breaks_on_p5(g, **kwargs):
        if g.n == 5:
            raise ContractViolation("root 0: leaves=3 > 2^1")
        return real(g, **kwargs)

    monkeypatch.setattr(dimsolver.solve, "solve_domset", breaks_on_p5)
    write_corpus(tmp_path, [(f"p{n}.dim", "path", n, n) for n in (4, 5, 6)])
    report = run_bench(tmp_path)
    assert [r.name for r in report.rows] == ["p4.dim", "p6.dim"]
    assert report.violations == ("p5.dim: root 0: leaves=3 > 2^1",)

    tsv = tmp_path / "report.tsv"
    code = dimsolver.cli.main(["bench", "--corpus", str(tmp_path), "--report", str(tsv)])
    assert code == 3
    assert "p5.dim" in capsys.readouterr().err
    lines = tsv.read_text().splitlines()
    assert len(lines) == 4 and lines[-1].startswith("# VIOLATION\tp5.dim")


def test_disagreeing_engines_are_one_violation(tmp_path, monkeypatch):
    # a 6-cycle has three DIMs, of weight 1 + 4, 2 + 5 and 3 + 6; the
    # independent set engine is made to return the heaviest, a valid DIM
    text = "p dim 6 6\ne 1 2 1\ne 2 3 2\ne 3 4 3\ne 4 5 4\ne 5 6 5\ne 1 6 6\n"
    (tmp_path / "c6.dim").write_text(text)

    def heaviest(g):
        return SolveOutcome(Dim(frozenset({2, 5}), 9.0), SolveStats("mis"))

    monkeypatch.setattr(dimsolver.solve, "solve_mis", heaviest)
    report = run_bench(tmp_path)
    assert report.violations == ("c6.dim: solvers disagree, domset=5.0 mis=9.0",)
    assert [r.domset.dim.weight for r in report.rows] == [5.0]


def test_violations_render_in_tsv(tmp_path):
    from dimsolver import BenchReport

    report = BenchReport((), ("x.dim: solvers disagree",))
    assert "# VIOLATION\tx.dim: solvers disagree" in report.to_tsv()
