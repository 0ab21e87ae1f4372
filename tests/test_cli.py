"""Command line behavior: formats, exit codes, determinism, wiring."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimsolver
import dimsolver.cli as cli
from dimsolver import ContractViolation

P4_TEXT = "c four path\np dim 4 3\ne 1 2 5\ne 2 3 2\ne 3 4 7\n"
C4_TEXT = "p dim 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n"


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.dim"
    f.write_text(P4_TEXT)
    return f


def run(argv, stdin=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        return cli.main(argv)
    finally:
        sys.stdin = old


def test_solve_prints_dim_and_edges(p4_file, capsys):
    code = run(["solve", "--input", str(p4_file)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "DIM 2\ne 2 3\n"


def test_solve_reads_stdin_and_reports_selection(capsys):
    code = run(["solve"], stdin=P4_TEXT)
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("DIM 2\n")
    assert "auto: selected" in out.err


def test_explicit_algo_skips_selection_banner(p4_file, capsys):
    code = run(["solve", "--algo", "mis", "--input", str(p4_file)])
    out = capsys.readouterr()
    assert code == 0 and "auto:" not in out.err


def test_solve_nodim_exit_code(capsys):
    code = run(["solve"], stdin=C4_TEXT)
    out = capsys.readouterr()
    assert code == 1
    assert out.out == "NODIM\n"


def test_solve_writes_output_file(p4_file, tmp_path, capsys):
    target = tmp_path / "answer"
    code = run(["solve", "--input", str(p4_file), "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "DIM 2\ne 2 3\n"


def test_solve_output_is_byte_stable(p4_file, capsys):
    run(["solve", "--input", str(p4_file)])
    first = capsys.readouterr().out
    run(["solve", "--input", str(p4_file)])
    assert capsys.readouterr().out == first


def test_solve_has_no_threads_flag(p4_file, capsys):
    with pytest.raises(SystemExit) as info:
        run(["solve", "--input", str(p4_file), "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_count_formats(capsys):
    assert run(["count"], stdin=P4_TEXT) == 0
    assert capsys.readouterr().out == "COUNT 1 MINWEIGHT 2 MINCOUNT 1\n"
    assert run(["count"], stdin=C4_TEXT) == 1
    assert capsys.readouterr().out == "COUNT 0\n"


# an integral weight prints every digit of its integer, not repr's 1e+300
BIG_WEIGHTS = [
    ("1e16", "10000000000000000"),
    ("1e300",
     "10000000000000000525047602552044202487044685811081591549158541155118024579889081957863713750"
     "80447864043704443832883878176942523235360430575644792184786706982848387200926575803737830233"
     "79478809005936895323497079994508111903896764088007465274278014249457925878882005684283811566"
     "9472196386865459400540160"),
]


@pytest.mark.parametrize("weight, digits", BIG_WEIGHTS)
def test_integral_weights_print_every_digit(weight, digits, capsys):
    # P3 with both edges of the weight: two DIMs, tied at the minimum
    text = f"p dim 3 2\ne 1 2 {weight}\ne 2 3 {weight}\n"
    assert run(["solve"], stdin=text) == 0
    assert capsys.readouterr().out == f"DIM {digits}\ne 1 2\n"
    assert run(["count"], stdin=text) == 0
    assert capsys.readouterr().out == f"COUNT 2 MINWEIGHT {digits} MINCOUNT 2\n"


def test_missing_input_is_an_input_error(capsys):
    code = run(["solve", "--input", "/nonexistent/x.dim"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_an_input_error(capsys):
    code = run(["solve"], stdin="p dim 2 1\ne 1 7 4\n")
    out = capsys.readouterr()
    assert code == 2
    assert "out of range" in out.err


@pytest.mark.parametrize("command", ["solve", "count"])
def test_overflowing_total_weight_is_an_input_error(command, capsys):
    # a P7 of 1e308 edges: each weight parses, the optimum would be inf
    text = "p dim 7 6\n" + "".join(f"e {i} {i + 1} 1e308\n" for i in range(1, 7))
    code = run([command], stdin=text)
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error:")
    assert out.out == ""


@pytest.mark.parametrize("command", ["solve", "count"])
def test_total_that_only_rounds_to_a_finite_sum_is_an_input_error(command, capsys):
    # three isolated edges, all in the one DIM: added left to right the
    # weights stay at the float maximum, but their exact sum rounds to inf
    text = "p dim 6 3\ne 1 2 1.7976931348623157e308\ne 3 4 9e291\ne 5 6 9e291\n"
    code = run([command], stdin=text)
    out = capsys.readouterr()
    assert code == 2
    assert out.err == "error: total edge weight is not finite\n"
    assert out.out == ""


def test_trace_writes_dot(p4_file, tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    code = run(["solve", "--input", str(p4_file), "--trace", f"dot:{dot}"])
    capsys.readouterr()
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "root" in text


def test_trace_rejects_other_algorithms(p4_file, capsys):
    code = run(
        ["solve", "--input", str(p4_file), "--algo", "mis", "--trace", "dot:x"]
    )
    assert code == 2
    assert "auto" in capsys.readouterr().err


def test_trace_spec_must_be_dot(p4_file, capsys):
    code = run(["solve", "--input", str(p4_file), "--trace", "png:x"])
    assert code == 2
    assert "dot:FILE" in capsys.readouterr().err


def test_gen_then_solve_pipeline(tmp_path, capsys):
    inst = tmp_path / "c6.dim"
    code = run(
        ["gen", "--family", "cycle", "--n", "6", "--output", str(inst)]
    )
    assert code == 0
    code = run(["solve", "--input", str(inst), "--algo", "mis"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("DIM 2\n")


def test_gen_is_deterministic_on_stdout(capsys):
    argv = ["gen", "--family", "random", "--n", "9", "--seed", "4",
            "--weights", "uniform:1:10", "--p", "0.4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("p dim 9 ")


def test_gen_rejects_bad_family_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        run(["gen", "--family", "blob", "--n", "4"])
    assert info.value.code == 2


def test_gen_rejects_weights_past_the_float_range(capsys):
    code = run(["gen", "--family", "path", "--n", "3", "--weights", "uniform:0:1" + "0" * 400])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: bad weight spec") and out.err.count("\n") == 1


@pytest.mark.parametrize("algo", ["domset", "brute"])
def test_algo_names_only_the_two_engines(algo, p4_file, capsys):
    # the search runs as auto, and the oracle is brute_solve in the library
    with pytest.raises(SystemExit) as info:
        run(["solve", "--algo", algo, "--input", str(p4_file)])
    assert info.value.code == 2
    assert f"invalid choice: '{algo}'" in capsys.readouterr().err


def test_bench_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        run(["bench", "--corpus", "."])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bench" in err


@pytest.mark.parametrize("command, target", [("solve", "solve_instance"), ("count", "count_instance")])
@pytest.mark.parametrize(
    "exc, err, code",
    [
        pytest.param(MemoryError, "error: the run ran out of memory", 4,
                     id="MemoryError-memory"),
        pytest.param(RecursionError, "error: the run ran out of recursion depth", 4,
                     id="RecursionError-recursion depth"),
        pytest.param(ContractViolation, "internal error: leaves=3 > 2^1", 3,
                     id="ContractViolation-internal"),
    ],
)
def test_exhausted_resources_exit_four(command, target, exc, err, code, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise exc("leaves=3 > 2^1")

    monkeypatch.setattr(cli, target, exhausted)
    assert run([command], stdin=P4_TEXT) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{err}\n"


def test_installed_entry_point_round_trip(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(dimsolver.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    inst = tmp_path / "star.dim"
    gen = subprocess.run(
        [sys.executable, "-m", "dimsolver", "gen", "--family", "star",
         "--n", "5", "--weights", "uniform:2:9", "--seed", "1",
         "--output", str(inst)],
        capture_output=True, text=True, env=env,
    )
    assert gen.returncode == 0
    solved = subprocess.run(
        [sys.executable, "-m", "dimsolver", "solve", "--input", str(inst)],
        capture_output=True, text=True, env=env,
    )
    assert solved.returncode == 0
    assert solved.stdout.startswith("DIM ")
