"""Command line front end.

Subcommands: solve (minimum-weight DIM or NODIM), count (number of DIMs
plus multiplicity at the minimum), gen (deterministic instance generator).

Exit codes: 0 a DIM was found, 1 no DIM exists, 2 bad input or bad flags,
3 a solver broke one of its own guarantees, 4 the run ran out of memory
or of recursion depth.
Stdout is byte-stable for a fixed (input, flags, seed); diagnostics and
the `auto: selected <engine>` banner go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .generate import FAMILIES, gen_instance
from .graph import ContractViolation, format_weight, parse_graph, serialize_graph
from .solve import ALGORITHMS, count_instance, solve_instance
from .trace import DotTracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimsolver",
        description="Exact minimum-weight dominating induced matching solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="find a minimum-weight DIM")
    solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    solve.add_argument("--input", default="-", help="graph file, - for stdin")
    solve.add_argument("--output", default="-", help="result file, - for stdout")
    solve.add_argument(
        "--trace",
        metavar="dot:FILE",
        help="write the domset branch tree as Graphviz DOT",
    )

    count = sub.add_parser("count", help="count all DIMs")
    count.add_argument("--input", default="-", help="graph file, - for stdin")
    count.add_argument("--output", default="-", help="result file, - for stdout")

    gen = sub.add_parser("gen", help="generate a deterministic instance")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", default="unit", help="'unit' or 'uniform:lo:hi'")
    gen.add_argument("--p", type=float, default=0.5, help="edge density for random families")
    gen.add_argument("--output", default="-", help="graph file, - for stdout")
    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _trace_target(spec: Optional[str]) -> Optional[str]:
    if spec is None:
        return None
    scheme, _, target = spec.partition(":")
    if scheme != "dot" or not target:
        raise ValueError(f"bad --trace value {spec!r}: expected dot:FILE")
    return target


def _cmd_solve(args: argparse.Namespace) -> int:
    trace_path = _trace_target(args.trace)
    tracer = DotTracer() if trace_path is not None else None
    g = parse_graph(_read(args.input))
    result = solve_instance(g, algo=args.algo, tracer=tracer)
    if args.algo == "auto":
        print(f"auto: selected {result.stats.engine}", file=sys.stderr)
    if tracer is not None:
        Path(trace_path).write_text(tracer.to_dot())
    if result.dim is None:
        _write(args.output, "NODIM\n")
        return 1
    lines = [f"DIM {format_weight(result.dim.weight)}"]
    for u, v, _ in sorted(g.edges[eid] for eid in result.dim.edge_ids):
        lines.append(f"e {u + 1} {v + 1}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.input))
    res = count_instance(g)
    if res.total == 0:
        _write(args.output, "COUNT 0\n")
        return 1
    _write(
        args.output,
        f"COUNT {res.total} MINWEIGHT {format_weight(res.min_weight)}"
        f" MINCOUNT {res.min_count}\n",
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = gen_instance(args.family, args.n, seed=args.seed, weights=args.weights, p=args.p)
    _write(args.output, serialize_graph(g))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "count": _cmd_count,
    "gen": _cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        what = "memory" if isinstance(exc, MemoryError) else "recursion depth"
        print(f"error: the run ran out of {what}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
