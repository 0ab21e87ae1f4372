"""Benchmark runner: drives both exact solvers over a corpus directory.

Each engine checks its own enumeration ceilings as it runs and raises
ContractViolation on a breach: the dominating-set solver reaches at most
2^|D| roots (stable complete assignments of D) and, per root, at most 2^q
branch leaves where q is the number of unpaired black vertices left after
its forced reductions and never exceeds min(|D|, ceil(n/3)); the
independent-set solver sees at most 3^ceil(n/3) maximal independent
sets. Both must also agree on existence and minimum weight. A breach or
a disagreement lands in the report's violation list instead of stopping
the run, so one bad instance cannot hide the rest. A malformed corpus
file stops the run with a GraphFormatError that names the file.

Each engine runs through solve_instance, as solve runs it, and a row
keeps the two SolveOutcomes it returned; the report's columns are read
off them, so the weight is the one solve prints. Each timing column
covers preprocessing, the engine and the final validation. Timings use
perf_counter and are the one non-reproducible column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .graph import ContractViolation, GraphFormatError, SolveOutcome, format_weight, parse_graph
from .solve import solve_instance


@dataclass(frozen=True)
class BenchRow:
    """One corpus file: what each engine returned, and its wall time."""

    name: str
    n: int
    m: int
    domset: SolveOutcome
    mis: SolveOutcome
    domset_seconds: float
    mis_seconds: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    violations: tuple[str, ...]

    def to_tsv(self) -> str:
        header = (
            "name\tn\tm\td\troots\tleaves\tmu\tweight\tt_domset\tt_mis"
        )
        lines = [header]
        for r in self.rows:
            dim, d = r.domset.dim, r.domset.stats
            weight = format_weight(dim.weight) if dim is not None else "NODIM"
            lines.append(
                f"{r.name}\t{r.n}\t{r.m}\t{d.dominating_set_size}\t{d.roots_explored}"
                f"\t{sum(d.branch_leaves_per_root)}\t{r.mis.stats.mis_count}\t{weight}"
                f"\t{r.domset_seconds:.6f}\t{r.mis_seconds:.6f}"
            )
        for v in self.violations:
            lines.append(f"# VIOLATION\t{v}")
        return "\n".join(lines) + "\n"


def run_bench(corpus: str | Path) -> BenchReport:
    """Run both solvers on every *.dim file under corpus, sorted by name."""
    corpus = Path(corpus)
    if not corpus.is_dir():
        raise ValueError(f"corpus {corpus} is not a directory")
    rows: list[BenchRow] = []
    violations: list[str] = []
    for path in sorted(corpus.glob("*.dim")):
        try:
            g = parse_graph(path.read_text())
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path.name}: {exc}") from exc
        try:
            t0 = time.perf_counter()
            dom = solve_instance(g, "domset")
            t1 = time.perf_counter()
            mis = solve_instance(g, "mis")
            t2 = time.perf_counter()
        except ContractViolation as exc:
            violations.append(f"{path.name}: {exc}")
            continue

        dw = dom.dim.weight if dom.dim is not None else None
        mw = mis.dim.weight if mis.dim is not None else None
        if dw != mw:
            violations.append(f"{path.name}: solvers disagree, domset={dw} mis={mw}")
        rows.append(BenchRow(path.name, g.n, g.m, dom, mis, t1 - t0, t2 - t1))
    return BenchReport(tuple(rows), tuple(violations))
