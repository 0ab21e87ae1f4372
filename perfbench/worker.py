"""Runs one workload in a fresh process and prints its record as JSON.

Started by run.py, which owns the command line contract. The worker builds
the workload's instances, then repeats rounds until `--seconds` is used up.
A round is a solve pass and then a count pass over every instance, each
operation done the way the CLI does it: parse_graph, then
solve_instance(g, algo="auto") or count_instance(g), then the output line.

Each operation runs under an in-process cap (SIGALRM raises in the main
thread, which interrupts the pure-Python solver). A capped operation, or one
that raises, is a failed operation and counts at the cap in the pass wall
time. Answers are checked between operations, outside the timed region, and
a wrong answer ends the run with exit code 1.

With --trace 1, untraced and traced rounds alternate: the traced rounds
give the layer metrics, the untraced ones the baseline for the tracing
overhead.

Timings are rescaled to the machine-speed reference of reference.py, which
is sampled between operations; the raw values are kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dimsolver  # noqa: E402
from dimsolver import ContractViolation, format_weight  # noqa: E402
from dimsolver.graph import validate_dim  # noqa: E402

from reference import REF_S, reference  # noqa: E402
from tracing import LAYER_METRICS, LayerTrace, layer_metrics  # noqa: E402
from workloads import CAP_S, WORKLOADS, build  # noqa: E402

PASSES = ("solve", "count")
# A machine-speed sample is taken before an operation once this long has
# passed since the last one; it costs about 2% of the run.
REF_EVERY_S = 0.5


class Capped(Exception):
    """The per-operation cap ran out."""


class WrongAnswer(Exception):
    """An output failed its check, or did not repeat between rounds."""


def _on_alarm(signum, frame):
    raise Capped()


# -- the measured operations ---------------------------------------------------


def solve_op(text: str, observer):
    g = dimsolver.parse_graph(text)
    extra = {"observer": observer} if observer is not None else {}
    res = dimsolver.solve_instance(g, algo="auto", **extra)
    if res.dim is None:
        return g, res, "NODIM\n"
    lines = [f"DIM {format_weight(res.dim.weight)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v, _ in sorted(g.edges[e] for e in res.dim.edge_ids)]
    return g, res, "\n".join(lines) + "\n"


def count_op(text: str, observer):
    g = dimsolver.parse_graph(text)
    res = dimsolver.count_instance(g)
    if res.total == 0:
        return g, res, "COUNT 0\n"
    return g, res, (
        f"COUNT {res.total} MINWEIGHT {format_weight(res.min_weight)} MINCOUNT {res.min_count}\n"
    )


def timed(call, cap: float):
    """(status, seconds, output) of one call capped at `cap` seconds; a
    capped call has no seconds."""
    out = None
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            out = call()
            status = "ok"
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Capped:
        status, seconds = "capped", None
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        status = f"error:{type(exc).__name__}: {exc}"
    return status, seconds, out


# -- answer checks (never timed) -------------------------------------------------


def check_solve(inst, g, res) -> float | None:
    """Minimum weight the solve pass reported, after checking the DIM."""
    weight = None
    if res.dim is not None:
        ids = res.dim.edge_ids
        try:
            valid = validate_dim(g, ids)
        except (ValueError, ContractViolation) as exc:
            raise WrongAnswer(f"{inst.name}: validating the solve answer raised {exc!r}")
        if not valid:
            raise WrongAnswer(f"{inst.name}: solve returned an edge set that is not a DIM")
        weight = sum(g.edges[e][2] for e in ids)
        if weight != res.dim.weight:
            raise WrongAnswer(f"{inst.name}: reported weight {res.dim.weight}, edges sum to {weight}")
    ref = inst.reference
    if ref is not None and (weight is None) != (ref.total == 0):
        raise WrongAnswer(f"{inst.name}: solve existence disagrees with the reference")
    if ref is not None and weight is not None and weight != ref.min_weight:
        raise WrongAnswer(f"{inst.name}: solve weight {weight}, reference {ref.min_weight}")
    if inst.planted_weight is not None and (weight is None or weight > inst.planted_weight):
        raise WrongAnswer(f"{inst.name}: solve weight {weight} above the planted {inst.planted_weight}")
    return weight


def check_count(inst, res) -> None:
    if (res.total == 0) != (res.min_weight is None):
        raise WrongAnswer(f"{inst.name}: count {res.total} with minimum weight {res.min_weight}")
    ref = inst.reference
    if ref is not None and (res.total, res.min_weight, res.min_count) != (
        ref.total, ref.min_weight, ref.min_count
    ):
        raise WrongAnswer(f"{inst.name}: count {res}, reference {ref}")


def check_agree(inst, solve_weight, count_res) -> None:
    if (solve_weight is None) != (count_res.total == 0) or (
        solve_weight is not None and solve_weight != count_res.min_weight
    ):
        raise WrongAnswer(
            f"{inst.name}: solve says {solve_weight}, count says {count_res.min_weight}"
            f" over {count_res.total} DIMs"
        )


def work_counters(stats) -> dict[str, int]:
    """Machine-independent counters from the solve pass's returned stats."""
    counters = {}
    for key in ("roots_explored", "mis_count", "completions"):
        if hasattr(stats, key):
            counters[key] = getattr(stats, key)
    if hasattr(stats, "branch_leaves_per_root"):
        counters["leaves"] = sum(stats.branch_leaves_per_root)
    if hasattr(stats, "residual_singles_per_root"):
        counters["max_singles"] = max(stats.residual_singles_per_root, default=0)
    return counters


# -- rounds ---------------------------------------------------------------------


class Run:
    def __init__(self, instances, cap: float, tracer: LayerTrace | None):
        self.instances = instances
        self.cap = cap
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.first = {}  # (pass, index) -> output line and counters of round 0
        self.failures: dict[str, str] = {}  # "pass:instance" -> status
        self.ref_samples: list[float] = []
        self._next_ref = 0.0

    def round(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        observer = tracer.observe_root if tracer is not None else None
        started = time.perf_counter()
        rec = {"traced": traced, "wall": {}, "seconds": {}, "failed_ops": set(), "attempted": 0}
        solve_weights = {}
        for pass_name in PASSES:
            op = solve_op if pass_name == "solve" else count_op
            seconds_of = rec["seconds"][pass_name] = []
            for i, inst in enumerate(self.instances):
                call = _bind(op, inst.text, observer)
                if tracer is not None:
                    tracer.begin(pass_name, inst.name)
                    call = _spanned(tracer, "instance", call)
                if time.perf_counter() >= self._next_ref:
                    self.ref_samples.append(reference())
                    self._next_ref = time.perf_counter() + REF_EVERY_S
                status, seconds, out = timed(call, self.cap)
                seconds_of.append(seconds)
                rec["attempted"] += 1
                if status != "ok":
                    rec["failed_ops"].add((pass_name, i))
                    self.failures[f"{pass_name}:{inst.name}"] = status
                    continue
                g, res, line = out
                if pass_name == "solve":
                    solve_weights[i] = check_solve(inst, g, res)
                    self._repeat(("solve", i), (line, work_counters(res.stats)), inst)
                else:
                    check_count(inst, res)
                    if i in solve_weights:
                        check_agree(inst, solve_weights[i], res)
                    self._repeat(("count", i), (line, None), inst)
            rec["wall"][pass_name] = sum(self.cap if x is None else x for x in seconds_of)
        rec["duration"] = time.perf_counter() - started
        self.rounds.append(rec)

    def _repeat(self, key, value, inst) -> None:
        first = self.first.setdefault(key, value)
        if first != value:
            raise WrongAnswer(f"{inst.name}: {key[0]} output or work counters differ between rounds")


def _bind(op, text, observer):
    return lambda: op(text, observer)


def _spanned(tracer, name, call):
    def run():
        with tracer.span(name):
            return call()

    return run


def measure(instances, cap: float, seconds: float, trace: bool) -> Run:
    run = Run(instances, cap, LayerTrace() if trace else None)
    need = 2 if trace else 1
    start = time.perf_counter()
    while True:
        traced = trace and len(run.rounds) % 2 == 1
        if traced:
            run.tracer.install()
        try:
            run.round(traced)
        finally:
            if traced:
                run.tracer.uninstall()
                run.tracer.recording = False  # spans from the first traced round only
        elapsed = time.perf_counter() - start
        longest = max(r["duration"] for r in run.rounds)
        if len(run.rounds) >= need and elapsed + longest > seconds:
            return run


# -- metrics -------------------------------------------------------------------


def instance_medians(run: Run, traced: bool, pass_name: str, speed: float) -> list[float]:
    """Each instance's median time over the rounds, multiplied by `speed`; a
    capped operation counts at the cap, which is a wall-clock limit and is
    not rescaled.

    The machine's speed changes by tens of percent within seconds; a median
    per operation drops the slow stretches, where a total per round would
    average them in.
    """
    samples = [r["seconds"][pass_name] for r in run.rounds if r["traced"] == traced]
    return [
        statistics.median(run.cap if x is None else x * speed for x in xs) for xs in zip(*samples)
    ]


def end_to_end(run: Run, speed: float) -> tuple[dict, dict]:
    failed = set().union(*(r["failed_ops"] for r in run.rounds if not r["traced"]))
    solve = instance_medians(run, False, "solve", speed)
    lat = sorted(x for i, x in enumerate(solve) if ("solve", i) not in failed)
    if len(lat) < 2:
        raise RuntimeError("fewer than two instances solved; no latency percentiles")
    # inclusive: with a dozen samples the exclusive method extrapolates
    # beyond the largest one
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
    metrics = {
        "solve_wall_s": (sum(solve), "s"),
        "count_wall_s": (sum(instance_medians(run, False, "count", speed)), "s"),
        "solve_p50_s": (statistics.median(lat), "s"),
        "solve_p95_s": (p95, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"latency_samples": len(lat), "samples_beyond_p95": sum(1 for x in lat if x > p95)}
    return metrics, info


def per_layer(run: Run, speed: float) -> dict:
    traced_rounds = sum(1 for r in run.rounds if r["traced"])
    metrics = {}
    for pass_name in PASSES:
        values = layer_metrics(run.tracer.totals(pass_name), traced_rounds)
        for name, unit, _ in LAYER_METRICS:
            value = values[name] * speed if unit == "s" else values[name]
            metrics[f"{pass_name}_pass.{name}"] = (value, unit)
        overhead = sum(instance_medians(run, True, pass_name, speed)) - sum(
            instance_medians(run, False, pass_name, speed)
        )
        metrics[f"{pass_name}_pass.trace.overhead_s"] = (overhead, "s")
    return metrics


def counters_summary(run: Run) -> tuple[dict, str]:
    totals: dict[str, int] = {}
    per_instance = {}
    for (pass_name, i), (_, counters) in sorted(run.first.items()):
        if pass_name != "solve":
            continue
        per_instance[run.instances[i].name] = counters
        for key, value in counters.items():
            if key == "max_singles":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    digest = hashlib.sha256(json.dumps(per_instance, sort_keys=True).encode()).hexdigest()[:16]
    return {"totals": totals, "per_instance": per_instance}, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    instances = build(args.workload, args.seed)
    generate_s = time.perf_counter() - t0

    try:
        run = measure(instances, CAP_S[args.workload], args.seconds, bool(args.trace))
    except WrongAnswer as exc:
        print(json.dumps({"correct": False, "error": str(exc)}))
        return 1

    attempted = sum(r["attempted"] for r in run.rounds)
    failed = sum(len(r["failed_ops"]) for r in run.rounds)
    counters, digest = counters_summary(run)
    speed = REF_S / statistics.median(run.ref_samples)
    metrics, info = end_to_end(run, speed)
    raw, _ = end_to_end(run, 1.0)
    if args.trace:
        metrics.update(per_layer(run, speed))
        raw.update(per_layer(run, 1.0))
    info.update(
        instances=len(instances),
        frontier=[inst.name for inst in instances if inst.frontier],
        generate_s=generate_s,
        cap_s=CAP_S[args.workload],
        instance_medians={
            p: dict(zip((inst.name for inst in instances), instance_medians(run, False, p, 1.0)))
            for p in PASSES
        },
        rounds=len(run.rounds),
        round_walls=[{"traced": r["traced"], **r["wall"]} for r in run.rounds],
        failed_frac=failed / attempted,
        reference_samples=len(run.ref_samples),
        reference_median_s=statistics.median(run.ref_samples),
        speed_factor=speed,
        raw_metrics={k: v for k, (v, u) in raw.items() if u == "s"},
        failures=run.failures,
        counters_digest=digest,
        counters=counters,
    )
    record = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    if run.tracer is not None:
        record["info"]["missing_hooks"] = run.tracer.missing_hooks
        record["spans"] = run.tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
