"""dimsolver benchmark: solve and count wall time on seeded workloads.

    python3 perfbench/run.py --workload planted_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and builds nothing. For each workload it

1. times a cold `python -m dimsolver solve` on a 4-vertex path several
   times (setup_s, the start-up cost every CLI call pays);
2. starts a fresh worker process (worker.py) that generates the workload's
   instances from the seed, runs timed solve and count passes over them
   until the time is used up, and checks every answer;
3. prints every metric with its unit, writes the whole record, including
   spans when traced, to perfbench/results/, and ends with one JSON line:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.

Exit codes: 0 done and every answer correct, 1 a wrong answer, 2 bad
arguments or no source tree to measure, 3 the worker failed or overran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Same as workloads.WORKLOADS; not imported from there because that module
# imports dimsolver, and this parent must run (and fail cleanly) without it.
WORKLOADS = ("planted_dense", "sparse_chains", "small_stream")

SETUP_RUNS = 9
SETUP_INPUT = "p dim 4 3\ne 1 2 1\ne 2 3 1\ne 3 4 1\n"
SETUP_OUTPUT = "DIM 1\ne 2 3\n"
# A run must end within 180 s; the worker is killed before that.
DEADLINE_S = 170.0

END_TO_END = ("setup_s", "solve_wall_s", "count_wall_s", "solve_p50_s", "solve_p95_s", "peak_rss_mb")


class Failure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def measure_setup() -> list[float]:
    """Wall times of cold CLI solves of P4, each checked for the right answer."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dimsolver", "solve"],
            input=SETUP_INPUT, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            raise Failure(f"setup solve of P4 answered {proc.stdout!r} (exit {proc.returncode})", 1)
    return times


def run_worker(workload: str, seed: int, seconds: int, trace: int, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        raise Failure(f"{workload}: worker overran {budget:.0f} s and was killed", 3) from None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise Failure(f"{workload}: worker exited {proc.returncode} without a record", 3) from None
    if not record.get("correct"):
        raise Failure(f"{workload}: wrong answer: {record.get('error')}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise Failure(f"{workload}: worker exited {proc.returncode}", 3)
    return record


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": _loadavg(),
    }
    setup = measure_setup()
    budget = DEADLINE_S - (time.monotonic() - started)
    record = run_worker(workload, seed, seconds, trace, budget)
    environment["loadavg_end"] = _loadavg()
    record["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record["info"].update(setup_samples=setup, environment=environment)
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace)

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    info = record["info"]
    w = record["workload"]
    env = info["environment"]
    print(f"# {w} seed={record['seed']} python={env['python']} nproc={env['nproc']} "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    raw = info["raw_metrics"]
    for name, m in sorted(record["metrics"].items()):
        extra = f"  (raw {raw[name]:.6g} s)" if name in raw else ""
        print(f"{w} {name} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{w} failed_frac {info['failed_frac']:.6g} ratio "
          f"({record['failed']} failed of {record['attempted']} operations)")
    print(f"# {w} reference loop median {info['reference_median_s'] * 1e3:.3f} ms over "
          f"{info['reference_samples']} samples: worker timings x{info['speed_factor']:.4f}; "
          "setup_s is raw")
    print(f"# {w} rounds={info['rounds']} latency_samples={info['latency_samples']} "
          f"beyond_p95={info['samples_beyond_p95']} counters={info['counters_digest']} "
          f"{info['counters']['totals']}")
    for op, status in sorted(info["failures"].items()):
        print(f"# {w} failed {op}: {status}")


def result_line(records: list[dict], trace: int) -> dict:
    def wanted(name):
        return (name in END_TO_END) if not trace else (name not in END_TO_END)

    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for name, m in rec["metrics"].items():
            if wanted(name):
                metrics[prefix + name] = m
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dimsolver solve/count benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    if not (SRC / "dimsolver" / "__init__.py").is_file():
        print(f"error: no dimsolver source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            report(record)
            records.append(record)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code == 1:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return exc.code
    print(json.dumps(result_line(records, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
