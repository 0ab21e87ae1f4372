"""Machine-speed reference that the worker's timings are rescaled by.

The shared machine this benchmark was built on changes speed by 15-50% from
one minute to the next, for every process alike, with no steal time visible
to the guest, so whole runs come out uniformly slow or fast. The worker
times this fixed pure-Python computation between operations (outside the
timed region). Over ten seeds the run's median reference time correlated
0.72-0.96 with its raw solve and count timings, and rescaling cut the
spread across seeds of every timing: count_wall_s from 0.19 to 0.055 on
planted_dense, solve_p50_s from 0.37 to 0.11 on sparse_chains.

Timings are therefore reported as they would read on a machine on which
`reference()` takes REF_S seconds: value = raw * REF_S / median(samples).
Raw seconds stay in the printed report and the record. A thread the
program left running would slow the samples too and hide part of its
cost; the program starts no threads with threads=1.
"""

from __future__ import annotations

import time

REF_S = 0.012
_ITERATIONS = 50_000


def reference() -> float:
    """Seconds one fixed computation takes: dict, list and integer work, as
    in the solvers' inner loops."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    stack: list[int] = []
    acc = 0
    for i in range(_ITERATIONS):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) & 0xFF
        stack.append(acc)
        if len(stack) > 64:
            stack.pop()
    return time.perf_counter() - t0
