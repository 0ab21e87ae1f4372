"""Outside-in layer trace: wraps the library's public functions from here.

Nothing in `src/` knows about this module. `install()` replaces the module
globals the library's own callers look up at call time (for example
`dimsolver.solve.solve_domset`) and the `Coloring` methods, and
`uninstall()` puts the originals back.

Two kinds of record come out:

* spans, one per instance and pass, with child spans for parse,
  preprocess, select, the engine or `count_dims`, and validate; each span
  names its parent and is kept in memory until the run writes it out;
* aggregated counts and times for the hot inner calls, which would be too
  many to keep one by one: propagate, undo_to, classify_part, each `next`
  of enumerate_mis, induced_coloring and complete_min.

Aggregates are kept per pass ("solve" or "count") under the layer metric
names of `LAYER_METRICS`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import dimsolver
import dimsolver.coloring
import dimsolver.domset
import dimsolver.mis
import dimsolver.solve

# (name, unit, better) of every per-layer metric, reported once per pass.
LAYER_METRICS = (
    ("graph.parse_s", "s", "lower"),
    ("graph.preprocess_s", "s", "lower"),
    ("graph.validate_s", "s", "lower"),
    ("solve.select_s", "s", "lower"),
    ("solve.domset_picks", "count", "higher"),
    ("solve.mis_picks", "count", "lower"),
    ("domset.solve_s", "s", "lower"),
    ("domset.self_s", "s", "lower"),
    ("domset.roots", "count", "lower"),
    ("domset.stable_roots", "count", "lower"),
    ("domset.stable_root_ratio", "ratio", "higher"),
    ("domset.leaves", "count", "lower"),
    ("domset.max_singles", "count", "lower"),
    ("domset.classify_calls", "count", "lower"),
    ("domset.classify_s", "s", "lower"),
    ("coloring.propagate_calls", "count", "lower"),
    ("coloring.propagate_s", "s", "lower"),
    ("coloring.propagate_stable_ratio", "ratio", "higher"),
    ("coloring.undo_calls", "count", "lower"),
    ("coloring.undo_s", "s", "lower"),
    ("mis.solve_s", "s", "lower"),
    ("mis.enumerate_s", "s", "lower"),
    ("mis.mis_count", "count", "lower"),
    ("mis.induced_s", "s", "lower"),
    ("mis.complete_s", "s", "lower"),
    ("mis.completions", "count", "higher"),
    ("mis.completion_ratio", "ratio", "higher"),
    ("mis.count_s", "s", "lower"),
)

# numerator, denominator of each ratio
RATIOS = {
    "domset.stable_root_ratio": ("domset.stable_roots", "domset.roots"),
    "coloring.propagate_stable_ratio": ("coloring.propagate_stable", "coloring.propagate_calls"),
    "mis.completion_ratio": ("mis.completions", "mis.mis_count"),
}

# time spent in these calls inside solve_domset is not domset self time
_DOMSET_CHILDREN = ("coloring.propagate_s", "coloring.undo_s", "domset.classify_s")


class LayerTrace:
    def __init__(self):
        self.spans: list[dict] = []
        self.recording = True
        self.pass_name = ""
        self.instance = ""
        self.missing_hooks: list[str] = []
        self._totals: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def begin(self, pass_name: str, instance: str) -> None:
        """Start an instance; a cap that fired inside a span may have left it open."""
        self.pass_name, self.instance = pass_name, instance
        self._stack.clear()

    # -- aggregates -------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        totals = self._totals.setdefault(self.pass_name, {})
        totals[key] = totals.get(key, 0) + value

    def raise_to(self, key: str, value: float) -> None:
        totals = self._totals.setdefault(self.pass_name, {})
        totals[key] = max(totals.get(key, 0), value)

    def totals(self, pass_name: str) -> dict[str, float]:
        return dict(self._totals.get(pass_name, {}))

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, key: str | None = None):
        """One span; its duration is also added to the aggregate `key`."""
        rec = None
        if self.recording:
            rec = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "pass": self.pass_name,
                "instance": self.instance,
            }
            self.spans.append(rec)
            self._stack.append(rec["id"])
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            if rec is not None:
                rec["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            if rec is not None:
                rec["start"] = start - self._t0
                rec["end"] = end - self._t0
                self._stack.pop()
            if key is not None:
                self.add(key, end - start)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name, key):
        def wrapper(*args, **kwargs):
            with self.span(name, key):
                return fn(*args, **kwargs)

        return wrapper

    def _hot(self, fn, time_key, calls_key=None, success=None):
        """Aggregate time and calls; `success` is (key, predicate) counting
        the results that satisfy the predicate."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.add(time_key, clock() - t0)
                if calls_key is not None:
                    self.add(calls_key, 1)
            if success is not None and success[1](result):
                self.add(success[0], 1)
            return result

        return wrapper

    def _select(self, fn):
        def wrapper(g):
            with self.span("select", "solve.select_s"):
                algo, d = fn(g)
            self.add("solve.domset_picks" if algo == "domset" else "solve.mis_picks", 1)
            return algo, d

        return wrapper

    def _solve_domset(self, fn):
        def wrapper(*args, **kwargs):
            totals = self._totals.setdefault(self.pass_name, {})
            before = sum(totals.get(k, 0) for k in _DOMSET_CHILDREN)
            t0 = time.perf_counter()
            try:
                with self.span("solve_domset", "domset.solve_s"):
                    outcome = fn(*args, **kwargs)
            finally:
                inner = sum(totals.get(k, 0) for k in _DOMSET_CHILDREN) - before
                self.add("domset.self_s", time.perf_counter() - t0 - inner)
            stats = outcome.stats
            self.add("domset.roots", stats.roots_explored)
            self.add("domset.leaves", sum(stats.branch_leaves_per_root))
            self.raise_to("domset.max_singles", max(stats.residual_singles_per_root, default=0))
            return outcome

        return wrapper

    def _enumerate_mis(self, fn):
        clock = time.perf_counter

        def wrapper(g):
            it = fn(g)
            while True:
                t0 = clock()
                try:
                    mis = next(it)
                except StopIteration:
                    return
                finally:
                    self.add("mis.enumerate_s", clock() - t0)
                self.add("mis.mis_count", 1)
                yield mis

        return wrapper

    def observe_root(self, root, root_blacks, singles) -> None:
        """`observer=` callback of solve_instance: one call per stable root."""
        self.add("domset.stable_roots", 1)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        solve, domset, mis = dimsolver.solve, dimsolver.domset, dimsolver.mis
        coloring = dimsolver.coloring.Coloring
        self._patch(dimsolver, "parse_graph", lambda f: self._spanned(f, "parse", "graph.parse_s"))
        self._patch(solve, "preprocess", lambda f: self._spanned(f, "preprocess", "graph.preprocess_s"))
        self._patch(solve, "select_algorithm", self._select)
        self._patch(solve, "solve_domset", self._solve_domset)
        self._patch(solve, "solve_mis", lambda f: self._spanned(f, "solve_mis", "mis.solve_s"))
        self._patch(solve, "count_dims", lambda f: self._spanned(f, "count_dims", "mis.count_s"))
        for module in (solve, domset, mis):
            self._patch(module, "validate_dim", lambda f: self._spanned(f, "validate", "graph.validate_s"))
        self._patch(domset, "classify_part",
                    lambda f: self._hot(f, "domset.classify_s", "domset.classify_calls"))
        self._patch(coloring, "propagate", lambda f: self._hot(
            f, "coloring.propagate_s", "coloring.propagate_calls",
            ("coloring.propagate_stable", lambda result: result.stable)))
        self._patch(coloring, "undo_to", lambda f: self._hot(f, "coloring.undo_s", "coloring.undo_calls"))
        self._patch(mis, "enumerate_mis", self._enumerate_mis)
        self._patch(mis, "induced_coloring", lambda f: self._hot(f, "mis.induced_s"))
        self._patch(mis, "complete_min", lambda f: self._hot(
            f, "mis.complete_s", success=("mis.completions", lambda dim: dim is not None)))

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            # the layer no longer exists under this name; its metrics read 0
            self.missing_hooks.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(totals: dict[str, float], rounds: int) -> dict[str, float]:
    """Per-round values of every layer metric from one pass's aggregates."""
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        elif name == "domset.max_singles":
            out[name] = totals.get(name, 0)
        else:
            out[name] = totals.get(name, 0) / rounds
    return out
