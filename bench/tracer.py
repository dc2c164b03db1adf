"""In-memory spans around the program's public functions.

The traced run replaces each traced function in every `avalanche`
module namespace that holds it (a `from .model import kernel_row`
copy included) with a wrapper that records calls, inclusive time and
self time.  Self time is a span's duration minus the time of the
traced spans it caused.  `uninstall` puts the originals back, so one
process can alternate untraced and traced rounds.
"""

from collections import defaultdict
import inspect
import sys
import time


def _row_counts(counters, system, i, digits=None):
    """Count cache misses and above-configuration precision requests."""
    configured = system.precision.decimal_digits
    d = digits or configured
    if d > configured:
        counters["exact.precision_retries"] += 1
    if (i, d) not in system._rows:
        counters["exact.row.builds"] += 1


def _truncated_count(counters, rows):
    counters["harness.truncated"] += int(rows[:, 3].sum())


def targets():
    """(span name, owner, attribute, pre-hook, post-hook) for each traced callable.

    The functions named by the per-layer metrics, plus every public
    function of `bounds` and `branching`, whose self time is reported
    per module.
    """
    from avalanche import (bounds, branching, coupling, exact, harness,
                           model, rng)
    out = [("rng.replicate_rng", rng, "replicate_rng", None, None),
           ("exact.row", exact.SubstochasticSystem, "row", _row_counts, None),
           ("bounds.BoundReport.judge", bounds.BoundReport, "judge",
            None, None),
           ("harness.run_trajectories", harness, "run_trajectories",
            None, _truncated_count)]
    named = {
        model: ("simulate_count", "step_count", "kernel_row"),
        harness: ("first_passage_fraction", "simulate_scaled_chain",
                  "verify_campaign", "kernel_power_mean",
                  "reach_probability_float"),
        coupling: ("coupled_step_monotone", "simulate_coupled",
                   "step_coupled_maximal"),
        exact: ("expected_duration", "expected_size", "reach_probability",
                "duration_survival", "build_q_float",
                "expected_duration_float", "expected_size_float"),
    }
    for mod in (bounds, branching):
        named[mod] = tuple(
            name for name, fn in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)
    for mod, names in named.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        out.extend((f"{layer}.{name}", mod, name, None, None)
                   for name in names)
    return out


class Tracer:
    """Call counts, inclusive and self nanoseconds per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []
        self._names = set()

    def _wrap(self, name, fn, pre, post):
        stack, calls = self._stack, self.calls
        total_ns, self_ns, counters = self.total_ns, self.self_ns, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if pre is not None:
                pre(counters, *args, **kwargs)
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total_ns[name] += dt
                self_ns[name] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        namespaces = [m for k, m in sys.modules.items()
                      if k == "avalanche" or k.startswith("avalanche.")]
        for name, owner, attr, pre, post in targets():
            self._names.add(name)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, pre, post)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                if vars(ns).get(attr) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def value(self, metric: str) -> float:
        """Total of a per-layer metric over everything traced so far.

        `<span>.calls`, `<span>.s` (inclusive seconds) and
        `<span>.self_s`; `bounds.self_s` and `branching.self_s` sum over
        the module; `bounds.reports` counts verdicts; other names are
        counters.
        """
        if metric == "bounds.reports":
            return self.calls["bounds.BoundReport.judge"]
        if metric in ("bounds.self_s", "branching.self_s"):
            prefix = metric.split(".")[0] + "."
            return sum(v for k, v in self.self_ns.items()
                       if k.startswith(prefix)) / 1e9
        if metric in ("harness.truncated", "exact.row.builds",
                      "exact.precision_retries"):
            return self.counters[metric]
        span, _, field = metric.rpartition(".")
        if span not in self._names:
            raise KeyError(f"no traced span for metric {metric!r}")
        if field == "calls":
            return self.calls[span]
        if field == "s":
            return self.total_ns[span] / 1e9
        if field == "self_s":
            return self.self_ns[span] / 1e9
        raise KeyError(f"no per-layer rule for metric {metric!r}")
