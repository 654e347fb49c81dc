"""Spans around the public functions of each layer, installed from outside.

A ``Tracer`` replaces each target function with a wrapper in every
``quasibps`` module namespace that holds it, since callers look names up in
their own module (``quasibps.magic.contains``, ``quasibps.cli.magic_dimension``).
Each call records a span: name, parent span, start, end and, for the targets
that return a verdict or a collection, an outcome number.  Spans stay in
memory until the pass ends.  A target that no longer exists is reported as
missing, and every metric derived from it reads ``None``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

PACKAGE = "quasibps"

# (module, function, outcome) with outcome turning the result into a number:
# the verdict of a membership or admissibility test, the count of a window
# count, the number of partitions enumerated.
TARGETS = (
    ("cli", "main", None),
    ("magic", "magic_dimension", int),
    ("zonotope", "contains", int),
    ("zonotope", "contains_fast", int),
    ("zonotope", "weight_zonotope", None),
    ("zonotope", "bounding_box", None),
    ("quiver", "weight_multisets", None),
    ("bps", "score_sequence_count", None),
    ("bps", "bps_assembly_dim", None),
    ("partitions", "partition_indicator", int),
    ("partitions", "enumerate_vector_partitions", len),
    ("partitions", "admissible_partitions", None),
    ("partitions", "find_central_weight", None),
    ("weights", "window_width", None),
    ("weights", "pairing", None),
)


def _layer_metric_units() -> dict[str, str]:
    """Per-layer metrics, name -> unit.  Ratios and us_per_call read 0 when
    the function was not called in the pass."""
    units = {}
    for mod_name, fn_name, _ in TARGETS:
        units[f"{mod_name}.{fn_name}.calls"] = "count"
        units[f"{mod_name}.{fn_name}.self_s"] = "s"
    units.update({
        "zonotope.contains.us_per_call": "us",
        "zonotope.contains.true_ratio": "ratio",
        "zonotope.contains_fast.us_per_call": "us",
        "zonotope.contains_fast.reject_ratio": "ratio",
        "magic.points_per_test": "ratio",
        "partitions.partition_indicator.admit_ratio": "ratio",
        "partitions.enumerate_vector_partitions.items": "count",
        "trace.overhead_s": "s",
    })
    return units


LAYER_METRICS = _layer_metric_units()


class Tracer:
    """Installs span-recording wrappers; ``restore`` puts every original back."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.missing: set[str] = set()
        self._replaced: dict[int, tuple] = {}  # id(wrapper) -> (wrapper, original)
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("q")
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        for mod_name, fn_name, outcome in self.targets:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.missing.add(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(len(self.names), original, outcome)
            self.names.append(name)
            self._replaced[id(wrapper)] = (wrapper, original)
            for m in self._modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        return self

    def restore(self) -> None:
        """Undo every replacement, including bindings made after ``install``."""
        for m in self._modules():
            for attr, value in list(vars(m).items()):
                entry = self._replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(m, attr, entry[1])

    def _wrap(self, name_id, fn, outcome):
        stack, clock = self._stack, time.perf_counter
        ids, parents, starts, ends, outs = (self.name_id, self.parent, self.start,
                                            self.end, self.outcome)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            outs.append(0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if outcome is not None:
                outs[span] = outcome(result)
            return result

        return wrapper

    def totals(self) -> dict[str, dict]:
        """Per target: calls, self seconds and the summed outcome."""
        child = [0.0] * len(self.start)
        for span, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[span] - self.start[span]
        out = {name: {"calls": 0, "self_s": 0.0, "outcome": 0} for name in self.names}
        for span, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += self.end[span] - self.start[span] - child[span]
            row["outcome"] += self.outcome[span]
        return out

    def layer_metrics(self) -> dict[str, float | int | None]:
        """The per-layer metrics of ``LAYER_METRICS`` except the overhead."""
        tot = self.totals()
        metrics: dict[str, float | int | None] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        for mod_name, fn_name, _ in self.targets:
            name = f"{mod_name}.{fn_name}"
            row = tot.get(name)
            metrics[f"{name}.calls"] = None if row is None else row["calls"]
            metrics[f"{name}.self_s"] = None if row is None else row["self_s"]
        for name in ("zonotope.contains", "zonotope.contains_fast"):
            row = tot.get(name)
            metrics[f"{name}.us_per_call"] = (
                None if row is None else 1e6 * ratio(row["self_s"], row["calls"]))
        row = tot.get("zonotope.contains")
        metrics["zonotope.contains.true_ratio"] = (
            None if row is None else ratio(row["outcome"], row["calls"]))
        row = tot.get("zonotope.contains_fast")
        metrics["zonotope.contains_fast.reject_ratio"] = (
            None if row is None else ratio(row["calls"] - row["outcome"], row["calls"]))
        tests = [tot[n]["calls"] for n in ("zonotope.contains", "zonotope.contains_fast")
                 if n in tot]
        row = tot.get("magic.magic_dimension")
        metrics["magic.points_per_test"] = (
            None if row is None or not tests else ratio(row["outcome"], sum(tests)))
        row = tot.get("partitions.partition_indicator")
        metrics["partitions.partition_indicator.admit_ratio"] = (
            None if row is None else ratio(row["outcome"], row["calls"]))
        row = tot.get("partitions.enumerate_vector_partitions")
        metrics["partitions.enumerate_vector_partitions.items"] = (
            None if row is None else row["outcome"])
        return metrics

    def write_spans(self, path) -> None:
        """Tab-separated spans, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\toutcome\n")
            for span, nid in enumerate(self.name_id):
                fh.write(f"{span}\t{self.parent[span]}\t{self.names[nid]}\t"
                         f"{self.start[span] - self.origin:.7f}\t"
                         f"{self.end[span] - self.origin:.7f}\t{self.outcome[span]}\n")


def median_metrics(rows: list[dict]) -> dict:
    """Median of each metric over passes; a metric missing in any pass is None."""
    out = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
