"""Outside-in tracing: spans around calls into each module of the package.

The package is not edited.  ``Tracer.install`` wraps the public entry points
listed in ``TARGETS`` (plus ``FiniteSemigroup.special_gaps``) and rebinds
each wrapper under every ``psemigroups.*`` name that held the original, so
calls through ``from .x import f`` in ``cli`` and ``report`` are caught too.
``PSemigroup.contains`` is deliberately left alone: it runs once per integer
and would measure the tracer.

Spans stay in memory as ``(name, start, end, parent, job)`` with the span's
index as its id; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

TARGETS = {
    "core": ("validate_generators",),
    "enumeration": (
        "build_psemigroup",
        "denumerant_table",
        "denumerant_oracle",
        "gaps",
        "minimal_generators",
    ),
    "apery": ("apery_set", "power_sum"),
    "symmetry": (
        "classify",
        "is_p_symmetric",
        "is_p_pseudo_symmetric",
        "valuation_lengths",
        "pseudo_frobenius",
        "pf_via_gap_maximals",
        "pf_via_apery_maximals",
    ),
    "closed_forms": ("two_var_invariants", "two_var_membership", "arith_invariants"),
    "hilbert": ("hilbert_direct", "gaps_series", "hilbert_from_apery", "arith_hilbert_closed"),
    "decompose": ("irreducible_decomposition", "intersect"),
    "report": ("build_invariant_report",),
    "cli": ("main",),
}
METHODS = {"decompose.special_gaps": ("decompose", "FiniteSemigroup", "special_gaps")}


def _count_result(counters: Counter, name: str, result) -> None:
    """Size counters taken at the layer boundary from the returned value."""
    if name == "enumeration.build_psemigroup":
        counters["enumeration.frontier_entries"] += result.frontier
    elif name.startswith("hilbert."):
        counters["hilbert.coefficients"] += len(result.coefficients)
    elif name == "decompose.irreducible_decomposition":
        counters["decompose.components"] += len(result)


class Tracer:
    """Spans and size counters of one traced run, and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._restore: list = []

    def next_job(self) -> None:
        self.job += 1

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            job = self.job
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, job)
            _count_result(counters, name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "psemigroups"]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"psemigroups.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        for name, (module_name, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[f"psemigroups.{module_name}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original))
            self._restore.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "job", "parent", "name", "start", "end"]) + "\n")
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(json.dumps([sid, job, parent, name, start, end]) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(sid, []), start, end)
        for sid, (name, start, end, parent, job) in enumerate(spans)
    ]


# Per-layer metrics, in the order BENCHMARK.json lists them.
SELF_TIMES = (
    "enumeration.build_psemigroup",
    "enumeration.minimal_generators",
    "enumeration.gaps",
    "enumeration.denumerant_table",
    "enumeration.denumerant_oracle",
    "apery.apery_set",
    "apery.power_sum",
    "symmetry.is_p_symmetric",
    "symmetry.is_p_pseudo_symmetric",
    "symmetry.valuation_lengths",
    "symmetry.classify",
    "symmetry.pf_via_gap_maximals",
    "symmetry.pseudo_frobenius",
    "symmetry.pf_via_apery_maximals",
    "decompose.irreducible_decomposition",
    "decompose.special_gaps",
    "decompose.intersect",
    "core.validate_generators",
    "report.build_invariant_report",
    "cli.main",
)
CALLS = (
    "enumeration.build_psemigroup",
    "apery.apery_set",
    "decompose.special_gaps",
    "decompose.intersect",
    "core.validate_generators",
)
MODULE_SELF_TIMES = ("hilbert", "closed_forms")
MODULE_CALLS = ("closed_forms",)
COUNTERS = ("enumeration.frontier_entries", "hilbert.coefficients", "decompose.components")


def layer_metrics(tracer: Tracer, jobs: int, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as ``{name: (value, unit)}``.

    Self times and counts are totals over the traced run; ``trace.jobs``
    gives the base for per-job figures.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), seconds in zip(tracer.spans, self_times(tracer.spans)):
        module = name.split(".")[0]
        self_s[name] += seconds
        self_s[module] += seconds
        calls[name] += 1
        calls[module] += 1
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
        if name in CALLS:
            out[f"{name}.calls"] = (calls[name], "count")
    for module in MODULE_SELF_TIMES:
        out[f"{module}.self_s"] = (self_s[module], "s")
    for module in MODULE_CALLS:
        out[f"{module}.calls"] = (calls[module], "count")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "count")
    out["apery.apery_set.calls_per_job"] = (calls["apery.apery_set"] / jobs, "ratio")
    special = calls["decompose.special_gaps"]
    components = tracer.counters["decompose.components"]
    out["decompose.components_per_special_gaps_call"] = (
        components / special if special else 0.0,
        "ratio",
    )
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["trace.jobs"] = (jobs, "count")
    return out
