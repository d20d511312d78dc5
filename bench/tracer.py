"""In-memory call tracer that wraps the package's public functions from outside.

Two kinds of wrapper:

* span: records (name, start, end, parent) so self time can be computed
  afterwards; used for calls made a few times per job;
* light: only a call count and cumulative time, for per-atom and per-cell
  methods whose call counts run into the hundreds of thousands.

A light call's time is charged to the enclosing span as covered time, so the
enclosing span's self time excludes it.  Wrapping replaces the module
attribute, every ``from ... import`` alias of it in the package's modules, and
class methods in place; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME = 0
START = 1
END = 2
PARENT = 3
LIGHT = 4


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of ``[name, start, end, parent_index, light_time]``;
    child intervals are clipped to the parent and their union is subtracted,
    then the light time charged directly to the span.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            lo = max(spans[j][START], cursor)
            hi = min(spans[j][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, end - start - covered - span[LIGHT]))
    return out


class Counters:
    """Named counters for the benchmark's own check outcomes, traced or not."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)


class Tracer(Counters):
    """Owns the wrappers, the span list and the light counters of one run."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.light: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, namer=None, on_call=None, on_return=None):
        """``on_call(counters, args, kwargs)`` may return replacement (args, kwargs);
        ``on_return(counters, result)`` sees the result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if on_call:
                args, kwargs = on_call(self.counters, args, kwargs) or (args, kwargs)
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else None, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_return:
                on_return(self.counters, result)
            return result

        return wrapper

    def _light_wrapper(self, name, fn):
        cell, spans, stack, clock = self.light[name], self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    spans[stack[-1]][LIGHT] += dt

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, name=None, light=False, namer=None, on_call=None,
                      on_return=None):
        """Wrap ``module.attr`` and every alias of it in the package's modules."""
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        new = (
            self._light_wrapper(label, original)
            if light
            else self._span_wrapper(label, original, namer, on_call, on_return)
        )
        package = module.__name__.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)

    def wrap_method(self, cls, attr, name, light=False):
        original = cls.__dict__[attr]
        new = self._light_wrapper(name, original) if light else self._span_wrapper(name, original)
        self._replace(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, ms, self_ms} for spans; {calls, ms} for light calls."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (span[END] - span[START]) * 1e3
            row["self_ms"] += own * 1e3
        for name, (calls, total) in self.light.items():
            out[name] = {"calls": calls, "ms": total * 1e3}
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics read, package-wide."""
    from beliefbound import (
        bounds, cli, fileio, lp, oracle, predictability, relaxations, report, scm, tables,
    )

    def lp_shape(counters, args, kwargs):
        a_eq = args[1] if len(args) > 1 else kwargs["a_eq"]
        rows, cols = a_eq.shape
        counters["lp.solve_lp.rows"] += rows
        counters["lp.solve_lp.cols"] += cols

    def polytope_shape(counters, polytope):
        counters["oracle.atoms"] += polytope.space.dimension
        counters["oracle.rows"] += polytope.a_eq.shape[0]

    def count_provider(counters, args, kwargs):
        """Wrap a verdict's bound provider so each call it makes is counted."""
        provider = args[0] if args else kwargs.pop("bound_fn")

        def counted(*a, **kw):
            counters["predictability.provider_calls"] += 1
            return provider(*a, **kw)

        return (counted, *args[1:]), kwargs

    def ball_method(args, kwargs):
        method = args[6] if len(args) > 6 else kwargs.get("method", "exact-lp")
        return f"relaxations.approx_grounding_lower[{method}]"

    tracer.wrap_method(tables.DistTable, "prob", "tables.prob", light=True)
    tracer.wrap_method(tables.DistTable, "__init__", "tables.DistTable", light=True)
    tracer.wrap_method(oracle.CanonicalAtomSpace, "evaluate", "oracle.evaluate", light=True)
    tracer.wrap_method(report.Report, "render", "report.render")
    tracer.wrap_function(scm, "evaluate", light=True)
    for module, names in (
        (tables, ("query", "expectation")),
        (bounds, ("digest", "thm1_gap_interval", "thm2_multidomain_lower",
                  "thm3_unknown_shift_interval", "thm4_covariate_shift_lower",
                  "fairness_gap_interval", "harm_gap_interval",
                  "direct_discrimination_interval", "causal_harm_interval")),
        (scm, ("joint_distribution", "counterfactual_probability", "scm_dataset")),
        (oracle, ("optimize_gap", "feasible_scm")),
        (fileio, ("load_dataset", "load_table")),
        (cli, ("main",)),
    ):
        for attr in names:
            tracer.wrap_function(module, attr)
    tracer.wrap_function(oracle, "build_polytope", on_return=polytope_shape)
    for attr in ("weak_verdict", "strong_verdict"):
        tracer.wrap_function(predictability, attr, on_call=count_provider)
    tracer.wrap_function(relaxations, "approx_grounding_lower", namer=ball_method)
    tracer.wrap_function(lp, "solve_lp", on_call=lp_shape)
