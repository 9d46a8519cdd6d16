"""Spans around calls into botsift's public functions, recorded from
the benchmark's side, and the per-layer metrics computed from them.

`Patcher` rebinds a function in every loaded botsift module that holds
it, so calls through `from .x import f` bindings are seen too, and puts
the originals back afterwards. A function the program no longer has is
skipped and its metrics read 0.

`Tracer` keeps spans in memory, one list per round. In a memory round
it also runs `tracemalloc` and gives the calls into flows, windows and
model training the peak of traced allocations above their start: what
the call allocates, numpy buffers included. RSS growth would not show
this in a warm process, where memory freed by earlier rounds stays
resident and is reused.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import FAMILIES

MIB = 1024.0 * 1024.0


class Patcher:
    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make_wrapper) -> bool:
        """Replace `module.attr` (a function, or `Class.method`) by
        `make_wrapper(original)` wherever botsift holds it."""
        mod = importlib.import_module(module)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, name, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        if owner_name:
            holders = [(owner, name)]
        else:
            holders = [(m, key) for mod_name, m in list(sys.modules.items())
                       if mod_name == "botsift"
                       or mod_name.startswith("botsift.")
                       for key, value in list(vars(m).items())
                       if value is original]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._undo.append((holder, key, original))
        return True

    def restore(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _observe_table(args, kwargs, result):
    stats = result.parse_stats
    return {"flows": stats.accepted + stats.rejected,
            "accepted": stats.accepted, "rejected": stats.rejected}


def _count_nodes(tree) -> int:
    if isinstance(tree, dict) and "l" in tree:
        return 1 + _count_nodes(tree["l"]) + _count_nodes(tree["r"])
    if isinstance(tree, dict) and "leaf" not in tree:
        # a flat tree: one array per node field (ROADMAP direction 3)
        return len(next(iter(tree.values())))
    return 1


def _observe_train(args, kwargs, result):
    attrs = {"family": result.family, "rows": args[1].n}
    if result.family == "rf":
        attrs["nodes"] = sum(_count_nodes(t)
                             for t in result.parameters["trees"])
    if result.family == "logreg":
        attrs["iterations"] = result.metadata["iterations"]
    return attrs


# (span name, module, attribute, observer, track allocations)
LAYERS = [
    ("flows.load_scenario", "botsift.flows", "load_scenario",
     _observe_table, True),
    ("flows.summarize", "botsift.flows", "summarize",
     lambda a, k, r: {"flows": len(a[0])}, False),
    ("windows.build_dataset", "botsift.windows", "build_dataset",
     lambda a, k, r: {"flows": len(a[0]), "rows_out": r.n}, True),
    ("windows.write_features", "botsift.windows", "write_features",
     None, False),
    ("windows.load_features", "botsift.windows", "load_features",
     None, False),
    ("evaluation.repeated_eval", "botsift.evaluation", "repeated_eval",
     lambda a, k, r: {"runs": len(r.test_runs)}, False),
    ("evaluation.split_dataset", "botsift.evaluation", "split_dataset",
     None, False),
    ("evaluation.bootstrap_resample", "botsift.evaluation",
     "bootstrap_resample", None, False),
    ("evaluation.cross_scenario_eval", "botsift.evaluation",
     "cross_scenario_eval", None, False),
    ("evaluation.prf1", "botsift.evaluation", "prf1", None, False),
    ("models.train_model", "botsift.models", "train_model",
     _observe_train, True),
    ("models.predict", "botsift.models", "predict",
     lambda a, k, r: {"family": a[0].family, "rows": len(a[1])}, False),
    ("selection.filter_select", "botsift.selection", "filter_select",
     None, False),
    ("selection.pca", "botsift.selection", "pca", None, False),
] + [(f"reports.{fn}", "botsift.reports", fn, None, False)
     for fn in ("eval_table", "cross_scenario_table", "filter_table",
                "pca_table", "Table.to_text")]

# Exceptions an observer raises when the program's data shapes change;
# the span is kept and the attribute is left out.
_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, IndexError,
                 StopIteration)


class Tracer:
    def __init__(self):
        self.rounds = []
        self.memory_spans = []
        self._spans = None
        self._stack = []

    def begin_round(self, memory: bool = False):
        """Spans from here on go to a new timed round, or, with `memory`,
        to the memory round that runs under tracemalloc."""
        self._spans = self.memory_spans if memory else []
        if not memory:
            self.rounds.append(self._spans)

    def install(self, patcher: Patcher):
        for name, module, attr, observe, memory in LAYERS:
            patcher.wrap(module, attr,
                         functools.partial(self._wrap, name, observe, memory))

    def _wrap(self, name, observe, memory, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            span = Span(name, 0.0,
                        parent=self._stack[-1] if self._stack else None)
            spans.append(span)
            self._stack.append(len(spans) - 1)
            tracked = memory and tracemalloc.is_tracing()
            if tracked:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if tracked:
                span.attrs["alloc_peak_mb"] = (
                    tracemalloc.get_traced_memory()[1] - base) / MIB
            if observe is not None:
                try:
                    span.attrs.update(observe(args, kwargs, result))
                except _SHAPE_ERRORS:
                    pass
            return result
        return traced

    def dump(self) -> dict:
        def rows(spans):
            return [{"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "attrs": s.attrs} for s in spans]
        return {"rounds": [rows(spans) for spans in self.rounds],
                "memory_round": rows(self.memory_spans)}


# (metric, unit, better); BENCHMARK.json lists the same, in this order.
PER_LAYER = [
    ("flows.load_scenario.us_per_flow", "us", "lower"),
    ("flows.load_scenario.rows_accepted", "count", "higher"),
    ("flows.load_scenario.rows_rejected", "count", "lower"),
    ("flows.load_scenario.alloc_peak_mb", "MiB", "lower"),
    ("flows.summarize.us_per_flow", "us", "lower"),
    ("windows.build_dataset.us_per_flow", "us", "lower"),
    ("windows.build_dataset.rows_out", "count", "higher"),
    ("windows.build_dataset.alloc_peak_mb", "MiB", "lower"),
    ("windows.write_features.s", "s", "lower"),
    ("windows.load_features.s", "s", "lower"),
    ("evaluation.split_dataset.s", "s", "lower"),
    ("evaluation.bootstrap_resample.s", "s", "lower"),
    ("evaluation.repeated_eval.s_per_run", "s", "lower"),
    ("evaluation.train_rows", "count", "lower"),
] + [(f"models.train_model.{f}.s", "s", "lower") for f in FAMILIES] + [
    (f"models.predict.{f}.rows_per_s", "1/s", "higher") for f in FAMILIES
] + [(f"models.artifact.{f}.bytes", "B", "lower") for f in FAMILIES] + [
    ("models.forest.nodes", "count", "lower"),
    ("models.forest.fit_alloc_peak_mb", "MiB", "lower"),
    ("models.logreg.iterations", "count", "lower"),
    ("selection.filter_select.s", "s", "lower"),
    ("selection.pca.s", "s", "lower"),
    ("reports.tables.s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_walls: list, plain_walls: list,
                  artifact_bytes: dict) -> dict:
    """Per-layer values from the traced rounds, and allocation peaks from
    the memory round. Seconds are the median per call unless named per
    run; reports and cli figures are per round; a layer the workload
    never calls reads 0."""
    def by_name(rounds):
        out = defaultdict(list)
        for spans in rounds:
            for s in spans:
                out[s.name].append(s)
        return out

    rounds = tracer.rounds
    timed = by_name(rounds)
    every = by_name(rounds + [tracer.memory_spans])

    def per_call(name, **match):
        return _median(s.seconds for s in timed[name]
                       if all(s.attrs.get(k) == v for k, v in match.items()))

    def attr(name, key, **match):
        return _median(s.attrs[key] for s in every[name] if key in s.attrs
                       and all(s.attrs.get(k) == v
                               for k, v in match.items()))

    def us_per_flow(name):
        flows = sum(s.attrs.get("flows", 0) for s in timed[name])
        seconds = sum(s.seconds for s in timed[name])
        return 1e6 * seconds / flows if flows else 0.0

    runs = sum(s.attrs.get("runs", 0)
               for s in timed["evaluation.repeated_eval"])
    out = {
        "flows.load_scenario.us_per_flow": us_per_flow("flows.load_scenario"),
        "flows.load_scenario.rows_accepted":
            attr("flows.load_scenario", "accepted"),
        "flows.load_scenario.rows_rejected":
            attr("flows.load_scenario", "rejected"),
        "flows.load_scenario.alloc_peak_mb":
            attr("flows.load_scenario", "alloc_peak_mb"),
        "flows.summarize.us_per_flow": us_per_flow("flows.summarize"),
        "windows.build_dataset.us_per_flow":
            us_per_flow("windows.build_dataset"),
        "windows.build_dataset.rows_out":
            attr("windows.build_dataset", "rows_out"),
        "windows.build_dataset.alloc_peak_mb":
            attr("windows.build_dataset", "alloc_peak_mb"),
        "windows.write_features.s": per_call("windows.write_features"),
        "windows.load_features.s": per_call("windows.load_features"),
        "evaluation.split_dataset.s": per_call("evaluation.split_dataset"),
        "evaluation.bootstrap_resample.s":
            per_call("evaluation.bootstrap_resample"),
        "evaluation.repeated_eval.s_per_run":
            (sum(s.seconds for s in timed["evaluation.repeated_eval"]) / runs
             if runs else 0.0),
        "evaluation.train_rows": attr("models.train_model", "rows"),
    }
    for f in FAMILIES:
        out[f"models.train_model.{f}.s"] = per_call("models.train_model",
                                                    family=f)
        scored = [s for s in timed["models.predict"]
                  if s.attrs.get("family") == f]
        seconds = sum(s.seconds for s in scored)
        out[f"models.predict.{f}.rows_per_s"] = (
            sum(s.attrs["rows"] for s in scored) / seconds if seconds else 0.0)
        out[f"models.artifact.{f}.bytes"] = artifact_bytes.get(f, 0)
    out["models.forest.nodes"] = attr("models.train_model", "nodes")
    out["models.forest.fit_alloc_peak_mb"] = attr(
        "models.train_model", "alloc_peak_mb", family="rf")
    out["models.logreg.iterations"] = attr("models.train_model",
                                           "iterations")
    out["selection.filter_select.s"] = per_call("selection.filter_select")
    out["selection.pca.s"] = per_call("selection.pca")
    out["reports.tables.s"] = _median(
        sum(s.seconds for s in spans if s.name.startswith("reports.")
            and (s.parent is None
                 or not spans[s.parent].name.startswith("reports.")))
        for spans in rounds)
    out["cli.overhead_s"] = _median(
        wall - sum(s.seconds for s in spans if s.parent is None)
        for spans, wall in zip(rounds, traced_walls))
    out["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    return out
