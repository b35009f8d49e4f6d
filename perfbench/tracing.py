"""Spans around the calls into each hubfleet layer, for the traced run.

``Tracer.install`` replaces each public layer function with a timing
wrapper on every ``hubfleet`` module that holds it under that name, which
is the attribute its callers look up, and wraps the public methods of
``AggregatedConvolution`` on the class.  ``restore`` puts every original
back.

A span is (name, start, end, parent span, op id); spans stay in memory
until ``write``.  A call made while a span of the same name is innermost
(``throughput`` -> ``extend_to`` on one table) is not a new span: it counts
once, under the outermost one.  A layer's time is the self time of its
spans: duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._last_range_error: BaseException | None = None

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        from hubfleet.convolution import NumericalRangeError
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else None, self._op])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            except NumericalRangeError as exc:
                if exc is not self._last_range_error:
                    self._last_range_error = exc
                    self.counts["convolution.range_errors"] += 1
                raise
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named ``op``."""
        self._op = op_id
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self._op = None

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, on_return=None) -> None:
        original = getattr(module, attr)
        traced = self._wrap(name, original, on_return)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").partition(".")[0] == "hubfleet"
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def _patch_method(self, cls, attr: str, name: str, inner=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, inner(original) if inner else original))

    def _count_columns(self, extend_to):
        counts = self.counts

        @functools.wraps(extend_to)
        def counted(table, population):
            before = table.population
            out = extend_to(table, population)
            counts["star.columns_built"] += table.population - before
            counts["star.max_table_population"] = max(
                counts["star.max_table_population"], table.population)
            return out

        return counted

    def _add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def install(self) -> None:
        from hubfleet import convolution, fleet, oracle, star, weber
        self._patch_function(weber, "solve_weber", "weber.solve",
                             lambda sol: self._add("weber.iterations", sol.iterations))
        self._patch_function(convolution, "marginal_distribution", "convolution.marginal")
        self._patch_function(convolution, "convolve_stations", "convolution.convolve")
        self._patch_function(star, "analyze", "star.analyze")
        self._patch_function(star, "aggregated_norm_constants", "star.table")
        for attr in ("__init__", "extend_to", "table", "throughput", "warehouse_throughput"):
            self._patch_method(star.AggregatedConvolution, attr, "star.table",
                               self._count_columns if attr == "extend_to" else None)
        self._patch_function(star, "throughput_vs_location", "star.grid")
        self._patch_function(fleet, "min_trucks", "fleet.min_trucks",
                             lambda res: self._add("fleet.fleet_sizes_tried", res.iterations))
        self._patch_function(fleet, "min_center_rate", "fleet.rate_search")
        self._patch_function(oracle, "simulate", "oracle.simulate",
                             lambda est: self._add("oracle.des_events",
                                                   est.horizon_events * est.replications))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Self seconds per span name, and per span name under a
        ``fleet.rate_search`` span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        in_search = [False] * len(self.spans)
        total, under_search = Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - covered[i]
            total[name] += own
            # parents precede their children in the list
            if parent is not None:
                in_search[i] = in_search[parent] or self.spans[parent][0] == "fleet.rate_search"
            if in_search[i]:
                under_search[name] += own
        return total, under_search

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def probes_under_search(self) -> int:
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == "fleet.min_trucks" and parent is not None
                   and self.spans[parent][0] == "fleet.rate_search")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
