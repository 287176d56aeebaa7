"""Span tracing of squeezelab's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
``squeezelab`` module that holds it, including the names a module imports
from another (``estimators.eval_variance`` is ``model.eval_variance``).
Each wrapper records a span: group name, start, end, parent span and the
current item id.  Spans stay in memory until ``write_spans``.  A group's
self time is the time its spans cover minus the time their child spans
cover.
"""

from __future__ import annotations

import csv
import functools
import gzip
import os
import sys
import time
from collections import Counter

# group -> (module, functions); a span carries its group's name
GROUPS = {
    "model.eval_variance": ("model", ("eval_variance",)),
    "model.variance_partials": ("model", ("variance_partials",)),
    "estimators.fit_estimate": ("estimators", ("fit_estimate",)),
    "estimators.mom_estimate": ("estimators", ("mom_estimate",)),
    "estimators.dhd_estimate": ("estimators", ("dhd_estimate",)),
    "simulate.keyed_generator": ("simulate", ("keyed_generator",)),
    "simulate.sample_homodyne_scan": ("simulate", ("sample_homodyne_scan",)),
    "simulate.sample_dhd": ("simulate", ("sample_dhd",)),
    "simulate.synthesize_trace": ("simulate", ("synthesize_trace",)),
    "simulate.scan_from_trace": ("simulate", ("scan_from_trace",)),
    "simulate.simulate_phase_drift": ("simulate", ("simulate_phase_drift",)),
    "bounds.fisher_homodyne_discrete": ("bounds", ("fisher_homodyne_discrete",)),
    "bounds": ("bounds", ("phase_averaged_fisher", "crb_homodyne", "fit_variance_prediction",
                          "fisher_dhd", "crb_dhd", "qfi_matrix", "crb_quantum")),
    "montecarlo.collect_estimates": ("montecarlo", ("collect_estimates",)),
    "montecarlo.aggregate_estimates": ("montecarlo", ("aggregate_estimates",)),
    "montecarlo.track_angle": ("montecarlo", ("track_angle",)),
    "io.read": ("io", ("read_scan_csv", "read_dhd_csv", "read_trace")),
    "io.write": ("io", ("write_scan_csv", "write_dhd_csv", "write_trace",
                        "write_report_csv", "write_track_csv", "dump_json")),
    "io.report": ("io", ("report_rows", "report_csv_lines", "report_to_dict",
                         "track_csv_lines")),
    "cli.main": ("cli", ("main",)),
    "cli.resolve_config": ("cli", ("resolve_config",)),
}

_ESTIMATORS = ("estimators.fit_estimate", "estimators.mom_estimate", "estimators.dhd_estimate")

# span record fields
NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.item]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if on_result is not None:
                on_result(args, kwargs, result, parent)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "squeezelab" or n.startswith("squeezelab.")]
        for group, (module, names) in GROUPS.items():
            home = sys.modules[f"squeezelab.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.span(group, original, self._observer(group, fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _observer(self, group: str, fname: str):
        if group in _ESTIMATORS:
            return self._count_estimate
        if group == "io.read":
            return self._count_bytes("bytes_read", lambda args, kwargs: args[0])
        if fname == "dump_json":
            return self._count_bytes("bytes_written",
                                     lambda args, kwargs: kwargs.get("path", args[1] if len(args) > 1 else None))
        if group == "io.write":
            return self._count_bytes("bytes_written", lambda args, kwargs: args[0])
        return None

    def _count_estimate(self, args, kwargs, result, parent) -> None:
        # a fit run as MoM's seed is part of that MoM estimate, not an estimate
        if parent >= 0 and self.spans[parent][NAME] in _ESTIMATORS:
            return
        for flag in result.flags:
            self.counts[f"flag.{flag}"] += 1
        if result.method == "mom":
            self.counts["mom.attempted"] += 1
            self.counts["mom.iterations"] += result.iterations
            self.counts["mom.converged"] += "no-convergence" not in result.flags

    def _count_bytes(self, key: str, path_of):
        def observe(args, kwargs, result, parent) -> None:
            path = path_of(args, kwargs)
            if path is not None:
                self.counts[key] += os.path.getsize(path)
        return observe

    def totals(self) -> dict:
        """Per group: calls, total ms and self ms."""
        child_ms = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ms[rec[PARENT]] += (rec[END] - rec[START]) * 1e3
        out: dict = {}
        for rec, inner in zip(self.spans, child_ms):
            dur = (rec[END] - rec[START]) * 1e3
            agg = out.setdefault(rec[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += dur
            agg["self_ms"] += dur - inner
        return out

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: index, name, start_s, end_s, parent, item."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start_s", "end_s", "parent", "item"))
            for i, rec in enumerate(self.spans):
                w.writerow((i, rec[NAME], repr(rec[START]), repr(rec[END]),
                            rec[PARENT], rec[ITEM]))
