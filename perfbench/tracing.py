"""Benchmark-side spans around the public functions of each rtlab layer.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span and op is the operation the span belongs to.  Spans stay in
memory and are written out once the pass ends.  A layer's self time is its
spans' durations minus the time their child spans cover.

Wrappers are installed where each name is looked up: a ``from`` import binds
a copy of the function in the importing module, so every rtlab module
attribute that is the original function is replaced, and methods are
replaced on their class.
"""

from __future__ import annotations

import sys
from collections import Counter
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, budget_error=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if budget_error is not None and isinstance(exc, budget_error):
                    counts[name + ".budget_exits"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, out)
            return out

        return traced

    def layer_totals(self):
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        return calls, self_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


# -- per-layer counters, recorded at the same boundaries as the spans ---------------

def _lp_systems(counts, args, kwargs, lp):
    # square systems vertex enumeration tries: sum_n C(rows, n) * C(dims, n)
    rows = len(lp.rows) + (lp.free_cap is not None)
    dims = len(lp.dims())
    counts["lpverify.systems_tried"] += sum(comb(rows, n) * comb(dims, n)
                                            for n in range(1, min(rows, dims) + 1))


def _lp_vertices(counts, args, kwargs, out):
    vertices, singular = out
    counts["lpverify.vertices"] += len(vertices)
    counts["lpverify.singular_systems"] += singular


def _cliques(counts, args, kwargs, out):
    counts["graphs.cliques_found"] += len(out)


def _census(counts, args, kwargs, poly):
    counts["census.nodes"] += poly.nodes_visited
    counts["census.partitions"] += sum(poly.coefficients.values())


def _route(counts, args, kwargs, res):
    route = "trivial" if res.method.startswith("trivial") else res.method
    counts["census.route." + route] += 1


def _brute(counts, args, kwargs, res):
    counts["census.brute_colorings"] += res.nodes_visited


#: (span name, module, attribute path, counter hook)
TARGETS = (
    ("cli.main", "rtlab.cli", "main", None),
    ("exactnum.compare", "rtlab.exactnum", "PowerProduct.compare", None),
    ("exactnum.pp_floor", "rtlab.exactnum", "pp_floor", None),
    ("thresholds.threshold_report", "rtlab.thresholds", "threshold_report", None),
    ("thresholds.r0_base", "rtlab.thresholds", "r0_base", None),
    ("thresholds.l_opt", "rtlab.thresholds", "l_opt", None),
    ("lpverify.build_lp", "rtlab.lpverify", "build_lp", _lp_systems),
    ("lpverify.certify", "rtlab.lpverify", "certify", None),
    ("lpverify.enumerate_vertices", "rtlab.lpverify", "enumerate_vertices", _lp_vertices),
    ("graphs.k_cliques", "rtlab.graphs", "k_cliques", _cliques),
    ("census.count_colorings", "rtlab.census", "count_colorings", _route),
    ("census.build_census", "rtlab.census", "build_census", _census),
    ("census.evaluate", "rtlab.census", "evaluate", None),
    ("census.count_brute", "rtlab.census", "count_brute", _brute),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; fail when one is missing, so that a renamed or moved
    function is never read as a layer that did no work."""
    import importlib

    budget_error = importlib.import_module("rtlab.errors").ResourceLimitError
    found, missing = [], []
    for name, modname, path, after in TARGETS:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{modname}.{path}")
        else:
            found.append((name, owner, attr, bool(outer), original, after))
    if missing:
        raise RuntimeError("trace targets not found: " + ", ".join(missing))
    for name, owner, attr, on_class, original, after in found:
        wrapped = tracer.wrap(name, original, after, budget_error)
        if on_class:
            setattr(owner, attr, wrapped)
            continue
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("rtlab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zero where a layer did not run)."""
    calls, self_s = tracer.layer_totals()
    c = tracer.counts
    out = {}
    for name, *_ in TARGETS:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["exactnum.budget_exits"] = c["exactnum.compare.budget_exits"]
    for key in ("lpverify.vertices", "lpverify.singular_systems", "lpverify.systems_tried",
                "graphs.cliques_found", "census.nodes", "census.route.census",
                "census.route.trivial", "census.brute_colorings"):
        out[key] = c[key]
    out["lpverify.vertex_yield"] = _ratio(c["lpverify.vertices"], c["lpverify.systems_tried"])
    out["census.partition_yield"] = _ratio(c["census.partitions"], c["census.nodes"])
    out["census.nodes_per_s"] = _ratio(c["census.nodes"], self_s["census.build_census"])
    out["census.brute_colorings_per_s"] = _ratio(c["census.brute_colorings"],
                                                 self_s["census.count_brute"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0
