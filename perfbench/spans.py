"""Spans around the calls into each layer, recorded from outside the package.

``install`` replaces module-level functions by timing wrappers in the
namespace each caller resolves the name from (``harness.analyze_elements``,
``census.verify_axioms``, ...), and the function of every ``CATALOG`` entry.
A span is ``[name, start, end, parent, op]``; spans stay in memory until the
traced phase ends.  A layer's self time is its spans' duration minus the
time covered by their child spans, so a lazy ``Ctx`` property is charged to
the layer that builds it, not to the check that first touches it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# span name, function name, modules whose namespace holds a caller's reference
CALLS = (
    ("census.enumerate", "enumerate_posemirings", ("census",)),
    ("census.verify", "verify_axioms", ("census",)),
    ("census.canon", "canonical_form", ("census",)),
    ("census.aut", "automorphism_count", ("census",)),
    ("core.verify", "verify_axioms", ("harness", "ringlab", "constructions")),
    ("core.analyze", "analyze_elements", ("core", "harness", "constructions")),
    ("core.iso", "find_isomorphism", ("core", "harness", "constructions")),
    ("core.conditions", "check_conditions", ("core", "harness",
                                             "constructions")),
    ("core.parse", "parse_psr", ("core",)),
    ("graphs.build", "posemiring_zdgraph", ("constructions",)),
    ("graphs.build", "build_zdgraph", ("constructions", "ringlab")),
    ("graphs.metrics", "graph_metrics", ("harness", "graphs")),
    ("graphs.shape", "classify_shape", ("harness", "constructions",
                                        "ringlab")),
    ("constructions.decompose", "recognize_small_z", ("constructions",)),
    ("constructions.decompose", "peel_boolean", ("constructions",)),
    ("constructions.decompose", "split_two_star", ("constructions",)),
    ("constructions.product", "direct_product", ("constructions",)),
    ("constructions.construct", "construct_from_text", ("constructions",)),
    ("ringlab.make", "make_ring", ("ringlab",)),
    ("ringlab.ideals", "enumerate_ring_ideals", ("ringlab",)),
    ("ringlab.semiring", "ideal_semiring", ("ringlab",)),
    ("ringlab.radicals", "radicals", ("ringlab",)),
    ("ringlab.maximal", "maximal_ideals", ("ringlab",)),
)
# private census generators, timed per next() call
GENERATORS = (
    ("census.lattice", "_bounded_semilattices", "census"),
    ("census.search", "_mul_backtrack", "census"),
)
# span name -> count taken from the returned value
RESULT_COUNTS = {"census.enumerate": lambda result: result.count_up_to_iso}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.items = Counter()        # values yielded or counted per span name
        self.op = -1
        self._restore = []
        self.absent = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap_call(self, name, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.items[name] += count(result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.items[name] += 1
                yield item
        return traced

    def _replace(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, lib):
        """Wrap every traced function; a missing one is listed in ``absent``."""
        self.absent = []
        for name, attr, modules in CALLS:
            for key in modules:
                module = getattr(lib, key)
                if hasattr(module, attr):
                    self._replace(module, attr, self._wrap_call(
                        name, getattr(module, attr)))
                else:
                    self.absent.append(f"{key}.{attr}")
        for name, attr, key in GENERATORS:
            module = getattr(lib, key)
            if hasattr(module, attr):
                self._replace(module, attr, self._wrap_generator(
                    name, getattr(module, attr)))
            else:
                self.absent.append(f"{key}.{attr}")
        catalog = lib.harness.CATALOG
        self._restore.append((catalog, slice(None), list(catalog)))
        catalog[:] = [dataclasses.replace(c, fn=self._wrap_call(
            f"harness.check.{c.id}", c.fn)) for c in catalog]

    def uninstall(self):
        for target, key, old in reversed(self._restore):
            if isinstance(key, slice):
                target[key] = old
            else:
                setattr(target, key, old)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@dataclasses.dataclass
class Summary:
    self_s: dict          # span name -> summed self time
    calls: Counter        # span name -> number of spans
    items: Counter        # span name -> values yielded or counted
    analyze_in_iso: Counter   # op -> analyze spans below a find_isomorphism
    iso_calls: Counter        # op -> find_isomorphism spans
    top_rings: int            # make_ring spans not nested in make_ring
    check_rows: dict          # (check name, op) -> (self, inclusive)


def summarise(tracer: Tracer) -> Summary:
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_iso = [False] * len(spans)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_iso[i] = in_iso[parent] or spans[parent][0] == "core.iso"
    self_s = defaultdict(float)
    calls = Counter()
    analyze_in_iso = Counter()
    iso_calls = Counter()
    top_rings = 0
    check_rows = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        own = end - start - child[i]
        self_s[name] += own
        calls[name] += 1
        if name == "core.analyze" and in_iso[i]:
            analyze_in_iso[op] += 1
        elif name == "core.iso":
            iso_calls[op] += 1
        elif name == "ringlab.make" and (
                parent < 0 or spans[parent][0] != "ringlab.make"):
            top_rings += 1
        elif name.startswith("harness.check."):
            check_rows[name[len("harness.check."):], op] = (own, end - start)
    return Summary(dict(self_s), calls, tracer.items, analyze_in_iso,
                   iso_calls, top_rings, check_rows)


def per_layer(summary: Summary, ops: int, check_ids, absent) -> dict:
    """Per-layer metrics, times and counts per op, as name -> (value, unit)."""
    s, c, items = summary.self_s, summary.calls, summary.items

    def per_op(x):
        return x / ops

    def ratio(num, den):
        return num / den if den else 0.0

    iso_total = sum(summary.iso_calls.values())
    classes = items["census.enumerate"]
    out = {
        "census.lattices": (per_op(items["census.lattice"]), "count/op"),
        "census.lattice_s": (per_op(s.get("census.lattice", 0.0)), "s/op"),
        "census.tables": (per_op(items["census.search"]), "count/op"),
        "census.search_s": (per_op(s.get("census.search", 0.0)), "s/op"),
        "census.verify_s": (per_op(s.get("census.verify", 0.0)), "s/op"),
        "census.canon_calls": (per_op(c["census.canon"]), "count/op"),
        "census.canon_s": (per_op(s.get("census.canon", 0.0)), "s/op"),
        "census.aut_s": (per_op(s.get("census.aut", 0.0)), "s/op"),
        "census.classes": (per_op(classes), "count/op"),
        "census.useful_ratio": (ratio(classes, items["census.search"]),
                                "ratio"),
        "core.verify_calls": (per_op(c["core.verify"]), "count/op"),
        "core.verify_s": (per_op(s.get("core.verify", 0.0)), "s/op"),
        "core.analyze_calls": (per_op(c["core.analyze"]), "count/op"),
        "core.analyze_s": (per_op(s.get("core.analyze", 0.0)), "s/op"),
        "core.analyze_per_iso": (
            ratio(sum(summary.analyze_in_iso.values()), iso_total), "ratio"),
        "core.iso_calls": (per_op(iso_total), "count/op"),
        "core.iso_s": (per_op(s.get("core.iso", 0.0)), "s/op"),
        "core.conditions_s": (per_op(s.get("core.conditions", 0.0)), "s/op"),
        "core.parse_s": (per_op(s.get("core.parse", 0.0)), "s/op"),
        "graphs.build_s": (per_op(s.get("graphs.build", 0.0)), "s/op"),
        "graphs.metrics_s": (per_op(s.get("graphs.metrics", 0.0)), "s/op"),
        "graphs.shape_s": (per_op(s.get("graphs.shape", 0.0)), "s/op"),
        "constructions.decompose_calls": (
            per_op(c["constructions.decompose"]), "count/op"),
        "constructions.decompose_s": (
            per_op(s.get("constructions.decompose", 0.0)), "s/op"),
        "constructions.product_s": (
            per_op(s.get("constructions.product", 0.0)), "s/op"),
        "constructions.construct_s": (
            per_op(s.get("constructions.construct", 0.0)), "s/op"),
        "ringlab.make_s": (per_op(s.get("ringlab.make", 0.0)), "s/op"),
        "ringlab.ideal_enums_per_ring": (
            ratio(c["ringlab.ideals"], summary.top_rings), "ratio"),
        "ringlab.ideals_s": (per_op(s.get("ringlab.ideals", 0.0)), "s/op"),
        "ringlab.semiring_s": (per_op(s.get("ringlab.semiring", 0.0)), "s/op"),
        "ringlab.radicals_s": (per_op(s.get("ringlab.radicals", 0.0)), "s/op"),
        "ringlab.maximal_s": (per_op(s.get("ringlab.maximal", 0.0)), "s/op"),
    }
    for cid in check_ids:
        out[f"harness.check.{cid}.self_s"] = (
            per_op(s.get(f"harness.check.{cid}", 0.0)), "s/op")
    if "census._bounded_semilattices" in absent:
        for key in ("census.lattices", "census.lattice_s"):
            del out[key]
    if "census._mul_backtrack" in absent:
        for key in ("census.tables", "census.search_s", "census.useful_ratio"):
            del out[key]
    return out
