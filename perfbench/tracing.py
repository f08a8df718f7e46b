"""Spans and counters recorded around the library's public functions.

Tracer.installed() replaces each traced function, in every bihomalg module
that holds a reference to it and on the classes that define the traced
methods, with a wrapper that records a span: name, duration, and the time
covered by child spans; self time is the duration minus the child time.
Spans are aggregated per name in memory (calls, self time) and read out
after the traced round; nothing is written while it runs.  The originals are restored on
exit.  Counting work that is not a span (scalar multiplies and adds, matrix
columns compared, zero entries in compose operands) happens in the same
wrappers; time spent counting zeros is taken off every open span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

import bihomalg as bh
import bihomalg.cli  # noqa: F401

# span group -> (owner, attribute names); owner is a module or a class
SPANS = {
    "linalg.compose": (bh.LinearMap, ("compose",)),
    "linalg.tensor2": (bh.linalg, ("tensor2",)),
    "linalg.table_ops": (bh.StructureTable, ("compose_left", "compose_right", "twist",
                                             "postcompose", "as_matrix", "from_matrix",
                                             "apply", "__add__", "scale")),
    "structures.check": (bh.structures, ("check_bihom_associative", "check_dendriform",
                                         "check_tridendriform", "check_quadri")),
    "structures.construct": (bh.structures, ("yau_twist", "tensor_quadri",
                                             "tridend_to_dend", "quadri_projections",
                                             "total_product")),
    "rota_baxter.check": (bh.rota_baxter, ("check_rota_baxter", "check_one_sided_baxter",
                                           "check_rb_on_dendriform",
                                           "check_double_product_morphism")),
    "rota_baxter.derive": (bh.rota_baxter, ("rb_derive", "rb_double_product",
                                            "rb_dendriform_to_quadri",
                                            "commuting_pair_quadri", "baxter_pair_product")),
    "search.enumerate": (bh.search, ("enumerate_rb", "enumerate_baxter")),
    "trees.free_multiply": (bh.trees, ("free_multiply",)),
    "trees.serialize_tree": (bh.trees, ("serialize_tree",)),
    "trees.enumerate_trees": (bh.trees, ("enumerate_trees",)),
    "trees.parse_tree": (bh.trees, ("parse_tree",)),
    "trees.action_eval": (bh.trees, ("action_eval",)),
    "trees.reducer_build": (bh.TruncatedIdealReducer, ("__init__",)),
    "trees.reduce": (bh.TruncatedIdealReducer, ("reduce",)),
    "families.verify": (bh.families, ("verify_parametric_family",)),
    "pseudotwistors.check": (bh.pseudotwistors, ("check_weak_pseudotwistor",
                                                 "check_pseudotwistor")),
    "pseudotwistors.construct": (bh.pseudotwistors, ("rb_pseudotwistor",
                                                     "compose_pseudotwistors",
                                                     "baxter_pair_pseudotwistor")),
    "bimodules.check": (bh.bimodules, ("check_grb", "check_bimodule")),
    "specfile.parse": (bh.specfile, ("parse_spec",)),
    "specfile.serialize": (bh.specfile, ("serialize",)),
    "scalars.parse": (bh.scalars, ("parse_scalar",)),
    "cli.main": (bh.cli, ("main",)),
}
CHECK_GROUPS = ("structures.check", "rota_baxter.check", "pseudotwistors.check",
                "bimodules.check")


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPANS}  # calls, self seconds
        self.counters = Counter()
        self._stack = []
        self._paused = 0.0
        self._saved = []

    def clock(self):
        return time.perf_counter() - self._paused

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        stats, stack, clock = self.stats[name], self._stack, self.clock
        counts_violations = name in CHECK_GROUPS

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                if stack:
                    stack[-1] += dt
            if counts_violations:
                self.counters["violations_found"] += len(result.violations)
            return result
        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        def wrapper(*args):
            counters[key] += 1
            return fn(*args)
        return wrapper

    def _count_zeros(self, fn):
        """compose(self, other): tally zero entries of both operands."""
        counters = self.counters

        def wrapper(a, b):
            t0 = time.perf_counter()
            for m in (a, b):
                counters["compose_entries"] += m.rows * m.cols
                counters["compose_zero_entries"] += sum(
                    1 for row in m.entries for x in row if x.is_zero())
            self._paused += time.perf_counter() - t0
            return fn(a, b)
        return wrapper

    def _count_columns(self, fn):
        counters = self.counters

        def wrapper(rep, axiom, lhs, rhs, dims):
            counters["columns_compared"] += lhs.cols
            return fn(rep, axiom, lhs, rhs, dims)
        return wrapper

    # -- install / restore ---------------------------------------------------

    def _replace_on_class(self, cls, attr, make):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(fn)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)

    def _replace_everywhere(self, fn, new):
        """Every bihomalg module attribute bound to fn now points at new."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bihomalg" and not mod_name.startswith("bihomalg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, new)

    @contextlib.contextmanager
    def installed(self):
        try:
            for name, (owner, attrs) in SPANS.items():
                for attr in attrs:
                    if isinstance(owner, type):
                        self._replace_on_class(owner, attr,
                                               lambda fn, name=name: self._span(name, fn))
                    else:
                        fn = getattr(owner, attr)
                        self._replace_everywhere(fn, self._span(name, fn))
            self._replace_on_class(bh.Scalar, "__mul__", lambda fn: self._count("mul", fn))
            self._replace_on_class(bh.Scalar, "__add__", lambda fn: self._count("add", fn))
            self._replace_on_class(bh.LinearMap, "compose", self._count_zeros)
            if "_compare" in vars(bh.CheckReport):
                self._replace_on_class(bh.CheckReport, "_compare", self._count_columns)
            yield self
        finally:
            for owner, attr, value in reversed(self._saved):
                setattr(owner, attr, value)
            self._saved.clear()

    # -- read-out ------------------------------------------------------------

    def metrics(self, busy_s):
        """Per-layer metrics of the traced round: calls and share of the
        round's busy wall time busy_s spent in each span group's own code,
        and the work counters."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_pct"] = {"value": 100 * self_s / busy_s, "unit": "%"}
        c = self.counters
        out["scalars.mul_calls"] = {"value": c["mul"], "unit": "count"}
        out["scalars.add_calls"] = {"value": c["add"], "unit": "count"}
        out["structures.columns_compared"] = {"value": c["columns_compared"], "unit": "count"}
        out["structures.violations_found"] = {"value": c["violations_found"], "unit": "count"}
        share = c["compose_zero_entries"] / c["compose_entries"] if c["compose_entries"] else 0
        out["linalg.zero_entry_share"] = {"value": share, "unit": "ratio"}
        return out

    def report(self):
        """One line per span group that ran: calls and self seconds."""
        return [f"span {name:26s} calls {calls:9d}  self {self_s:9.4f} s"
                for name, (calls, self_s) in sorted(self.stats.items(),
                                                    key=lambda kv: -kv[1][1])
                if calls]
