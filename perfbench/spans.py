"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the `defpair` modules from outside the
library: it rebinds every module-level name and class attribute that refers
to a target, so internal calls (for example `rings.py` calling the
`poly_reduce` it imported from `groebner`) pass through the wrapper too.

Each wrapped call records a span (name, start, end, parent).  Spans stay in
memory, in flat arrays, and are written out by `write_spans` when the run
ends.  Self time is a span's duration minus the time its direct child spans
cover; it is accumulated as spans close.  The hottest polynomial operations
are only counted, not spanned, so their cost lands in the caller's self time.

A target that the library no longer defines is recorded as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (metric name, module, attribute path); spanned: calls and self time.
SPAN_TARGETS = [
    ("groebner.groebner_basis", "groebner", "groebner_basis"),
    ("groebner.poly_reduce", "groebner", "poly_reduce"),
    ("groebner.interreduce", "groebner", "interreduce"),
    ("groebner.ModuleBasis", "groebner", "ModuleBasis.__init__"),
    ("groebner.ModuleBasis.normal_form", "groebner", "ModuleBasis.normal_form"),
    ("groebner.solve_in_image", "groebner", "solve_in_image"),
    ("groebner.syzygies", "groebner", "syzygies"),
    ("rings.nf", "rings", "QuotientRing.nf"),
    ("rings.inverse", "rings", "QuotientRing.inverse"),
    ("modules.nf", "modules", "FPModule.nf"),
    ("modules.fitting_ideal", "modules", "fitting_ideal"),
    ("modules.free_resolution", "modules", "free_resolution"),
    ("modules.kernel_of_module_map", "modules", "kernel_of_module_map"),
    ("matrices.mat_inverse", "matrices", "mat_inverse"),
    ("matrices.mat_mul", "matrices", "mat_mul"),
    ("linalg.rref", "linalg", "rref"),
    ("pairs.exp_pair", "pairs", "exp_pair"),
    ("pairs.log_auto", "pairs", "log_auto"),
    ("pairs.det_auto", "pairs", "det_auto"),
    ("pairs.check_derivation_pair", "pairs", "check_derivation_pair"),
    ("pairs.derivation_pair_module", "pairs", "derivation_pair_module"),
    ("dgla.HomComplexDGLA.bracket", "dgla", "HomComplexDGLA.bracket"),
    ("dgla.HomComplexDGLA.d", "dgla", "HomComplexDGLA.d"),
    ("dgla.trace_morphism", "dgla", "trace_morphism"),
    ("dgla.pro_representability_check", "dgla", "pro_representability_check"),
    ("mc.gauge_act", "mc", "gauge_act"),
    ("mc.bch", "mc", "bch"),
    ("mc.mc_check", "mc", "mc_check"),
    ("mc.HomContext.exp_action", "mc", "HomContext.exp_action"),
    ("mc.HomContext.log_action", "mc", "HomContext.log_action"),
    ("cech.cech_cohomology", "cech", "cech_cohomology"),
    ("cech.cech_weight_complex", "cech", "cech_weight_complex"),
    ("cech.pair_sheaf", "cech", "pair_sheaf"),
    ("cech.sheaf_hom", "cech", "sheaf_hom"),
    ("cocycles.pair_tangent_spaces", "cocycles", "pair_tangent_spaces"),
    ("cocycles.first_order_class_dims", "cocycles", "first_order_class_dims"),
    ("cli.parse_script", "cli", "parse_script"),
    ("cli.Session.run_command", "cli", "Session.run_command"),
    ("cli.render_json", "cli", "render_json"),
]

# (metric name, module, attribute paths); counted only.  One logical
# operation counts once even when it delegates (`a - b` calls `a + (-b)`).
COUNT_TARGETS = [
    ("poly.order_key", "poly", ("MonomialOrder.key",)),
    ("poly.addsub", "poly", ("Polynomial.__add__", "Polynomial.__radd__",
                             "Polynomial.__sub__", "Polynomial.__rsub__")),
    ("poly.mul", "poly", ("Polynomial.__mul__", "Polynomial.__rmul__")),
    ("poly.mul_term", "poly", ("Polynomial.mul_term",)),
]

LAYERS = ["groebner", "rings", "modules", "matrices", "linalg", "pairs",
          "dgla", "mc", "cech", "cocycles", "cli"]

# Every per-layer metric of a traced run, with its unit, in report order.
PER_LAYER = (
    [(f"{name}.calls", "count") for name, _, _ in COUNT_TARGETS]
    + [m for name, _, _ in SPAN_TARGETS
       for m in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))]
    + [("groebner.spair_zero_ratio", "ratio"), ("rings.nf.noop_ratio", "ratio"),
       ("matrices.mat_inverse.distinct_ratio", "ratio")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio")]
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _poly_key(p):
    return tuple(sorted(p.terms.items()))


class Tracer:
    """Spans and counters for one traced run; off until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self._inside: set = set()
        self.absent: list = []
        self._restore: list = []
        self._mat_inverse_inputs: set = set()

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self, name: str, failed: bool):
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur
        if failed:
            parent = self.parent_name()
            if parent is None or _layer(parent) != _layer(name):
                self.errors[_layer(name)] += 1

    def parent_name(self):
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    # -- result hooks, run after the span closes -------------------------------
    def _after_poly_reduce(self, args, result):
        if self.parent_name() == "groebner.groebner_basis":
            self.counts["groebner.spair_reduced"] += 1
            if result.is_zero():
                self.counts["groebner.spair_zero"] += 1

    def _after_rings_nf(self, args, result):
        if result.terms == args[1].terms:
            self.counts["rings.nf.noop"] += 1

    def _after_mat_inverse(self, args, result):
        ring, a = args[0], args[1]
        key = (ring.ambient.variables, tuple(_poly_key(g) for g in ring.gb),
               tuple(tuple(_poly_key(p) for p in row) for row in a))
        self._mat_inverse_inputs.add(key)

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, True)
                raise
            tracer._exit(name, False)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or name in tracer._inside:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            tracer._inside.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._inside.discard(name)
        return wrapper

    # -- installing ----------------------------------------------------------
    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "defpair" or n.startswith("defpair."))]

    def _patch(self, name, module_name, path, make):
        try:
            module = importlib.import_module(f"defpair.{module_name}")
        except ImportError:
            self.absent.append(name)
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # every module-level binding of the function, not only its home
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        """Wrap every target; call `uninstall` to restore the library."""
        hooks = {"groebner.poly_reduce": self._after_poly_reduce,
                 "rings.nf": self._after_rings_nf,
                 "matrices.mat_inverse": self._after_mat_inverse}
        for name, module_name, path in SPAN_TARGETS:
            hook = hooks.get(name)
            self._patch(name, module_name, path,
                        lambda fn, name=name, hook=hook: self._span_wrapper(name, fn, hook))
        for name, module_name, paths in COUNT_TARGETS:
            for path in paths:
                self._patch(name, module_name, path,
                            lambda fn, name=name: self._count_wrapper(name, fn))
        self.absent = sorted(set(self.absent))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer metrics by name; missing or idle targets read 0."""
        out = {}
        for name, _, _ in SPAN_TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNT_TARGETS:
            out[f"{name}.calls"] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        reduced = self.counts["groebner.spair_reduced"]
        out["groebner.spair_zero_ratio"] = (
            self.counts["groebner.spair_zero"] / reduced if reduced else 0.0)
        nf_calls = self.calls["rings.nf"]
        out["rings.nf.noop_ratio"] = (
            self.counts["rings.nf.noop"] / nf_calls if nf_calls else 0.0)
        inv_calls = self.calls["matrices.mat_inverse"]
        out["matrices.mat_inverse.distinct_ratio"] = (
            len(self._mat_inverse_inputs) / inv_calls if inv_calls else 0.0)
        out["spans"] = len(self.span_name)
        out["groebner.spair_reduced"] = reduced
        return out

    def write_spans(self, path):
        """One line per span: index, name, parent index, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                         f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
