"""Per-layer tracing of heckeflag, applied from outside the package.

``Tracer.installed()`` swaps the public functions of each layer for timing
wrappers and restores the originals on exit, so the untraced runs execute the
package exactly as shipped.  Every wrapped call books its self time (its
duration minus the time covered by wrapped calls below it) and a call count
under its own name.  Only the coarse calls listed in ``KEEP`` are also kept as
spans (id, name, start, end, parent id): the hot leaves (polynomial
arithmetic, generator steps, relative positions) run millions of times, and a
span each would hold more memory than the program being measured.

The layers are the package's modules; ``regular_trace`` lives in ``hecke`` but
is booked under ``eset``, because it is the other scan over all z.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from heckeflag import cli, coxeter, eset, flag, hecke, poly
from workloads import SUMMARY

# (layer, owner, attribute names): methods patched on their class, module
# functions patched in every heckeflag module that imported them by name
_TARGETS = [
    ("poly", poly.IntPoly,
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "shifted")),
    ("coxeter", coxeter.CoxeterSystem, ("__init__", "right_mult", "left_mult", "multiply")),
    ("coxeter", coxeter, ("build_system",)),
    ("hecke", hecke.HeckeAlgebra, ("product", "structure_constant")),
    ("eset", hecke.HeckeAlgebra, ("regular_trace",)),
    ("eset", eset, ("e_set",)),
    ("flag", flag.FlagSpace,
     ("relative_position", "conjugate_flag", "count_Z", "count_Y_cell", "count_Y_total")),
    ("flag", flag, ("build_space", "canonical_cols")),
    ("cli", cli, ("run",)),
]

KEEP = {
    "build_system", "build_space", "e_set", "regular_trace", "structure_constant",
    "count_Z", "count_Y_cell", "count_Y_total", "run",
}
# set-up calls: reported as inclusive build times, left out of the self times
BUILDS = {"build_system", "__init__", "build_space"}
SCANS = {"e_set", "regular_trace"}
MULTS = ("right_mult", "left_mult", "multiply")


class Tracer:
    """Call counts, self times and coarse spans, kept in memory."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.layer_of = {}
        self.spans = []  # (id, name, start, end, parent id or None)
        self.extra = Counter()  # terms_out, candidates, hits, elements, flags, checks
        self._stack = []  # frames: [time covered by children, name, nearest kept span id]
        self._next_id = 0
        self._epoch = perf_counter()

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, keep=False, on_result=None):
        stack, counts, self_s, total_s = self._stack, self.counts, self.self_s, self.total_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else None
            span_id = parent_id
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                counts[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep:
                    self.spans.append(
                        (span_id, name, start - self._epoch, end - self._epoch, parent_id)
                    )
            if on_result is not None:
                on_result(args, result, parent)
            return result

        return traced

    def call(self, name, fn):
        """Run fn() under a kept span of its own (one benchmark op)."""
        self.layer_of.setdefault(name, "op")
        return self._wrap(name, fn, keep=True)()

    # -- boundary counts ---------------------------------------------------------

    def _after_product(self, args, result, parent):
        self.extra["terms_out"] += len(result.terms)
        if parent is not None and parent[1] in SCANS:
            # a scan computes T_w * T_z and keeps only the coefficient of T_z
            self.extra["candidates"] += 1
            right = args[2].terms
            if len(right) == 1 and result.terms.get(next(iter(right))):
                self.extra["hits"] += 1

    def _after_new_system(self, args, result, parent):
        # build_system's lru cache hits construct nothing
        system = args[0]
        if system.is_finite:
            self.extra["elements"] += system.order

    def _after_build_space(self, args, result, parent):
        self.extra["flags"] += len(result.flags)

    def _after_run(self, args, result, parent):
        found = SUMMARY.search(result.payload)
        if found:
            self.extra["checks"] += int(found.group(1))

    # -- patching ----------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        hooks = {
            "product": self._after_product,
            "__init__": self._after_new_system,
            "build_space": self._after_build_space,
            "run": self._after_run,
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "heckeflag"]
        undo = []
        for layer, owner, names in _TARGETS:
            for name in names:
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                self.layer_of[name] = layer
                wrapped = self._wrap(name, original, name in KEEP, hooks.get(name))
                holders = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, name, None) is original
                ]
                for holder in holders:
                    setattr(holder, name, wrapped)
                    undo.append((holder, name, original))
        try:
            yield self
        finally:
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)

    # -- results -------------------------------------------------------------------

    def _layer_self(self, layer):
        return sum(
            (t for name, t in self.self_s.items()
             if self.layer_of.get(name) == layer and name not in BUILDS),
            0.0,
        )

    def _layer_calls(self, layer):
        return sum(
            c for name, c in self.counts.items()
            if self.layer_of.get(name) == layer and name not in BUILDS
        )

    def layer_metrics(self):
        """The per-layer metrics, by name, as (value, unit)."""
        c, x = self.counts, self.extra
        candidates = x["candidates"]
        return {
            "poly.calls": (self._layer_calls("poly"), "count"),
            "poly.self_s": (self._layer_self("poly"), "s"),
            "coxeter.build_s": (self.total_s["build_system"], "s"),
            "coxeter.elements_built": (x["elements"], "count"),
            "coxeter.mult_calls": (sum(c[n] for n in MULTS), "count"),
            "coxeter.self_s": (self._layer_self("coxeter"), "s"),
            "hecke.products": (c["product"], "count"),
            "hecke.terms_out": (x["terms_out"], "count"),
            "hecke.self_s": (self._layer_self("hecke"), "s"),
            "eset.scans": (sum(c[n] for n in SCANS), "count"),
            "eset.candidates": (candidates, "count"),
            "eset.hit_ratio": (x["hits"] / candidates if candidates else 0.0, "ratio"),
            "eset.self_s": (self._layer_self("eset"), "s"),
            "flag.build_s": (self.total_s["build_space"], "s"),
            "flag.flags_built": (x["flags"], "count"),
            "flag.relpos_calls": (c["relative_position"], "count"),
            "flag.canon_calls": (c["canonical_cols"], "count"),
            "flag.conj_calls": (c["conjugate_flag"], "count"),
            "flag.self_s": (self._layer_self("flag"), "s"),
            "cli.checks": (x["checks"], "count"),
            "cli.self_s": (self._layer_self("cli"), "s"),
        }

    def span_records(self):
        keys = ("id", "name", "start", "end", "parent")
        return [dict(zip(keys, span)) for span in sorted(self.spans)]
