"""Per-layer spans for the traced benchmark pass.

Each layer is one module of the package.  ``Tracer.install`` replaces every
public function of a layer module by a timing wrapper, on every name a caller
looks the function up by: the defining module's attribute (used by
``from . import oracle`` callers, by function-local imports and by the
benchmark) and each copy another module made with ``from .x import name``.
Nothing under ``src/`` is edited; ``Tracer.restore`` puts the originals back.

A span's self time is its duration minus the time covered by its direct child
spans.  Spans are aggregated per layer as they close instead of being stored:
the custom workload opens millions of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "classes", "moments", "bounds", "oracle", "means")

# ``classes.h_eval`` is the per-sample primitive of ``certify_membership``;
# a span there would only split classes time from classes time.  Calls from
# other layers still get spans through their own imported copies.
_UNWRAPPED_IN_OWN_MODULE = {("classes", "h_eval")}


def _size(x):
    return 1 if type(x) is float else getattr(x, "size", 1)


class Tracer:
    """Layer spans plus the counts read at the same boundaries."""

    def __init__(self):
        self._stack = [[0.0, None]]  # frames: [child seconds, layer]
        # per layer: [calls from another layer, self seconds]
        self.layers = {name: [0, 0.0] for name in LAYERS}
        self.counts = dict.fromkeys(
            ("oracle.calls", "oracle.evals", "oracle.subdivisions",
             "oracle.failed", "moments.weighted", "moments.numeric",
             "classes.certify_calls", "classes.certify_s",
             "classes.samples", "classes.rejected",
             "classes.testfunctions", "classes.testfunction_s"), 0)
        self._saved = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, layer, fn):
        stack = self._stack
        stat = self.layers[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            if parent[1] != layer:
                stat[0] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stat[1] += dt - frame[0]
        return span

    def _integrate_adaptive(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def integrate_adaptive(g, *args, **kwargs):
            def counted(t):
                v = g(t)
                counts["oracle.evals"] += _size(t)
                return v
            counts["oracle.calls"] += 1
            try:
                res = fn(counted, *args, **kwargs)
            except Exception:
                counts["oracle.failed"] += 1
                raise
            counts["oracle.subdivisions"] += res.subdivisions
            return res
        return integrate_adaptive

    def _weighted_moment(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def weighted_moment(*args, **kwargs):
            # The quadrature fallback is the path that enters the oracle.
            before = counts["oracle.calls"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["moments.weighted"] += 1
                if counts["oracle.calls"] != before:
                    counts["moments.numeric"] += 1
        return weighted_moment

    def _certify_membership(self, fn):
        counts = self.counts
        default_n = inspect.signature(fn).parameters["n_samples"].default

        @functools.wraps(fn)
        def certify_membership(tf, n_samples=default_n, *args, **kwargs):
            t0 = time.perf_counter()
            rep = fn(tf, n_samples, *args, **kwargs)
            counts["classes.certify_s"] += time.perf_counter() - t0
            counts["classes.certify_calls"] += 1
            counts["classes.samples"] += n_samples
            counts["classes.rejected"] += not rep.holds
            return rep
        return certify_membership

    def _test_function(self, cls):
        counts = self.counts

        def TestFunction(*args, **kwargs):
            t0 = time.perf_counter()
            tf = cls(*args, **kwargs)
            counts["classes.testfunction_s"] += time.perf_counter() - t0
            counts["classes.testfunctions"] += 1
            return tf
        return TestFunction

    def _wrapper_for(self, layer, name, obj):
        inner = obj
        if name == "integrate_adaptive":
            inner = self._integrate_adaptive(obj)
        elif name == "weighted_moment":
            inner = self._weighted_moment(obj)
        elif name == "certify_membership":
            inner = self._certify_membership(obj)
        elif name == "TestFunction":
            inner = self._test_function(obj)
        return self._span(layer, inner)

    # -- installation -----------------------------------------------------
    def install(self, package="quadcert"):
        """Wrap every public layer function on every name it is bound to."""
        layer_of = {f"{package}.{name}": name for name in LAYERS}
        wrapped = {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if not (inspect.isfunction(obj) or name == "TestFunction"):
                    continue
                if (mod.__name__ == f"{package}.{layer}"
                        and (layer, name) in _UNWRAPPED_IN_OWN_MODULE):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrapper_for(layer, name, obj)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])

    def restore(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- read-out ---------------------------------------------------------
    def snapshot(self):
        snap = dict(self.counts)
        for name, (entries, self_s) in self.layers.items():
            snap[f"{name}.entries"] = entries
            snap[f"{name}.self_s"] = self_s
        return snap
