"""Per-layer tracing by rebinding the package's public functions from outside.

A :class:`Tracer` replaces every public function of the eight fanobalance
modules in every module namespace that holds it (``cones.span_rank`` and
``linalg.span_rank`` are separate bindings of one function) with a wrapper,
and restores the originals on exit.  ``src/`` is not touched.

Most wrappers record one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the run writes them out.
Leaf helpers called hundreds of thousands of times per operation only
count their calls (``COUNT_ONLY``); their time is part of the caller's self
time.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "cones", "intersection", "invariants", "criteria", "database",
           "classifier", "cli")

COUNT_ONLY = frozenset({
    "linalg.to_fraction", "linalg.format_fraction", "linalg.qvec", "linalg.zero_vector",
    "linalg.check_length", "linalg.dot", "linalg.vec_add", "linalg.vec_sub",
    "linalg.vec_scale", "linalg.vec_neg", "linalg.is_zero", "linalg.primitive",
    "linalg.with_positive_leading", "intersection.divisor",
})

# Calls of the inner function made while the outer one is running.
NESTED = {"linalg.span_rank": "cones.contains", "intersection.pair": "classifier.classify"}


class Tracer:
    """Spans and call counts of one traced stretch of the benchmark."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()  # derived counts, see _observe
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        namespaces = [sys.modules["fanobalance"]]
        namespaces += [sys.modules[f"fanobalance.{m}"] for m in MODULES]
        for module in namespaces:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("fanobalance.")):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(name, fn)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        calls = self.calls
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, active, extra = self.spans, self._stack, self._active, self.extra
        outer = NESTED.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if outer and active[outer]:
                extra[f"{name}.under.{outer}"] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent)
            self._observe(name, args, result)
            return result
        return spanned

    def _observe(self, name: str, args, result) -> None:
        if name == "cones.dual_extreme_rays":
            self.extra["cones.dual_extreme_rays.constraints_in"] += len(args[0])
            self.extra["cones.dual_extreme_rays.rays_out"] += len(result[0])
        elif name == "cones.contains" and result:
            self.extra["cones.contains.members"] += 1

    def self_times(self) -> Counter:
        """Seconds per function name spent in its own spans, children excluded.

        Calls run on one thread, so the children of a span never overlap and
        its self time is its duration minus theirs.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return self_s
