"""Per-module spans recorded from outside the package.

The tracer wraps module-level functions of ``qincompat`` and rebinds every
name through which a module of the package (or the package itself) refers
to them, so calls made between modules pass through the wrappers.  Nothing
in the package is edited; ``uninstall`` puts the original objects back.

A span is (name, start, end, parent).  The self time of a span is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.totals = defaultdict(float)  # name -> summed duration
        self.selfs = defaultdict(float)  # name -> summed self time
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []  # [span index, time covered by children]
        self._bindings = []  # (module, attribute, original)

    def reset(self):
        self.spans.clear()
        for table in (self.totals, self.selfs, self.calls, self.counters, self.maxima):
            table.clear()

    def count(self, name, value=1):
        self.counters[name] += value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, name, fn, after=None):
        """Wrapper recording one ``name`` span per call; ``after(tracer,
        args, kwargs, result)`` records counters from the call."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                spans[idx] = (name, start, end, parent)
                self.totals[name] += dur
                self.selfs[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, targets):
        """Rebind each ``(module_name, function_name, span_name, after)``
        target wherever a module of ``package`` holds that function."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module_name, fn_name, span, after in targets:
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            wrapper = self.wrap(span, original, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def top_level_s(self):
        """Summed duration of spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
