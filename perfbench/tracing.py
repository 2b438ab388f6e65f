"""Spans around the public functions of a package, recorded from outside it.

`Tracer.installed()` rebinds every public module-level function of the
package at every module attribute that refers to it, so a call made through
any import path (``quadric_cr.spectral_data``, ``quadric_cr.fock.spectral_data``
or a function-local ``from .fock import pi_of_f``) opens a span.  Callables
that the benchmark builds or receives, such as a sampled function's evaluator
or a spectral ``coeff`` closure, are wrapped with `Tracer.wrap` and record
only while the tracer is installed.

A span is (name, start, end, parent index).  Self time is a span's duration
minus the durations of its direct children; calls nest on one thread, so the
children never overlap.  Spans stay in memory until `write_sidecar`.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package, counters=None):
        self.package = package
        # span name -> callable(args, result) -> {counter name: amount}
        self.counters = dict(counters or {})
        self.active = False
        self.spans = []
        self._stack = []
        self.reset_totals()

    def reset_totals(self):
        """Zero the per-name call counts, self times and counters."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def wrap(self, fn, name):
        """`fn` with a span named `name` around each call made while active."""
        count = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent)
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if count is not None:
                for key, amount in count(args, result).items():
                    self.counts[key] += amount
            return result

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    @contextlib.contextmanager
    def installed(self):
        """Rebind the package's public functions to traced wrappers, then restore."""
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__[len(self.package) + 1:] or self.package
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self.wrap(value, f"{layer}.{attr}")
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    saved.append((mod, attr, value))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def root_seconds(self, since=0):
        """Time covered by parentless spans recorded at index `since` or later."""
        return sum(end - start for _, start, end, parent in self.spans[since:] if parent == -1)

    def write_sidecar(self, path, extra):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent"]
        doc["span_names"] = names
        doc["spans"] = [[index[n], s, e, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
