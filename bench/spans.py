"""Outside-in instrumentation of the labelshift package for the benchmark.

Nothing under the package changes. `Patcher` swaps a function at module
attributes and puts the originals back. `SpanRecorder` wraps each listed
public function at every module attribute that refers to it, so a call such
as ``cli.mlls_cm -> estimators.mlls_em`` records nested spans whichever
module the caller looked the name up in.

A span is (id, parent id, trace id, name, start, end, self seconds); the
trace id is the id of the outermost span, so the spans of one request share
it. Self time is the span's duration minus the time its child spans cover,
computed from a per-thread stack of open spans. Spans stay in memory until
`write_jsonl` is called at the end of the run.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter


class Patcher:
    """Replaces functions at module attributes and restores them."""

    def __init__(self):
        self._undo = []  # (owner, attribute, original), in patch order

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_everywhere(self, modules, original, replacement) -> None:
        """Point every attribute of `modules` that is `original` at `replacement`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


class SpanRecorder:
    """Span and counter recorder; `install` wraps, `uninstall` unwraps."""

    def __init__(self, package: str = "labelshift"):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.self_s = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patcher = Patcher()

    def add(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name: str, fn, on_return):
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent, trace = (stack[-1][1], stack[-1][2]) if stack else (0, span_id)
            frame = [0.0, span_id, trace]  # child seconds, id, trace id
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                own = end - start - frame[0]
                self.spans.append((span_id, parent, trace, name, start, end, own))
                with self._lock:
                    self.counts[name + ".calls"] += 1
                    self.self_s[name] += own
            if on_return is not None:
                on_return(self, name, args, result)
            return result

        return traced

    def install(self, names, on_return=None) -> None:
        """Wrap each "module.function" of the package wherever it is referenced.

        `on_return(recorder, name, args, result)` runs after each wrapped call
        returns, outside the span, to derive counts from arguments and results.
        """
        modules = package_modules(self.package)
        for qual in names:
            module, attr = qual.split(".")
            original = getattr(sys.modules[f"{self.package}.{module}"], attr)
            self._patcher.set_everywhere(modules, original, self._wrap(qual, original, on_return))

    def count_calls(self, cls, method: str, key: str) -> None:
        """Count calls of `cls.method` under `key` without opening a span."""
        original = getattr(cls, method)
        lock, counts = self._lock, self.counts

        def counted(*args, **kwargs):
            with lock:
                counts[key] += 1
            return original(*args, **kwargs)

        self._patcher.set(cls, method, counted)

    def uninstall(self) -> None:
        self._patcher.restore()

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "trace", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
