"""In-memory span recorder that wraps mgsched functions from the outside.

A wrapped function is replaced in every mgsched module namespace that
holds it, because that is where its callers look it up (``sim.run`` finds
``dispatch_slot`` in ``mgsched.sim``, ``dispatch_slot`` finds
``merit_order_allocate`` in ``mgsched.dispatch``). Nothing under ``src/``
is edited. Each call records one span: name, start, end and the index of
the enclosing span. A function listed as count-only only bumps a counter,
which keeps sub-microsecond helpers from dominating the tracing overhead;
its time stays in its caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans and call counts for the functions it installs on."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(self.extra, args, kwargs, result)
            return result

        return traced

    def _wrap_count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, name: str, module: str, fn_name: str,
                observe=None, count_only: bool = False) -> None:
        """Wrap ``module.fn_name`` wherever an mgsched module binds it.

        observe(extra, args, kwargs, result) runs after each traced call
        and may add to the ``extra`` totals.
        """
        orig = getattr(sys.modules[module], fn_name)
        wrapper = (self._wrap_count(name, orig) if count_only
                   else self._wrap(name, orig, observe))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mgsched" and not mod_name.startswith("mgsched."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover; the process is single-threaded, so children of one
        span never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for name, count in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["calls"] += count
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header, then one JSON array per span: name, start, end,
        parent index."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
