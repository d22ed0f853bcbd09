"""In-memory span tracing around the public functions of mdim.

The tracer replaces every function named in ``mdim.__all__`` (plus
``mdim.cli.main``) with a wrapper, in the namespace of every mdim module
that holds it.  That includes the names a module imports, such as
``mdim.search.is_resolving_fast`` or ``mdim.graphs.bfs_distances``, so a
call made inside the library becomes a child span of its caller.  A span
is named after the module that defines the function, e.g.
``resolve.is_resolving_fast``, whichever namespace it was called through.

Spans stay in memory until ``dump``.  Each one records its name, start,
end, parent span, op id, the dimension ``n`` of its first argument when
it has one, and, for the names given as ``memory_spans`` while tracemalloc
is tracing, the peak traced allocation during the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
import tracemalloc
from collections import defaultdict

MODULES = ("mdim", "mdim.core", "mdim.construct", "mdim.resolve", "mdim.search", "mdim.graphs", "mdim.cli")

# Span fields, in list order.
NAME, START, END, PARENT, OP, N, PEAK = range(7)


class Tracer:
    def __init__(self, memory_spans: tuple[str, ...] = ()) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._memory_spans = frozenset(memory_spans)
        self._local = threading.local()
        self._memory: tuple[int, int] | None = None  # the open memory span: (index, traced at open)
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions in every mdim module namespace."""
        import mdim

        public = set(mdim.__all__) | {"main"}
        wrappers: dict[object, object] = {}
        # import everything first: a module imported mid-loop would bind wrappers as its originals
        modules = [importlib.import_module(name) for name in MODULES]
        for module in modules:
            for attr in sorted(public):
                fn = module.__dict__.get(attr)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("mdim."):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.split(".", 1)[1]
                    wrappers[fn] = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                index = self._open(name, args)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(index)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, args: tuple) -> int:
        stack = self._stack()
        n = getattr(args[0], "n", None) if args else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op, n, None])
        stack.append(index)
        # One memory span at a time: no workload nests one inside another.
        if name in self._memory_spans and self._memory is None and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._memory = (index, tracemalloc.get_traced_memory()[0])
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)
        if self._memory is not None and self._memory[0] == index:
            span[PEAK] = tracemalloc.get_traced_memory()[1] - self._memory[1]
            self._memory = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, vertices (sum of 2^n) and peak bytes.

    ``bytes_per_vertex`` is the peak over 2^n of the calls at the largest n,
    where fixed costs matter least.
    """
    summary: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "vertices": 0, "peak_bytes": 0, "peak_n": -1,
                 "bytes_per_vertex": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = summary[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        if span[N] is not None:
            entry["vertices"] += 1 << span[N]
        if span[PEAK] is not None:
            entry["peak_bytes"] = max(entry["peak_bytes"], span[PEAK])
            if span[N] is not None and span[N] >= entry["peak_n"]:
                per_vertex = span[PEAK] / (1 << span[N])
                if span[N] > entry["peak_n"]:
                    entry["peak_n"], entry["bytes_per_vertex"] = span[N], per_vertex
                entry["bytes_per_vertex"] = max(entry["bytes_per_vertex"], per_vertex)
    return dict(summary)


def child_counts(spans: list[list], parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(
        1
        for span in spans
        if span[NAME] == child_name and span[PARENT] is not None and spans[span[PARENT]][NAME] == parent_name
    )
