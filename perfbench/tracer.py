"""Spans around the library's public functions, recorded from outside it.

``install`` wraps every public function defined in the given modules and
rebinds the wrapper under every module name the function was imported as
(``moduli``, ``cli`` and ``verification`` import ``partition_orbits`` by
name, so wrapping it in ``orbispin.orbits`` alone would miss their calls).
Spans are kept in memory as [name, start, end, parent, extra] and written
out when the run ends.  A span's self time is its duration minus the time
its children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import tracemalloc
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.paused = False
        self.memory = False  # measure the calls wrapped with memory=True
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, extra: Callable | None = None, memory: bool = False) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``extra(args, result)`` annotates the span.  With ``memory``, and
        while ``self.memory`` is set, the tracemalloc peak of the call is
        stored under "peak_bytes"; tracemalloc slows small calls several
        times over, so spans whose times are used are recorded without it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure = memory and self.memory
            if measure:
                tracemalloc.start()
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            annotations = extra(args, result) if extra else {}
            if measure:
                annotations["peak_bytes"] = peak
            span[4] = annotations or None
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, defining: Iterable[ModuleType], importers: Iterable[ModuleType], hooks: dict) -> None:
    """Wrap the public functions of ``defining`` and rebind them in ``importers``.

    ``hooks`` maps "module.function" to keyword arguments for
    :meth:`Tracer.wrap`.
    """
    wrappers: dict[Callable, Callable] = {}
    for mod in defining:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            label = f"{short}.{name}"
            wrappers[obj] = tracer.wrap(label, obj, **hooks.get(label, {}))
    for mod in importers:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])


class SpanIndex:
    """Per-name durations and children of a list of spans."""

    def __init__(self, spans: list[list[Any]]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i, (name, _, _, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.children.setdefault(parent, []).append(i)

    def of(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.of(name))

    def mean(self, name: str) -> float:
        calls = self.of(name)
        return self.total(name) / len(calls) if calls else 0.0

    def child_names(self, i: int) -> list[str]:
        return [self.spans[c][0] for c in self.children.get(i, [])]

    def self_time(self, i: int, only: Iterable[str]) -> float:
        """Duration minus the durations of the children named in ``only``
        (children never overlap, since one caller runs them in turn)."""
        kids = [c for c in self.children.get(i, []) if self.spans[c][0] in only]
        return self.duration(i) - sum(self.duration(c) for c in kids)

    def extra(self, i: int, key: str, default: Any = None) -> Any:
        annotations = self.spans[i][4]
        return annotations.get(key, default) if annotations else default
