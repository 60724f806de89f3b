"""Span tracer that wraps the program's public functions from outside.

A span records one call at a layer boundary: its name, its layer, start
and end on the ``time.perf_counter`` clock, and the span that caused it. Spans stay in memory until the benchmark reads them.

Wrapping never edits the program's source. :meth:`Tracer.patch` replaces
a function object under every name it is bound to in the loaded
``oncograde`` modules (``oncograde.cli.smote`` as well as
``oncograde.preprocess.smote``), so a call is traced wherever it is
looked up. :meth:`Tracer.uninstall` puts every original back.

``core.parallel_map`` gets a dedicated wrapper: each mapped item runs in
its own span whose parent is the map's span, so spans opened on worker
threads still have a parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_UNSET = object()
PACKAGE = "oncograde"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``.

    Intervals may overlap one another (children that ran on different
    threads) and may stick out of [lo, hi]; both are clipped first.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """Collects spans; owns the patches it installs until :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def current(self) -> int | None:
        return getattr(self._local, "current", None)

    def ancestors(self, sid: int | None):
        """Yield the spans above ``sid``, nearest first."""
        while sid is not None:
            span = self.spans[sid]  # a span's sid is its index
            yield span
            sid = span.parent

    @contextmanager
    def span(self, name: str, layer: str, parent=_UNSET):
        parent = self.current() if parent is _UNSET else parent
        with self._lock:
            span = Span(len(self.spans), name, layer, parent, 0.0)
            self.spans.append(span)
        previous = self.current()
        self._local.current = span.sid
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._local.current = previous

    # --- patching ------------------------------------------------------------

    @staticmethod
    def _loaded_modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def patch(self, original, replacement) -> None:
        """Bind ``replacement`` wherever a loaded module binds ``original``."""
        for module in self._loaded_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def patch_method(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, on_result=None, around=None):
        """A traced stand-in for ``fn``.

        ``on_result(span, args, kwargs, result)`` records counters once the
        call returns; ``around(span)`` is a context manager entered inside
        the span, for measurements that must bracket the call itself.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as span:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    with around(span):
                        result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result

        return traced

    def wrap_parallel_map(self, fn):
        """Trace ``core.parallel_map(fn, items)``: one child span per item.

        Item spans take the layer of the span that called the map, so work
        done inside an item (a bootstrap draw, a fold's glue) counts toward
        the caller's layer and not toward the map itself.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(item_fn, items):
            caller = tracer.current()
            caller_span = tracer.spans[caller] if caller is not None else None
            item_layer = caller_span.layer if caller_span else "core"
            item_name = (caller_span.name if caller_span else "core.parallel_map") + ".item"
            with tracer.span("core.parallel_map", "core") as map_span:
                map_span.data["items"] = len(items)

                def run_item(item):
                    with tracer.span(item_name, item_layer, parent=map_span.sid) as s:
                        s.data["wait_s"] = s.start - map_span.start
                        return item_fn(item)

                return fn(run_item, items)

        return traced
