"""In-memory span recorder that wraps sarloop's public functions from outside.

A target is named ``"module:attr"`` or ``"module:Class.method"``. Wrapping
replaces the function everywhere sarloop's modules hold a reference to it
(``from .x import f`` copies the name into the importing module), so calls
made through any of those names are recorded. Each call becomes one span:
name, layer, start, end, parent span and run id, plus optional counts taken
from the call's arguments and result. Spans stay in memory until the run
ends; ``unwrap`` restores the original functions.

A target that no longer exists (a later version renamed or removed it) is
listed in ``missing`` instead of failing the run.

Uses only the standard library, so importing it costs nothing measurable.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

COUNT_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    run_id: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    # Time spent taking counts after ``end``; it belongs to no layer.
    hook_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for one run; create one per run and ``unwrap`` at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, layer: str,
             count: Callable[[tuple, dict, object], dict] | None = None) -> bool:
        """Record a span around every call of ``target``; False if it is missing."""
        mod_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError, ValueError):
            self.missing.append(target)
            return False
        if not callable(original):
            self.missing.append(target)
            return False
        wrapper = self._make_wrapper(f"{layer}.{path}", layer, original, count)
        if outer:
            self._replace(owner, attr, wrapper)
            return True
        root = mod_name.split(".")[0]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == root or name.startswith(root + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapper)
        return True

    def unwrap(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _replace(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _make_wrapper(self, name: str, layer: str, fn, count):
        stack, spans, run_id, ids = self._stack, self.spans, self.run_id, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(ids), name, layer, run_id,
                        stack[-1].id if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except COUNT_ERRORS as exc:
                    span.counts = {"count_error": repr(exc)}
                span.hook_s = clock() - span.end
            return result

        return traced


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    A child covers its own interval plus the count-taking time after it.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                    + s["end"] - s["start"] + s["hook_s"])
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}
