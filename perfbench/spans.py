"""In-memory span recorder and the rebinding that puts spans around nqsim calls.

A span is (name, start, end, parent, run_id, counts).  Spans stay in memory
while the traced code runs and are written out once, when the benchmark ends.
Self time is a span's duration minus the part of its interval that its direct
child spans cover.

Tracing wraps the public functions of each nqsim module and rebinds every
module-level name that refers to one of them, in every loaded nqsim module, so
that calls made through `from .x import f` copies are seen too.  `uninstall`
puts the originals back; untraced runs never install anything.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from typing import Callable, NamedTuple

MODULES = ("ring", "dynamics", "algebra", "observers", "limits", "ensemble", "scaling", "verify", "cli")

# Observer methods with per-step metrics; module functions are found by
# inspection, methods have to be named.
METHODS = (
    ("observers", "LevelLog", "on_step"),
    ("observers", "ParityGapSeries", "on_step"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run_id: str
    counts: dict | None


class SpanRecorder:
    def __init__(self) -> None:
        self._open: list[list] = []
        self._stack: list[int] = []
        self.run_id = "job"

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        clock = time.perf_counter
        spans = self._open
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                spans[idx][5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._open]

    def dump(self, path) -> None:
        """Write every span as a JSON list, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(self._open, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(kids):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _nqsim_modules() -> list:
    return [mod for name, mod in sys.modules.items() if name == "nqsim" or name.startswith("nqsim.")]


def install(recorder: SpanRecorder, counters: dict[str, Callable]) -> Callable[[], None]:
    """Wrap nqsim's public functions and listed methods; return the undo function."""
    wrapped: dict[int, tuple[Callable, Callable]] = {}
    for short in MODULES:
        mod = sys.modules[f"nqsim.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = (obj, recorder.wrap(name, obj, counters.get(name)))

    rebound: list[tuple[dict, str, Callable]] = []
    for mod in _nqsim_modules():
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                rebound.append((namespace, attr, obj))
                namespace[attr] = hit[1]

    patched_methods = []
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"nqsim.{short}"], cls_name)
        original = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        setattr(cls, meth, recorder.wrap(name, original, counters.get(name)))
        patched_methods.append((cls, meth, original))

    def uninstall() -> None:
        for namespace, attr, original in rebound:
            namespace[attr] = original
        for cls, meth, original in patched_methods:
            setattr(cls, meth, original)

    return uninstall
