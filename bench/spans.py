"""In-memory spans around the public functions of the ``pcfi`` modules.

:func:`traced` rebinds, for the duration of a ``with`` block, every
function listed in a module's ``__all__`` to a wrapper that records one
span per call. Every ``pcfi`` namespace that imported the function by
name (``from .confidence import compute_spds``) is rebound too, so calls
between modules are seen. The program's own files are not touched.

Each thread keeps its own span stack. A span that starts on a thread
with an empty stack (a pool worker) takes as parent the innermost open
span of the thread that created the :class:`Tracer`, which is the
caller waiting on that pool. A span's self time is its duration minus
the part of it that its children cover, so children running side by
side on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("confidence", "diffusion", "graph", "io", "masking", "metrics",
          "pipeline", "propagation", "synth")


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe_components(args, kwargs, result):
    return {"num_components": int(result.num_components)}


def _observe_stage1(args, kwargs, result, signature):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    g, fs = bound.arguments["g"], bound.arguments["fs"]
    return {"nodes": int(g.num_nodes), "edges": int(g.num_edges),
            "steps": int(bound.arguments["steps"]),
            "channels_missing": int((~fs.known).any(axis=0).sum())}


def _observe_stage2(args, kwargs, result):
    n, f = args[0].shape
    return {"nodes": int(n), "channels": int(f)}


def _observe_path(args, kwargs, result):
    return {"path": str(args[0] if args else next(iter(kwargs.values())))}


def _observers(name: str, fn):
    """Counts taken from a call's arguments or result, after its span ends."""
    if name == "graph.connected_components":
        return _observe_components
    if name == "diffusion.impute_stage1":
        return functools.partial(_observe_stage1, signature=inspect.signature(fn))
    if name == "propagation.propagate_stage2":
        return _observe_stage2
    if name.startswith(("io.load_", "io.write_")):
        return _observe_path
    return None


class Tracer:
    """Collects spans; ``spans`` is only appended to, one record per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # the creating thread's stack; pool workers read its innermost span
        self._origin_stack: list[Span] = []
        self._local.stack = self._origin_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._origin_stack[-1].id
            except IndexError:
                parent = None
        span = Span(id=next(self._ids), parent=parent,
                    thread=threading.get_ident(), name=name,
                    start=time.perf_counter(), cpu=time.process_time())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn):
        observe = _observers(name, fn)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced_call


def _pcfi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pcfi" or name.startswith("pcfi."))]


@contextmanager
def traced(tracer: Tracer):
    """Wrap the public functions of every ``pcfi`` layer module while the
    block runs.

    A layer module, or a name in its ``__all__``, that no longer exists
    is skipped; the metrics built on it then report as absent.
    """
    __import__("pcfi.cli")
    originals = {}
    for layer in LAYERS:
        module = sys.modules.get(f"pcfi.{layer}")
        if module is None:
            continue
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                span_name = f"{layer}.{name}"
                originals[id(fn)] = tracer.wrap(span_name, fn)
                tracer.wrapped.add(span_name)
    patched = []
    for module in _pcfi_modules():
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanTree:
    """Parent/child index over a finished list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int | None, list[Span]] = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, [])
        return span.duration - _union_length(
            [(k.start, k.end) for k in kids], span.start, span.end)

    def descendants(self, span: Span):
        todo = list(self.children.get(span.id, []))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s.id, []))

    def has_ancestor_in(self, span: Span, names) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def outermost(self, spans, names):
        """Spans named in ``names`` with no enclosing span of those names,
        so nested calls (``load_dataset`` into ``load_matrix``) count once."""
        names = set(names)
        return [s for s in spans
                if s.name in names and not self.has_ancestor_in(s, names)]

    def problems(self) -> list[str]:
        """Violations of the span invariants: children inside their
        parents and self times non-negative."""
        out = []
        for s in self.spans:
            if s.end < s.start:
                out.append(f"span {s.id} {s.name} ends before it starts")
            parent = self.by_id.get(s.parent)
            if s.parent is not None and parent is None:
                out.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
            if parent is not None and not (parent.start <= s.start
                                           and s.end <= parent.end):
                out.append(f"span {s.id} {s.name} lies outside parent "
                           f"{parent.id} {parent.name}")
            if self.self_time(s) < 0:
                out.append(f"span {s.id} {s.name} has negative self time")
        return out
