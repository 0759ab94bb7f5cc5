"""In-memory spans recorded around calls into quadpath, from outside it.

A :class:`Tracer` replaces named attributes (module globals or class
methods) with wrappers that time each call.  quadpath binds names with
``from ... import``, so each name is patched in the module that looks it up,
not where it is defined.  Spans are kept in memory; nothing is written while
a flight runs.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Span:
    """One timed call: ``parent`` is the index of the enclosing span (-1 at
    the top); ``step`` is the control-step index the call belongs to;
    ``info`` is whatever the wrapper's ``observe`` hook returned."""

    __slots__ = ("name", "parent", "step", "start", "end", "info")

    def __init__(self, name, parent, step, start, end=0.0, info=None):
        self.name = name
        self.parent = parent
        self.step = step
        self.start = start
        self.end = end
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of every wrapped name.

    ``step_boundary`` names the span whose entry starts a new control step;
    spans before the first one carry step -1.
    """

    def __init__(self, step_boundary: str):
        self.step_boundary = step_boundary
        self.spans: list[Span] = []
        self.step = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _enter(self, name: str) -> Span:
        if name == self.step_boundary:
            self.step += 1
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.step, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`restore`.

        ``observe(args, kwargs, result)`` runs after a call returns and its
        value is stored as the span's ``info``; it runs outside the timed
        interval.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous and single-threaded, so children of one span are
    disjoint and lie inside it; their durations add up to the covered part.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def totals(spans) -> dict:
    """Per span name: ``(calls, inclusive seconds, self seconds)``."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        calls, incl, excl = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1, incl + span.duration, excl + own)
    return out


def write_csv(spans, path: str) -> None:
    """One line per span: index, name, parent index, step, start, end (s)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,parent,step,start_s,end_s\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.parent},{s.step},{s.start:.9f},{s.end:.9f}\n")
