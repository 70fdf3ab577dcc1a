"""Spans around the benchmark's own calls into curvespace.

A span records a name, start, end, parent span and query id, plus a few
attributes (regime, word length, curve size).  Spans stay in memory and are
written out once, when the run ends.  Only the benchmark's call sites are
traced: a span around ``stbundle.st_multiply`` covers everything that call
does inside the program.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    query: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, note=None, **attrs):
        return fn(*args)

    def query(self, qid, shape):
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._query: int | None = None

    def _open(self, name, attrs):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, self._query, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, exc):
        span.end = time.perf_counter()
        if exc is not None:
            span.error = type(exc).__name__
        self._stack.pop()

    def call(self, name, fn, *args, note=None, **attrs):
        """``fn(*args)`` inside a span; ``note(result)``, if given, is kept
        as the span's ``note`` attribute (a size or a verdict)."""
        span = self._open(name, attrs)
        try:
            out = fn(*args)
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)
        if note is not None:
            span.attrs["note"] = note(out)
        return out

    def query(self, qid, shape):
        return _QuerySpan(self, qid, shape)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


class _QuerySpan:
    def __init__(self, tracer, qid, shape):
        self.tracer, self.qid, self.shape = tracer, qid, shape

    def __enter__(self):
        self.tracer._query = self.qid
        self.span = self.tracer._open(f"query.{self.shape}", {})
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.span, exc)
        self.tracer._query = None
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = (s.end - s.start) - covered
    return out
