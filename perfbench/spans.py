"""In-memory span tracing and the arithmetic over span trees.

A :class:`Tracer` records one :class:`Span` per call of a wrapped
function: its name, start, end and the span that was open when it began
(its parent).  Spans stay in memory and are written out once, when the
traced flow ends.

The functions below work on plain span lists, so they can be checked on
synthetic trees:

* :func:`self_times` -- a span's duration minus the part of that
  interval its child spans cover;
* :func:`covered` -- the length of the union of span intervals inside a
  window (what the spans account for);
* :func:`inclusive` -- total time of the outermost spans of one name,
  optionally restricted to spans with (or without) a given ancestor.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        """Inclusive wall time of the call."""
        return self.end - self.start


class Tracer:
    """Collects spans (and named counts) of one single-threaded run.

    ``clock`` must be comparable across processes when the spans are
    related to a wall time measured outside the traced process;
    :func:`time.perf_counter` is (CLOCK_MONOTONIC on Linux).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close the span opened as ``idx`` (must be the innermost)."""
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        s = self.spans[idx]
        self.spans[idx] = Span(s.name, s.start, self.clock(), s.parent)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(counts, result)`` runs
        after each successful call to record counts where the work
        happens."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`wrap` for inline blocks."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def dump(self, path: str) -> None:
        """Write spans and counts as JSON."""
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def load_spans(rows: list) -> list:
    """Inverse of the ``spans`` list :meth:`Tracer.dump` writes."""
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list) -> list:
    """``children[i]`` lists the indices of span ``i``'s direct children."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    return children


def self_times(spans: list) -> list:
    """Per span: duration minus the part its direct children cover."""
    children = children_of(spans)
    out = []
    for s, kids in zip(spans, children):
        inner = union_length(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        )
        out.append(s.duration - inner)
    return out


def covered(spans: list, t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` covered by at least one span."""
    return union_length(
        (max(s.start, t0), min(s.end, t1)) for s in spans if s.parent is None
    )


def unattributed_frac(spans: list, t0: float, t1: float) -> float:
    """Share of the wall interval ``[t0, t1]`` that no span covers."""
    wall = t1 - t0
    if wall <= 0:
        raise ValueError("empty wall interval")
    return 1.0 - covered(spans, t0, t1) / wall


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def inclusive(
    spans: list,
    name: str,
    under: str | None = None,
    not_under: str | None = None,
) -> tuple:
    """``(seconds, calls)`` of spans called ``name``.

    Seconds count only the outermost such spans (a recursive call is
    already inside its caller's interval); calls count every span.
    ``under`` / ``not_under`` keep only spans with / without an
    ancestor of that name.
    """
    seconds, calls = 0.0, 0
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        if under is not None and not _has_ancestor(spans, i, under):
            continue
        if not_under is not None and _has_ancestor(spans, i, not_under):
            continue
        calls += 1
        if not _has_ancestor(spans, i, name):
            seconds += s.duration
    return seconds, calls


def self_by_name(spans: list) -> dict:
    """Summed self time per span name."""
    out: dict = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def self_by_layer(spans: list) -> dict:
    """Summed self time per layer (the span name before the first dot)."""
    out: dict = {}
    for name, t in self_by_name(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out
