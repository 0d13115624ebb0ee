"""Spans, self time and the statistics helpers of the benchmark.

Nothing here imports the program under test: :func:`install` receives
the objects to wrap, so the helpers stay unit-testable on their own.

A span is one call into a layer's public function, recorded as
``[name, start_ns, end_ns, parent, request]`` where ``parent`` is the
index of the enclosing span (or -1) and ``request`` is the id shared by
every span of one runtime request (or None outside a replay).  Spans are
kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Metric and span names the result line may carry (the benchmark
#: contract: a letter or digit first, then letters, digits, ``_``, ``.``
#: and ``-``, at most 64 characters).
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def validate_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ValueError if it is malformed."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"bad metric name {name!r}")
    return name


def percentile(values: Sequence[float], p: float) -> Tuple[float, int, int]:
    """Nearest-rank ``p``-th percentile of ``values``.

    Returns ``(value, samples, beyond)``: the smallest sample with at
    least ``p`` percent of the samples at or below it, the sample count,
    and how many samples lie beyond the percentile's rank — a tail
    percentile means something only when ``beyond`` is at least ten.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(max(1, math.ceil(p / 100.0 * n)), n)
    return ordered[rank - 1], n, n - rank


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def self_times(spans: Sequence[Sequence]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self seconds and call counts of a span list.

    A span's self time is its duration minus the durations of its direct
    children (children nest inside their parent and, on one thread,
    never overlap each other).
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_ns[parent] += span[2] - span[1]
    selfs: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        selfs[span[0]] += (span[2] - span[1] - child_ns[index]) / 1e9
        calls[span[0]] += 1
    return dict(selfs), dict(calls)


def tag_requests(spans: Sequence[list], windows: Sequence[tuple], first: int = 0) -> None:
    """Give every span lying inside a request window that request's id.

    ``windows`` are ``(request id, start ns, end ns)`` in time order;
    spans are in start order, as recorded.  A span that straddles a
    window edge (the replay call itself) keeps no id.
    """
    w = 0
    for span in spans[first:]:
        while w < len(windows) and windows[w][2] < span[1]:
            w += 1
        if w == len(windows):
            return
        rid, start, end = windows[w]
        if start <= span[1] and span[2] <= end:
            span[4] = rid


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        validate_name(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def span(self, name: str) -> "_Span":
        """Context-manager span, for the benchmark's own phases."""
        return _Span(self, name)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.record: Optional[list] = None

    def __enter__(self):
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer._stack
            self.record = [
                self.name, time.perf_counter_ns(), 0,
                stack[-1] if stack else -1, None,
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        if self.record is not None:
            self.tracer._stack.pop()
            self.record[2] = time.perf_counter_ns()
        return False


def install(tracer: Tracer, targets: Sequence[Tuple[object, str, str]]) -> Callable[[], None]:
    """Wrap ``owner.attr`` as span ``name`` for every target; return undo.

    ``owner`` is a module or a class.  Class attributes are wrapped as
    found in the class ``__dict__``, so classmethods stay classmethods.
    """
    saved = []
    for owner, attr, name in targets:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(tracer.wrap(raw.__func__, name))
        else:
            wrapped = tracer.wrap(raw, name)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def undo() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return undo
