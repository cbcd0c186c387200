"""In-memory spans around the public entry points of each FELIP layer.

The benchmark never edits the program: :meth:`Tracer.wrap` swaps the
module (or class) attribute a caller resolves at call time for a wrapper
that records a span, and :meth:`Tracer.uninstall` puts the original
back. Spans stay in memory until the benchmark reads them at the end.

A span opened on a worker thread with nothing open on that thread takes
as parent the innermost span open on the tracing thread at that moment:
the sharded executor runs kernels on pool threads on behalf of the
collection or materialization call that is blocked waiting for them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    sid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ()))
        out[span.sid] = span.duration - covered
    return out


def totals_by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over all spans."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name,
                             {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[span.sid]
        row["total_s"] += span.duration
    return out


def covered_share(spans: List[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by at least one span."""
    if end <= start:
        return 0.0
    return union_length((max(s.start, start), min(s.end, end))
                        for s in spans) / (end - start)


class Tracer:
    """Records spans; installs and removes attribute wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._home_stack: List[int] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and stack is not home else None
        span = Span(name, self.clock(), parent=parent,
                    thread=threading.get_ident(), sid=next(self._ids),
                    attrs=attrs)
        stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: Optional[str],
             counter: Optional[Callable] = None,
             attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict).

        ``name=None`` counts without recording a span. ``counter(tracer,
        args, kwargs, result)`` runs after each call; ``attrs(args)``
        labels the span.
        """
        is_dict = isinstance(owner, dict)
        if is_dict:
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                labels = attrs(args) if attrs is not None else {}
                with self.span(name, **labels):
                    result = original(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
