"""In-memory span tracer for the per-layer benchmark run.

The traced run wraps public functions of each ``repro`` layer (see
``layers.py``).  Every wrapped call records one span: its name, start,
end, parent span and the request id(s) it served.  Spans stay in memory
while the workload runs and are written out once at the end.

The tracer keeps one span stack, which is exact for a single-threaded
program.  Coroutines are the one wrinkle: a wrapped ``async`` function
can suspend, and other tasks then run while its span is open.  The
coroutine wrapper therefore *pauses* its span at every suspension and
resumes it when the coroutine is sent back in, so the stack only ever
holds spans whose code is running.  With that, every instant of the
traced wall time belongs to exactly one innermost running span or to
none, and::

    sum(self time of every span) + unattributed == traced wall time

holds by construction (``self_times`` computes both sides).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


class Span:
    """One wrapped call."""

    __slots__ = ("index", "name", "start", "end", "parent", "request",
                 "paused", "pause_start", "attrs")

    def __init__(self, index: int, name: str, start: float,
                 parent: int) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        #: Index of the enclosing span, or -1 for a root span.
        self.parent = parent
        #: Request id (int), wave member ids (tuple) or ``None`` (inherit
        #: the parent's at export time).
        self.request: Any = None
        #: Seconds the span spent suspended (coroutines only).
        self.paused = 0.0
        self.pause_start = 0.0
        #: Scalars noted at the boundary (pixels, cycles, outcome...).
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def active(self) -> float:
        """Seconds the span's code (or its callees) was running."""
        return self.end - self.start - self.paused


class Tracer:
    """Records spans on one stack; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        stack = self._stack
        span = Span(len(self.spans), name, self.clock(),
                    stack[-1].index if stack else -1)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._remove(span)

    def pause(self, span: Span) -> None:
        span.pause_start = self.clock()
        self._remove(span)

    def resume(self, span: Span) -> None:
        span.paused += self.clock() - span.pause_start
        self._stack.append(span)

    def _remove(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any],
             note: Optional[Callable[[Span, tuple, Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call.  ``note(span,
        args, result)`` runs after the span closes, so its cost is not
        charged to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable[..., Any],
                   note: Optional[Callable[[Span, tuple, Any], None]] = None
                   ) -> Callable[..., Any]:
        """Coroutine-function counterpart of :meth:`wrap`; the span is
        paused while the coroutine is suspended."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = await _Paced(fn(*args, **kwargs), tracer, span)
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, result)
            return result

        return traced


class _Paced:
    """Drives a coroutine, pausing its span across each suspension."""

    def __init__(self, coro: Any, tracer: Tracer, span: Span) -> None:
        self.coro = coro
        self.tracer = tracer
        self.span = span

    def __await__(self) -> Any:
        coro, tracer, span = self.coro, self.tracer, self.span
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            tracer.pause(span)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc
            tracer.resume(span)


# -- arithmetic -----------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: its active time minus its children's.

    Children never overlap each other (one stack), so the part of a
    span's interval its children cover is the sum of their active times.
    """
    own = [span.active for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.active
    return own


def unattributed(spans: Iterable[Span], wall_seconds: float) -> float:
    """Traced wall time not covered by any root span."""
    return wall_seconds - sum(span.active for span in spans
                              if span.parent < 0)


def resolve_requests(spans: Sequence[Span]) -> List[Any]:
    """Each span's request id(s), inherited from the nearest ancestor
    that has them (spans are stored parents-first)."""
    resolved: List[Any] = []
    for span in spans:
        request = span.request
        if request is None and span.parent >= 0:
            request = resolved[span.parent]
        resolved.append(request)
    return resolved


def write_chrome_trace(spans: Sequence[Span], path: str,
                       origin: float) -> None:
    """Write ``spans`` as Chrome trace-event JSON (opens in Perfetto)."""
    requests = resolve_requests(spans)
    events = []
    for span, request in zip(spans, requests):
        args: Dict[str, Any] = {"span": span.index, "parent": span.parent}
        if request is not None:
            args["request"] = (list(request)
                               if isinstance(request, tuple) else request)
        if span.paused:
            args["paused_us"] = round(span.paused * 1e6, 3)
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "name": span.name, "ph": "X", "pid": 0, "tid": 0,
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "args": args})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle, separators=(",", ":"))
