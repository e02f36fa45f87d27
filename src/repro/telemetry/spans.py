"""Sim-clock-aware tracing: spans, trace contexts, the tracer, and records.

A :class:`Span` measures one operation on the *simulation* clock (the
tracer is constructed with the clock callable, normally
``lambda: kernel.now``).  Spans nest through parent links and cross RPC
hops through :class:`TraceContext`, a two-id envelope that rides in
``RpcRequest.trace`` as a plain dict — no live objects cross the wire,
matching the rest of the stack's serialization discipline.

Ids come from deterministic counters, never :mod:`uuid`, so a trace is a
pure function of the run's seed (the repo-wide reproducibility rule).

A :class:`LogRecord` is the point-in-time sibling of a span: one
structured event a subsystem emits through ``Kernel.emit``, handed to the
hub's record sinks and kept by nobody else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.util.ids import IdFactory

_UNSET = object()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one span: wire-friendly, two strings."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"])


@dataclass(frozen=True)
class LogRecord:
    """One structured event: when, which component, what, and detail.

    ``subsystem`` is a dotted component name (``"ntcp.server.uiuc"``),
    ``kind`` a short machine-readable event kind
    (``"transaction.accepted"``).
    """

    time: float
    subsystem: str
    kind: str
    detail: dict[str, Any]


class Span:
    """One timed operation; finish it exactly once with :meth:`end`.

    Spans are started by the tracer; generator-based code holds the span
    across yields and ends it when the operation completes (a context
    manager would end at the wrong time there).  ``attrs`` is free-form
    metadata merged at start and at end.
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "start", "end_time", "attrs")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: str | None, start: float,
                 attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end_time: float | None = None
        self.attrs = attrs

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise RuntimeError(f"span {self.name!r} not finished")
        return self.end_time - self.start

    def end(self, **attrs: Any) -> "Span":
        """Finish the span at the current clock time; idempotent."""
        if self.end_time is None:
            self.attrs.update(attrs)
            self.end_time = self.tracer._clock()
            self.tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span on scope exit; exceptions are recorded, not eaten.

        For synchronous code, ``with tracer.start_span(...) as span:`` is
        the preferred shape (the RPR004 lint rule enforces that spans are
        closed); generator-based code keeps calling :meth:`end` explicitly
        because a ``with`` block would close at the wrong time there.
        """
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end_time,
            "duration": None if self.end_time is None else self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration:.4f}s" if self.finished else "open"
        return f"<Span {self.name} {self.span_id} {state}>"


class Tracer:
    """Creates spans on a clock and collects the finished ones.

    Parenting is explicit (``parent=span_or_context``) or ambient: a
    dispatcher that receives a remote trace context may :meth:`activate`
    it around a synchronous handler call, and any span started without an
    explicit parent inside that window becomes its child.  The ambient
    slot is only trusted across synchronous code — generator bodies that
    resume later must capture their parent at creation time.
    """

    def __init__(self, clock: Callable[[], float],
                 on_finish: Callable[[Span], None] | None = None):
        self._clock = clock
        self._on_finish = on_finish
        self._trace_ids = IdFactory("trace")
        self._span_ids = IdFactory("span")
        self._active: TraceContext | None = None
        self.finished: list[Span] = []

    # -- ambient context ---------------------------------------------------
    def activate(self, ctx: "TraceContext | Span | None"):
        """Install ``ctx`` as the ambient parent; returns the previous one.

        Callers must restore the returned value in a ``finally`` block.
        """
        previous = self._active
        self._active = ctx.context if isinstance(ctx, Span) else ctx
        return previous

    # -- span lifecycle -----------------------------------------------------
    def start_span(self, name: str, *, parent: Any = _UNSET,
                   **attrs: Any) -> Span:
        """Open a span; ``parent`` may be a Span, TraceContext, dict or None.

        Omitting ``parent`` adopts the ambient active context (if any);
        passing ``parent=None`` forces a new root trace.
        """
        if parent is _UNSET:
            parent = self._active
        if isinstance(parent, Span):
            parent = parent.context
        elif isinstance(parent, dict):
            parent = TraceContext.from_dict(parent)
        if parent is None:
            trace_id, parent_id = self._trace_ids(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, self._span_ids(), parent_id,
                    self._clock(), dict(attrs))

    def _finish(self, span: Span) -> None:
        self.finished.append(span)
        if self._on_finish is not None:
            self._on_finish(span)

    # -- queries ------------------------------------------------------------
    def spans(self, name: str | None = None, *,
              trace_id: str | None = None) -> list[Span]:
        """Finished spans filtered by exact name and/or trace id."""
        out = []
        for span in self.finished:
            if name is not None and span.name != name:
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            out.append(span)
        return out

    def children(self, parent: "Span | TraceContext") -> list[Span]:
        """Finished direct children of ``parent``."""
        pid = parent.span_id
        return [s for s in self.finished if s.parent_id == pid]
