"""Sim-clock-aware tracing: spans, trace contexts, the tracer, and records.

A :class:`Span` measures one operation on the *simulation* clock (the
tracer is constructed with the clock callable, normally
``lambda: kernel.now``).  Spans nest through parent links and cross RPC
hops as a plain dict in ``RpcRequest.trace`` (:meth:`Span.to_wire`) — no
live objects cross the wire, matching the rest of the stack's
serialization discipline.  :class:`TraceContext` is the same two ids as
a value, for callers that want to hold a span's identity without the
span; the hot path reads the ids straight off the parent and builds
none.

Ids come from deterministic counters, never :mod:`uuid`, so a trace is a
pure function of the run's seed (the repo-wide reproducibility rule).

A finished span is kept as one row of the tracer's store, not as
the :class:`Span` object: the live span goes to the ``on_finish`` sinks
and is freed when they let go of it.  Readers get a :class:`SpanView`,
whose items are spans rebuilt from their rows.

A :class:`LogRecord` is the point-in-time sibling of a span: one
structured event a subsystem emits through ``Kernel.emit``, handed to the
hub's record sinks and kept by nobody else.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.ids import IdFactory
from repro.util.rows import Rows

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

    __slots__ = ("tracer", "name", "trace_id", "start", "end_time", "attrs",
                 "_number", "_parent_number", "_parent_text")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 number: int, parent_number: int, parent_text: str | None,
                 start: float, attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self._number = number
        #: the parent's ``N`` (of ``span-N``) when the parent is a span or
        #: a wire dict, 0 for a root, and otherwise minus the 1-based index
        #: of ``_parent_text``, the id itself, in the tracer's
        #: ``_foreign_ids``
        self._parent_number = parent_number
        self._parent_text = parent_text
        self.start = start
        self.end_time: float | None = None
        self.attrs = attrs

    @property
    def span_id(self) -> str:
        """``span-N``: formatted when read, so a span nobody asks builds
        no id string."""
        return f"span-{self._number}"

    @property
    def parent_id(self) -> str | None:
        number = self._parent_number
        return f"span-{number}" if number > 0 else self._parent_text

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_wire(self, covered: bool) -> dict[str, Any]:
        """This span's identity as ``RpcRequest.trace`` carries it: the
        two ids, the span number (so the receiving tracer parses no
        ``span-N``), and whether this span covers the hop itself."""
        return {"trace_id": self.trace_id, "span_id": f"span-{self._number}",
                "number": self._number, "covered": covered}

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise RuntimeError(f"span {self.name!r} not finished")
        return self.end_time - self.start

    def end(self, **attrs: Any) -> "Span":
        """Finish the span at the current clock time; idempotent.

        The tracer keeps the finished span as one row (see
        :class:`Tracer`); the span itself goes to ``on_finish`` only.
        """
        if self.end_time is None:
            if attrs:
                self.attrs.update(attrs)
            tracer = self.tracer
            self.end_time = tracer._clock()
            rows = tracer._rows  # ``Rows.append``, inlined: the hot path
            packed, objects, ends = rows.chunks[-1]
            if len(ends) == rows.full:
                packed, objects, ends = rows.grow()
            attrs = self.attrs
            objects.extend((self.name, self.trace_id))
            objects.extend(attrs)
            objects.extend(attrs.values())
            packed += _ROW.pack(self._number, self._parent_number,
                                self.start, self.end_time)
            ends.append(len(packed))
            ends.append(len(objects))
            if tracer.on_finish is not None:
                tracer.on_finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span on scope exit; exceptions are recorded, not eaten.

        For synchronous code, ``with tracer.start_span(...) as span:`` is
        the preferred shape (the RPR004 pin checks that spans are
        closed); generator-based code keeps calling :meth:`end` explicitly
        because a ``with`` block would close at the wrong time there.
        """
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False

    def to_dict(self) -> dict[str, Any]:
        return _as_dict(self.name, self.trace_id, self.span_id,
                        self.parent_id, self.start, self.end_time,
                        dict(self.attrs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration:.4f}s" if self.finished else "open"
        return f"<Span {self.name} {self.span_id} {state}>"


def _as_dict(name, trace_id, span_id, parent_id, start, end, attrs):
    """A span's ``to_dict()``: one shape for a live span and a row."""
    return {"name": name, "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "start": start, "end": end,
            "duration": None if end is None else end - start,
            "attrs": attrs}


#: a row's numbers: span number, parent number, start, end
_ROW = struct.Struct("qqdd")


class SpanView(Sequence):
    """A read-only sequence of finished spans: ``len`` reads no row, and
    each item is a :class:`Span` rebuilt from its row on read (a fresh
    object each time; changing it changes nothing kept)."""

    __slots__ = ("_tracer", "_rows")

    def __init__(self, tracer: "Tracer", rows: Sequence[int]):
        self._tracer = tracer
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpanView(self._tracer, self._rows[index])
        return self._tracer._span(self._rows[index])


class Tracer:
    """Creates spans on a clock and keeps the finished ones as rows.

    A finished span is one row of a :class:`~repro.util.rows.Rows`
    store, in finish order: ``_ROW`` numbers (span number, ``N`` of
    ``span-N``; parent number, 0 for a root and minus the 1-based index
    into ``_foreign_ids`` for a parent id given by a trace context or a
    dict with no ``number``, kept whole;
    start and end as C doubles, the clock returning floats), and the
    objects name, trace id, then the ``attrs`` keys and values in key
    order.

    Parenting is explicit (``parent=span_or_context``) or ambient: a
    dispatcher may :meth:`activate` a span (or a context) around a
    synchronous handler call, and any span started without an explicit
    parent inside that window becomes its child.  The ambient
    slot is only trusted across synchronous code — generator bodies that
    resume later must capture their parent at creation time.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        #: called with each span as it finishes; the hub sets it when its
        #: first span sink is added, so until then a finish calls nothing
        self.on_finish: Callable[[Span], None] | None = None
        self._trace_ids = IdFactory("trace")
        self._span_numbers = itertools.count(1)
        self._active: "Span | TraceContext | dict | None" = None
        #: the finished spans' rows
        self._rows = Rows()
        self._foreign_ids: list[Any] = []

    # -- ambient context ---------------------------------------------------
    def activate(self, ctx: "Span | TraceContext | dict | None"):
        """Install ``ctx`` as the ambient parent; returns the previous one.

        A span is held as itself (its ids never change).  Callers must
        restore the returned value in a ``finally`` block.
        """
        previous = self._active
        self._active = ctx
        return previous

    # -- span lifecycle -----------------------------------------------------
    def start_span(self, name: str, *, parent: Any = _UNSET,
                   **attrs: Any) -> Span:
        """Open a span; ``parent`` may be a Span, TraceContext, dict or None.

        Omitting ``parent`` adopts the ambient active context (if any);
        passing ``parent=None`` forces a new root trace.  The ids are read
        off the parent as they are: nothing is built to carry them.  A
        dict's ``number`` (:meth:`Span.to_wire`), when it has one, is
        trusted: the RPC layer checks a wire dict's before it gets here.
        """
        if parent is _UNSET:
            parent = self._active
        parent_text = None
        if parent is None:
            trace_id, parent_number = self._trace_ids(), 0
        elif isinstance(parent, Span):
            trace_id, parent_number = parent.trace_id, parent._number
        elif isinstance(parent, dict) and "number" in parent:  # Span.to_wire
            trace_id, parent_number = parent["trace_id"], parent["number"]
        else:  # two ids, a dict's or a context's: the id is kept whole
            if isinstance(parent, dict):
                trace_id, parent_text = parent["trace_id"], parent["span_id"]
            else:
                trace_id, parent_text = parent.trace_id, parent.span_id
            self._foreign_ids.append(parent_text)  # the row holds its index
            parent_number = -len(self._foreign_ids)
        # ``**attrs`` is already a fresh dict: the span keeps it.
        return Span(self, name, trace_id, next(self._span_numbers),
                    parent_number, parent_text, self._clock(), attrs)

    # -- the row store --------------------------------------------------------
    def _parent_id(self, number: int) -> Any:
        if number > 0:
            return f"span-{number}"
        return None if number == 0 else self._foreign_ids[-number - 1]

    def _row(self, row: int) -> tuple:
        """``(name, trace id, number, parent number, start, end, attrs)``."""
        packed, start, objects, first, last = self._rows[row]
        name, trace_id, *attrs = objects[first:last]
        half = len(attrs) // 2
        return (name, trace_id, *_ROW.unpack_from(packed, start),
                dict(zip(attrs[:half], attrs[half:])))

    def _heads(self):
        """``(row, parent number, name, trace id)`` of each row, in
        order: what the queries filter on."""
        for row in range(len(self._rows)):
            packed, start, objects, first, _ = self._rows[row]
            yield (row, _ROW.unpack_from(packed, start)[1], objects[first],
                   objects[first + 1])

    def _span(self, row: int) -> Span:
        name, trace_id, number, parent, start, end, attrs = self._row(row)
        span = Span(self, name, trace_id, number, parent,
                    None if parent > 0 else self._parent_id(parent), start,
                    attrs)
        span.end_time = end
        return span

    def dicts(self):
        """Each finished span's ``to_dict()``, in finish order, straight
        from its row: no :class:`Span` is built."""
        for row in range(len(self._rows)):
            name, trace_id, number, parent, start, end, attrs = self._row(row)
            yield _as_dict(name, trace_id, f"span-{number}",
                           self._parent_id(parent), start, end, attrs)

    # -- queries ------------------------------------------------------------
    def spans(self, name: str | None = None, *,
              trace_id: str | None = None) -> SpanView:
        """Finished spans filtered by exact name and/or trace id."""
        rows: Sequence[int] = range(len(self._rows))
        if name is not None or trace_id is not None:
            rows = [row for row, _, row_name, row_trace in self._heads()
                    if (name is None or row_name == name)
                    and (trace_id is None or row_trace == trace_id)]
        return SpanView(self, rows)

    def children(self, parent: "Span | TraceContext") -> SpanView:
        """Finished direct children of ``parent``."""
        pid = parent.span_id
        return SpanView(self, [row for row, number, *_ in self._heads()
                               if self._parent_id(number) == pid])
