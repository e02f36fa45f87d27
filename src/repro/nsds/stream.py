"""Stream primitives: sequenced samples and bounded ring buffers."""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple


class StreamSample(NamedTuple):
    """One sequenced sample on a named channel."""

    channel: str
    sequence: int
    time: float
    value: Any


class RingBuffer:
    """A bounded FIFO that drops the *oldest* entry when full.

    The drop count is the best-effort accounting surfaced by benchmarks:
    earthquake experiments "often produce more data than can be streamed
    reliably in real-time", and this is where that overflow shows up.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque[StreamSample] = deque()
        self.dropped = 0
        self.appended = 0

    def append(self, sample: StreamSample) -> None:
        if len(self._items) >= self.capacity:
            self._items.popleft()
            self.dropped += 1
        self._items.append(sample)
        self.appended += 1

    def drain(self, max_items: int | None = None) -> list[StreamSample]:
        """Remove and return up to ``max_items`` oldest samples."""
        n = len(self._items) if max_items is None else min(max_items,
                                                           len(self._items))
        return [self._items.popleft() for _ in range(n)]

    def latest(self) -> StreamSample | None:
        return self._items[-1] if self._items else None

    def __len__(self) -> int:
        return len(self._items)
