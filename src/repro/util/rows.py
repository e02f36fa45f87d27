"""An append-only row store: numbers packed into bytes, the rest kept.

The tracer keeps each finished span as one row, and an NTCP server each
terminal transaction.  A row is some numbers packed into bytes (its
store's ``struct`` layout) and some objects.  No row is an object of
its own, so rows cost the collector nothing.

Rows live in chunks of :data:`CHUNK_ROWS`.  A chunk is three buffers:
the packed bytes, the objects list, and an ``array`` holding each row's
end in both.  Row ``r`` is row ``r % CHUNK_ROWS`` of chunk
``r // CHUNK_ROWS``, and only the last chunk is ever short.  Fixed-size
chunks keep every buffer below glibc's 128 KiB mmap threshold however
long the run.  A span's row holds 2 objects plus 2 per attribute: 10 for
``coordinator.step``, the widest on the MOST hot path (where the verb
spans cover the RPC hops), 14 for an uncovered ``net.rpc.call`` that
failed.  512 rows of 14 with the list's ~12 % over-allocation is about
64 KiB of references.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable

#: rows per chunk
CHUNK_ROWS = 512


class Rows:
    """Rows in chunks; ``rows[r]`` is where row ``r`` is, as ``(packed,
    start, objects, first, last)``: its numbers start at ``packed[start]``
    and its objects are ``objects[first:last]``.

    A hot writer may inline :meth:`append` (``Span.end`` does): take
    ``chunks[-1]``, or :meth:`grow` once it holds :attr:`full` ends.
    """

    __slots__ = ("chunks", "full")

    def __init__(self):
        #: ``(packed, objects, ends)`` per chunk; ``ends`` holds two
        #: entries per row: its end in ``packed``, then in ``objects``
        self.chunks = [(bytearray(), [], array("I"))]
        self.full = 2 * CHUNK_ROWS

    def grow(self) -> tuple[bytearray, list[Any], array]:
        """Start a new chunk and return it."""
        self.chunks.append((bytearray(), [], array("I")))
        return self.chunks[-1]

    def append(self, packed: bytes, objects: Iterable[Any]) -> int:
        """Add a row; returns its number."""
        data, kept, ends = self.chunks[-1]
        if len(ends) == self.full:
            data, kept, ends = self.grow()
        data += packed
        kept += objects
        ends.append(len(data))
        ends.append(len(kept))
        return ((len(self.chunks) - 1) * self.full + len(ends)) // 2 - 1

    def __len__(self) -> int:
        return ((len(self.chunks) - 1) * self.full
                + len(self.chunks[-1][2])) // 2

    def __getitem__(self, row: int) -> tuple[bytearray, int, list, int, int]:
        chunk, row = divmod(row, self.full // 2)
        packed, objects, ends = self.chunks[chunk]
        start, first = ends[2 * row - 2:2 * row] if row else (0, 0)
        return packed, start, objects, first, ends[2 * row + 1]
