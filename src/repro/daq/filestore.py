"""The network-mounted staging filesystem the DAQ deposits into.

"A simple LabVIEW interface ... periodically gathered data deposited by the
DAQ in a network-mounted file system; NFMS and GridFTP were then used to
upload it."  :class:`StagingStore` is that filesystem: named immutable
files, listable by arrival order so the ingestion tool can pick up only
what is new.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.util.errors import ConfigurationError


def content_checksum(rows: list) -> str:
    """Deterministic checksum of a file's rows (integrity checks)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class StagedFile:
    """One deposited data file.

    ``rows`` are sample records ``(time, {channel: value})``; ``size`` is a
    modeled byte count used by transports to compute transfer times.
    """

    name: str
    rows: tuple
    created: float
    sequence: int
    checksum: str = field(default="")

    @property
    def size(self) -> int:
        # ~24 bytes per numeric field plus row framing
        per_row = 8 + 24 * (len(self.rows[0][1]) if self.rows else 0)
        return max(64, per_row * len(self.rows))


class StagingStore:
    """Append-only file namespace with arrival-order listing."""

    def __init__(self, name: str = "staging"):
        self.name = name
        self._files: dict[str, StagedFile] = {}
        self._sequence = 0

    def deposit(self, name: str, rows: list, created: float) -> StagedFile:
        """Write a new file; names must be unique."""
        if name in self._files:
            raise ConfigurationError(f"file {name!r} already staged")
        self._sequence += 1
        f = StagedFile(name=name, rows=tuple(rows), created=created,
                       sequence=self._sequence,
                       checksum=content_checksum(list(rows)))
        self._files[name] = f
        return f

    def get(self, name: str) -> StagedFile:
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def remove(self, name: str) -> None:
        """Drop a file from the namespace (compaction of superseded data).

        The sequence counter is never reused, so arrival-order listing
        stays consistent for readers tracking ``newer_than``.
        """
        if name not in self._files:
            raise ConfigurationError(f"file {name!r} not staged")
        del self._files[name]

    def names(self) -> list[str]:
        return sorted(self._files, key=lambda n: self._files[n].sequence)

    def newer_than(self, sequence: int) -> list[StagedFile]:
        """Files deposited after the given sequence number, in order."""
        return sorted((f for f in self._files.values() if f.sequence > sequence),
                      key=lambda f: f.sequence)

    def __len__(self) -> int:
        return len(self._files)


class RepositoryFileStore(StagingStore):
    """The central repository's file store (same semantics, own namespace).

    Subclassing keeps one tested implementation; the repository adds
    metadata and access control at the service layer
    (:mod:`repro.repository`), not here.
    """

    def __init__(self) -> None:
        super().__init__(name="repository")
