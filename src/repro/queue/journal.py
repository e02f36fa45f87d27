"""The experiment queue's write-ahead journal (``repro.queue/v1``).

Every durable fact about the ingress queue is one appended journal entry:
a caller *submitted* an experiment (keyed by its own submission id, the
dedupe key), a scheduler incarnation *registered* a fencing epoch, an
incarnation *claimed* a submission onto leased sites, a claimed run
reached a *terminal* state.  Queue state is never stored — it is always
reconstructed by replaying the journal in sequence order, which is what
makes a fleet-scheduler crash survivable: the successor replays, sees
claimed-but-unterminated submissions, and redelivers them.

Entries are versioned documents exactly like the checkpoint
(``repro.checkpoint/v1``) and telemetry schemas: one shape value built
from the :mod:`repro.util.schema` kit, JSON-path error messages, run on
every append *and* every replay.

Three stores share one generator-shaped API (``append`` / ``replay``):

* :class:`InMemoryJournalStore` — unit tests and fast benchmarks;
* :class:`RepositoryJournalStore` — the real path: each entry is put
  into the repository through a
  :class:`~repro.repository.facade.RepositoryFacade` under
  ``queue/<name>/<seq>.json`` (the Allcock et al. discipline again:
  durable coordination state belongs in the data repository);
* :class:`FileJournalStore` — a JSONL file on the local disk, for the
  ``repro queue`` CLI where no simulated repository exists.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from repro.net.retry import RetryPolicy
from repro.repository.facade import RepositoryFacade
from repro.util.errors import ConfigurationError, ProtocolError, SchemaError
from repro.util.schema import (
    array,
    boolean,
    document,
    integer,
    number,
    obj,
    one_of,
    string,
    switch,
    validator,
)

QUEUE_SCHEMA_ID = "repro.queue/v1"

#: terminal statuses a claim can reach
TERMINAL_STATUSES = ("completed", "failed")


class QueueSchemaError(SchemaError):
    """A queue journal entry does not match ``repro.queue/v1``."""


_SUBMISSION = {"submission_id": string(), "epoch": integer(1)}
#: entry kind -> the fields its ``body`` carries, in lifecycle order
_BODIES = {
    "submit": obj({
        "submission_id": string(), "tenant": string(), "run_id": string(),
        "n_steps": integer(1), "n_sites": integer(1),
        "motion_scale": number(above=0, finite=True),
        "checkpoint_every": integer(0)},
        {"degradation": boolean()}),
    "epoch": obj({"epoch": integer(1), "scheduler_id": string()}),
    "claim": obj({**_SUBMISSION, "attempt": integer(1),
                  "sites": array(string(), nonempty=True)}),
    "terminal": obj({**_SUBMISSION, "status": one_of(*TERMINAL_STATUSES),
                     "steps": integer(0)}),
}
#: journal entry vocabulary, in lifecycle order
ENTRY_KINDS = tuple(_BODIES)

#: One journal entry.
#:
#: Shape::
#:
#:     {"schema": "repro.queue/v1", "seq": 7, "time": 12.5,
#:      "kind": "submit" | "epoch" | "claim" | "terminal",
#:      "body": {kind-specific fields}}
validate_queue_entry = validator(QueueSchemaError, document(
    QUEUE_SCHEMA_ID, {"seq": integer(1), "time": number()}, None,
    switch("kind", **{kind: obj({"body": body})
                      for kind, body in _BODIES.items()})))


def build_entry(*, seq: int, time: float, kind: str, body: dict) -> dict:
    """Assemble and validate one journal entry."""
    entry = {"schema": QUEUE_SCHEMA_ID, "seq": int(seq),
             "time": float(time), "kind": kind, "body": dict(body)}
    validate_queue_entry(entry)
    return entry


class JournalStoreBase:
    """Shared journal API: generator-shaped ``append`` and ``replay``.

    ``append(kind, body, time)`` assigns the next sequence number,
    validates, persists, and returns the stamped entry; ``replay()``
    returns every entry in ascending sequence order.  Both are kernel
    processes (``yield from`` them) even where a concrete store completes
    synchronously, so callers never care which store they hold.
    """

    def append(self, kind: str, body: dict, *, time: float):
        raise NotImplementedError

    def replay(self):
        raise NotImplementedError


def _read_lines(lines: Iterable[str], origin: Any) -> list[dict]:
    """Decode journal lines: each validated, seqs strictly ascending; a
    truncated or reordered journal is a :class:`QueueSchemaError` naming
    ``origin`` on every read path, never a raw ``json`` traceback."""
    entries: list[dict] = []
    last = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise QueueSchemaError(
                f"{origin}: corrupt journal line: {exc}") from exc
        validate_queue_entry(entry)
        if entry["seq"] <= last:
            raise QueueSchemaError(
                f"{origin}: seq {entry['seq']} not ascending")
        last = entry["seq"]
        entries.append(entry)
    return entries


class InMemoryJournalStore(JournalStoreBase):
    """Journal kept as JSON strings in memory (tests, fast benchmarks).

    Entries still pass full schema validation and a JSON round-trip on
    append, so anything that works here works against the repository
    store.
    """

    def __init__(self):
        self._entries: list[str] = []

    def append(self, kind: str, body: dict, *, time: float):
        entry = build_entry(seq=len(self._entries) + 1, time=time,
                            kind=kind, body=body)
        self._entries.append(json.dumps(entry, sort_keys=True))
        return entry
        yield  # pragma: no cover - generator shape, parity with repo store

    def replay(self):
        return _read_lines(self._entries, "in-memory journal")
        yield  # pragma: no cover - generator shape, parity with repo store


class FileJournalStore(JournalStoreBase):
    """Journal as a JSONL file on the local filesystem (the CLI path).

    One validated entry per line, appended with a flush per write.  This
    is the only store that outlives the process — ``repro queue submit``
    runs append, exits, and a later ``repro queue drain`` replays the
    same file into a simulated campaign.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._next_seq: int | None = None

    def _read(self) -> list[dict]:
        if not self.path.exists():
            return []
        try:
            text = self.path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise QueueSchemaError(f"{self.path}: journal is not UTF-8: "
                                   f"{exc}") from exc
        return _read_lines(text.splitlines(), self.path)

    def append(self, kind: str, body: dict, *, time: float):
        if self._next_seq is None:
            entries = self._read()
            self._next_seq = (entries[-1]["seq"] if entries else 0) + 1
        entry = build_entry(seq=self._next_seq, time=time, kind=kind,
                            body=body)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._next_seq += 1
        return entry
        yield  # pragma: no cover - generator shape, parity with repo store

    def replay(self):
        return self._read()
        yield  # pragma: no cover - generator shape, parity with repo store


class RepositoryJournalStore(JournalStoreBase):
    """Journal entries as logical files in the central data repository.

    Append: serialize → ``facade.put_text`` under
    ``queue/<name>/<seq:06d>.json``.  Replay: ``facade.list_seqs`` by
    prefix, ``facade.fetch_text`` per entry, parse and re-validate.

    Every NFMS call and every upload runs under ``retry`` (a
    :class:`~repro.net.retry.RetryPolicy`), so a bounded repository outage
    during a submit or claim delays the append instead of losing it —
    at-least-once delivery starts at the journal.
    """

    def __init__(self, *, name: str, facade: RepositoryFacade):
        if not name:
            raise ConfigurationError("a repository journal needs a name")
        self.name = name
        self.facade = facade
        self.kernel = facade.kernel
        #: what the journal has made durable (the T-WALL benchmark counts it)
        self.repo_store = facade.repo_store
        self.retry = RetryPolicy(max_attempts=5, base_delay=2.0, factor=2.0,
                                 max_delay=60.0, jitter=0.25)
        self.appended = 0
        self.replayed = 0
        self._next_seq: int | None = None

    @property
    def _prefix(self) -> str:
        return f"queue/{self.name}/"

    def _logical(self, seq: int) -> str:
        return f"{self._prefix}{seq:06d}.json"

    def _hop(self, seq: int | None = None):
        """One façade hop under ``retry``; jitter keys are per operation,
        and per entry for the upload."""
        def hop(label, make_attempt):
            if label == "transfer":
                label = f"transfer.{seq}"
            return self.retry.call(self.kernel, make_attempt,
                                   key=f"queue.{self.name}.{label}")
        return hop

    def append(self, kind: str, body: dict, *, time: float):
        """Kernel process: persist one entry; returns the stamped entry."""
        if self._next_seq is None:
            seqs = yield from self.facade.list_seqs(self._prefix,
                                                    hop=self._hop())
            # Another append may have seeded the counter while we listed.
            if self._next_seq is None:
                self._next_seq = (seqs[-1] + 1) if seqs else 1
        # Reserve the seq before yielding again: concurrent appends (two
        # drive processes journaling claims) must never share a number.
        seq = self._next_seq
        self._next_seq += 1
        entry = build_entry(seq=seq, time=time, kind=kind, body=body)
        yield from self.facade.put_text(
            self._logical(seq), json.dumps(entry, sort_keys=True),
            time=float(seq), hop=self._hop(seq))
        self.appended += 1
        return entry

    def _fetch(self, seq: int):
        name = self._logical(seq)
        try:
            text = yield from self.facade.fetch_text(name, hop=self._hop())
        except ProtocolError as exc:
            raise QueueSchemaError(f"{name}: {exc}") from exc
        entries = _read_lines([text], name)
        if not entries:
            raise QueueSchemaError(f"{name}: blank journal entry")
        if entries[0]["seq"] != seq:
            raise ProtocolError(
                f"journal entry {name} carries seq {entries[0]['seq']}")
        return entries[0]

    def replay(self):
        """Kernel process: every journal entry, ascending by sequence."""
        seqs = yield from self.facade.list_seqs(self._prefix, hop=self._hop())
        entries = []
        for seq in seqs:
            entry = yield from self._fetch(seq)
            entries.append(entry)
        self.replayed += 1
        return entries
