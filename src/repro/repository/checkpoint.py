"""Versioned experiment checkpoints in the data repository.

An aborted 5-hour MOST run used to be simply lost — the paper records the
premature exit at step 1493 as the outcome.  Checkpoints make the outcome
resumable: the coordinator periodically persists its serializable
:class:`~repro.coordinator.state.ExperimentState` plus the tail of
committed :class:`~repro.coordinator.records.StepRecord`\\ s since the
previous checkpoint, and a restarted coordinator reconstructs the history
by folding the documents back together — as far as they are whole: the
resume point is the newest checkpoint below which no committed step is
missing (:class:`_History`), so a lost or truncated document shortens the
history, it never leaves a hole in it.

The document is a versioned schema (``repro.checkpoint/v1``) whose shape
is a value built from the :mod:`repro.util.schema` kit, like the
telemetry and monitor schemas: compiled once at import, JSON-path error
messages, run on every save *and* every load so a malformed checkpoint
fails immediately instead of corrupting a resume.  All float payloads
are ``float.hex()`` strings — checkpoint → restore round-trips are
bit-exact.

Two stores implement ``save`` / ``load`` / ``list_seqs`` (generator-shaped,
so callers uniformly ``yield from`` them) under the one
:meth:`CheckpointStoreBase.load_history`:

* :class:`InMemoryCheckpointStore` — unit tests and benchmarks;
* :class:`RepositoryCheckpointStore` — the real path: each checkpoint is
  put into the repository through a
  :class:`~repro.repository.facade.RepositoryFacade` (staged locally,
  moved over GridFTP, registered as a logical file with NFMS — Allcock et
  al.'s replica-management argument: checkpoint artifacts belong in the
  data repository, not in coordinator-local state), beside a cumulative
  manifest that lets a resume start from one fetch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.net.rpc import RpcError
from repro.repository.facade import RepositoryFacade
from repro.util.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SchemaError,
)
from repro.util.schema import (
    Check,
    Failure,
    array,
    document,
    integer,
    mapping,
    nullable,
    number,
    obj,
    one_of,
    rule,
    string,
    validator,
)

SCHEMA_ID = "repro.checkpoint/v1"
MANIFEST_SCHEMA_ID = "repro.checkpoint-manifest/v1"

_REASONS = ("policy", "abort", "final")
#: Mirrors :data:`repro.coordinator.state.PHASES` (kept literal here so the
#: repository layer never imports the coordinator; a test pins the two).
_PHASES = ("idle", "integrate", "propose", "execute", "commit")


class CheckpointSchemaError(SchemaError):
    """A checkpoint document does not match ``repro.checkpoint/v1``."""


class CheckpointCorrupt(CheckpointSchemaError):
    """A *persisted* checkpoint artifact failed to parse or validate.

    Raised by the stores' load paths when a fetched document is truncated,
    non-JSON, or schema-invalid — a typed error callers can catch, instead
    of a raw ``json.JSONDecodeError`` traceback surfacing mid-resume.
    ``run_id``/``seq`` identify the bad artifact.
    """

    def __init__(self, message: str, *, run_id: str | None = None,
                 seq: int | None = None):
        super().__init__(message)
        self.run_id = run_id
        self.seq = seq


def _parse_checkpoint(text: str, *, run_id: str, seq: int,
                      origin: str) -> dict:
    """Parse + validate one persisted document, or raise CheckpointCorrupt."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorrupt(
            f"{origin}: truncated or non-JSON checkpoint: {exc}",
            run_id=run_id, seq=seq) from exc
    try:
        validate_checkpoint_payload(doc)
    except CheckpointSchemaError as exc:
        raise CheckpointCorrupt(
            f"{origin}: schema-invalid checkpoint: {exc}",
            run_id=run_id, seq=seq) from exc
    return doc


def _hex_float(value: Any) -> Failure:
    """A ``float.hex()`` string (a kit leaf)."""
    if not isinstance(value, str):
        return "", f"expected a hex float string, got {type(value).__name__}"
    try:
        float.fromhex(value)
    except ValueError:
        return "", f"not a hex float: {value!r}"
    return None


_HEX_VECTOR = array(_hex_float)
_SHAPED_ARRAY = obj({"shape": array(integer(1), nonempty=True),
                     "data": _HEX_VECTOR})


def _hex_array(values: Any) -> Failure:
    """A float array payload: a flat hex list (1-D, the historical form)
    or a shape-tagged object (``{"shape": [...], "data": [...]}``) for an
    ensemble's higher-rank state."""
    if not isinstance(values, dict):
        return _HEX_VECTOR(values)
    failure = _SHAPED_ARRAY(values)
    if failure is None and len(values["data"]) != math.prod(values["shape"]):
        return ".data", (f"expected {math.prod(values['shape'])} values for "
                         f"shape {values['shape']}, got {len(values['data'])}")
    return failure


def _ascending(key: str | None = None) -> Check:
    """A rule: integers (or each item's ``key``) strictly ascending from 1."""
    suffix = "" if key is None else f".{key}"

    def check(items: list) -> Failure:
        last = 0
        for i, item in enumerate(items):
            value = item if key is None else item[key]
            if value <= last:
                return f"[{i}]{suffix}", "must be strictly ascending"
            last = value
        return None

    return check


_TRANSACTIONS = mapping(string())
_SPECULATIVE_STEP = obj({"speculative_step": integer(0)})


def _speculative_step(state: dict) -> Failure:
    """A rule: a speculating state names the step it speculates on."""
    if state.get("speculative") is None:
        return None
    return _SPECULATIVE_STEP(state)


def _site_force(force: Any) -> Failure:
    """One hex float, or (ensemble batch) one per scenario variant."""
    return (_HEX_VECTOR if isinstance(force, list) else _hex_float)(force)


#: The serialized :class:`~repro.coordinator.state.ExperimentState`.
_STATE = obj({
    "run_id": string(), "target_steps": integer(1), "step": integer(0),
    "generation": integer(0), "checkpoint_seq": integer(0),
    "dt": number(above=0), "wall_started": number(),
    "phase": one_of(*_PHASES), "pending": _TRANSACTIONS,
}, {
    "speculative": nullable(_TRANSACTIONS),
    "integrator": nullable(obj({
        "kind": string(), "step_index": integer(0),
        "arrays": mapping(_hex_array, nonempty=True)})),
}, _speculative_step)

#: One serialized :class:`~repro.coordinator.records.StepRecord`.
_RECORD = obj({
    "step": integer(1), "model_time": number(),
    "displacement": _hex_array, "restoring_force": _hex_array,
    "site_forces": mapping(mapping(_site_force)),
    "attempts": integer(1), "wall_started": number(),
    "wall_finished": number(),
})

#: A full checkpoint document.
#:
#: Shape::
#:
#:     {"schema": "repro.checkpoint/v1", "run_id": "...", "seq": 1,
#:      "wall_time": 12.3, "reason": "policy" | "abort" | "final",
#:      "state": {...}, "records": [...]}
_CHECKPOINT = document(SCHEMA_ID, {
    "run_id": string(), "seq": integer(1), "wall_time": number(),
    "reason": one_of(*_REASONS), "state": _STATE, "records": array(_RECORD),
}, None, rule(".state.run_id", "must match the document run_id",
              lambda doc: doc["state"]["run_id"] == doc["run_id"]))
validate_checkpoint_payload = validator(CheckpointSchemaError, _CHECKPOINT)

#: A checkpoint manifest document.
#:
#: Shape::
#:
#:     {"schema": "repro.checkpoint-manifest/v1", "run_id": "...",
#:      "seq": 3, "seqs": [1, 2, 3], "latest": {checkpoint doc},
#:      "records": [merged record payloads, ascending by step]}
#:
#: ``records`` is the last-written-per-step merge across every sequence
#: in ``seqs`` — what :meth:`CheckpointStoreBase.load_history` would
#: otherwise recompute by refetching each document, and checks for
#: missing steps exactly as it checks a walked document.
validate_manifest_payload = validator(CheckpointSchemaError, document(
    MANIFEST_SCHEMA_ID, {
        "run_id": string(), "seq": integer(1),
        "seqs": array(integer(1), _ascending(), nonempty=True),
        "latest": _CHECKPOINT,
        "records": array(_RECORD, _ascending("step")),
    }, None,
    rule(".seq", "must equal the highest entry of seqs",
         lambda doc: doc["seqs"][-1] == doc["seq"]),
    rule(".latest.run_id", "must match the manifest run_id",
         lambda doc: doc["latest"]["run_id"] == doc["run_id"]),
    rule(".latest.seq", "must match the manifest seq",
         lambda doc: doc["latest"]["seq"] == doc["seq"])))


def build_checkpoint_doc(*, run_id: str, seq: int, wall_time: float,
                         reason: str, state_payload: dict,
                         record_payloads: list) -> dict:
    """Assemble a checkpoint document; nothing is validated here.

    The store that persists it validates it, once per write
    (:meth:`InMemoryCheckpointStore.save`,
    :meth:`RepositoryCheckpointStore.save`, and any wrapper that
    delegates to them), so a malformed document is refused before it is
    stored.
    """
    return {
        "schema": SCHEMA_ID,
        "run_id": run_id,
        "seq": int(seq),
        "wall_time": float(wall_time),
        "reason": reason,
        "state": state_payload,
        "records": list(record_payloads),
    }


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint.

    ``every_n_steps=0`` disables periodic checkpoints (an abort-time
    checkpoint may still be written when ``on_abort`` is set); ``on_abort``
    controls the best-effort final checkpoint the coordinator writes while
    aborting, which captures the in-flight step's pending transaction
    names for reconciliation.
    """

    every_n_steps: int = 50
    on_abort: bool = True

    def __post_init__(self):
        if self.every_n_steps < 0:
            raise ConfigurationError("every_n_steps must be >= 0")

    def due(self, step: int) -> bool:
        """Checkpoint after committing ``step``?"""
        return self.every_n_steps > 0 and step % self.every_n_steps == 0


class _History:
    """A run's checkpoint documents folded into one history — the one merge.

    ``latest`` / ``records`` are the resume point: the newest document
    folded so far below whose resume step no committed step is missing,
    and exactly steps ``1 .. step - 1``.  A document that does not close
    the history below it moves neither, so no reader can be handed a hole.
    It unpacks as that pair: ``latest, records = history``.
    """

    def __init__(self):
        #: step -> last-written record payload, from every document folded
        self.merged: dict[int, dict] = {}
        #: the sequences folded, ascending
        self.seqs: list[int] = []
        self.latest: dict | None = None
        self.records: list[dict] = []
        #: the highest sequence the store listed, folded or not — a corrupt
        #: or stale document's name is taken too, so the next checkpoint of
        #: a resumed run is numbered above it
        self.listed = 0

    def __iter__(self):
        return iter((self.latest, self.records))

    def fold(self, doc: dict, records: list | None = None,
             seqs: list | None = None) -> None:
        """Fold in one document — or, given ``records`` and ``seqs``, a
        cumulative one standing for every sequence up to ``doc``'s.

        Last-written wins per step; records at or past ``doc``'s resume
        step belong to an aborted attempt and stay out of ``records``.
        """
        for record in doc["records"] if records is None else records:
            self.merged[int(record["step"])] = record
        self.seqs.extend([int(doc["seq"])] if seqs is None else map(int, seqs))
        steps = range(1, int(doc["state"]["step"]))
        if all(step in self.merged for step in steps):
            self.latest = doc
            self.records = [self.merged[step] for step in steps]


class CheckpointStoreBase:
    """The one history merge over ``save``/``list_seqs``/``load``.

    All the primitives are kernel-process generators (``yield from``
    them), even where a concrete store completes synchronously — callers
    should not care which store they hold.
    """

    def save(self, doc: dict):
        raise NotImplementedError

    def list_seqs(self, run_id: str):
        raise NotImplementedError

    def load(self, run_id: str, seq: int):
        raise NotImplementedError

    def _seed(self, run_id: str):
        """Kernel process: the :class:`_History` a merge of ``run_id``
        starts from — empty, unless the store keeps a cumulative document."""
        return _History()
        yield  # pragma: no cover - generator shape, parity with repo store

    def load_history(self, run_id: str):
        """Kernel process: the run's :class:`_History`, which unpacks as
        ``(latest_doc, record_payloads)`` — the longest complete prefix of
        the run, or ``(None, [])``.

        Each checkpoint carries only the record tail since the previous
        one, so the merge folds every sequence newer than the seed, in
        order.  A document that is corrupt or gone contributes nothing,
        and with it every later document that needs its steps: the answer
        is the newest document whose history ``1 .. step - 1`` is whole.
        The resumed coordinator replays what lies above it through the
        idempotent NTCP verbs.
        """
        seqs = yield from self.list_seqs(run_id)
        if not seqs:
            return _History()
        history = yield from self._seed(run_id)
        history.listed = seqs[-1]
        seeded_upto = history.seqs[-1] if history.seqs else 0
        for seq in seqs:
            if seq <= seeded_upto:
                continue
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt:
                continue
            history.fold(doc)
        return history


class InMemoryCheckpointStore(CheckpointStoreBase):
    """Coordinator-local store for unit tests and overhead benchmarks.

    Documents still pass full schema validation and a JSON round-trip on
    save, so anything that works here works against the repository store.
    """

    def __init__(self):
        self._runs: dict[str, dict[int, str]] = {}

    def save(self, doc: dict):
        validate_checkpoint_payload(doc)
        run = self._runs.setdefault(doc["run_id"], {})
        seq = int(doc["seq"])
        if seq in run:
            raise ConfigurationError(
                f"checkpoint seq {seq} already saved for run "
                f"{doc['run_id']!r}")
        run[seq] = json.dumps(doc, sort_keys=True)
        return seq
        yield  # pragma: no cover - generator shape, parity with repo store

    def list_seqs(self, run_id: str):
        return sorted(self._runs.get(run_id, {}))
        yield  # pragma: no cover - generator shape, parity with repo store

    def load(self, run_id: str, seq: int):
        run = self._runs.get(run_id, {})
        if seq not in run:
            raise ConfigurationError(
                f"no checkpoint seq {seq} for run {run_id!r}")
        return _parse_checkpoint(run[seq], run_id=run_id, seq=seq,
                                 origin=f"memory:{run_id}/{seq}")
        yield  # pragma: no cover - generator shape, parity with repo store


class RepositoryCheckpointStore(CheckpointStoreBase):
    """Checkpoints as logical files in the central data repository.

    Save: serialize → ``facade.put_text`` under
    ``checkpoints/<run_id>/<seq>.json``.  Load: ``facade.list_seqs`` by
    prefix, ``facade.fetch_text`` per document, parse and re-validate.

    Every save also writes a cumulative manifest
    (``checkpoints/<run_id>/manifest/<seq>.json``,
    ``repro.checkpoint-manifest/v1``) holding the latest document plus the
    merged record history, so :meth:`load_history` on resume is seeded by
    one fetch and walks only the documents newer than it.  NFMS logical
    names are immutable, hence one manifest per sequence; a manifest write
    failure is logged, never fatal — the per-sequence documents remain the
    source of truth and the next merge walks them.

    A successful manifest write also retires what it supersedes:
    per-sequence documents and manifests below the new manifest's sequence
    are unregistered from NFMS and dropped from the repository store.
    Each removal is individually best-effort — a failure leaves an
    orphaned document behind, never an unreadable history.
    """

    def __init__(self, facade: RepositoryFacade):
        self.facade = facade
        self.kernel = facade.kernel
        #: run_id -> the merge so far: what the next manifest is written from
        self._histories: dict[str, _History] = {}
        #: run_id -> highest seq whose superseded documents were retired
        self._compacted_upto: dict[str, int] = {}

    @staticmethod
    def _prefix(run_id: str) -> str:
        return f"checkpoints/{run_id}/"

    def _logical(self, run_id: str, seq: int) -> str:
        return f"{self._prefix(run_id)}{seq:06d}.json"

    def _manifest_prefix(self, run_id: str) -> str:
        return f"{self._prefix(run_id)}manifest/"

    def _manifest_logical(self, run_id: str, seq: int) -> str:
        return f"{self._manifest_prefix(run_id)}{seq:06d}.json"

    def save(self, doc: dict):
        """Kernel process: persist one checkpoint document."""
        validate_checkpoint_payload(doc)
        run_id, seq = doc["run_id"], int(doc["seq"])
        yield from self.facade.put_text(
            self._logical(run_id, seq), json.dumps(doc, sort_keys=True),
            time=float(seq))
        try:
            yield from self._write_manifest(doc)
        except (RpcError, ReproError) as exc:
            self.kernel.emit("repository.checkpoint", "manifest.failed",
                             run_id=run_id, seq=seq, error=str(exc))
        else:
            yield from self._compact(run_id, seq)
        return seq

    def _write_manifest(self, doc: dict):
        """Kernel process: persist the cumulative manifest for ``doc``."""
        run_id, seq = doc["run_id"], int(doc["seq"])
        if run_id not in self._histories and seq > 1:
            # A fresh store incarnation extending an existing run: the one
            # merge tells it what came before (and finds ``doc``, stored
            # a moment ago).
            yield from self.load_history(run_id)
        history = self._histories.setdefault(run_id, _History())
        if seq not in history.seqs:
            history.fold(doc)
        manifest = {"schema": MANIFEST_SCHEMA_ID, "run_id": run_id,
                    "seq": seq, "seqs": list(history.seqs), "latest": doc,
                    "records": [history.merged[step]
                                for step in sorted(history.merged)]}
        validate_manifest_payload(manifest)
        yield from self.facade.put_text(
            self._manifest_logical(run_id, seq),
            json.dumps(manifest, sort_keys=True), time=float(seq))

    def _compact(self, run_id: str, upto_seq: int):
        """Kernel process: retire documents superseded by manifest ``upto_seq``.

        The manifest at ``upto_seq`` carries the merged record history and
        the latest state, so every older per-sequence document — and every
        older manifest — is redundant.  Removals are individually
        best-effort; seqs already retired by a prior call are skipped.
        """
        start = self._compacted_upto.get(run_id, 0)
        removed = 0
        for seq in [s for s in self._histories[run_id].seqs
                    if start < s < upto_seq]:
            for name in (self._logical(run_id, seq),
                         self._manifest_logical(run_id, seq)):
                ok = yield from self._remove_logical(name)
                removed += 1 if ok else 0
        self._compacted_upto[run_id] = max(start, upto_seq - 1)
        if removed:
            self.kernel.emit("repository.checkpoint", "compacted",
                             run_id=run_id, upto_seq=upto_seq,
                             removed=removed)

    def _remove_logical(self, name: str):
        """Kernel process: unregister + drop one logical file, best-effort."""
        try:
            yield from self.facade.remove(name)
        except (RpcError, ReproError):
            return False
        return True

    def _seed(self, run_id: str):
        """Kernel process: a history seeded from the newest *valid* manifest.

        Walks manifests newest-first and skips any that fetch back
        truncated or schema-invalid (a crash mid-write leaves exactly
        this).  A stale manifest (a later checkpoint exists whose manifest
        write failed) still saves refetching everything at or below it —
        compaction may already have dropped those.  The store keeps the
        history it hands out: the merge fills it, the next save extends it.
        """
        history = self._histories[run_id] = _History()
        seqs = yield from self.facade.list_seqs(self._manifest_prefix(run_id))
        for seq in reversed(seqs):
            try:
                text = yield from self.facade.fetch_text(
                    self._manifest_logical(run_id, seq))
                manifest = json.loads(text)
                validate_manifest_payload(manifest)
            except (ProtocolError, json.JSONDecodeError,
                    CheckpointSchemaError) as exc:
                self.kernel.emit("repository.checkpoint", "manifest.corrupt",
                                 run_id=run_id, seq=seq, error=str(exc))
                continue
            history.fold(manifest["latest"], manifest["records"],
                         manifest["seqs"])
            break
        return history

    def list_seqs(self, run_id: str):
        """Kernel process: registered checkpoint sequences for a run."""
        seqs = yield from self.facade.list_seqs(self._prefix(run_id))
        return seqs

    def load(self, run_id: str, seq: int):
        """Kernel process: fetch one checkpoint document back."""
        name = self._logical(run_id, seq)
        try:
            try:
                text = yield from self.facade.fetch_text(name)
            except ProtocolError as exc:
                raise CheckpointCorrupt(f"{name}: {exc}", run_id=run_id,
                                        seq=seq) from exc
            return _parse_checkpoint(text, run_id=run_id, seq=seq, origin=name)
        except CheckpointCorrupt as exc:
            self.kernel.emit("repository.checkpoint", "checkpoint.corrupt",
                             run_id=run_id, seq=seq, error=str(exc))
            raise
