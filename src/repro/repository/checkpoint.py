"""Versioned experiment checkpoints in the data repository.

An aborted 5-hour MOST run used to be simply lost — the paper records the
premature exit at step 1493 as the outcome.  Checkpoints make the outcome
resumable: the coordinator periodically persists its serializable
:class:`~repro.coordinator.state.ExperimentState` plus the tail of
committed :class:`~repro.coordinator.records.StepRecord`\\ s since the
previous checkpoint, and a restarted coordinator reconstructs the full
history by merging every sequence.

The document is a versioned schema (``repro.checkpoint/v1``) whose shape
is a value built from the :mod:`repro.util.schema` kit, like the
telemetry and analysis schemas: compiled once at import, JSON-path error
messages, run on every save *and* every load so a malformed checkpoint
fails immediately instead of corrupting a resume.  All float payloads are ``float.hex()`` strings —
checkpoint → restore round-trips are bit-exact.

Two stores share one API (generator-shaped ``save`` / ``load`` /
``list_seqs`` so callers uniformly ``yield from`` them):

* :class:`InMemoryCheckpointStore` — unit tests and benchmarks;
* :class:`RepositoryCheckpointStore` — the real path: each checkpoint is
  put into the repository through a
  :class:`~repro.repository.facade.RepositoryFacade` (staged locally,
  moved over GridFTP, registered as a logical file with NFMS — Allcock et
  al.'s replica-management argument: checkpoint artifacts belong in the
  data repository, not in coordinator-local state).
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
#: ``records`` is the full last-written-per-step merge across every
#: sequence in ``seqs`` — what :meth:`CheckpointStoreBase.load_history`
#: would otherwise recompute by refetching each document.
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
    """Assemble and validate a checkpoint document."""
    doc = {
        "schema": SCHEMA_ID,
        "run_id": run_id,
        "seq": int(seq),
        "wall_time": float(wall_time),
        "reason": reason,
        "state": state_payload,
        "records": list(record_payloads),
    }
    validate_checkpoint_payload(doc)
    return doc


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


class CheckpointStoreBase:
    """Shared history-merging logic over ``save``/``list_seqs``/``load``.

    All three primitives are kernel-process generators (``yield from``
    them), even where a concrete store completes synchronously — callers
    should not care which store they hold.
    """

    def save(self, doc: dict):
        raise NotImplementedError

    def list_seqs(self, run_id: str):
        raise NotImplementedError

    def load(self, run_id: str, seq: int):
        raise NotImplementedError

    def load_latest(self, run_id: str):
        """Kernel process: the newest *loadable* document, or ``None``.

        A corrupt highest-seq document (truncated write from a crashed
        incarnation) is skipped in favour of the next-newest valid one —
        resume degrades to an older checkpoint instead of dying on a
        parse error.
        """
        seqs = yield from self.list_seqs(run_id)
        for seq in sorted(seqs, reverse=True):
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt:
                continue
            return doc
        return None

    def load_history(self, run_id: str):
        """Kernel process: ``(latest_doc, merged_record_payloads)``.

        Each checkpoint carries only the record tail since the previous
        one; the merge walks every sequence in order and keeps the
        last-written payload per step, truncated to the latest document's
        resume step (records at or past it belong to the aborted attempt).
        """
        seqs = yield from self.list_seqs(run_id)
        if not seqs:
            return None, []
        merged: dict[int, dict] = {}
        latest = None
        for seq in sorted(seqs):
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt:
                # A truncated artifact must not kill the resume; the
                # merge continues from the remaining valid documents.
                continue
            for record in doc["records"]:
                merged[int(record["step"])] = record
            latest = doc
        if latest is None:
            return None, []
        resume_step = int(latest["state"]["step"])
        records = [merged[s] for s in sorted(merged) if s < resume_step]
        return latest, records


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

    Unless ``manifest_enabled=False``, every save also writes a cumulative
    manifest (``checkpoints/<run_id>/manifest/<seq>.json``,
    ``repro.checkpoint-manifest/v1``) holding the latest document plus the
    merged record history, so :meth:`load_history` on resume costs one
    document fetch instead of one per sequence.  NFMS logical names are
    immutable, hence one manifest per sequence; a manifest write failure
    is logged, never fatal — the per-sequence documents remain the source
    of truth and :meth:`load_history` falls back to walking them.

    Unless ``compaction_enabled=False``, a successful manifest write also
    retires what it supersedes: per-sequence documents and manifests
    below the new manifest's sequence are unregistered from NFMS and
    dropped from the repository store.  Each removal is individually
    best-effort — a failure leaves an orphaned document behind, never an
    unreadable history — and :meth:`load_history` tolerates partially
    compacted runs by seeding the merge from the newest manifest and
    walking only the per-sequence documents newer than it.
    """

    def __init__(self, facade: RepositoryFacade, *,
                 manifest_enabled: bool = True,
                 compaction_enabled: bool = True):
        self.facade = facade
        self.kernel = facade.kernel
        self.manifest_enabled = manifest_enabled
        self.compaction_enabled = compaction_enabled
        self.saved = 0
        self.loaded = 0
        self.manifest_saved = 0
        self.manifest_fetches = 0
        self.compacted = 0
        self._fetches = 0
        #: run_id -> step -> record payload (the manifest merge, cached)
        self._merged: dict[str, dict[int, dict]] = {}
        self._known_seqs: dict[str, list[int]] = {}
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
        yield from self.facade.put_text(
            self._logical(doc["run_id"], int(doc["seq"])),
            json.dumps(doc, sort_keys=True), time=float(doc["seq"]))
        self.saved += 1
        if self.manifest_enabled:
            try:
                yield from self._write_manifest(doc)
            except (RpcError, ReproError) as exc:
                self.kernel.emit("repository.checkpoint", "manifest.failed",
                                 run_id=doc["run_id"], seq=int(doc["seq"]),
                                 error=str(exc))
            else:
                if self.compaction_enabled:
                    yield from self._compact(doc["run_id"], int(doc["seq"]))
        return int(doc["seq"])

    def _write_manifest(self, doc: dict):
        """Kernel process: persist the cumulative manifest for ``doc``."""
        run_id = doc["run_id"]
        seq = int(doc["seq"])
        if run_id not in self._merged and seq > 1:
            # A fresh store incarnation extending an existing run (e.g.
            # the resumed coordinator): seed the merge from the prior
            # manifest before folding the new document in.
            prior = yield from self._load_latest_manifest(run_id)
            if prior is not None:
                self._merged[run_id] = {int(r["step"]): r
                                        for r in prior["records"]}
                self._known_seqs[run_id] = [int(s) for s in prior["seqs"]]
        merged = self._merged.setdefault(run_id, {})
        for record in doc["records"]:
            merged[int(record["step"])] = record
        seqs = self._known_seqs.setdefault(run_id, [])
        if seq not in seqs:
            seqs.append(seq)
            seqs.sort()
        manifest = {"schema": MANIFEST_SCHEMA_ID, "run_id": run_id,
                    "seq": seq, "seqs": list(seqs), "latest": doc,
                    "records": [merged[step] for step in sorted(merged)]}
        validate_manifest_payload(manifest)
        yield from self.facade.put_text(
            self._manifest_logical(run_id, seq),
            json.dumps(manifest, sort_keys=True), time=float(seq))
        self.manifest_saved += 1

    def _compact(self, run_id: str, upto_seq: int):
        """Kernel process: retire documents superseded by manifest ``upto_seq``.

        The manifest at ``upto_seq`` carries the merged record history and
        the latest state, so every older per-sequence document — and every
        older manifest — is redundant.  Removals are individually
        best-effort; seqs already retired by a prior call are skipped.
        """
        start = self._compacted_upto.get(run_id, 0)
        removed = 0
        for seq in [s for s in self._known_seqs.get(run_id, [])
                    if start < s < upto_seq]:
            for name in (self._logical(run_id, seq),
                         self._manifest_logical(run_id, seq)):
                ok = yield from self._remove_logical(name)
                removed += 1 if ok else 0
        self._compacted_upto[run_id] = max(start, upto_seq - 1)
        if removed:
            self.compacted += removed
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

    def _load_latest_manifest(self, run_id: str):
        """Kernel process: the newest *valid* manifest document, or ``None``.

        Walks manifests newest-first and skips any that fetch back
        truncated or schema-invalid (a crash mid-write leaves exactly
        this) — resume falls back to the newest manifest that still
        parses instead of surfacing a JSON traceback.
        """
        seqs = yield from self.facade.list_seqs(self._manifest_prefix(run_id))
        for seq in reversed(seqs):
            self.manifest_fetches += 1
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
            return manifest
        return None

    def load_history(self, run_id: str):
        """Kernel process: one manifest fetch instead of a sequence walk.

        When the newest manifest is *stale* (a later checkpoint exists
        whose manifest write failed), the merge is seeded from the
        manifest and only per-sequence documents newer than it are
        walked — compaction may already have dropped the older ones.
        Only with manifests disabled or absent entirely does this fall
        back to the full walk of
        :meth:`CheckpointStoreBase.load_history`.
        """
        seqs = yield from self.list_seqs(run_id)
        if not seqs:
            return None, []
        manifest = None
        if self.manifest_enabled:
            manifest = yield from self._load_latest_manifest(run_id)
        if manifest is None:
            result = yield from CheckpointStoreBase.load_history(self, run_id)
            return result
        merged = {int(r["step"]): r for r in manifest["records"]}
        latest = manifest["latest"]
        known = [int(s) for s in manifest["seqs"]]
        for seq in [s for s in seqs if s > int(manifest["seq"])]:
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt as exc:
                self.kernel.emit("repository.checkpoint",
                                 "checkpoint.corrupt", run_id=run_id,
                                 seq=seq, error=str(exc))
                continue
            for record in doc["records"]:
                merged[int(record["step"])] = record
            latest = doc
            known.append(seq)
        self._merged[run_id] = merged
        self._known_seqs[run_id] = sorted(set(known))
        resume_step = int(latest["state"]["step"])
        records = [merged[s] for s in sorted(merged) if s < resume_step]
        return latest, records

    def list_seqs(self, run_id: str):
        """Kernel process: registered checkpoint sequences for a run."""
        seqs = yield from self.facade.list_seqs(self._prefix(run_id))
        return seqs

    def load(self, run_id: str, seq: int):
        """Kernel process: fetch one checkpoint document back."""
        name = self._logical(run_id, seq)
        self._fetches += 1
        try:
            text = yield from self.facade.fetch_text(name)
        except ProtocolError as exc:
            raise CheckpointCorrupt(f"{name}: {exc}", run_id=run_id,
                                    seq=seq) from exc
        doc = _parse_checkpoint(text, run_id=run_id, seq=seq, origin=name)
        self.loaded += 1
        return doc
