"""Serializable experiment lifecycle state.

The coordinator's stepping loop is an explicit state machine — each step
passes through ``INTEGRATE → PROPOSE → EXECUTE → COMMIT`` — and the whole
machine is captured by :class:`ExperimentState`: the next step index, the
committed integrator state, the pending transaction names of the in-flight
step, and enough run metadata to validate a resume against the original
configuration.  The state is **RNG-free by construction**: nothing here
samples randomness or reads the wall clock, so restoring it cannot perturb
a run's physics (RPR001 enforces this for the whole coordinator package).

Float payloads round-trip **exactly** via ``float.hex()`` — including
``-0.0`` and denormals — so a resumed run is bit-identical to an
uninterrupted one, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coordinator.records import StepRecord
from repro.util.errors import ConfigurationError

#: Step-machine phases.  ``IDLE`` is the between-steps resting state that
#: checkpoints record; the other four are the in-step progression.
PHASE_IDLE = "idle"
PHASE_INTEGRATE = "integrate"
PHASE_PROPOSE = "propose"
PHASE_EXECUTE = "execute"
PHASE_COMMIT = "commit"
PHASES = (PHASE_IDLE, PHASE_INTEGRATE, PHASE_PROPOSE, PHASE_EXECUTE,
          PHASE_COMMIT)


def step_marker(step: int, site: str | None = None) -> str:
    """The step tag inside every transaction name: ``step00042``, or
    ``step00042-uiuc`` with ``site`` — what traffic watchers match on."""
    marker = f"step{step:05d}"
    return marker if site is None else f"{marker}-{site}"


def transaction_name(run_id: str, step: int, site: str) -> str:
    """The base NTCP transaction name of ``site``'s part of ``step``.

    With :func:`step_marker` (kept apart: this one runs nine times a
    step) the only spelling of the format.  §7 replacements append a
    suffix to it (``-s<epoch>`` / ``-f<n>`` / ``-r<gen>``); a name is
    never reused once it may be burned server-side.
    """
    return f"{run_id}-step{step:05d}-{site}"


def encode_floats(values) -> list[str]:
    """Lossless hex encoding of a 1-D float vector."""
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def decode_floats(values) -> np.ndarray:
    """Inverse of :func:`encode_floats`; bit-exact."""
    return np.array([float.fromhex(v) for v in values], dtype=float)


def encode_array(values):
    """Lossless hex encoding of a float array of any rank.

    1-D arrays keep the historical flat-list form, so every pre-ensemble
    payload stays byte-identical; higher-rank arrays (an ensemble's
    ``(n_dof, n_variants)`` state) carry their shape explicitly.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim <= 1:
        return encode_floats(arr)
    return {"shape": [int(s) for s in arr.shape],
            "data": [float(v).hex() for v in arr.ravel()]}


def decode_array(payload) -> np.ndarray:
    """Inverse of :func:`encode_array`; bit-exact, shape-preserving."""
    if isinstance(payload, dict):
        flat = np.array([float.fromhex(v) for v in payload["data"]],
                        dtype=float)
        return flat.reshape([int(s) for s in payload["shape"]])
    return decode_floats(payload)


def encode_force(value):
    """One site-force reading: scalar, or a per-variant list for ensembles."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float(v).hex() for v in value]
    return float(value).hex()


def decode_force(payload):
    """Inverse of :func:`encode_force`."""
    if isinstance(payload, list):
        return [float.fromhex(v) for v in payload]
    return float.fromhex(payload)


def encode_integrator(snapshot: dict | None) -> dict | None:
    """Integrator snapshot (ndarray-valued) → JSON-safe payload."""
    if snapshot is None:
        return None
    return {
        "kind": str(snapshot["kind"]),
        "step_index": int(snapshot["step_index"]),
        "arrays": {name: encode_array(vec)
                   for name, vec in snapshot["arrays"].items()},
    }


def decode_integrator(payload: dict | None) -> dict | None:
    """JSON payload → snapshot dict accepted by ``integrator.restore``."""
    if payload is None:
        return None
    return {
        "kind": payload["kind"],
        "step_index": int(payload["step_index"]),
        "arrays": {name: decode_array(vec)
                   for name, vec in payload["arrays"].items()},
    }


def record_to_payload(record: StepRecord) -> dict:
    """One committed step → JSON-safe payload with exact floats.

    ``degraded`` is written only for degraded steps, so healthy-run
    payloads are byte-identical to pre-failover checkpoints.
    """
    payload = {
        "step": record.step,
        "model_time": record.model_time,
        "displacement": encode_array(record.displacement),
        "restoring_force": encode_array(record.restoring_force),
        "site_forces": {site: {str(dof): encode_force(f)
                               for dof, f in forces.items()}
                        for site, forces in record.site_forces.items()},
        "attempts": record.attempts,
        "wall_started": record.wall_started,
        "wall_finished": record.wall_finished,
    }
    if record.degraded:
        payload["degraded"] = list(record.degraded)
    return payload


def record_from_payload(payload: dict) -> StepRecord:
    """Inverse of :func:`record_to_payload`."""
    return StepRecord(
        step=int(payload["step"]),
        model_time=float(payload["model_time"]),
        displacement=decode_array(payload["displacement"]),
        restoring_force=decode_array(payload["restoring_force"]),
        site_forces={site: {int(dof): decode_force(f)
                            for dof, f in forces.items()}
                     for site, forces in payload["site_forces"].items()},
        attempts=int(payload["attempts"]),
        wall_started=float(payload["wall_started"]),
        wall_finished=float(payload["wall_finished"]),
        degraded=tuple(str(s) for s in payload.get("degraded", ())))


def records_from_payloads(payloads) -> list[StepRecord]:
    """Decode a checkpoint's merged record history, ordered by step."""
    records = [record_from_payload(p) for p in payloads]
    records.sort(key=lambda r: r.step)
    return records


@dataclass
class ExperimentState:
    """Everything the coordinator needs to resume a run bit-exact.

    ``step`` is the next *uncommitted* step; ``pending`` maps site name →
    transaction name for that step's in-flight attempt (empty between
    steps); ``integrator`` holds the committed integrator snapshot
    (ndarray-valued, as produced by ``integrator.snapshot()``);
    ``generation`` counts coordinator incarnations — 0 for the original
    run, incremented on every resume — and suffixes replacement
    transaction names so cancelled (burned) names are never reused.
    """

    run_id: str
    target_steps: int
    dt: float
    step: int = 0
    phase: str = PHASE_IDLE
    generation: int = 0
    pending: dict[str, str] = field(default_factory=dict)
    integrator: dict | None = None
    checkpoint_seq: int = 0
    wall_started: float = 0.0
    #: sites currently served by a numerical surrogate (failover active);
    #: empty for healthy runs — and then omitted from the payload, so
    #: pre-failover checkpoints stay byte-identical.
    degraded_sites: list[str] = field(default_factory=list)
    #: site name → transaction name of a *speculative* (pipelined) step
    #: issued ahead of the verified step.  Non-empty exactly while such
    #: names may be burned at the sites: from speculative issue until the
    #: speculation is adopted as the next verified step or its renamed
    #: replacement goes on the wire.  A resume drains these with the §7
    #: cancel + rename discipline.  Empty for sequential runs — and then
    #: omitted from the payload, so pre-pipeline checkpoints stay
    #: byte-identical.
    speculative: dict[str, str] = field(default_factory=dict)
    #: the step index the ``speculative`` names belong to.  It is *not*
    #: always ``step + 1``: after a rollback the burned names linger
    #: through the next commit, at which point they belong to the new
    #: ``step`` itself — a resume must rename at exactly this index or
    #: the reconciler's base-name fallback could harvest an executed
    #: mispredicted speculation as if it were the verified step.
    speculative_step: int = 0

    def to_payload(self) -> dict:
        """JSON-safe payload (``repro.checkpoint/v1`` ``state`` object)."""
        payload = {
            "run_id": self.run_id,
            "target_steps": self.target_steps,
            "dt": self.dt,
            "step": self.step,
            "phase": self.phase,
            "generation": self.generation,
            "pending": dict(self.pending),
            "integrator": encode_integrator(self.integrator),
            "checkpoint_seq": self.checkpoint_seq,
            "wall_started": self.wall_started,
        }
        if self.degraded_sites:
            payload["degraded_sites"] = sorted(self.degraded_sites)
        if self.speculative:
            payload["speculative"] = dict(self.speculative)
            payload["speculative_step"] = self.speculative_step
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentState":
        """Inverse of :meth:`to_payload`."""
        if payload.get("phase") not in PHASES:
            raise ConfigurationError(
                f"unknown experiment phase {payload.get('phase')!r}")
        return cls(
            run_id=str(payload["run_id"]),
            target_steps=int(payload["target_steps"]),
            dt=float(payload["dt"]),
            step=int(payload["step"]),
            phase=str(payload["phase"]),
            generation=int(payload["generation"]),
            pending={str(k): str(v)
                     for k, v in payload.get("pending", {}).items()},
            integrator=decode_integrator(payload.get("integrator")),
            checkpoint_seq=int(payload.get("checkpoint_seq", 0)),
            wall_started=float(payload.get("wall_started", 0.0)),
            degraded_sites=[str(s)
                            for s in payload.get("degraded_sites", [])],
            speculative={str(k): str(v)
                         for k, v in payload.get("speculative", {}).items()},
            speculative_step=int(payload.get("speculative_step", 0)))


def resume_state_from_checkpoint(doc: dict) -> ExperimentState:
    """Prepare the state inside a checkpoint document for a new incarnation.

    Bumps ``generation`` (replacement transaction names get a fresh
    ``-r<generation>`` suffix) and resets the phase to ``IDLE`` — the
    resumed coordinator re-enters the step machine from the top of the
    recorded ``step``.
    """
    state = ExperimentState.from_payload(doc["state"])
    state.generation += 1
    state.phase = PHASE_IDLE
    state.checkpoint_seq = int(doc["seq"])
    return state


def load_resume(store, run_id: str):
    """Kernel process: the resume point of ``run_id`` in ``store`` — the
    newest checkpoint below which the committed history is complete.

    Returns ``(state, prior_records)`` ready for a new coordinator
    incarnation (``state=`` / ``prior_records=``; the records are exactly
    steps ``1 .. state.step - 1``), or ``(None, ())`` when the run left no
    checkpoint to resume from.  The state's next checkpoint is numbered
    above every sequence the store listed, not just above the resume
    point's: names are immutable, and one above a hole is taken.
    """
    history = yield from store.load_history(run_id)
    if history.latest is None:
        return None, ()
    state = resume_state_from_checkpoint(history.latest)
    state.checkpoint_seq = history.listed
    return state, records_from_payloads(history.records)
