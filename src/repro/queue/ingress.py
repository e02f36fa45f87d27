"""The durable experiment ingress queue over the write-ahead journal.

:class:`ExperimentQueue` is the in-memory *view* a scheduler incarnation
holds over the persistent journal: it replays entries into submission /
claim / terminal state, appends new entries for every state change, and
enforces the two delivery guarantees the tentpole promises:

* **at-least-once redelivery** — a submission with a claim but no
  terminal entry is *outstanding*; every fresh incarnation re-claims it
  (with an incremented attempt count) until some incarnation lands a
  terminal entry;
* **exactly-once execution** — dedupe on the caller-supplied submission
  id makes resubmission idempotent, a run id is journaled by one
  submission only, fencing epochs make stale claims and terminals
  impossible to land, and disjoint-site redelivery (the claim records
  carry granted site names, and recovery leases *avoid* them) keeps NTCP
  transaction names collision-free, so ``duplicate_executes`` stays zero
  across any number of crashes.

Replay applies the journal's own fencing discipline: entries appear in
sequence order, and a claim or terminal whose epoch is older than the
newest epoch entry *preceding it in the log* is void — it was a zombie
write that raced the in-memory validator — and is counted, never applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.fleet.pool import AdmissionError
from repro.queue.fencing import FencingAuthority
from repro.queue.journal import JournalStoreBase
from repro.util.errors import ConfigurationError

__all__ = ["ExperimentQueue", "QueueSubmission"]


@dataclass(frozen=True)
class QueueSubmission:
    """One caller-submitted experiment, keyed by ``submission_id``.

    The submission id is the **caller's** idempotency key: submitting the
    same id twice is one logical submission (the second submit returns
    the journaled first).  ``run_id`` defaults to the submission id, and
    names the run's NTCP transactions, so it is unique across the queue.
    ``motion_scale`` scales the ground-motion PGA; ``checkpoint_every >
    0`` gives the run a checkpoint store a redelivery resumes from;
    ``degradation`` adds per-lease circuit breakers and surrogate
    failover.
    """

    submission_id: str
    tenant: str
    run_id: str = ""
    n_steps: int = 25
    n_sites: int = 1
    motion_scale: float = 1.0
    checkpoint_every: int = 0
    degradation: bool = False

    def __post_init__(self) -> None:
        if not self.run_id:
            object.__setattr__(self, "run_id", self.submission_id)

    def body(self) -> dict[str, Any]:
        """The journal ``submit`` body for this submission (``degradation``
        is written only when set, so undegraded entries keep their bytes)."""
        body = {"submission_id": self.submission_id, "tenant": self.tenant,
                "run_id": self.run_id, "n_steps": self.n_steps,
                "n_sites": self.n_sites,
                "motion_scale": float(self.motion_scale),
                "checkpoint_every": self.checkpoint_every}
        if self.degradation:
            body["degradation"] = True
        return body

    @classmethod
    def from_body(cls, body: dict[str, Any]) -> "QueueSubmission":
        """Rebuild a submission from a journaled ``submit`` body."""
        return cls(submission_id=body["submission_id"],
                   tenant=body["tenant"], run_id=body["run_id"],
                   n_steps=int(body["n_steps"]),
                   n_sites=int(body["n_sites"]),
                   motion_scale=float(body["motion_scale"]),
                   checkpoint_every=int(body["checkpoint_every"]),
                   degradation=body.get("degradation", False))


class ExperimentQueue:
    """Journal-backed ingress queue: submit, claim, terminal, replay.

    All mutating operations are kernel processes (``yield from`` them) —
    they append to the journal store, which may be a multi-hop repository
    write.  ``claim`` and ``mark_terminal`` validate the caller's fencing
    epoch against the shared :class:`~repro.queue.fencing.FencingAuthority`
    before appending, so a zombie scheduler is refused at the queue door.
    """

    def __init__(self, kernel: Any, store: JournalStoreBase,
                 authority: FencingAuthority):
        self.kernel = kernel
        self.store = store
        self.authority = authority
        #: submission_id -> submit body, in journal order
        self._submissions: dict[str, dict] = {}
        #: run_id -> the submission id that journaled it first
        self._run_ids: dict[str, str] = {}
        #: submission_id -> list of applied claim bodies
        self._claims: dict[str, list[dict]] = {}
        #: submission_id -> applied terminal body
        self._terminals: dict[str, dict] = {}
        #: stale-epoch entries voided during replay (zombie writes that
        #: raced the in-memory validator; never applied)
        self.voided: list[dict] = []
        self._replayed = False

    # -- replay --------------------------------------------------------------
    def recover(self):
        """Kernel process: rebuild queue state from the full journal.

        Resets in-memory state, replays every entry in sequence order,
        fast-forwards the fencing authority to the highest journaled
        epoch, and voids any claim/terminal that a newer epoch entry
        precedes in the log.  Returns ``{"entries", "voided"}``.
        """
        entries = yield from self.store.replay()
        self._submissions = {}
        self._run_ids = {}
        self._claims = {}
        self._terminals = {}
        self.voided = []
        running_epoch = 0
        for entry in entries:
            kind = entry["kind"]
            body = entry["body"]
            if kind == "submit":
                self._submissions.setdefault(body["submission_id"], body)
                self._run_ids.setdefault(body["run_id"],
                                         body["submission_id"])
            elif kind == "epoch":
                running_epoch = max(running_epoch, int(body["epoch"]))
                self.authority.observe(int(body["epoch"]),
                                       body["scheduler_id"])
            elif int(body["epoch"]) < running_epoch:
                self.voided.append(entry)
            elif kind == "claim":
                self._claims.setdefault(body["submission_id"],
                                        []).append(body)
            else:  # terminal
                self._terminals.setdefault(body["submission_id"], body)
        self.kernel.emit("queue", "journal.replayed", entries=len(entries),
                         voided=len(self.voided),
                         outstanding=self.depth())
        self._replayed = True
        return {"entries": len(entries), "voided": len(self.voided)}

    # -- ingress -------------------------------------------------------------
    def submit(self, submission: QueueSubmission):
        """Kernel process: journal one submission; idempotent by id.

        A resubmitted id returns the originally journaled body without
        appending — the caller's retry after a lost acknowledgment is
        absorbed, which is what makes the queue's delivery *exactly-once*
        from the submitter's point of view.  A *new* id whose run id is
        already journaled is refused with :class:`AdmissionError`: the run
        id names the run's NTCP transactions and checkpoints, so a second
        submission under it would replay the first one's outcomes.
        """
        body = submission.body()
        sid = body["submission_id"]
        existing = self._submissions.get(sid)
        if existing is not None:
            self.kernel.emit("queue", "submit.deduped", submission_id=sid)
            return dict(existing)
        owner = self._run_ids.get(body["run_id"])
        if owner is not None:
            raise AdmissionError(
                f"run id {body['run_id']!r} is already journaled by "
                f"submission {owner!r}; run ids must be queue-unique")
        yield from self.store.append("submit", body, time=self.kernel.now)
        self._submissions[sid] = body
        self._run_ids[body["run_id"]] = sid
        self.kernel.emit("queue", "submit.accepted", submission_id=sid,
                         tenant=body["tenant"], run_id=body["run_id"])
        return dict(body)

    def register_scheduler(self, scheduler_id: str):
        """Kernel process: grant and journal a new fencing epoch."""
        epoch = self.authority.register(scheduler_id)
        yield from self.store.append(
            "epoch", {"epoch": epoch, "scheduler_id": scheduler_id},
            time=self.kernel.now)
        return epoch

    def claim(self, submission_id: str, epoch: int, sites):
        """Kernel process: journal one claim; returns the attempt number.

        ``sites`` are the lease's granted site names — recorded so a
        later redelivery can lease *around* them (disjoint-site recovery,
        the zero-duplicate-executes guarantee).  Attempt 2 and above is a
        redelivery.
        """
        if submission_id not in self._submissions:
            raise ConfigurationError(
                f"cannot claim unknown submission {submission_id!r}")
        self.authority.validate(epoch, "queue.claim")
        attempt = len(self._claims.get(submission_id, ())) + 1
        body = {"submission_id": submission_id, "epoch": epoch,
                "attempt": attempt, "sites": list(sites)}
        yield from self.store.append("claim", body, time=self.kernel.now)
        self._claims.setdefault(submission_id, []).append(body)
        self.kernel.emit("queue", "claim.journaled",
                         submission_id=submission_id, epoch=epoch,
                         attempt=attempt, sites=list(sites))
        return attempt

    def mark_terminal(self, submission_id: str, epoch: int, *,
                      status: str, steps: int):
        """Kernel process: journal a terminal state for one submission."""
        if submission_id not in self._submissions:
            raise ConfigurationError(
                f"cannot terminate unknown submission {submission_id!r}")
        self.authority.validate(epoch, "queue.terminal")
        body = {"submission_id": submission_id, "epoch": epoch,
                "status": status, "steps": int(steps)}
        yield from self.store.append("terminal", body, time=self.kernel.now)
        self._terminals.setdefault(submission_id, body)
        self.kernel.emit("queue", "terminal.journaled",
                         submission_id=submission_id, epoch=epoch,
                         status=status, steps=steps)
        return body

    # -- queries -------------------------------------------------------------
    def outstanding(self) -> list[QueueSubmission]:
        """Submissions without a terminal entry, in submit order."""
        return [QueueSubmission.from_body(body)
                for sid, body in self._submissions.items()
                if sid not in self._terminals]

    def depth(self) -> int:
        """Number of outstanding submissions."""
        return sum(1 for sid in self._submissions
                   if sid not in self._terminals)

    def attempts(self, submission_id: str) -> int:
        """Applied claim count for one submission."""
        return len(self._claims.get(submission_id, ()))

    def redeliveries(self) -> int:
        """Total claims beyond each submission's first."""
        return sum(max(0, len(claims) - 1)
                   for claims in self._claims.values())

    def claimed_sites(self, submission_id: str) -> frozenset:
        """Every site any applied claim of this submission ever held.

        The redelivery avoid-set: the dead incarnations may have executed
        NTCP transactions on these sites under this run's names, so a
        recovery lease must not include them.
        """
        names: set[str] = set()
        for claim in self._claims.get(submission_id, ()):
            names.update(claim["sites"])
        return frozenset(names)

    def terminal(self, submission_id: str) -> dict | None:
        """The applied terminal body for one submission, or ``None``."""
        body = self._terminals.get(submission_id)
        return dict(body) if body is not None else None

    def stats(self) -> dict[str, Any]:
        """The queue's headline numbers (published as SDE ``queue.status``)."""
        completed = sum(1 for t in self._terminals.values()
                        if t["status"] == "completed")
        return {"time": self.kernel.now,
                "submitted": len(self._submissions),
                "outstanding": self.depth(),
                "claims": sum(len(c) for c in self._claims.values()),
                "redeliveries": self.redeliveries(),
                "completed": completed,
                "failed": len(self._terminals) - completed,
                "voided": len(self.voided),
                "epoch": self.authority.current_epoch,
                "refusals": len(self.authority.refusals)}
