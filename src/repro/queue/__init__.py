"""Durable experiment ingress: journaled queue, fencing, crash recovery.

The robustness layer the MOST-era grid never had: experiment submissions
are write-ahead journaled through the data repository
(``repro.queue/v1``), scheduler incarnations own the fleet through
monotone fencing epochs, and a fleet-scheduler crash is survived by
replaying the journal and redelivering claimed-but-unterminated work
through the §7 checkpoint/resume machinery — at-least-once delivery,
exactly-once execution, bit-exact histories.

Entry points:

* :class:`ExperimentQueue` + a journal store — submit / claim / terminal
  over the write-ahead log;
* :class:`DurableFleetScheduler` — one crash-recoverable scheduler
  incarnation over a fleet grid; it adds epoch takeover, journaled
  claim/terminal and fenced clients around the fleet's drive loop
  (:func:`repro.fleet.scheduler.drive_request`) and reports each delivery
  as the fleet's :class:`~repro.fleet.scheduler.TenantOutcome`;
* :func:`run_durable_campaign` — the one campaign loop: submissions in,
  crashes on cue (none for a plain fleet campaign),
  :class:`CampaignResult` out;
* :class:`FencingAuthority` and the fenced wrappers — the zombie-write
  refusal fabric shared with :mod:`repro.fleet.pool`.
"""

from repro.queue.fencing import (
    FencedCheckpointStore,
    FencedNTCPClient,
    FencingAuthority,
    FencingError,
)
from repro.queue.ingress import ExperimentQueue, QueueSubmission
from repro.queue.journal import (
    ENTRY_KINDS,
    QUEUE_SCHEMA_ID,
    TERMINAL_STATUSES,
    FileJournalStore,
    InMemoryJournalStore,
    JournalStoreBase,
    QueueSchemaError,
    RepositoryJournalStore,
    build_entry,
    validate_queue_entry,
)
from repro.queue.scheduler import (
    QUEUE_SDE,
    CampaignResult,
    DurableFleetScheduler,
    attach_durable_repository,
    run_durable_campaign,
)

__all__ = [
    "QUEUE_SCHEMA_ID",
    "ENTRY_KINDS",
    "TERMINAL_STATUSES",
    "QueueSchemaError",
    "validate_queue_entry",
    "build_entry",
    "JournalStoreBase",
    "InMemoryJournalStore",
    "FileJournalStore",
    "RepositoryJournalStore",
    "FencingAuthority",
    "FencingError",
    "FencedCheckpointStore",
    "FencedNTCPClient",
    "ExperimentQueue",
    "QueueSubmission",
    "QUEUE_SDE",
    "DurableFleetScheduler",
    "CampaignResult",
    "attach_durable_repository",
    "run_durable_campaign",
]
