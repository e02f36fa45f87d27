"""NEESgrid data and metadata repository (paper §2.3, Figure 3).

Components, mirroring the paper one-to-one:

* :class:`~repro.repository.nmds.NMDSService` — the NEESgrid Metadata
  Service: create/update/manage/validate metadata, with metadata *schemas*
  as first-class versioned objects and per-object version control and
  authorization;
* :class:`~repro.repository.nfms.NFMSService` — the NEESgrid File
  Management Service: logical file naming and transport neutrality, with a
  plug-in transport API;
* :class:`~repro.repository.transport.GridFTPTransport` /
  :class:`~repro.repository.transport.HttpsBridgeTransport` — the two
  transports NFMS negotiates between (GridFTP, and the servlet "bridge
  between GridFTP and https");
* :class:`~repro.repository.facade.RepositoryFacade` — couples NMDS and
  NFMS "using the Façade pattern, but they may be used independently".
  It is the repository's only client: one put / fetch / list / remove /
  annotate path per client host, and the single module that names an
  NFMS or NMDS operation;
* :class:`~repro.repository.ingest.IngestionTool` — uploads data/metadata
  incrementally as an experiment runs, through a façade;
* :mod:`~repro.repository.checkpoint` — versioned experiment checkpoints
  (``repro.checkpoint/v1``) persisted through a façade, so an aborted
  coordinator run can resume bit-exact.

(:class:`~repro.queue.journal.RepositoryJournalStore` is the façade's
third user; run, degradation and flight-snapshot registrations are
single ``annotate`` calls.)
"""

from repro.repository.nmds import MetadataObject, NMDSService, SchemaSpec
from repro.repository.nfms import NFMSService
from repro.repository.transport import (
    GridFTPTransport,
    HttpsBridgeTransport,
    Transport,
    TransferFailed,
)
from repro.repository.ingest import IngestionTool
from repro.repository.facade import RepositoryFacade
from repro.repository.checkpoint import (
    CheckpointCorrupt,
    CheckpointPolicy,
    CheckpointSchemaError,
    InMemoryCheckpointStore,
    RepositoryCheckpointStore,
    build_checkpoint_doc,
    validate_checkpoint_payload,
    validate_manifest_payload,
)

__all__ = [
    "NMDSService",
    "MetadataObject",
    "SchemaSpec",
    "NFMSService",
    "Transport",
    "GridFTPTransport",
    "HttpsBridgeTransport",
    "TransferFailed",
    "IngestionTool",
    "RepositoryFacade",
    "CheckpointCorrupt",
    "CheckpointPolicy",
    "CheckpointSchemaError",
    "InMemoryCheckpointStore",
    "RepositoryCheckpointStore",
    "build_checkpoint_doc",
    "validate_checkpoint_payload",
    "validate_manifest_payload",
]
