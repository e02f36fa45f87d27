"""The repository façade: NMDS + NFMS + transports behind one client API.

"These components are coupled using the Façade pattern, but may be used
independently."  :class:`RepositoryFacade` is the coupling, and the only
repository client in the library: checkpoints and their manifests, the
queue journal, the ingestion tool and every run/degradation/snapshot
registration hold one and speak to the repository through it.  It is the
one place the NFMS/NMDS conversations are written down:

* *put* — stage locally → move with the preferred transport →
  ``registerFile`` (:meth:`~RepositoryFacade.put_text` for a text
  document, :meth:`~RepositoryFacade.upload` for a file the DAQ already
  staged, with restartable transfers);
* *fetch* — ``negotiateTransfer`` → pull the replica back
  (:meth:`~RepositoryFacade.fetch_text`, :meth:`~RepositoryFacade.download`);
* *list* / *remove* — ``listFiles`` (:meth:`~RepositoryFacade.list_seqs`
  reads the ``<prefix><seq:06d>.json`` numbering the stores share),
  ``unregisterFile``;
* *annotate* / *query* — NMDS ``createObject`` / ``listObjects`` /
  ``getObject`` / ``defineSchema``.

A façade is per client — one host's RPC client, staging store and
credentials — so a deployment holds several (each site's ingestion tool,
the coordinator's checkpoint store, the scheduler's journal), never one
shared instance.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.daq.filestore import StagedFile, StagingStore
from repro.net.rpc import RpcClient
from repro.ogsi.handle import GridServiceHandle, invoke
from repro.repository.transport import Transport
from repro.util.errors import ProtocolError

#: ``hop(label, make_attempt)`` runs one repository hop — an NFMS/NMDS
#: operation (``label`` is its name) or an upload (``"transfer"``).
Hop = Callable[[str, Callable[[], Any]], Any]


def _direct(label: str, make_attempt: Callable[[], Any]):
    """The default hop: one attempt, errors surface to the caller."""
    return make_attempt()


class RepositoryFacade:
    """Client-side façade over NMDS, NFMS and the transports.

    Args:
        rpc: RPC client on the caller's host (which is the local end of
            every transfer).
        nmds / nfms: repository service handles; a client that only
            annotates needs no ``nfms``, one that only moves files no
            ``nmds``.  Files live in ``repo_store`` on the NFMS host.
        transports: protocol name → :class:`Transport` available locally
            (what the client "speaks"; negotiation intersects with the
            server's).  The first entry carries uploads.
        repo_store: the repository's file store, as mounted by this client.
        staging: the client's local staging store (a document is staged
            here on its way out and lands here on its way back, and is
            dropped once registered or read — the repository is the
            archive, not the client).
        credential_factory: optional per-call GSI token minting.

    The file methods take ``hop`` (see :data:`Hop`) so a caller that must
    ride out a repository outage can run each NFMS call and each upload
    under its own retry schedule; a pull is never wrapped — it changes
    nothing in the repository, so the caller simply fetches again.
    """

    def __init__(self, rpc: RpcClient, nmds: GridServiceHandle | None = None,
                 nfms: GridServiceHandle | None = None,
                 transports: dict[str, Transport] | None = None, *,
                 repo_store: StagingStore | None = None,
                 staging: StagingStore | None = None,
                 credential_factory=None):
        self.rpc = rpc
        self.kernel = rpc.kernel
        self.host = rpc.host
        self.nmds = nmds
        self.nfms = nfms
        self.transports = dict(transports or {})
        self.repo_store = repo_store
        self.staging = (staging if staging is not None
                        else StagingStore(f"{rpc.host}-staging"))
        self.credential_factory = credential_factory
        self._fetches = 0

    def _invoke(self, handle: GridServiceHandle, operation: str,
                params: dict[str, Any], hop: Hop = _direct):
        def attempt():
            credential = (self.credential_factory("invoke")
                          if self.credential_factory else None)
            return invoke(self.rpc, handle, operation, params,
                          credential=credential)

        result = yield from hop(operation, attempt)
        return result

    # -- metadata side ----------------------------------------------------------
    def define_schema(self, name: str, spec: dict[str, Any]):
        """Register (a new version of) a metadata schema."""
        version = yield from self._invoke(self.nmds, "defineSchema",
                                          {"name": name, "spec": spec})
        return version

    def query_metadata(self, object_type: str | None = None):
        """List metadata object ids, optionally by type."""
        ids = yield from self._invoke(self.nmds, "listObjects",
                                      {"object_type": object_type})
        return ids

    def get_metadata(self, object_id: str, version: int | None = None):
        obj = yield from self._invoke(self.nmds, "getObject",
                                      {"object_id": object_id,
                                       "version": version})
        return obj

    def annotate(self, object_type: str, fields: dict[str, Any]):
        """Create a metadata object (e.g. experiment setup descriptions)."""
        object_id = yield from self._invoke(self.nmds, "createObject",
                                            {"object_type": object_type,
                                             "fields": fields})
        return object_id

    # -- file side --------------------------------------------------------------
    def list_files(self, prefix: str = "", *, hop: Hop = _direct):
        names = yield from self._invoke(self.nfms, "listFiles",
                                        {"prefix": prefix}, hop)
        return names

    def list_seqs(self, prefix: str, *, hop: Hop = _direct):
        """Ascending sequence numbers of ``<prefix><seq:06d>.json`` files."""
        names = yield from self.list_files(prefix, hop=hop)
        seqs = []
        for name in names:
            stem = name[len(prefix):]
            if stem.endswith(".json"):
                try:
                    seqs.append(int(stem[:-len(".json")]))
                except ValueError:
                    continue
        return sorted(seqs)

    def upload(self, staged: StagedFile, logical_name: str, *,
               resume_from: int = 0, hop: Hop = _direct):
        """Move an already staged file to the repository and register it.

        ``resume_from`` restarts a transfer that raised
        :class:`~repro.repository.transport.TransferFailed` at its
        ``bytes_done``.  Returns the
        :class:`~repro.repository.transport.TransferReport`.
        """
        transport = next(iter(self.transports.values()))
        report = yield from hop("transfer", lambda: transport.transfer(
            self.host, self.nfms.host, staged, self.repo_store,
            dst_name=logical_name, resume_from=resume_from))
        yield from self._invoke(self.nfms, "registerFile", {
            "logical_name": logical_name, "host": self.nfms.host,
            "store": self.repo_store.name, "size": staged.size,
            "checksum": staged.checksum}, hop)
        return report

    def put_text(self, logical_name: str, text: str, *, time: float = 0.0,
                 hop: Hop = _direct):
        """Stage ``text`` as a one-row file (``time`` is the row's time
        column) and :meth:`upload` it under ``logical_name``; the staged
        copy goes once the upload has registered (a failed put keeps it)."""
        staged = self.staging.deposit(logical_name, [(time, text)],
                                      created=self.kernel.now)
        yield from self.upload(staged, logical_name, hop=hop)
        self.staging.remove(logical_name)

    def download(self, logical_name: str, dst_store: StagingStore, *,
                 dst_name: str | None = None, hop: Hop = _direct):
        """Negotiate and run a download of ``logical_name`` to ``dst_store``.

        Returns the :class:`~repro.repository.transport.TransferReport`;
        a file NFMS lists but the repository store no longer holds is a
        :class:`~repro.util.errors.ProtocolError`.
        """
        deal = yield from self._invoke(
            self.nfms, "negotiateTransfer",
            {"logical_name": logical_name,
             "client_protocols": list(self.transports)}, hop)
        transport = self.transports.get(deal["protocol"])
        if transport is None:  # pragma: no cover - negotiation guarantees
            raise ProtocolError(f"negotiated unavailable protocol "
                                f"{deal['protocol']!r}")
        if not self.repo_store.exists(logical_name):
            raise ProtocolError(f"logical file {logical_name!r} is missing "
                                f"from store {self.repo_store.name!r}")
        report = yield from transport.transfer(
            deal["replica"]["host"], self.host,
            self.repo_store.get(logical_name), dst_store,
            dst_name=dst_name or logical_name)
        return report

    def fetch_text(self, logical_name: str, *, hop: Hop = _direct):
        """Pull ``logical_name`` through staging and return its text.

        Raises :class:`~repro.util.errors.ProtocolError` when the file is
        missing from the store or has no rows — decoding the text is the
        caller's job, an absent one is not.
        """
        self._fetches += 1
        local_name = f"{logical_name}#fetch{self._fetches}"
        yield from self.download(logical_name, self.staging,
                                 dst_name=local_name, hop=hop)
        rows = self.staging.get(local_name).rows
        self.staging.remove(local_name)
        if not rows:
            raise ProtocolError(f"logical file {logical_name!r} is empty")
        return rows[0][1]

    def remove(self, logical_name: str):
        """Unregister ``logical_name`` and drop it from the repository store."""
        yield from self._invoke(self.nfms, "unregisterFile",
                                {"logical_name": logical_name})
        if self.repo_store.exists(logical_name):
            self.repo_store.remove(logical_name)
