"""The ingestion tool: incremental upload of staged data during a run.

"This repository and associated NEESgrid services allow data and metadata
from an experiment to be archived incrementally by an ingestion tool as an
experiment is run."  The tool is a kernel process at a site: every sweep it
picks up files the DAQ deposited since the previous sweep, uploads each
through its :class:`~repro.repository.facade.RepositoryFacade` (resuming
partial transfers after failures) and annotates it with an NMDS metadata
record describing the file.
"""

from __future__ import annotations

from typing import Any

from repro.repository.facade import RepositoryFacade
from repro.repository.transport import TransferFailed
from repro.util.errors import ReproError


class IngestionTool:
    """Site-side incremental uploader.

    Args:
        facade: the site's repository client; its host is the site this
            tool runs on and its staging store is the one the DAQ
            deposits into.
        sweep_interval: seconds between staging-store sweeps.
    """

    def __init__(self, facade: RepositoryFacade, *,
                 experiment: str = "experiment",
                 sweep_interval: float = 2.0):
        self.facade = facade
        self.site = facade.host
        self.staging = facade.staging
        self.experiment = experiment
        self.sweep_interval = sweep_interval
        self.kernel = facade.kernel
        self.running = False
        self._cursor = 0  # staging sequence already ingested
        self._partial: dict[str, int] = {}  # file -> bytes done (restart)
        self.uploaded: list[str] = []
        self.failed_attempts = 0

    def start(self) -> None:
        self.running = True
        self.kernel.process(self._loop(), name=f"ingest.{self.site}")

    def stop(self) -> None:
        self.running = False

    def drain(self):
        """One synchronous sweep (as a process): ingest everything pending."""
        yield from self._sweep()

    def _loop(self):
        while self.running:
            yield self.kernel.timeout(self.sweep_interval)
            if not self.running:
                break
            yield from self._sweep()

    def _sweep(self):
        for staged in self.staging.newer_than(self._cursor):
            logical = f"{self.experiment}/{self.site}/{staged.name}"
            try:
                yield from self._upload_one(staged, logical)
            except (TransferFailed, ReproError) as exc:
                # leave the cursor so the file is retried next sweep
                self.failed_attempts += 1
                self.kernel.emit(f"ingest.{self.site}", "upload.failed",
                                 file=staged.name, error=str(exc))
                return
            self._cursor = staged.sequence
            self.uploaded.append(logical)

    def _upload_one(self, staged, logical: str):
        # The restart marker survives only a failed transfer: once the
        # bytes have landed, a failed registration re-sends from zero.
        resume = self._partial.pop(staged.name, 0)
        try:
            report = yield from self.facade.upload(staged, logical,
                                                   resume_from=resume)
        except TransferFailed as exc:
            self._partial[staged.name] = exc.bytes_done
            raise
        metadata: dict[str, Any] = {
            "experiment": self.experiment,
            "site": self.site,
            "logical_name": logical,
            "rows": len(staged.rows),
            "created": staged.created,
            "size": staged.size,
        }
        yield from self.facade.annotate("data-file", metadata)
        self.kernel.emit(f"ingest.{self.site}", "upload.completed",
                         logical_name=logical, duration=report.duration)
