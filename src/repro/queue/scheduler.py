"""The crash-recoverable fleet scheduler over the durable ingress queue.

:class:`DurableFleetScheduler` is one scheduler *incarnation*: it
registers a fresh fencing epoch, fences the site pool (revoking every
lease a dead predecessor still holds), replays the journal, and drives
every outstanding submission — first deliveries and redeliveries alike —
as its own kernel process.  Each drive is the fleet's
:func:`~repro.fleet.scheduler.drive_request` handed a fenced NTCP client
and a fenced view of the run's shared checkpoint store; what lives here
is epoch takeover, settle, replay, the journaled claim and terminal, and
:meth:`~DurableFleetScheduler.crash`.  A submission no pool state could
ever grant (more sites than the pool owns, or an avoid-set that leaves
too few) is journaled ``failed`` with 0 steps, and the drain goes on.  A
redelivered submission resumes from the run's newest checkpoint through
the §7 reconciliation machinery, on sites *disjoint* from every site a
prior claim ever held, so the successor never re-executes an NTCP
transaction a dead incarnation's orphan might have landed.

The zombie model: :meth:`crash` marks the incarnation dead but interrupts
nothing — its coordinator processes, checkpoint writers, and lease
bookkeeping keep running, exactly like a host whose scheduler process
died while its in-flight RPCs did not.  Every one of those orphans is
stopped at its next durable write: the fenced NTCP client, checkpoint
store, queue journal, and site pool all validate the orphan's stale
epoch and refuse it with :class:`~repro.util.errors.FencingError`.

:func:`run_durable_campaign` strings incarnations together — submit,
run, crash on cue, take over.  It is the one campaign loop: with no
``crash_after`` over an :class:`~repro.queue.journal.InMemoryJournalStore`
it is a plain fleet campaign (``repro fleet``, T-FLEET); with crashes
over the repository journal it is T-QUEUE and T-WALL's
``campaign_durable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.fleet.pool import AdmissionError, SiteLease, SitePool
from repro.fleet.scheduler import TenantOutcome, drive_request
from repro.net import RpcClient
from repro.ogsi import SdeStatusService, ServiceContainer
from repro.queue.fencing import FencedCheckpointStore, FencedNTCPClient
from repro.queue.ingress import ExperimentQueue, QueueSubmission
from repro.queue.journal import RepositoryJournalStore
from repro.repository import (
    GridFTPTransport,
    InMemoryCheckpointStore,
    NFMSService,
    RepositoryFacade,
)
from repro.util.errors import FencingError

#: the queue-status SDE; a ``status`` service is
#: ``SdeStatusService("queue-status", QUEUE_SDE, "getQueueStatus")``
QUEUE_SDE = "queue.status"

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.grid import FleetGrid
    from repro.fleet.tenants import TenantRegistry


def attach_durable_repository(grid: "FleetGrid", *,
                              name: str = "campaign"
                              ) -> RepositoryJournalStore:
    """Wire a repository-backed queue journal onto a fleet grid.

    Deploys an NFMS instance in its own container on the ``repo`` host
    (port ``ogsi-queue`` — the journal is the scheduler's internal
    coordination state, not tenant data, so it bypasses the tenant GSI
    fabric the way the fleet's own status services do), installs the
    GridFTP transport, and returns a ready
    :class:`~repro.queue.journal.RepositoryJournalStore`.
    """
    from repro.daq.filestore import RepositoryFileStore

    container = ServiceContainer(grid.network, "repo", port="ogsi-queue")
    nfms = NFMSService()
    handle = container.deploy(nfms)
    nfms.install_transport("gridftp")
    rpc = RpcClient(grid.network, "coord",
                    default_timeout=grid.config.rpc_timeout,
                    default_retries=grid.config.rpc_retries,
                    labels={"role": "queue"})
    grid.extras["queue_nfms"] = nfms
    return RepositoryJournalStore(name=name, facade=RepositoryFacade(
        rpc, nfms=handle,
        transports={"gridftp": GridFTPTransport(grid.network)},
        repo_store=RepositoryFileStore()))


class DurableFleetScheduler:
    """One scheduler incarnation over the shared grid, pool, and queue.

    Run :meth:`main` as a kernel process.  It claims ownership (fencing
    epoch + pool fence), recovers queue state from the journal, then
    drives every outstanding submission to a journaled terminal state.
    A predecessor's orphans die at their next fenced write; this
    incarnation's own writes carry ``self.epoch`` everywhere.
    """

    def __init__(self, grid: "FleetGrid", pool: SitePool,
                 registry: "TenantRegistry", queue: ExperimentQueue, *,
                 scheduler_id: str,
                 checkpoint_stores: dict[str, InMemoryCheckpointStore]
                 | None = None,
                 settle_delay: float = 5.0,
                 status: SdeStatusService | None = None):
        self.grid = grid
        self.pool = pool
        self.registry = registry
        self.queue = queue
        self.kernel = grid.kernel
        self.scheduler_id = scheduler_id
        #: run_id -> checkpoint store, shared ACROSS incarnations (it
        #: stands in for the durable repository checkpoint namespace)
        self.checkpoint_stores = (checkpoint_stores
                                  if checkpoint_stores is not None else {})
        self.settle_delay = settle_delay
        self.status = status
        self.epoch = 0
        self.dead = False
        self.outcomes: list[TenantOutcome] = []
        self.fenced_drives = 0
        self.report: dict[str, Any] | None = None
        self._driving = False
        #: fires (with the outstanding count) once recovery is done and
        #: the drive processes are spawned — the crash-scheduling anchor
        self.draining = self.kernel.event(
            name=f"queue.{scheduler_id}.draining")

    # -- lifecycle -----------------------------------------------------------
    def main(self) -> Generator[Any, Any, dict[str, Any]]:
        """Kernel process: take over the queue and drain it.

        Order matters: the epoch is registered (journaled) *first*, so
        every predecessor write from then on is refused in memory and can
        never reach the journal; the pool is fenced next, revoking orphan
        leases; the settle delay then lets predecessor appends already in
        flight land; only then is the journal replayed — any zombie entry
        that slipped in behind the epoch entry is voided by sequence
        order during replay.
        """
        self.epoch = yield from self.queue.register_scheduler(
            self.scheduler_id)
        revoked = self.pool.fence_epoch(self.epoch)
        self.kernel.emit("queue.scheduler", "takeover",
                         scheduler_id=self.scheduler_id, epoch=self.epoch,
                         leases_revoked=revoked)
        if self.settle_delay > 0:
            yield self.kernel.timeout(self.settle_delay)
        recovery = yield from self.queue.recover()
        outstanding = self.queue.outstanding()
        self.kernel.emit("queue.scheduler", "drain.start",
                         scheduler_id=self.scheduler_id, epoch=self.epoch,
                         outstanding=len(outstanding))
        processes = [
            self.kernel.process(
                self._drive_guard(submission),
                name=f"queue.{self.scheduler_id}.{submission.submission_id}")
            for submission in outstanding]
        self._driving = True
        self.draining.succeed(len(processes))
        if self.status is not None:
            self.kernel.process(self._publish_loop(),
                                name=f"queue.{self.scheduler_id}.rollup")
        if processes:
            yield self.kernel.all_of(processes)
        self._driving = False
        if self.status is not None and not self.dead:
            self.status.publish(self.queue.stats())
        self.report = {
            "scheduler_id": self.scheduler_id, "epoch": self.epoch,
            "leases_revoked": revoked, "replayed": recovery["entries"],
            "voided": recovery["voided"], "driven": len(processes),
            "completed": sum(1 for o in self.outcomes if o.completed),
            "fenced_drives": self.fenced_drives,
            "finished_at": self.kernel.now}
        return self.report

    def crash(self) -> None:
        """Declare this incarnation dead — and clean up *nothing*.

        The zombie model: every in-flight coordinator, checkpoint write,
        and lease this incarnation owns keeps running, exactly like a
        crashed host's outstanding RPCs.  They are stopped by fencing at
        their next durable write, not by this call.
        """
        self.dead = True
        self.kernel.emit("queue.scheduler", "scheduler.crashed",
                         scheduler_id=self.scheduler_id, epoch=self.epoch)

    # -- per-submission drive ------------------------------------------------
    def _drive_guard(self, submission: QueueSubmission
                     ) -> Generator[Any, Any, None]:
        """Run one drive; absorb the fencing refusal that ends a zombie."""
        try:
            yield from self._drive(submission)
        except FencingError as exc:
            self.fenced_drives += 1
            self.kernel.emit("queue.scheduler", "drive.fenced",
                             scheduler_id=self.scheduler_id,
                             submission_id=submission.submission_id,
                             epoch=exc.epoch,
                             current_epoch=exc.current_epoch,
                             path=exc.path)

    def _drive(self, submission: QueueSubmission
               ) -> Generator[Any, Any, None]:
        tenant = self.registry.register(submission.tenant)
        started_at = self.kernel.now
        # Disjoint-site redelivery: never lease a site a prior claim of
        # this submission held — a dead incarnation's orphan may have
        # executed this run's transaction names there.
        avoid = self.queue.claimed_sites(submission.submission_id)
        try:
            granted = self.pool.acquire(
                submission.tenant, submission.n_sites, epoch=self.epoch,
                avoid=avoid)
        except AdmissionError as exc:
            # No pool state can ever grant it: fail this one, drain the rest.
            self.kernel.emit("queue.scheduler", "admission.refused",
                             submission_id=submission.submission_id,
                             error=str(exc))
            yield from self.queue.mark_terminal(
                submission.submission_id, self.epoch, status="failed",
                steps=0)
            return
        lease: SiteLease = yield granted
        attempt = yield from self.queue.claim(
            submission.submission_id, self.epoch, lease.site_names)
        if attempt > 1:
            self.kernel.emit("queue.scheduler", "redelivery",
                             submission_id=submission.submission_id,
                             attempt=attempt, epoch=self.epoch,
                             sites=list(lease.site_names))
        authority = self.queue.authority
        store = None
        if submission.checkpoint_every > 0:
            store = FencedCheckpointStore(
                self.checkpoint_stores.setdefault(
                    submission.run_id, InMemoryCheckpointStore()),
                authority, self.epoch)
        result, resumed_from_step, failover = yield from drive_request(
            self.grid, lease, submission,
            client=FencedNTCPClient(tenant.ntcp, authority, self.epoch),
            store=store, resume_first=attempt > 1)
        yield from self.queue.mark_terminal(
            submission.submission_id, self.epoch,
            status="completed" if result.completed else "failed",
            steps=result.steps_completed)
        self.pool.release(lease)
        self.outcomes.append(TenantOutcome(
            request=submission, result=result, lease=lease,
            submitted_at=started_at, finished_at=self.kernel.now,
            attempt=attempt, resumed_from_step=resumed_from_step,
            failover=failover))

    def _publish_loop(self) -> Generator[Any, Any, None]:
        """Refresh the queue-status SDE once a simulated minute."""
        while self._driving and not self.dead:
            self.status.publish(self.queue.stats())
            yield self.kernel.timeout(60.0)


@dataclass
class CampaignResult:
    """Everything a campaign produced, across all incarnations."""

    outcomes: list[TenantOutcome]
    incarnations: list[dict[str, Any]]
    queue_stats: dict[str, Any]
    fencing: dict[str, Any]
    started_at: float
    finished_at: float
    peak_queue_depth: int

    def histories(self) -> dict[str, Any]:
        """Final displacement history per completed run id."""
        return {outcome.run_id: outcome.result.displacement_history()
                for outcome in self.outcomes if outcome.completed}

    def duplicate_executes(self) -> int:
        """Duplicate executes across every outcome's leased sites."""
        return sum(outcome.duplicate_executes()
                   for outcome in self.outcomes)

    def per_tenant(self) -> dict[str, dict[str, Any]]:
        """Roll the outcomes up by tenant (runs, steps, waits, completion)."""
        stats: dict[str, dict[str, Any]] = {}
        for outcome in self.outcomes:
            entry = stats.setdefault(outcome.tenant, {
                "runs": 0, "completed": 0, "steps": 0,
                "degraded_runs": 0, "duplicate_executes": 0,
                "lease_wait_total": 0.0, "lease_wait_max": 0.0,
                "completion_time": 0.0})
            entry["runs"] += 1
            entry["completed"] += 1 if outcome.completed else 0
            entry["steps"] += outcome.result.steps_completed
            entry["degraded_runs"] += \
                1 if outcome.result.degraded_steps else 0
            entry["duplicate_executes"] += outcome.duplicate_executes()
            entry["lease_wait_total"] += outcome.lease.wait
            entry["lease_wait_max"] = max(entry["lease_wait_max"],
                                          outcome.lease.wait)
            entry["completion_time"] = max(
                entry["completion_time"],
                outcome.finished_at - self.started_at)
        return stats

    def completion_ratio(self) -> float:
        """Max/min ratio of tenants' campaign completion times.

        The fairness figure T-FLEET reports: a starved tenant finishes its
        runs much later than the rest, inflating this ratio.
        """
        times = [entry["completion_time"]
                 for entry in self.per_tenant().values()]
        if not times:
            return 1.0
        low = min(times)
        if low <= 0.0:
            return float("inf")
        return max(times) / low

    def summary(self) -> dict[str, Any]:
        """The campaign's headline numbers in one dict."""
        waits = [outcome.lease.wait for outcome in self.outcomes]
        return {
            "submissions": self.queue_stats["submitted"],
            "completed": self.queue_stats["completed"],
            "failed": self.queue_stats["failed"],
            "outstanding": self.queue_stats["outstanding"],
            "redeliveries": self.queue_stats["redeliveries"],
            "voided": self.queue_stats["voided"],
            "incarnations": len(self.incarnations),
            "final_epoch": self.fencing["current_epoch"],
            "refusals": len(self.fencing["refusals"]),
            "stale_accepts": len(self.fencing["stale_accepts"]),
            "duplicate_executes": self.duplicate_executes(),
            "duration": self.finished_at - self.started_at,
            "experiments": len(self.outcomes),
            "tenants": len(self.per_tenant()),
            "completion_ratio": self.completion_ratio(),
            "peak_queue_depth": self.peak_queue_depth,
            "lease_wait_max": max(waits, default=0.0),
            "lease_wait_mean": (sum(waits) / len(waits)) if waits else 0.0,
        }


def run_durable_campaign(grid: "FleetGrid", pool: SitePool,
                         registry: "TenantRegistry",
                         queue: ExperimentQueue,
                         submissions: list[QueueSubmission], *,
                         crash_after: tuple[float, ...] = (),
                         takeover_delay: float = 30.0,
                         settle_delay: float = 5.0,
                         status: SdeStatusService | None = None
                         ) -> CampaignResult:
    """Run a campaign through ``len(crash_after) + 1`` incarnations.

    Submits every submission, starts incarnation 1, and for each entry in
    ``crash_after`` waits that many simulated seconds *after the
    incarnation begins draining* (recovery replayed, drive processes
    spawned — so a crash always lands on an incarnation with real work
    in flight), crashes it (zombie model — nothing is interrupted),
    waits ``takeover_delay``, and starts the successor.  The final
    incarnation runs to a drained queue.  Checkpoint stores are shared
    across incarnations, standing in for the durable repository
    namespace.
    """
    kernel = grid.kernel
    pool.attach_fencing(queue.authority)
    checkpoint_stores: dict[str, InMemoryCheckpointStore] = {}
    schedulers: list[DurableFleetScheduler] = []
    started_at = kernel.now

    def controller() -> Generator[Any, Any, None]:
        for submission in submissions:
            yield from queue.submit(submission)
        crashes = tuple(crash_after)
        for index in range(len(crashes) + 1):
            scheduler = DurableFleetScheduler(
                grid, pool, registry, queue,
                scheduler_id=f"sched-{index + 1}",
                checkpoint_stores=checkpoint_stores,
                settle_delay=settle_delay, status=status)
            schedulers.append(scheduler)
            process = kernel.process(
                scheduler.main(), name=f"queue.incarnation{index + 1}")
            if index < len(crashes):
                yield scheduler.draining
                yield kernel.timeout(crashes[index])
                scheduler.crash()
                yield kernel.timeout(takeover_delay)
            else:
                yield process

    kernel.run(until=kernel.process(controller(), name="queue.campaign"))
    return CampaignResult(
        outcomes=[outcome for scheduler in schedulers
                  for outcome in scheduler.outcomes],
        incarnations=[scheduler.report or
                      {"scheduler_id": scheduler.scheduler_id,
                       "epoch": scheduler.epoch, "crashed": scheduler.dead,
                       "fenced_drives": scheduler.fenced_drives,
                       "completed": sum(1 for o in scheduler.outcomes
                                        if o.completed)}
                      for scheduler in schedulers],
        queue_stats=queue.stats(), fencing=queue.authority.report(),
        started_at=started_at, finished_at=kernel.now,
        peak_queue_depth=pool.peak_queue_depth)
