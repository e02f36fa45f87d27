"""Shared site pool: leases, FIFO + fair-share queueing, admission control.

The paper ran exactly one hybrid experiment over its NTCP sites; the fleet
layer multiplexes many.  A :class:`SitePool` owns the grid's
:class:`~repro.grid.SiteDeployment` slots and hands them out as
:class:`SiteLease`\\ s — a tenant acquires ``n`` sites, runs one experiment
against them, and releases them for the next tenant in the queue.

Queueing discipline: requests wait in arrival order but are granted in
*fair-share* order — tenants with fewer completed leases go first, FIFO
breaking ties — and the head of the queue is never bypassed, so a large
request (many sites) cannot be starved by a stream of small ones.

Admission control rejects requests that could never be satisfied (more
sites than the pool owns, or above the per-lease cap) and, when a queue
bound is configured, requests that arrive while the queue is full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.server import STAT_KEYS
from repro.util.errors import (
    ConfigurationError,
    FencingError,
    ProtocolError,
    ReproError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid import SiteDeployment
    from repro.sim import Kernel
    from repro.sim.events import Event


class AdmissionError(ReproError):
    """The pool refused a lease request, or the queue a submission, at
    admission time."""


@dataclass
class SiteLease:
    """Exclusive, time-bounded ownership of a set of pool sites.

    Created by :meth:`SitePool.acquire`; the holder must eventually call
    :meth:`SitePool.release`.  The lease snapshots each site's NTCP server
    counters at grant time so :meth:`metrics_delta` can attribute exactly
    the transactions this tenant ran — the per-tenant duplicate-execute
    count the fleet invariant sweep reports.
    """

    lease_id: str
    tenant: str
    sites: tuple["SiteDeployment", ...]
    requested_at: float
    granted_at: float
    released_at: float | None = None
    #: per-site NTCP counter snapshot taken at grant time
    baseline: dict[str, dict[str, int]] = field(default_factory=dict,
                                                repr=False)
    #: per-site counter deltas, frozen by :meth:`SitePool.release`
    usage: dict[str, dict[str, int]] | None = field(default=None, repr=False)
    #: fencing epoch the lease was granted under (``None``: unfenced)
    epoch: int | None = None
    #: set by :meth:`SitePool.fence_epoch` when a newer epoch superseded
    #: this lease; the holder's eventual ``release`` is refused
    revoked: bool = False

    @property
    def site_names(self) -> tuple[str, ...]:
        """The leased sites' names, in grant order."""
        return tuple(site.name for site in self.sites)

    @property
    def wait(self) -> float:
        """Simulated seconds spent queued before the grant."""
        return self.granted_at - self.requested_at

    @property
    def released(self) -> bool:
        """Whether the lease has been handed back to the pool."""
        return self.released_at is not None

    def metrics_delta(self) -> dict[str, dict[str, int]]:
        """Per-site NTCP counter deltas attributable to this lease.

        While the lease is held this reads the live counters; after
        release it returns the frozen snapshot, so the numbers cannot be
        polluted by the site's next tenant.
        """
        if self.usage is not None:
            return {name: dict(delta) for name, delta in self.usage.items()}
        return {
            site.name: {
                key: site.server.metrics().get(key, 0)
                - self.baseline[site.name].get(key, 0)
                for key in STAT_KEYS}
            for site in self.sites}

    def duplicate_executes(self) -> int:
        """Total duplicate execute requests absorbed across leased sites."""
        return sum(delta["duplicate_executes"]
                   for delta in self.metrics_delta().values())


@dataclass
class _Pending:
    """One queued acquire: who wants how many sites, since when."""

    tenant: str
    n_sites: int
    seq: int
    requested_at: float
    event: "Event"
    epoch: int | None = None
    avoid: frozenset = frozenset()


class SitePool:
    """A fixed set of NTCP sites, acquired and released per lease.

    This is the refactor of the one-deployment-owns-its-sites shape:
    sites live in the pool for the grid's lifetime, while coordinators
    borrow them one lease at a time.  All state changes happen at
    simulation-event granularity on the owning kernel, so pool behaviour
    is deterministic for a given submission order.
    """

    def __init__(self, kernel: "Kernel",
                 sites: Iterable["SiteDeployment"], *,
                 max_sites_per_lease: int | None = None,
                 max_queue_depth: int | None = None):
        self.kernel = kernel
        self.sites: dict[str, Any] = {}
        for site in sites:
            if site.name in self.sites:
                raise ConfigurationError(
                    f"duplicate site {site.name!r} offered to the pool")
            self.sites[site.name] = site
        if not self.sites:
            raise ConfigurationError("a site pool needs at least one site")
        self.max_sites_per_lease = max_sites_per_lease
        self.max_queue_depth = max_queue_depth
        self._free: list[str] = sorted(self.sites)
        self._waiting: list[_Pending] = []
        self._seq = 0
        self._lease_seq = 0
        self._grant_scheduled = False
        self._fencing = None
        self._fenced_epoch = 0
        self.active: dict[str, SiteLease] = {}
        self.completed_leases: dict[str, int] = {}
        self.peak_queue_depth = 0
        telemetry = kernel.telemetry
        self._c_granted = telemetry.counter("fleet.pool.leases_granted")
        self._c_rejected = telemetry.counter("fleet.pool.admission_rejected")
        self._h_wait = telemetry.histogram("fleet.pool.lease_wait")

    # -- admission -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of sites the pool owns."""
        return len(self.sites)

    def queue_depth(self) -> int:
        """Number of acquire requests currently waiting."""
        return len(self._waiting)

    def validate_request(self, n_sites: int) -> None:
        """Raise :class:`AdmissionError` if ``n_sites`` can never be granted."""
        if n_sites < 1:
            self._c_rejected.inc()
            raise AdmissionError(f"a lease needs at least one site, "
                                 f"got {n_sites}")
        if n_sites > self.size:
            self._c_rejected.inc()
            raise AdmissionError(
                f"requested {n_sites} sites but the pool owns {self.size}")
        if (self.max_sites_per_lease is not None
                and n_sites > self.max_sites_per_lease):
            self._c_rejected.inc()
            raise AdmissionError(
                f"requested {n_sites} sites; per-lease cap is "
                f"{self.max_sites_per_lease}")

    # -- fencing -------------------------------------------------------------
    def attach_fencing(self, authority) -> None:
        """Record fencing refusals through ``authority``.

        ``authority`` is duck-typed (needs ``note_refusal(epoch=, path=)``);
        in practice a :class:`repro.queue.fencing.FencingAuthority`.
        """
        self._fencing = authority

    def _note_refusal(self, epoch: int | None, path: str) -> None:
        if self._fencing is not None:
            self._fencing.note_refusal(epoch=epoch, path=path)

    def fence_epoch(self, epoch: int) -> int:
        """Supersede every lease and queued acquire older than ``epoch``.

        The successor-scheduler move: active leases granted under an older
        epoch are revoked (their sites return to the pool immediately —
        the dead incarnation will never release them) and stale queued
        acquires fail with :class:`~repro.util.errors.FencingError`.
        Unfenced leases (``epoch=None``) are untouched: fencing only
        governs holders that opted into epochs.  Returns the number of
        leases revoked.
        """
        self._fenced_epoch = max(self._fenced_epoch, epoch)
        revoked = 0
        for lease_id in [lid for lid, lease in self.active.items()
                         if lease.epoch is not None and lease.epoch < epoch]:
            lease = self.active.pop(lease_id)
            lease.usage = lease.metrics_delta()
            lease.released_at = self.kernel.now
            lease.revoked = True
            self._free.extend(lease.site_names)
            self._free.sort()
            revoked += 1
            self.kernel.emit("fleet.pool", "lease.revoked",
                             lease_id=lease.lease_id, tenant=lease.tenant,
                             epoch=lease.epoch, fenced_by=epoch)
        for pending in [p for p in self._waiting
                        if p.epoch is not None and p.epoch < epoch]:
            self._waiting.remove(pending)
            self._note_refusal(pending.epoch, "pool.acquire")
            pending.event.fail(FencingError(
                f"lease request from epoch {pending.epoch} refused: "
                f"epoch {epoch} is current",
                epoch=pending.epoch, current_epoch=epoch,
                path="pool.acquire"))
        if revoked or epoch:
            self._schedule_grant()
        return revoked

    # -- lease lifecycle -----------------------------------------------------
    def acquire(self, tenant: str, n_sites: int = 1, *,
                epoch: int | None = None,
                avoid: Iterable[str] = ()) -> "Event":
        """Queue a lease request; the returned event fires with the lease.

        Raises :class:`AdmissionError` immediately (before queueing) if
        the request is unsatisfiable or the queue is full.  Use from a
        kernel process as ``lease = yield pool.acquire(tenant, n)``.

        ``epoch`` stamps the lease with the caller's fencing epoch — a
        later :meth:`fence_epoch` revokes it and refuses its release.  A
        request whose epoch is already superseded is refused outright.
        ``avoid`` names sites the grant must not include: a recovering
        scheduler re-driving a crashed run leases *disjoint* sites, so
        transaction names the dead incarnation already executed can never
        collide (which would show up as duplicate executes).
        """
        self.validate_request(n_sites)
        avoid = frozenset(avoid)
        if len(self.sites) - len(avoid & set(self.sites)) < n_sites:
            self._c_rejected.inc()
            raise AdmissionError(
                f"requested {n_sites} sites avoiding {sorted(avoid)}; "
                f"the pool cannot ever satisfy that")
        if epoch is not None and epoch < self._fenced_epoch:
            self._note_refusal(epoch, "pool.acquire")
            raise FencingError(
                f"lease request from epoch {epoch} refused: epoch "
                f"{self._fenced_epoch} is current", epoch=epoch,
                current_epoch=self._fenced_epoch, path="pool.acquire")
        if (self.max_queue_depth is not None
                and len(self._waiting) >= self.max_queue_depth):
            self._c_rejected.inc()
            raise AdmissionError(
                f"lease queue is full ({self.max_queue_depth} waiting)")
        evt = self.kernel.event(name=f"lease({tenant})")
        self._seq += 1
        self._waiting.append(_Pending(
            tenant=tenant, n_sites=n_sites, seq=self._seq,
            requested_at=self.kernel.now, event=evt, epoch=epoch,
            avoid=avoid))
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    len(self._waiting))
        self.kernel.emit("fleet.pool", "lease.requested", tenant=tenant,
                         n_sites=n_sites, queued=len(self._waiting))
        self._schedule_grant()
        return evt

    def release(self, lease: SiteLease) -> None:
        """Return a lease's sites to the pool and wake the queue.

        Releasing a lease revoked by :meth:`fence_epoch` raises
        :class:`~repro.util.errors.FencingError` — that is the zombie
        holder discovering it was superseded.
        """
        if lease.revoked:
            self._note_refusal(lease.epoch, "pool.release")
            raise FencingError(
                f"lease {lease.lease_id!r} from epoch {lease.epoch} was "
                f"revoked: epoch {self._fenced_epoch} is current",
                epoch=lease.epoch, current_epoch=self._fenced_epoch,
                path="pool.release")
        if lease.released:
            raise ProtocolError(f"lease {lease.lease_id!r} already released")
        if self.active.pop(lease.lease_id, None) is None:
            raise ProtocolError(
                f"lease {lease.lease_id!r} was not granted by this pool")
        lease.usage = lease.metrics_delta()
        lease.released_at = self.kernel.now
        self.completed_leases[lease.tenant] = \
            self.completed_leases.get(lease.tenant, 0) + 1
        self._free.extend(lease.site_names)
        self._free.sort()
        self.kernel.emit("fleet.pool", "lease.released",
                         lease_id=lease.lease_id, tenant=lease.tenant,
                         held=self.kernel.now - lease.granted_at)
        self._schedule_grant()

    # -- internals -----------------------------------------------------------
    def _schedule_grant(self) -> None:
        """Run a grant pass at the next event boundary (delay 0).

        Deferring the pass — instead of granting synchronously inside
        :meth:`acquire` — lets every same-instant request enqueue before
        the fair-share sort picks winners.  Without it, a campaign whose
        processes all start at t=0 hands the whole free pool to whichever
        tenant's requests happen to run first.
        """
        if self._grant_scheduled:
            return
        self._grant_scheduled = True
        self.kernel.call_later(0.0, self._run_grant_pass)

    def _run_grant_pass(self, _arg: Any = None) -> None:
        self._grant_scheduled = False
        self._grant_ready()

    def _share(self, tenant: str) -> int:
        """A tenant's current share: completed plus in-flight leases."""
        active = sum(1 for lease in self.active.values()
                     if lease.tenant == tenant)
        return self.completed_leases.get(tenant, 0) + active

    def _grant_ready(self) -> None:
        """Grant queued requests in fair-share order; never bypass the head."""
        while self._waiting:
            self._waiting.sort(key=lambda p: (self._share(p.tenant), p.seq))
            head = self._waiting[0]
            eligible = [name for name in self._free
                        if name not in head.avoid]
            if head.n_sites > len(eligible):
                # Head-of-line blocking is deliberate: skipping a large
                # (or avoid-constrained) request to serve small ones
                # behind it would starve it.
                break
            self._waiting.pop(0)
            names = eligible[:head.n_sites]
            for name in names:
                self._free.remove(name)
            self._lease_seq += 1
            lease = SiteLease(
                lease_id=f"lease-{self._lease_seq:04d}",
                tenant=head.tenant,
                sites=tuple(self.sites[name] for name in names),
                requested_at=head.requested_at,
                granted_at=self.kernel.now,
                baseline={name: dict(self.sites[name].server.metrics())
                          for name in names},
                epoch=head.epoch)
            self.active[lease.lease_id] = lease
            self._c_granted.inc()
            self._h_wait.observe(lease.wait)
            self.kernel.emit("fleet.pool", "lease.granted",
                             lease_id=lease.lease_id, tenant=head.tenant,
                             sites=list(names), wait=lease.wait)
            head.event.succeed(lease)
