"""Numerical-surrogate failover: graceful degradation past retry exhaustion.

The paper's central design claim — physical rigs and numerical
simulations are *indistinguishable* through NTCP — has a robustness
corollary it never exploited: a site that dies permanently (the step-1493
failure that ended the public MOST run) can be replaced mid-run by a
:class:`~repro.control.sim_plugin.SimulationPlugin` built from the site's
structural model, and the experiment can finish in **degraded mode**
instead of aborting.  That is Randell's recovery-block pattern applied to
a distributed experiment: the surrogate is the alternate block, the
site's circuit breaker is the acceptance test.

The swap preserves NTCP's at-most-once guarantee by reusing the
resume-time reconciliation discipline (PROTOCOL.md §7):

1. the in-flight transaction at the dead site is **retired**
   (:meth:`SimulationCoordinator.retire
   <repro.coordinator.mspsds.SimulationCoordinator.retire>`): cancelled
   fire-and-forget — the site is unreachable, so the cancel usually dies
   on the wire; if the site is half-alive the name is burned server-side
   either way — and renamed with a ``-f<n>`` failover suffix (never
   reuse a possibly-burned name), then
2. **re-proposed** against the freshly deployed surrogate server, which
   has never seen any name — the step loop then retries immediately.

Every step committed while a surrogate serves a site is stamped
``degraded`` in its :class:`~repro.coordinator.records.StepRecord`, the
serialized :class:`~repro.coordinator.state.ExperimentState` (and hence
every checkpoint), and the run's telemetry — degraded data is clearly
labelled, never laundered as clean.

Re-admission is optional: while degraded, a probe process polls the real
site through its (half-open) breaker; once the breaker closes again the
site is swapped back at the next step boundary, with the stale surrogate
transaction cancelled for hygiene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.control.sim_plugin import SimulationPlugin
from repro.core.server import NTCPServer
from repro.net.breaker import CircuitBreaker
from repro.net.rpc import RpcError
from repro.ogsi.container import ServiceContainer
from repro.util.errors import ConfigurationError, ReproError


@dataclass(frozen=True)
class SurrogateSpec:
    """How to build one site's numerical stand-in.

    ``substructure_factory`` returns a *fresh* substructure instance (a
    re-activated surrogate must not inherit state from a previous
    degradation episode); ``policy`` should mirror the real site's
    control policy so the surrogate vetoes the same commands the
    facility would.
    """

    site: str
    substructure_factory: Callable[[], Any]
    compute_time: float = 0.05
    policy: Any = None


@dataclass(frozen=True)
class DegradationPolicy:
    """When to give up on a site and how hard to try to win it back.

    ``recovery_budget`` is the simulated time a site's breaker may stay
    open (measured from its first trip of the episode) before the
    coordinator swaps in the surrogate; ``readmit`` enables the probe
    loop that swaps the real site back once its breaker closes again.
    """

    recovery_budget: float = 300.0
    readmit: bool = True
    probe_interval: float = 120.0

    def __post_init__(self):
        if self.recovery_budget < 0:
            raise ConfigurationError("recovery_budget must be >= 0")
        if self.probe_interval <= 0:
            raise ConfigurationError("probe_interval must be positive")


@dataclass(frozen=True)
class FailoverEvent:
    """One degradation-lifecycle event, for reports and run metadata."""

    kind: str        # "failover" | "readmit"
    site: str
    step: int
    time: float
    transaction: str = ""
    replacement: str = ""


@dataclass
class _ActiveSurrogate:
    """Book-keeping for one site currently served by its surrogate."""

    site: str
    real_handle: Any
    surrogate_handle: Any
    server: NTCPServer
    activated_at: float
    step: int
    pending_cancel: str = ""  # stale txn left at the real site
    spans: list = field(default_factory=list)


class FailoverManager:
    """Owns the degradation lifecycle for one coordinator.

    Construct with the surrogate specs, a service container on the
    coordinator's host (surrogate servers deploy locally — the dead
    site's hardware is gone, but its *model* is pure computation) and
    the per-site circuit breakers whose open time decides a failover,
    then pass it to :class:`~repro.coordinator.mspsds.SimulationCoordinator`,
    which gates every site exchange through :meth:`breaker_for`, calls
    :meth:`bind` and consults :meth:`consider` whenever a step attempt
    fails.  Every surrogate site needs a breaker: without one the site
    could never be failed over.
    """

    def __init__(self, *, container: ServiceContainer,
                 specs: dict[str, SurrogateSpec] | list[SurrogateSpec],
                 breakers: dict[str, CircuitBreaker],
                 policy: DegradationPolicy | None = None):
        if not isinstance(specs, dict):
            specs = {spec.site: spec for spec in specs}
        unguarded = sorted(set(specs) - set(breakers))
        if unguarded:
            raise ConfigurationError(
                f"surrogate site(s) {unguarded} have no circuit breaker, "
                "so they could never be failed over")
        self.container = container
        self.specs = dict(specs)
        self.breakers = breakers
        self.policy = policy or DegradationPolicy()
        self.kernel = container.kernel
        self.active: dict[str, _ActiveSurrogate] = {}
        self.events: list[FailoverEvent] = []
        self._readmit_pending: set[str] = set()
        self._activations = 0
        self.coordinator = None

    # -- wiring ---------------------------------------------------------------
    def bind(self, coordinator) -> None:
        """Attach to a coordinator (called from its constructor).

        A resumed coordinator whose checkpoint recorded degraded sites
        re-activates their surrogates immediately, *before* resume-time
        reconciliation runs — the reconciler then probes the fresh
        surrogate, finds the transaction unknown, and re-proposes, which
        is exactly the §7 action for a site that never heard the step.
        """
        self.coordinator = coordinator
        for site in list(coordinator.state.degraded_sites):
            if site in self.specs and site not in self.active:
                self._activate(site, step=coordinator.state.step,
                               in_flight=None)

    def _binding(self, site: str):
        for binding in self.coordinator.sites:
            if binding.name == site:
                return binding
        raise ConfigurationError(f"no site binding named {site!r}")

    def breaker_for(self, site: str) -> CircuitBreaker | None:
        """The breaker gating ``site``'s exchanges; ``None`` while its
        surrogate serves — the breaker tracks the *real* site's health,
        and surrogate successes must not close it."""
        return None if site in self.active else self.breakers.get(site)

    def degraded_sites(self) -> tuple[str, ...]:
        return tuple(sorted(self.active))

    @property
    def has_pending_readmissions(self) -> bool:
        """True when a recovered site waits to swap back at the next step
        boundary.  The stepping loop checks this before speculating:
        speculation must drain first, so a step never splits its
        propose/execute across the surrogate and the readmitted site."""
        return bool(self._readmit_pending)

    # -- the failover decision -------------------------------------------------
    def consider(self, *, step: int, site: str, error: BaseException) -> bool:
        """Should (and did) the coordinator fail ``site`` over?

        Called from the step loop's failure handler.  Returns ``True``
        after performing the swap — the caller retries the step
        immediately against the surrogate instead of consulting the
        fault policy.
        """
        del error  # the breaker, not the error type, drives the decision
        if site in self.active or site not in self.specs:
            return False
        breaker = self.breakers[site]
        if (breaker.open_since is None
                or breaker.open_duration < self.policy.recovery_budget):
            return False
        self._activate(site, step=step,
                       in_flight=self.coordinator._txn_name(
                           step, self._binding(site)))
        return True

    def _activate(self, site: str, *, step: int,
                  in_flight: str | None) -> None:
        spec = self.specs[site]
        binding = self._binding(site)
        coordinator = self.coordinator
        self._activations += 1
        plugin = SimulationPlugin(spec.substructure_factory(),
                                  compute_time=spec.compute_time,
                                  policy=spec.policy)
        server = NTCPServer(f"ntcp-{site}-surrogate{self._activations}",
                            plugin)
        surrogate_handle = self.container.deploy(server)
        replacement = ""
        if in_flight is not None:
            # §7 discipline: retire the possibly-burned name at the dead
            # site (it is unreachable in the common case) before
            # re-proposing under a fresh one at the surrogate.
            replacement = coordinator.retire(
                step, binding, rename=f"-f{self._activations}")
            if site in coordinator.state.pending:
                coordinator.state.pending[site] = replacement
        active = _ActiveSurrogate(site=site, real_handle=binding.handle,
                                  surrogate_handle=surrogate_handle,
                                  server=server,
                                  activated_at=self.kernel.now, step=step,
                                  pending_cancel=in_flight or "")
        binding.handle = surrogate_handle
        self.active[site] = active
        degraded = set(coordinator.state.degraded_sites) | {site}
        coordinator.state.degraded_sites = sorted(degraded)
        self.events.append(FailoverEvent(
            kind="failover", site=site, step=step, time=self.kernel.now,
            transaction=in_flight or "", replacement=replacement))
        self.kernel.emit(f"coordinator.{coordinator.run_id}",
                         "failover.activated", site=site, step=step,
                         surrogate=server.service_id)
        if self.policy.readmit:
            self.kernel.process(self._probe_loop(site),
                                name=f"failover.probe.{site}")

    # -- re-admission -----------------------------------------------------------
    def _probe_loop(self, site: str):
        """Kernel process: poll the real site until its breaker closes.

        Probes ride the breaker's half-open gate: while the breaker's
        open interval is still running no traffic is sent at all, and a
        failed probe re-opens it — the probe *is* the half-open attempt.
        """
        coordinator = self.coordinator
        while site in self.active and site not in self._readmit_pending:
            yield self.kernel.timeout(self.policy.probe_interval)
            if site not in self.active or site in self._readmit_pending:
                return
            breaker = self.breakers[site]
            if not breaker.allow():
                continue
            real_handle = self.active[site].real_handle
            try:
                yield from coordinator.client.list_transactions(real_handle)
            except (RpcError, ReproError):
                breaker.record_failure()
                continue
            breaker.record_success()
            if breaker.state != "closed":
                continue  # needs more consecutive probe successes
            self._readmit_pending.add(site)
            self.kernel.emit(f"coordinator.{coordinator.run_id}",
                             "failover.probe_succeeded", site=site)
            return

    def apply_readmissions(self, step: int) -> None:
        """Swap recovered sites back at a step boundary (between steps,
        so a step never splits its propose/execute across two servers)."""
        coordinator = self.coordinator
        for site in sorted(self._readmit_pending):
            self._readmit_pending.discard(site)
            active = self.active.pop(site, None)
            if active is None:
                continue
            binding = self._binding(site)
            binding.handle = active.real_handle
            # Hygiene at both ends: the real site may still hold the
            # failover step's stale proposal, and the surrogate holds
            # nothing in flight (swaps happen between steps) — cancel
            # the stale name fire-and-forget.
            if active.pending_cancel:
                coordinator.cancel_and_forget(active.real_handle,
                                              active.pending_cancel)
            self.container.destroy(active.server.service_id,
                                   reason="site-readmitted")
            degraded = set(coordinator.state.degraded_sites) - {site}
            coordinator.state.degraded_sites = sorted(degraded)
            self.events.append(FailoverEvent(
                kind="readmit", site=site, step=step, time=self.kernel.now,
                transaction=active.pending_cancel))
            self.kernel.emit(f"coordinator.{coordinator.run_id}",
                             "failover.readmitted", site=site, step=step)

    # -- reporting ---------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """JSON-friendly degradation history (repository run metadata)."""
        return {
            "degraded_sites": list(self.degraded_sites()),
            "activations": self._activations,
            "events": [{"kind": e.kind, "site": e.site, "step": e.step,
                        "time": e.time, "transaction": e.transaction,
                        "replacement": e.replacement}
                       for e in self.events],
        }
