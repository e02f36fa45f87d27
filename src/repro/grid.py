"""The one grid under every deployment: a star of NTCP sites.

Every experiment in the paper has the same shape — one coordinator host,
a star of NTCP servers each behind its own OGSI container, one NTCP
client, one :class:`~repro.coordinator.SimulationCoordinator` — and
"the use of NTCP made this substitution transparent to the coordinator":
what differs between MOST, its simulation-only rehearsal, Mini-MOST, the
CD-36 follow-on, a fleet lease and the verifier's replay rig is only
*which* plugins, latencies, names and policies go in.  :class:`Grid` is
the one place that shape is wired, and the one recipe that turns a
``{site: design stiffness}`` map into a coordinator's kit (bindings,
surrogate failover with its circuit breakers, force predictor).  Names,
ports and policies are arguments, never defaults, so each deployment's
wire-visible strings are spelt where that deployment is defined.

It is also the one place a scripted fault is armed: :meth:`Grid.arm`
installs a :class:`ChaosEvent` behind a watcher on the wire, for the
public-day schedule, the monitored run's anomalies, chaos plans and the
verifier's conformance replays alike.

Built on it: :class:`repro.most.assembly.MOSTDeployment` (adds DAQ, NSDS,
repository, portal), :class:`repro.fleet.grid.FleetGrid` (adds the pool's
coordinator/repository containers and NMDS) and
:func:`repro.testing.make_site` (one site, flattened into a
:class:`~repro.testing.SiteEnv`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.control.sim_plugin import SimulationPlugin
from repro.coordinator import (
    DegradationPolicy,
    FailoverManager,
    SiteBinding,
    SubstructurePredictor,
    SurrogateSpec,
    step_marker,
)
from repro.core import NTCPClient, NTCPServer
from repro.net import (
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    Message,
    Network,
    RpcClient,
    RpcRequest,
    RpcResponse,
)
from repro.ogsi import GridServiceHandle, ServiceContainer
from repro.sim import Kernel
from repro.structural import LinearSubstructure
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.daq import DAQSystem, StagingStore
    from repro.nsds import NSDSService
    from repro.repository import IngestionTool
    from repro.structural import PhysicalSpecimen
    from repro.telepresence import CameraService

#: a site name -> the name of a substructure or breaker built for it
Namer = Callable[[str], str]


def single_dof(name: str, stiffness: float) -> LinearSubstructure:
    """The one-DOF linear substructure every simulated site, surrogate and
    predictor model in the tree is."""
    return LinearSubstructure(name, [[stiffness]], [0])


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault: ``kind`` hits ``site`` when ``step`` first
    goes on the wire (see :meth:`Grid.arm`)."""

    kind: str
    step: int
    site: str
    duration: float = 0.0   # outage / crash / jitter burst length (sim s)
    count: int = 1          # messages affected (drop / duplicate / ...)
    magnitude: float = 0.0  # jitter sigma, or a slowdown's factor


@dataclass
class SiteDeployment:
    """One site's moving parts, for tests and scenario scripting."""

    name: str
    container: ServiceContainer
    server: NTCPServer
    handle: GridServiceHandle
    specimen: PhysicalSpecimen | None = None
    backend: Any = None
    daq: DAQSystem | None = None
    staging: StagingStore | None = None
    nsds: NSDSService | None = None
    ingest: IngestionTool | None = None
    camera: CameraService | None = None


@dataclass
class Grid:
    """A hub host and the NTCP sites linked to it, on one kernel."""

    kernel: Kernel
    network: Network
    faults: FaultInjector
    sites: dict[str, SiteDeployment] = field(default_factory=dict)
    hub: str = "coord"

    @classmethod
    def star(cls, *, seed: int = 0, hub: str = "coord", **fields):
        """An empty grid: kernel, network seeded with ``seed``, the hub
        host.  ``fields`` are a subclass's own constructor fields."""
        kernel = Kernel()
        network = Network(kernel, seed=seed)
        network.add_host(hub)
        return cls(kernel=kernel, network=network,
                   faults=FaultInjector(network), hub=hub, **fields)

    # -- the star ------------------------------------------------------------
    def add_site(self, name: str, plugin, *, latency: float,
                 jitter: float = 0.0, loss: float = 0.0,
                 service_id: str | None = None,
                 **parts: Any) -> SiteDeployment:
        """Host ``name`` linked to the hub, an OGSI container on it, and an
        NTCP server (``ntcp-<name>`` unless ``service_id``) around
        ``plugin``; ``parts`` are the site's other
        :class:`SiteDeployment` fields (specimen, backend, DAQ...).  A
        site *on* the hub host (Mini-MOST's single PC) gets no link:
        same-host traffic is loopback."""
        if name != self.hub:
            self.network.add_host(name)
            self.network.connect(self.hub, name, latency=latency,
                                 jitter=jitter, loss=loss)
        container = ServiceContainer(self.network, name)
        server = NTCPServer(service_id or f"ntcp-{name}", plugin)
        site = SiteDeployment(name=name, container=container, server=server,
                              handle=container.deploy(server), **parts)
        self.sites[name] = site
        return site

    def add_simulation_site(self, name: str, stiffness: float, *,
                            latency: float,
                            compute_time: float) -> SiteDeployment:
        """A numerically simulated site: a :func:`single_dof` substructure
        named after the site, answering after ``compute_time``."""
        return self.add_site(
            name, SimulationPlugin(single_dof(name, stiffness),
                                   compute_time=compute_time),
            latency=latency)

    def add_simulation_sites(self, stiffness: Mapping[str, float], *,
                             latency: float,
                             compute_time: float) -> None:
        """One :meth:`add_simulation_site` per ``{name: stiffness}`` entry,
        all alike but for stiffness."""
        for name, k in stiffness.items():
            self.add_simulation_site(name, k, latency=latency,
                                     compute_time=compute_time)

    # -- the client ----------------------------------------------------------
    def client(self, *, timeout: float, retries: int,
               labels: dict[str, str] | None = None,
               credential_factory=None) -> NTCPClient:
        """A retry-capable NTCP client on the hub, over its own RPC client
        (reachable as ``client.rpc``; ``labels`` tag its telemetry)."""
        rpc = RpcClient(self.network, self.hub, default_timeout=timeout,
                        default_retries=retries, labels=labels)
        return NTCPClient(rpc, timeout=timeout, retries=retries,
                          credential_factory=credential_factory)

    # -- the coordinator's kit -----------------------------------------------
    def bindings(self, dofs: Mapping[str, Iterable[int]] | None = None,
                 ) -> list[SiteBinding]:
        """Coordinator bindings for the sites in ``dofs`` (``{site: global
        DOFs}``, in that order); default every site on DOF 0."""
        if dofs is None:
            dofs = dict.fromkeys(self.sites, (0,))
        return [SiteBinding(name, self.sites[name].handle, dof_indices=d)
                for name, d in dofs.items()]

    def failover(self, stiffness: Mapping[str, float], *, port: str,
                 compute_time: float, surrogate_name: Namer,
                 site_policy: Any, breaker_name: Namer = str,
                 breaker_config: BreakerConfig | None = None,
                 policy: DegradationPolicy | None = None) -> FailoverManager:
        """Surrogate failover: per site a circuit breaker labelled
        ``breaker_name(site)``, and a fresh :func:`single_dof` model of its
        design stiffness behind ``site_policy``, activated on demand in a
        dedicated hub container on ``port`` (the hub's ``ogsi`` port
        belongs to other kit)."""
        breakers = {site: CircuitBreaker(self.kernel, breaker_name(site),
                                         breaker_config)
                    for site in stiffness}
        container = ServiceContainer(self.network, self.hub, port=port)
        specs = [
            SurrogateSpec(
                site=site,
                substructure_factory=(
                    lambda site=site, k=k: single_dof(surrogate_name(site),
                                                      k)),
                compute_time=compute_time, policy=site_policy)
            for site, k in stiffness.items()]
        return FailoverManager(container=container, specs=specs,
                               breakers=breakers, policy=policy)

    @staticmethod
    def predictor(stiffness: Mapping[str, float], *,
                  name: Namer) -> SubstructurePredictor:
        """A force predictor for pipelined stepping: each site's design
        :func:`single_dof` model, so speculation against simulated sites
        is bit-exact and never rolls back."""
        return SubstructurePredictor({site: single_dof(name(site), k)
                                      for site, k in stiffness.items()})

    # -- scripted faults -----------------------------------------------------
    def arm(self, event: ChaosEvent) -> None:
        """Install ``event`` behind a watcher on the wire: its fault hits
        ``event.site`` when the first request to that site carrying step
        ``event.step``'s marker goes out, so it lands on the step whatever
        the pacing.

        From then on ``transient_drop`` / ``corrupt`` hit the site's next
        ``count`` replies, ``duplicate`` / ``reorder`` its next ``count``
        requests (the trigger's own first).  ``reorder`` holds each
        captured request 0.2 s and releases them last-first, so it swaps
        only requests in flight together: on a sequential run a site's
        propose and its execute are causally ordered (the execute waits
        for the propose's reply), so the fault is two holds in send
        order.  ``jitter`` (sigma
        ``magnitude``), ``crash`` and ``outage`` last ``duration``;
        ``slowdown`` multiplies the site backend's compute time by
        ``magnitude`` for good.  The verifier's kinds name an NTCP
        operation and wait for that operation's request:
        ``drop_*_reply`` drops its reply once, ``crash_*`` also downs the
        link for ``duration`` as the reply dies, ``dup_*_request``
        delivers it twice, and ``*_outage_propose`` is an ``outage``.

        The event is checked now, before the run: an unknown kind or site,
        a step that is not an int >= 0, a count < 1, a negative or NaN
        duration (``inf`` is permanent) or a negative or non-finite
        magnitude is a :class:`ConfigurationError`, not a failure of the
        site the fault would have hit.
        """
        site, faults, n = event.site, self.faults, event.count

        def to_site(m: Message) -> bool:
            return m.dst == site and isinstance(m.payload, RpcRequest)

        def site_reply(m: Message) -> bool:
            return m.src == site and m.port.startswith("rpc-reply")

        def outage(msg: Message) -> None:
            faults.schedule_outage(self.hub, site, start=self.kernel.now,
                                   duration=event.duration)

        def slow_down(msg: Message) -> None:
            self.sites[site].backend.compute_time *= event.magnitude

        def drop_reply(request: Message) -> None:
            # once: the RPC layer retransmits and the server's idempotent
            # verb absorbs it; a crash also downs the link as the reply
            # dies (the coordinator lost mid-exchange)
            request_id = request.payload.request_id

            def drop(msg: Message) -> bool:
                if (msg.src != site or not isinstance(msg.payload, RpcResponse)
                        or msg.payload.request_id != request_id):
                    return False
                self.network.remove_drop_filter(drop)
                if event.kind.startswith("crash_"):
                    outage(msg)
                return True

            self.network.add_drop_filter(drop)

        install = {
            "transient_drop":
                lambda msg: faults.drop_matching(site_reply, count=n),
            "duplicate":
                lambda msg: faults.duplicate_matching(to_site, count=n),
            "reorder":
                lambda msg: faults.reorder_matching(to_site,
                                                    count=max(n, 2)),
            "corrupt":
                lambda msg: faults.corrupt_matching(site_reply, count=n),
            "jitter": lambda msg: faults.jitter_burst(
                self.hub, site, jitter=event.magnitude,
                start=self.kernel.now, duration=event.duration),
            "crash": lambda msg: faults.crash_host(
                site, start=self.kernel.now, duration=event.duration),
            "outage": outage,
            "slowdown": slow_down,
            # the verifier's kinds, each at one NTCP operation's request
            "drop_propose_reply": drop_reply,
            "drop_execute_reply": drop_reply,
            "dup_propose_request": faults.duplicate,
            "dup_execute_request": faults.duplicate,
            "crash_propose": drop_reply,
            "crash_execute": drop_reply,
            "fatal_outage_propose": outage,
            "spec_outage_propose": outage,
        }
        self._check(event, install)
        fire = install[event.kind]
        operation = next((op for op in ("propose", "execute")
                          if op in event.kind), None)
        marker = step_marker(event.step)
        armed = False

        def watch(msg: Message) -> bool:
            nonlocal armed
            if armed or msg.dst != site:
                return False
            payload = msg.payload
            if (isinstance(payload, RpcRequest)
                    and marker in str(payload.params)
                    and (operation is None
                         or payload.params.get("operation") == operation)):
                armed = True
                fire(msg)
            return False  # the watcher never drops; the armed fault does

        self.network.add_drop_filter(watch)

    def _check(self, event: ChaosEvent, kinds: Mapping[str, Any]) -> None:
        """Refuse an event that could not fire as written."""
        step = event.step
        for bad, problem in (
                (event.kind not in kinds, f"kind {event.kind!r} is unknown"),
                (event.site not in self.sites,
                 f"site {event.site!r} is not on the grid"),
                (type(step) is not int or step < 0,
                 f"step must be an int >= 0, got {step!r}"),
                (not event.count >= 1,
                 f"count must be >= 1, got {event.count!r}"),
                (not event.duration >= 0,
                 f"duration must be >= 0, got {event.duration!r}"),
                (not 0 <= event.magnitude < float("inf"),
                 f"magnitude must be finite and >= 0, "
                 f"got {event.magnitude!r}")):
            if bad:
                raise ConfigurationError(f"fault {problem}")
        if event.kind == "slowdown" and not hasattr(
                self.sites[event.site].backend, "compute_time"):
            raise ConfigurationError(
                f"site {event.site!r} has no backend with a compute_time "
                f"to slow")

    # -- driving -------------------------------------------------------------
    def run(self, gen):
        """Drive a generator as a kernel process to completion; returns
        its value."""
        return self.kernel.run(until=self.kernel.process(gen))
