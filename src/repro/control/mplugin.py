"""The MPlugin: buffered requests served to a polling back-end.

At NCSA, "instead of pushing requests out to the back-end as they were
received, the plugin buffered requests and implemented a separate service to
provide information about them.  The Matlab simulation running at NCSA would
then poll that service for requests; when the simulation received a request,
it would perform an appropriate computation then call the plugin-implemented
service to notify the NTCP server of the results."

:class:`MPlugin` implements the buffer and the poll/notify service;
:class:`PollBackend` is the abstract polling loop (a kernel process);
:class:`MatlabBackend` computes restoring forces from a numerical
substructure.  The CU xPC configuration (:mod:`repro.control.xpc`) reuses
:class:`MPlugin` unchanged — "the same plugin code used by NCSA" — with a
different backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.control.actions import displacement_targets
from repro.control.sim_plugin import substructure_readings
from repro.core.messages import Proposal
from repro.core.plugin import ControlPlugin
from repro.core.policy import SitePolicy
from repro.util.errors import ProtocolError


@dataclass
class _BufferedRequest:
    """One buffered request awaiting pickup and completion by the backend."""

    transaction: str
    targets: dict[int, float]
    done: Any  # kernel Event, succeeded with the readings dict
    picked_up: bool = field(default=False)


class MPlugin(ControlPlugin):
    """Buffering plugin with a poll/notify service for a back-end.

    The plugin never computes anything itself; ``execute`` enqueues the
    request and waits for :meth:`post_result`.  If the backend dies, the
    transaction eventually fails via the server's execution timeout — the
    same failure mode the real MOST deployment had.
    """

    plugin_type = "mplugin"

    def __init__(self, *, policy: SitePolicy | None = None):
        super().__init__(policy=policy)
        self._queue: list[_BufferedRequest] = []
        self._by_txn: dict[str, _BufferedRequest] = {}
        self.stats = {"enqueued": 0, "polled": 0, "empty_polls": 0,
                      "posted": 0}

    # -- NTCP side -------------------------------------------------------------
    def execute(self, proposal: Proposal):
        targets = displacement_targets(proposal.actions)
        req = _BufferedRequest(transaction=proposal.transaction,
                               targets=targets,
                               done=self.kernel.event(
                                   name=f"mplugin.done({proposal.transaction})"))
        self._queue.append(req)
        self._by_txn[req.transaction] = req
        self.stats["enqueued"] += 1
        readings = yield req.done
        return readings

    def cancel(self, proposal: Proposal) -> None:
        """Drop a buffered request that was never picked up."""
        req = self._by_txn.pop(proposal.transaction, None)
        if req is not None and not req.picked_up and req in self._queue:
            self._queue.remove(req)

    # -- backend-facing poll/notify service -----------------------------------
    def poll(self) -> dict[str, Any] | None:
        """Next pending request, or None.  (Called by the polling backend.)"""
        for req in self._queue:
            if not req.picked_up:
                req.picked_up = True
                self.stats["polled"] += 1
                return {"transaction": req.transaction,
                        "targets": dict(req.targets)}
        self.stats["empty_polls"] += 1
        return None

    def post_result(self, transaction: str, readings: dict[str, Any]) -> None:
        """Backend notification: computation/motion for ``transaction`` done."""
        req = self._by_txn.pop(transaction, None)
        if req is None:
            raise ProtocolError(
                f"result posted for unknown transaction {transaction!r}")
        if req in self._queue:
            self._queue.remove(req)
        if not req.done.triggered:
            req.done.succeed(readings)
        self.stats["posted"] += 1


class PollBackend:
    """Abstract polling loop: poll the MPlugin, compute, post the result.

    Subclasses implement :meth:`process_request` as a generator returning
    the readings dict.  ``start`` launches the loop on the kernel;
    ``stop`` ends it (used to simulate a crashed back-end).
    """

    def __init__(self, plugin: MPlugin, *, poll_interval: float = 0.1):
        self.plugin = plugin
        self.poll_interval = poll_interval
        self.running = False
        self.requests_served = 0

    def start(self, kernel) -> None:
        self.kernel = kernel
        self.running = True
        kernel.process(self._loop(), name=f"{type(self).__name__}.loop")

    def stop(self) -> None:
        self.running = False

    def _loop(self):
        while self.running:
            request = self.plugin.poll()
            if request is None:
                yield self.kernel.timeout(self.poll_interval)
                continue
            readings = yield from self.process_request(request["targets"])
            self.plugin.post_result(request["transaction"], readings)
            self.requests_served += 1

    def process_request(self, targets: dict[int, float]):
        raise NotImplementedError
        yield  # pragma: no cover


class BackendService:
    """Expose an MPlugin's poll/notify service over the network.

    The paper says the plugin "implemented a separate service to provide
    information about [buffered requests]" which the Matlab simulation
    polled.  When the back-end runs on a *different machine* than the NTCP
    server, that service must be network-reachable; this adapter publishes
    ``poll`` and ``postResult`` on an RPC port of the plugin's host.
    """

    PORT = "mplugin-backend"

    def __init__(self, plugin: MPlugin, network, host: str):
        from repro.net.rpc import RpcService

        self.plugin = plugin
        self.rpc = RpcService(network, host, self.PORT,
                              name=f"mplugin-backend.{host}")
        self.rpc.register("poll", lambda caller: plugin.poll())
        self.rpc.register(
            "postResult",
            lambda caller, transaction, readings:
            plugin.post_result(transaction, readings) or True)


class RemotePollBackend:
    """A polling back-end on a different host, reaching the plugin via RPC.

    Functionally equivalent to :class:`PollBackend` but every poll and
    result notification crosses the (possibly faulty) network — the
    configuration where the NTCP server machine and the computation
    machine are separate, as at NCSA (server node vs the Windows Matlab
    box).  Subclass-style composition: pass a ``process_request``
    generator function taking ``(kernel, targets) -> readings``.
    """

    def __init__(self, network, host: str, plugin_host: str, *,
                 process_request, poll_interval: float = 0.1):
        from repro.net.rpc import RpcClient, RpcError

        self._rpc_error = RpcError
        self.network = network
        self.host = host
        self.plugin_host = plugin_host
        self.process_request = process_request
        self.poll_interval = poll_interval
        self.client = RpcClient(network, host, default_timeout=5.0,
                                default_retries=3)
        self.running = False
        self.requests_served = 0
        self.poll_failures = 0

    def start(self, kernel) -> None:
        self.kernel = kernel
        self.running = True
        kernel.process(self._loop(), name=f"remote-backend.{self.host}")

    def stop(self) -> None:
        self.running = False

    def _loop(self):
        while self.running:
            try:
                request = yield from self.client.call(
                    self.plugin_host, BackendService.PORT, "poll", {})
            except self._rpc_error:
                self.poll_failures += 1
                yield self.kernel.timeout(self.poll_interval)
                continue
            if request is None:
                yield self.kernel.timeout(self.poll_interval)
                continue
            readings = yield from self.process_request(
                self.kernel, request["targets"])
            try:
                yield from self.client.call(
                    self.plugin_host, BackendService.PORT, "postResult",
                    {"transaction": request["transaction"],
                     "readings": readings})
            except self._rpc_error:
                self.poll_failures += 1
                continue
            self.requests_served += 1


class MatlabBackend(PollBackend):
    """The NCSA back-end: a numerical model evaluated per request.

    ``compute_time`` models the Matlab evaluation on the paper's Pentium
    2.4 GHz / 512 MB Windows machine.
    """

    def __init__(self, plugin: MPlugin, substructure, *,
                 poll_interval: float = 0.1, compute_time: float = 0.2):
        super().__init__(plugin, poll_interval=poll_interval)
        self.substructure = substructure
        self.compute_time = compute_time

    def process_request(self, targets: dict[int, float]):
        if self.compute_time > 0:
            yield self.kernel.timeout(self.compute_time)
        # an ensemble batch is one vectorized call, as in SimulationPlugin
        return substructure_readings(self.substructure, targets,
                                     self.compute_time)
