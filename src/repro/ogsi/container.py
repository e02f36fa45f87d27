"""The service container: hosting, dispatch, lifetime, notifications."""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.net.network import Network
from repro.net.rpc import RpcService
from repro.ogsi.handle import GridServiceHandle
from repro.ogsi.service import GridService
from repro.util.errors import ConfigurationError, ProtocolError, ServiceNotFound
from repro.util.ids import IdFactory
from repro.util.schema import nullable, number, validator

#: a termination time or a factory lifetime: None (immortal) or a finite
#: number, never a bool; checked before anything is stored
_check_lifetime = validator(ProtocolError, nullable(number(finite=True)))


class ServiceContainer:
    """Hosts grid services on one simulated host.

    The container is itself reachable over RPC (default port ``"ogsi"``) and
    provides the OGSI-standard operations for every hosted service:

    * ``invoke`` — call a service operation;
    * ``findServiceData`` — inspect one SDE or snapshot all of them;
    * ``setTerminationTime`` — extend/shorten soft-state lifetime;
    * ``destroy`` — explicit destruction;
    * ``subscribe`` / ``unsubscribe`` — SDE change notifications, delivered
      as one-way messages to a sink port (best effort, like OGSI notification);
    * ``createService`` — factory: instantiate a registered service type;
    * ``listServices`` — registry of hosted handles.

    Service lifetime management is deadline-driven: whenever a mortal
    service exists, a one-shot reaper is armed at the earliest
    termination time, destroys whatever has lapsed, and re-arms.  (An idle
    container therefore schedules nothing, letting simulations drain.)
    Subscriptions schedule nothing at all: each service's
    :class:`~repro.ogsi.notification.SubscriptionTable` skips a lapsed
    entry and frees it at the next publish; :meth:`destroy` — explicit or
    by the reaper — empties every table the service owns.
    """

    def __init__(self, network: Network, host: str, *, port: str = "ogsi",
                 checker: Callable[[Any, str], Any] | None = None):
        self.network = network
        self.kernel = network.kernel
        self.host = host
        self.port = port
        self.services: dict[str, GridService] = {}
        self.factories: dict[str, Callable[..., GridService]] = {}
        self._sub_ids = IdFactory(f"{host}.sub")
        self.rpc = RpcService(network, host, port,
                              name=f"container.{host}", checker=checker)
        for op in ("invoke", "findServiceData", "setTerminationTime",
                   "destroy", "subscribe", "unsubscribe", "createService",
                   "listServices"):
            self.rpc.register(op, getattr(self, f"_op_{op}"))
        self._reaper_armed_for = math.inf  # no sweep scheduled

    # -- hosting ------------------------------------------------------------
    def deploy(self, service: GridService, *,
               termination_time: float | None = None) -> GridServiceHandle:
        """Host a service instance; returns its grid service handle."""
        _check_lifetime(termination_time)
        if service.service_id in self.services:
            raise ConfigurationError(
                f"service id {service.service_id!r} already deployed on {self.host}")
        handle = GridServiceHandle(self.host, self.port, service.service_id)
        service.termination_time = termination_time
        service.attach(self, handle)
        service.sde_subscribers = service.subscription_table(self._sub_ids)
        assert service.service_data is not None
        service.service_data.on_change(lambda n: self._fanout(service, n))
        self.services[service.service_id] = service
        self.kernel.emit(f"container.{self.host}", "service.deployed",
                         service_id=service.service_id)
        self._arm_reaper()
        return handle

    def register_factory(self, type_name: str,
                         factory: Callable[..., GridService]) -> None:
        """Register a service type instantiable via ``createService``."""
        self.factories[type_name] = factory

    def get(self, service_id: str) -> GridService:
        svc = self.services.get(service_id)
        if svc is None:
            raise ServiceNotFound(
                f"no service {service_id!r} on {self.host} "
                f"(destroyed or never deployed)")
        return svc

    def destroy(self, service_id: str, reason: str = "explicit") -> None:
        svc = self.services.pop(service_id, None)
        if svc is None:
            return
        svc.on_destroy()
        for table in svc.subscription_tables:
            table.clear()
        self.kernel.emit(f"container.{self.host}", "service.destroyed",
                         service_id=service_id, reason=reason)

    # -- soft-state lifetime ----------------------------------------------------
    def _arm_reaper(self) -> None:
        deadline = min((svc.termination_time for svc in self.services.values()
                        if svc.termination_time is not None),
                       default=math.inf)
        if deadline < self._reaper_armed_for:  # else: one is due by then
            self._reaper_armed_for = deadline
            self.kernel.call_later(max(0.0, deadline - self.kernel.now),
                                   self._sweep)

    def _sweep(self, _arg) -> None:
        self._reaper_armed_for = math.inf
        for sid, svc in list(self.services.items()):
            if (svc.termination_time is not None
                    and svc.termination_time <= self.kernel.now):
                self.destroy(sid, reason="lifetime-expired")
        self._arm_reaper()

    # -- notifications ------------------------------------------------------------
    def _fanout(self, service: GridService, name: str) -> None:
        if service.sde_subscribers.wants(name):  # else nothing is built
            sde = service.service_data.get(name)
            service.sde_subscribers.publish(name, lambda sub_id: {
                "subscription": sub_id,
                "service_id": service.service_id,
                "sde_name": name,
                "value": sde.value,
                "version": sde.version,
                "modified": sde.last_modified,
            })

    # -- RPC operations --------------------------------------------------------
    def _op_invoke(self, caller, service_id: str, operation: str,
                   params: dict[str, Any] | None = None):
        svc = self.get(service_id)
        fn = svc.operation(operation)
        return fn(caller, **(params or {}))

    def _op_findServiceData(self, caller, service_id: str,
                            name: str | None = None):
        svc = self.get(service_id)
        assert svc.service_data is not None
        if name is None:
            return svc.service_data.snapshot()
        sde = svc.service_data.get(name)
        if sde is None:
            raise ProtocolError(
                f"service {service_id!r} has no service data {name!r}")
        return {"name": sde.name, "value": sde.value,
                "version": sde.version, "modified": sde.last_modified}

    def _op_setTerminationTime(self, caller, service_id: str,
                               termination_time: float | None):
        svc = self.get(service_id)
        _check_lifetime(termination_time)
        svc.termination_time = termination_time
        self.kernel.emit(f"container.{self.host}", "service.lifetime",
                         service_id=service_id, termination_time=termination_time)
        self._arm_reaper()
        return {"termination_time": termination_time, "now": self.kernel.now}

    def _op_destroy(self, caller, service_id: str):
        self.get(service_id)  # raise if unknown
        self.destroy(service_id, reason="client-requested")
        return True

    def _op_subscribe(self, caller, service_id: str, sink_host: str,
                      sink_port: str, sde_name: str | None = None,
                      lifetime: float = 300.0):
        return self.get(service_id).sde_subscribers.subscribe(
            caller, sink_host, sink_port, lifetime,
            None if sde_name is None else [sde_name])

    def _op_unsubscribe(self, caller, subscription_id: str):
        return any(svc.sde_subscribers.unsubscribe(subscription_id, caller)
                   for svc in self.services.values())

    def _op_createService(self, caller, type_name: str,
                          params: dict[str, Any] | None = None,
                          lifetime: float | None = None):
        factory = self.factories.get(type_name)
        if factory is None:
            raise ProtocolError(f"no factory for service type {type_name!r}")
        _check_lifetime(lifetime)
        service = factory(**(params or {}))
        termination = None if lifetime is None else self.kernel.now + lifetime
        handle = self.deploy(service, termination_time=termination)
        return str(handle)

    def _op_listServices(self, caller):
        return [str(svc.handle) for svc in self.services.values()]
