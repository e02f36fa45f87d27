"""Grid service base class, and the one-SDE status service built on it."""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.ogsi.notification import SubscriptionTable
from repro.ogsi.sde import ServiceDataSet
from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ogsi.container import ServiceContainer
    from repro.ogsi.handle import GridServiceHandle


class GridService:
    """Base class for everything hosted in a :class:`ServiceContainer`.

    Subclasses call :meth:`expose` to register operations (callables taking
    the authenticated principal plus keyword params; may be generators to
    consume simulation time) and use :attr:`service_data` for observable
    state.  ``termination_time`` implements OGSI soft-state lifetime: the
    container reaps the service once the time passes unless a client extends
    it via the standard ``setTerminationTime`` operation.  Whoever the
    service pushes to is held in a :meth:`subscription_table`;
    ``sde_subscribers`` (made by the container at deploy) is the one for
    its SDE change notifications.
    """

    def __init__(self, service_id: str):
        self.service_id = service_id
        self.container: "ServiceContainer | None" = None
        self.handle: "GridServiceHandle | None" = None
        self.service_data: ServiceDataSet | None = None
        self.termination_time: float | None = None  # None = immortal
        self.sde_subscribers: SubscriptionTable | None = None
        self.subscription_tables: list[SubscriptionTable] = []
        self._operations: dict[str, Callable[..., Any]] = {}

    # -- wiring (called by the container) ----------------------------------
    def attach(self, container: "ServiceContainer",
               handle: "GridServiceHandle") -> None:
        self.container = container
        self.handle = handle
        self.service_data = ServiceDataSet(lambda: container.kernel.now)
        self.on_attach()

    def on_attach(self) -> None:
        """Subclass hook: runs once the service is hosted (SDEs exist)."""

    def on_destroy(self) -> None:
        """Subclass hook: runs when the service is destroyed/reaped."""

    # -- operations ----------------------------------------------------------
    def expose(self, name: str, fn: Callable[..., Any]) -> None:
        """Register ``fn`` as operation ``name``."""
        self._operations[name] = fn

    def operation(self, name: str) -> Callable[..., Any]:
        fn = self._operations.get(name)
        if fn is None:
            raise ProtocolError(
                f"service {self.service_id!r} has no operation {name!r}")
        return fn

    # -- audiences -------------------------------------------------------------
    def subscription_table(self, new_id: Callable[[], str],
                           on_lapsed: Callable[[int], None] | None = None
                           ) -> SubscriptionTable:
        """A new audience of this (attached) service — arguments as
        :class:`SubscriptionTable` takes them; the container empties
        every one of them when the service is destroyed."""
        table = SubscriptionTable(self.container.network,
                                  self.container.host, new_id, on_lapsed)
        self.subscription_tables.append(table)
        return table

    # -- helpers ---------------------------------------------------------------
    @property
    def kernel(self):
        assert self.container is not None, "service not attached"
        return self.container.kernel

    def emit(self, kind: str, **detail: Any) -> None:
        """Structured log record under this service's subsystem name;
        nothing is formatted when no sink takes records."""
        kernel = self.kernel
        if kernel.telemetry.takes_records:
            kernel.emit(f"ogsi.{self.service_id}", kind, **detail)


class SdeStatusService(GridService):
    """A grid service whose only job is publishing one status SDE.

    Gives a component that is not itself a grid service (the
    coordinator's health, the fleet roll-up, the queue status) a
    service-data anchor in a container, so its status document rides the
    same ``findServiceData``/``subscribe`` machinery as every site's
    SDEs.  SDE ``sde`` holds the latest document (``None`` until the
    first :meth:`publish`); operation ``operation`` returns it on demand.
    """

    def __init__(self, service_id: str, sde: str, operation: str):
        super().__init__(service_id)
        self.sde = sde
        self.expose(operation, lambda caller: self.service_data.value(sde))

    def on_attach(self) -> None:
        """Create the status SDE, empty until the first publish."""
        self.service_data.set(self.sde, None)

    def publish(self, document: Any) -> None:
        """Install a new status document (notifies SDE subscribers)."""
        self.service_data.set(self.sde, document)
