"""Service data elements: typed, timestamped, observable service state."""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.util.errors import ConfigurationError


class ServiceDataElement:
    """One named piece of observable service state.

    OGSI models service state as named SDEs that clients can query
    (``findServiceData``) and subscribe to.  NTCP represents each transaction
    as an SDE carrying its name, state, requested actions, results, and the
    timestamps of every state change.
    """

    __slots__ = ("name", "value", "last_modified", "version")

    def __init__(self, name: str, value: Any, last_modified: float,
                 version: int = 0):
        self.name = name
        self.value = value
        self.last_modified = last_modified
        self.version = version


class ServiceDataSet:
    """The collection of SDEs owned by one grid service.

    A name is either *stored* or *provided*, never both.  :meth:`set`
    stores an element, bumping its version and stamping the time.  The
    set's one provider (:meth:`provide`) serves a family of names whose
    state, version and time its owner keeps: an element is built only
    when somebody reads the name, and nothing is kept.

    Listeners are told the name of each change — every :meth:`set`, and
    every :meth:`changed` the owner reports for a provided name; the
    container's listener resolves the element only for a subscriber who
    wants that name.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._elements: dict[str, ServiceDataElement] = {}
        #: the provided family (:meth:`provide`); until one is given,
        #: ``tuple()`` lists no names and ``{}.get`` resolves none
        self._names: Callable[[], Iterable[str]] = tuple
        self._resolve: Callable[[str], tuple | None] = {}.get
        self._listeners: list[Callable[[str], None]] = []

    def set(self, name: str, value: Any) -> ServiceDataElement:
        """Create or update a stored SDE; notifies listeners."""
        existing = self._elements.get(name)
        if existing is None and self._resolve(name) is not None:
            raise ConfigurationError(f"service data {name!r} is provided")
        sde = ServiceDataElement(name, value, self._clock(),
                                 existing.version + 1 if existing else 1)
        self._elements[name] = sde
        self.changed(name)
        return sde

    def provide(self, names: Callable[[], Iterable[str]],
                resolve: Callable[[str], tuple | None]) -> None:
        """Serve a family of names from its owner: ``names()`` lists them
        and ``resolve(name)`` answers one's ``(value, last_modified,
        version)`` as of now (None for a name outside the family), from
        which a read builds the element.  The owner stamps version and
        time and reports each change with :meth:`changed`."""
        self._names, self._resolve = names, resolve

    def changed(self, name: str) -> None:
        """Tell the listeners that ``name`` changed.  The owner of a
        provided name may skip this while its service has no SDE
        subscriber: the container, the one listener, tells nobody then."""
        for listener in self._listeners:
            listener(name)

    def get(self, name: str) -> ServiceDataElement | None:
        """The SDE or None if absent."""
        sde = self._elements.get(name)
        if sde is None and (provided := self._resolve(name)) is not None:
            return ServiceDataElement(name, *provided)
        return sde

    def value(self, name: str, default: Any = None) -> Any:
        sde = self.get(name)
        return default if sde is None else sde.value

    def names(self) -> list[str]:
        return sorted([*self._elements, *self._names()])

    def on_change(self, listener: Callable[[str], None]) -> None:
        """Register a listener called synchronously with the name of
        every change."""
        self._listeners.append(listener)

    def snapshot(self) -> dict[str, Any]:
        """A plain dict of current values (for inspection replies)."""
        return {name: self.get(name).value
                for name in [*self._elements, *self._names()]}
