"""Service data elements: typed, timestamped, observable service state."""

from __future__ import annotations

from typing import Any, Callable


class ServiceDataElement:
    """One named piece of observable service state.

    OGSI models service state as named SDEs that clients can query
    (``findServiceData``) and subscribe to.  NTCP represents each transaction
    as an SDE carrying its name, state, requested actions, results, and the
    timestamps of every state change.

    ``version`` and ``last_modified`` are stamped when the element is set.
    ``value`` may be *produced*: set with a producer, it is built by the
    first read and kept — an element nobody reads builds nothing.
    """

    __slots__ = ("name", "last_modified", "version", "_value", "_producer")

    def __init__(self, name: str, value: Any, last_modified: float,
                 version: int = 0,
                 producer: Callable[[], Any] | None = None):
        self.name = name
        self.last_modified = last_modified
        self.version = version
        self._value = value
        self._producer = producer

    @property
    def value(self) -> Any:
        if self._producer is not None:
            self._value = self._producer()
            self._producer = None
        return self._value


class ServiceDataSet:
    """The collection of SDEs owned by one grid service.

    Mutations bump a version counter and invoke change listeners — the hook
    the container's notification machinery uses.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._elements: dict[str, ServiceDataElement] = {}
        self._listeners: list[Callable[[ServiceDataElement], None]] = []

    def set(self, name: str, value: Any) -> ServiceDataElement:
        """Create or update an SDE; notifies listeners."""
        return self._install(name, value, None)

    def set_produced(self, name: str,
                     producer: Callable[[], Any]) -> ServiceDataElement:
        """:meth:`set`, with the value left to ``producer()`` until read.

        A listener that reads ``value`` (the container, for a live
        subscription) gets it as of now; otherwise the first
        ``findServiceData`` / :meth:`snapshot` / :meth:`value` builds it.
        The owner must therefore set the element again whenever what
        ``producer`` reads changes — a late first read then equals an
        early one.
        """
        return self._install(name, None, producer)

    def _install(self, name: str, value: Any,
                 producer: Callable[[], Any] | None) -> ServiceDataElement:
        existing = self._elements.get(name)
        version = existing.version + 1 if existing else 1
        sde = ServiceDataElement(name, value, self._clock(), version, producer)
        self._elements[name] = sde
        for listener in self._listeners:
            listener(sde)
        return sde

    def get(self, name: str) -> ServiceDataElement | None:
        """The SDE or None if absent."""
        return self._elements.get(name)

    def value(self, name: str, default: Any = None) -> Any:
        sde = self._elements.get(name)
        return default if sde is None else sde.value

    def names(self) -> list[str]:
        return sorted(self._elements)

    def on_change(self, listener: Callable[[ServiceDataElement], None]) -> None:
        """Register a listener called synchronously on every ``set``."""
        self._listeners.append(listener)

    def snapshot(self) -> dict[str, Any]:
        """A plain dict of current values (for inspection replies)."""
        return {name: sde.value for name, sde in self._elements.items()}
