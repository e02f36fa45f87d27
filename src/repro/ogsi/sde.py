"""Service data elements: typed, timestamped, observable service state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class ServiceDataElement:
    """One named piece of observable service state.

    OGSI models service state as named SDEs that clients can query
    (``findServiceData``) and subscribe to.  NTCP represents each transaction
    as an SDE carrying its name, state, requested actions, results, and the
    timestamps of every state change.
    """

    name: str
    value: Any
    last_modified: float
    version: int = 0


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
        existing = self._elements.get(name)
        version = existing.version + 1 if existing else 1
        sde = ServiceDataElement(name=name, value=value,
                                 last_modified=self._clock(), version=version)
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
