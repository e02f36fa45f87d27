"""The observatory as an OGSI grid service.

Hosted in the operations console's container on the portal, beside
the console whose store it serves, the service exposes the query engine
and flight recorder to any grid client: ``query`` runs
a label-selector range query and returns the validated
``repro.observatory/v1`` document, ``listSeries`` enumerates what the
store holds, ``getSnapshots`` returns captured flight recordings, and
``stats`` reports store/recorder accounting (also published as the
``observatory.stats`` SDE).
"""

from __future__ import annotations

from typing import Any

from repro.observatory.query import run_query
from repro.ogsi import GridService

#: name of the store-statistics service data element
STATS_SDE = "observatory.stats"


class ObservatoryService(GridService):
    """Grid-service front end over the store, query engine, and recorder."""

    def __init__(self, service_id: str = "observatory", *, store=None,
                 recorder=None):
        super().__init__(service_id)
        self.store = store
        self.recorder = recorder

    def on_attach(self) -> None:
        """Expose the query/series/snapshot operations and the stats SDE."""
        self.service_data.set(STATS_SDE, None)
        self.expose("query", self._op_query)
        self.expose("listSeries", self._op_listSeries)
        self.expose("getSnapshots", self._op_getSnapshots)
        self.expose("stats", self._op_stats)

    def _op_query(self, caller: Any, **params: Any) -> dict[str, Any]:
        """Run one range query; ``params`` is the request document."""
        result = run_query(self.store, params, now=self.kernel.now)
        self.emit("query.served", caller=str(caller),
                  metric=params.get("metric"),
                  total_series=result["total_series"])
        return result

    def _op_listSeries(self, caller: Any, metric: str | None = None,
                       **selector: str) -> list[dict[str, Any]]:
        """Enumerate stored series (name, labels, point count)."""
        return [{"name": series.name, "labels": dict(series.labels),
                 "appended": series.appended}
                for series in self.store.match(metric, selector)]

    def _op_getSnapshots(self, caller: Any,
                         run_id: str | None = None) -> list[dict[str, Any]]:
        """Captured flight recordings, optionally filtered by run."""
        if self.recorder is None:
            return []
        return [snapshot for snapshot in self.recorder.snapshots
                if run_id is None or snapshot["run_id"] == run_id]

    def _op_stats(self, caller: Any) -> dict[str, Any]:
        return self.publish_stats()

    def publish_stats(self) -> dict[str, Any]:
        """Refresh and return the ``observatory.stats`` SDE."""
        stats = dict(self.store.stats()) if self.store is not None else {}
        if self.recorder is not None:
            stats["flight"] = self.recorder.stats()
        self.service_data.set(STATS_SDE, stats)
        return stats
