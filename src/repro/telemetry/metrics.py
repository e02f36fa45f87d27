"""Counters, gauges, and histograms.

Instruments are cheap plain-Python objects owned by a
:class:`MetricRegistry`; every instrument is identified by a dotted name
following the repo-wide convention ``layer.component.name`` (e.g.
``net.rpc.latency``, ``core.server.executed``) plus an optional label set
(e.g. ``site="ntcp-uiuc"``).  Asking the registry twice for the same
name+labels returns the same instrument, so call sites never coordinate.

Histograms keep every observation (experiments here run thousands of
steps, not millions of requests), which makes percentile math exact
rather than bucketed.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Any, Iterator

from repro.telemetry.schema import SUMMARY_KEYS


def percentile(sorted_values: list[float], p: float) -> float:
    """Exact percentile of pre-sorted values, interpolating between ranks.

    ``p`` is in [0, 100]; no values report 0.0.  The one percentile in
    the tree: histograms, observatory ``quantile`` queries and the
    critical-path blame table all call it.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


_BY_KEY = attrgetter("key")


class Metric:
    """Common identity: dotted name plus frozen labels.

    ``key`` — ``(name, sorted label pairs)`` — is computed here, once;
    the registry orders by it and every reader that needs a series'
    identity reads it instead of re-sorting ``labels``.
    """

    kind = "metric"

    def __init__(self, name: str, labels: dict[str, Any]):
        self.name = name
        self.labels = {str(k): str(v) for k, v in labels.items()}
        self.key = (name, _label_key(labels))

    def describe(self) -> dict[str, Any]:
        """One serialization-friendly record (see telemetry.schema)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lbl = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "type": "counter", "labels": self.labels,
                "value": self.value}


class Gauge(Metric):
    """A value that goes up and down (queue depth, lag, utilization)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "type": "gauge", "labels": self.labels,
                "value": self.value}


class Histogram(Metric):
    """Exact-percentile histogram over all observations."""

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self._values: list[float] = []
        self._sorted = True
        self._summary: dict[str, float] | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._summary = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return float(sum(self._values))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._values else 0.0

    def _ordered(self) -> list[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    @property
    def values(self) -> list[float]:
        """A copy of every observation, in no promised order (the
        histogram sorts in place whenever a percentile is asked for)."""
        return list(self._values)

    def percentile(self, p: float) -> float:
        """Exact :func:`percentile` of the observations so far."""
        return percentile(self._ordered(), p)

    def summary(self) -> dict[str, float]:
        """Every stat a consumer ships; each picks its keys (the exporter
        p90, the streamed console sample p95).  Computed once per change:
        a call with no ``observe`` since the last returns a copy of the
        same stats."""
        if self._summary is None:
            values = self._ordered()
            total = float(sum(values))
            self._summary = {
                "count": len(values),
                "sum": total,
                "mean": total / len(values) if values else 0.0,
                "min": values[0] if values else 0.0,
                "max": values[-1] if values else 0.0,
                "p50": percentile(values, 50.0),
                "p90": percentile(values, 90.0),
                "p95": percentile(values, 95.0),
                "p99": percentile(values, 99.0),
            }
        return dict(self._summary)

    def describe(self) -> dict[str, Any]:
        summary = self.summary()
        return {"name": self.name, "type": "histogram", "labels": self.labels,
                "summary": {key: summary[key] for key in SUMMARY_KEYS}}


class MetricRegistry:
    """All instruments of one run, keyed by name + labels and kept in
    key order (creation is rare, reading is per flush)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Metric] = {}
        self._ordered: list[Metric] = []

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
            insort(self._ordered, metric, key=_BY_KEY)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict[str, Any]]:
        """Serialization-friendly records for every instrument, in key
        order."""
        return [metric.describe() for metric in self._ordered]

    def find(self, name: str, **labels: Any) -> Metric | None:
        """The instrument registered under name+labels, or None."""
        return self._metrics.get((name, _label_key(labels)))
