"""The observatory's time-series core: bounded rings with rollup tiers.

Every series is keyed by metric name + label set (tenant / site / run /
stat) and holds three tiers:

* ``raw`` — an append-only ring of ``(time, value)`` points, bounded by
  ``raw_capacity``;
* ``r10`` — every 10 raw appends folded into one finalized bucket
  (count / sum / min / max / first / last over the 10 points);
* ``r100`` — the same folding at 100 raw appends per bucket.

Rollups are built *at append time* from the same arithmetic a reader
would apply to the raw ring, so downsampled answers stay consistent with
raw answers wherever both tiers still cover the range (the T-OBS
benchmark asserts this).  When the raw ring has evicted past a query's
start, the query engine falls back to the coarser tier that still
reaches it — "staleness-aware" downsampling with bounded retention at
every tier.

Everything advances on the simulation clock (points carry the streamed
sample's sim time), so two runs of the same campaign produce
byte-identical store contents.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.monitor.schema import validate_metrics_sample
from repro.observatory.schema import TIERS

#: raw appends folded into one bucket, per rollup tier
ROLLUP_SPANS = {"r10": 10, "r100": 100}
#: the histogram summary statistics stored as ``stat=...`` sub-series
HISTOGRAM_STATS = ("count", "mean", "p50", "p95", "p99")


def series_key(name: str, labels: dict[str, str]) -> tuple:
    """The canonical (hashable, sorted) identity of one series."""
    return (name, tuple(sorted(labels.items())))


class Series:
    """One metric stream: a raw ring plus its finalized rollup tiers."""

    __slots__ = ("name", "labels", "raw", "rollups", "appended",
                 "raw_capacity", "rollup_capacity", "_open")

    def __init__(self, name: str, labels: dict[str, str], *,
                 raw_capacity: int = 512, rollup_capacity: int = 256):
        self.name = name
        self.labels = dict(labels)
        self.raw_capacity = raw_capacity
        self.rollup_capacity = rollup_capacity
        self.raw: deque = deque(maxlen=raw_capacity)
        self.rollups: dict[str, deque] = {
            tier: deque(maxlen=rollup_capacity) for tier in ROLLUP_SPANS}
        self._open: dict[str, dict[str, Any] | None] = {
            tier: None for tier in ROLLUP_SPANS}
        self.appended = 0

    def append(self, time: float, value: float) -> None:
        """Record one point; fold it into every open rollup bucket."""
        self.raw.append((time, value))
        self.appended += 1
        for tier, span in ROLLUP_SPANS.items():
            bucket = self._open[tier]
            if bucket is None:
                bucket = {"start": time, "end": time, "count": 0,
                          "sum": 0.0, "min": value, "max": value,
                          "first": value, "last": value}
                self._open[tier] = bucket
            bucket["end"] = time
            bucket["count"] += 1
            bucket["sum"] += value
            bucket["min"] = min(bucket["min"], value)
            bucket["max"] = max(bucket["max"], value)
            bucket["last"] = value
            if bucket["count"] >= span:
                self.rollups[tier].append(bucket)
                self._open[tier] = None

    def points(self, tier: str) -> list:
        """The finalized contents of one tier, oldest first.

        ``raw`` yields ``(time, value)`` pairs; rollup tiers yield bucket
        dicts.  Open (partially filled) buckets are not visible.
        """
        if tier == "raw":
            return list(self.raw)
        return list(self.rollups[tier])

    def evicted(self, tier: str) -> bool:
        """Whether this tier has dropped points to stay within bounds."""
        if tier == "raw":
            return self.appended > self.raw_capacity
        span = ROLLUP_SPANS[tier]
        return self.appended // span > self.rollup_capacity

    def covers(self, tier: str, start: float) -> bool:
        """Whether the tier still reaches back to sim time ``start``."""
        points = self.points(tier)
        if not points:
            return not self.evicted(tier)
        if not self.evicted(tier):
            return True
        oldest = points[0][0] if tier == "raw" else points[0]["start"]
        return oldest <= start

    def pick_tier(self, start: float) -> str:
        """The finest tier that still covers ``start`` (staleness-aware)."""
        for tier in TIERS:
            if self.covers(tier, start):
                return tier
        return TIERS[-1]

    def to_record(self) -> dict[str, Any]:
        """The dump-document form of this series."""
        return {"name": self.name, "labels": dict(self.labels),
                "appended": self.appended,
                "raw": [[t, v] for t, v in self.raw],
                "r10": [dict(b) for b in self.rollups["r10"]],
                "r100": [dict(b) for b in self.rollups["r100"]]}

    @classmethod
    def from_record(cls, record: dict[str, Any], *,
                    raw_capacity: int = 512,
                    rollup_capacity: int = 256) -> "Series":
        """Rebuild a series from its dump record (open buckets are lost)."""
        series = cls(record["name"], record.get("labels", {}),
                     raw_capacity=raw_capacity,
                     rollup_capacity=rollup_capacity)
        for time, value in record.get("raw", ()):
            series.raw.append((time, value))
        for tier in ROLLUP_SPANS:
            for bucket in record.get(tier, ()):
                series.rollups[tier].append(dict(bucket))
        series.appended = record.get("appended", len(series.raw))
        return series


class TimeSeriesStore:
    """The fleet-wide metrics store every ``TelemetryStreamer`` feeds.

    Construct with the run's kernel to record store telemetry
    (``observatory.store.*``) and stamp dumps with the sim clock, or with
    ``kernel=None`` for an offline store rebuilt from a dump document
    (the CLI's read path).
    """

    def __init__(self, kernel=None, *, raw_capacity: int = 512,
                 rollup_capacity: int = 256):
        self.kernel = kernel
        self.raw_capacity = raw_capacity
        self.rollup_capacity = rollup_capacity
        self._series: dict[tuple, Series] = {}
        self.samples_ingested = 0
        self._tm_appends = None
        self._tm_samples = None
        self._g_series = None
        if kernel is not None:
            telemetry = kernel.telemetry
            self._tm_appends = telemetry.counter("observatory.store.appends")
            self._tm_samples = telemetry.counter("observatory.store.samples")
            self._g_series = telemetry.gauge("observatory.store.series")

    # -- writing --------------------------------------------------------------
    def append(self, name: str, labels: dict[str, str], time: float,
               value: float) -> Series:
        """Append one point, creating the series on first sight."""
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = Series(name, labels, raw_capacity=self.raw_capacity,
                            rollup_capacity=self.rollup_capacity)
            self._series[key] = series
            if self._g_series is not None:
                self._g_series.set(len(self._series))
        series.append(time, float(value))
        if self._tm_appends is not None:
            self._tm_appends.inc()
        return series

    def ingest_metrics_payload(self, payload: dict[str, Any]) -> int:
        """Absorb one validated ``repro.monitor/v1`` metrics sample.

        Counters store their cumulative ``total`` (so ``rate`` works over
        any window); gauges store their value; histograms fan out into
        ``stat=count/mean/p50/p95/p99`` sub-series.  Returns the number
        of points appended.
        """
        validate_metrics_sample(payload)
        time = payload["time"]
        appended = 0
        for record in payload["metrics"]:
            name = record["name"]
            labels = record.get("labels", {})
            if record["type"] == "counter":
                self.append(name, labels, time, record["total"])
                appended += 1
            elif record["type"] == "gauge":
                self.append(name, labels, time, record["value"])
                appended += 1
            else:
                summary = record["summary"]
                for stat in HISTOGRAM_STATS:
                    self.append(name, {**labels, "stat": stat}, time,
                                summary[stat])
                    appended += 1
        # Kept beside the hub counter on purpose: a store rebuilt from a
        # dump runs kernel-less (``_tm_samples is None``) and still counts.
        self.samples_ingested += 1
        if self._tm_samples is not None:
            self._tm_samples.inc()
        return appended

    def on_stream_sample(self, sample) -> None:
        """NSDSReceiver callback: absorb one streamed metrics payload."""
        payload = sample.value
        if not isinstance(payload, dict) or payload.get("kind") != "metrics":
            return
        self.ingest_metrics_payload(payload)

    # -- reading --------------------------------------------------------------
    def series(self) -> list[Series]:
        """Every series, in canonical (name, labels) order."""
        return [self._series[key] for key in sorted(self._series)]

    def match(self, metric: str | None = None,
              selector: dict[str, str] | None = None) -> list[Series]:
        """Series matching an exact metric name and label-equality selector."""
        wanted = selector or {}
        out = []
        for series in self.series():
            if metric is not None and series.name != metric:
                continue
            if any(series.labels.get(k) != v for k, v in wanted.items()):
                continue
            out.append(series)
        return out

    def stats(self) -> dict[str, Any]:
        """Store-level accounting for the service's SDE."""
        return {"series": len(self._series),
                "samples_ingested": self.samples_ingested,
                "points": sum(s.appended for s in self._series.values()),
                "raw_capacity": self.raw_capacity,
                "rollup_capacity": self.rollup_capacity}

    # -- dump / load ----------------------------------------------------------
    def series_records(self) -> list[dict[str, Any]]:
        """Every series as dump records, in canonical order."""
        return [series.to_record() for series in self.series()]

    @classmethod
    def from_records(cls, records: Iterable[dict[str, Any]], *,
                     raw_capacity: int = 512,
                     rollup_capacity: int = 256) -> "TimeSeriesStore":
        """Rebuild an offline (kernel-less) store from dump records."""
        store = cls(None, raw_capacity=raw_capacity,
                    rollup_capacity=rollup_capacity)
        for record in records:
            series = Series.from_record(record, raw_capacity=raw_capacity,
                                        rollup_capacity=rollup_capacity)
            store._series[series_key(series.name, series.labels)] = series
        return store
