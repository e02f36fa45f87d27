"""The observatory's time-series core: bounded rings with rollup tiers.

Every series is keyed by metric name + label set (tenant / site / run /
stat) and holds three tiers:

* ``raw`` — an append-only ring of ``(time, value)`` points, bounded by
  ``raw_capacity`` and held as two columns (``times``, ``values``);
* ``r10`` — every 10 raw appends folded into one finalized bucket
  (count / sum / min / max / first / last over the 10 points), kept as
  a tuple in :data:`~repro.observatory.schema.BUCKET_KEYS` order and
  rendered as a dict only for a reader (:meth:`Series.points`, the
  dump);
* ``r100`` — the same folding at 100 raw appends per bucket.

Rollups are built *at append time* from the same arithmetic a reader
would apply to the raw ring, so downsampled answers stay consistent with
raw answers wherever both tiers still cover the range (the T-OBS
benchmark asserts this).  When the raw ring has evicted past a query's
start, the query engine falls back to the coarser tier that still
reaches it — "staleness-aware" downsampling with bounded retention at
every tier.

Costs follow what changed, not what is stored.  A window over the raw
tier (:meth:`Series.window`, what SLO sweeps and raw queries read) is
two bisects and a slice of the columns for as long as every point
arrived in time order — the stream rides ``fifo=False`` links, so the
first late point clears the series' ``_ordered`` flag and its windows
become a linear filter.  An open rollup bucket is six running scalars,
folded without a dict walk per point; it becomes one tuple when it
closes.  The store keeps its canonical keys sorted as series are created,
and its :func:`~repro.monitor.schema.metrics_sample_checker` (the one
check a streamed sample gets in a run) hands back, per streamed record, the series it feeds — one, or five for a
histogram — resolved the first time its ``(name, type, label items)``
is seen, so a steady-state ingest sorts nothing and makes no lookup of
its own.  The checker refuses exactly what
:func:`~repro.monitor.schema.validate_metrics_sample` refuses, with the
same text.  A flush therefore costs once per record, plus once per
series the store has not seen.  A streamed record may be the very
object an earlier sample carried (the streamer re-sends an unchanged
one): the store reads it and never changes it.

Everything advances on the simulation clock (points carry the streamed
sample's sim time), so two runs of the same campaign produce
byte-identical store contents.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Any, Iterable

from repro.monitor.schema import metrics_sample_checker
from repro.observatory.schema import BUCKET_KEYS, TIERS

#: raw appends folded into one bucket, per rollup tier
ROLLUP_SPANS = {"r10": 10, "r100": 100}
#: the histogram summary statistics stored as ``stat=...`` sub-series
HISTOGRAM_STATS = ("count", "mean", "p50", "p95", "p99")


def series_key(name: str, labels: dict[str, str]) -> tuple:
    """The canonical (hashable, sorted) identity of one series."""
    return (name, tuple(sorted(labels.items())))


class Series:
    """One metric stream: a raw ring plus its finalized rollup tiers."""

    __slots__ = ("name", "labels", "times", "values", "rollups", "appended",
                 "raw_capacity", "rollup_capacity", "_ordered", "_open")

    def __init__(self, name: str, labels: dict[str, str], *,
                 raw_capacity: int = 512, rollup_capacity: int = 256):
        self.name = name
        self.labels = dict(labels)
        self.raw_capacity = raw_capacity
        self.rollup_capacity = rollup_capacity
        self.times: list[float] = []
        self.values: list[float] = []
        self._ordered = True
        self.rollups: dict[str, deque] = {
            tier: deque(maxlen=rollup_capacity) for tier in ROLLUP_SPANS}
        # per tier, its open bucket as running scalars (count 0: none
        # open): [count, start, sum, min, max, first, span, finalized]
        self._open = tuple([0, 0.0, 0.0, 0.0, 0.0, 0.0, span,
                            self.rollups[tier]]
                           for tier, span in ROLLUP_SPANS.items())
        self.appended = 0

    def append(self, time: float, value: float) -> None:
        """Record one point; fold it into every open rollup bucket."""
        times = self.times
        # the stream rides fifo=False links; ``not >=`` also catches NaN
        if not time >= (times[-1] if times else time):
            self._ordered = False
        times.append(time)
        self.values.append(value)
        if len(times) > self.raw_capacity:
            del times[0], self.values[0]
        self.appended += 1
        for acc in self._open:
            if acc[0]:
                acc[0] += 1
                acc[2] += value
                if value < acc[3]:
                    acc[3] = value
                if value > acc[4]:
                    acc[4] = value
            else:  # ``0.0 +`` as a running sum starts: -0.0 sums to 0.0
                acc[:6] = 1, time, 0.0 + value, value, value, value
            if acc[0] >= acc[6]:
                acc[7].append((acc[1], time, acc[0], acc[2], acc[3],
                               acc[4], acc[5], value))
                acc[0] = 0

    def window(self, start: float, end: float) -> tuple[list, list]:
        """The ``(times, values)`` of the raw points with
        ``start <= time <= end``, in append order: two bisects and a
        slice while every point arrived in time order, a filter after
        the first that did not (or when a bound is NaN)."""
        times, values = self.times, self.values
        if self._ordered and start <= end:
            lo = bisect_left(times, start)
            hi = bisect_right(times, end, lo)
            return times[lo:hi], values[lo:hi]
        keep = [i for i, time in enumerate(times) if start <= time <= end]
        return [times[i] for i in keep], [values[i] for i in keep]

    def points(self, tier: str) -> list:
        """The finalized contents of one tier, oldest first.

        ``raw`` yields ``(time, value)`` pairs; rollup tiers yield bucket
        dicts, rendered from the stored tuples.  Open (partially filled)
        buckets are not visible.
        """
        if tier == "raw":
            return list(zip(self.times, self.values))
        return [dict(zip(BUCKET_KEYS, bucket))
                for bucket in self.rollups[tier]]

    def evicted(self, tier: str) -> bool:
        """Whether this tier has dropped points to stay within bounds."""
        if tier == "raw":
            return self.appended > self.raw_capacity
        span = ROLLUP_SPANS[tier]
        return self.appended // span > self.rollup_capacity

    def covers(self, tier: str, start: float) -> bool:
        """Whether the tier still reaches back to sim time ``start``."""
        points = self.times if tier == "raw" else self.rollups[tier]
        evicted = self.evicted(tier)
        if not (evicted and points):
            return not evicted
        oldest = points[0] if tier == "raw" else points[0][0]
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
                "raw": [[t, v] for t, v in zip(self.times, self.values)],
                "r10": self.points("r10"), "r100": self.points("r100")}

    @classmethod
    def from_record(cls, record: dict[str, Any], *,
                    raw_capacity: int = 512,
                    rollup_capacity: int = 256) -> "Series":
        """Rebuild a series from its dump record (open buckets are lost)."""
        series = cls(record["name"], record.get("labels", {}),
                     raw_capacity=raw_capacity,
                     rollup_capacity=rollup_capacity)
        for time, value in deque(record.get("raw", ()), raw_capacity):
            series.times.append(time)
            series.values.append(value)
        times = series.times
        # append's test: each point against its predecessor, the first
        # against itself
        series._ordered = all(
            b >= a for a, b in zip(times[:1] + times, times))
        for tier in ROLLUP_SPANS:
            for bucket in record.get(tier, ()):
                series.rollups[tier].append(
                    tuple(bucket[key] for key in BUCKET_KEYS))
        series.appended = record.get("appended", len(times))
        return series


class TimeSeriesStore:
    """A run's metrics store: the operations console's receiver feeds it
    (:meth:`~repro.monitor.monitor.ExperimentMonitor.on_stream_sample`),
    the console's detectors and the observatory read it.

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
        self._keys: list[tuple] = []  # of _series, kept sorted
        # (name, stat, label items as handed in) -> series: steady-state
        # appends neither sort labels nor rebuild {**labels, "stat": ...}
        self._resolved: dict[tuple, Series] = {}
        # a streamed record's route: the series it feeds, one or one per
        # HISTOGRAM_STATS
        self._check_sample = metrics_sample_checker(self._feeds)
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
    def _resolve(self, name: str, labels: dict[str, str],
                 stat: str | None = None) -> Series:
        """The series for name + labels (+ ``stat``), created on first
        sight and remembered under the labels' order as handed in."""
        ident = (name, stat, tuple(labels.items()))
        series = self._resolved.get(ident)
        if series is None:
            if stat is not None:
                labels = {**labels, "stat": stat}
            key = series_key(name, labels)
            series = self._series.get(key)
            if series is None:
                series = Series(name, labels,
                                raw_capacity=self.raw_capacity,
                                rollup_capacity=self.rollup_capacity)
                self._series[key] = series
                insort(self._keys, key)
                if self._g_series is not None:
                    self._g_series.set(len(self._series))
            self._resolved[ident] = series
        return series

    def _feeds(self, record: dict[str, Any]) -> tuple[Series, ...]:
        """The series a streamed record of a new series feeds."""
        name, labels = record["name"], record.get("labels", {})
        stats = HISTOGRAM_STATS if record["type"] == "histogram" else (None,)
        return tuple(self._resolve(name, labels, stat) for stat in stats)

    def append(self, name: str, labels: dict[str, str], time: float,
               value: float) -> Series:
        """Append one point, creating the series on first sight."""
        series = self._resolve(name, labels)
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
        routes = self._check_sample(payload)
        time = payload["time"]
        appended = 0
        for record, series in zip(payload["metrics"], routes):
            kind = record["type"]
            if kind == "counter":
                series[0].append(time, float(record["total"]))
                appended += 1
            elif kind == "gauge":
                series[0].append(time, float(record["value"]))
                appended += 1
            else:
                summary = record["summary"]
                for stat, stat_series in zip(HISTOGRAM_STATS, series):
                    stat_series.append(time, float(summary[stat]))
                appended += len(HISTOGRAM_STATS)
        if self._tm_appends is not None:
            self._tm_appends.inc(appended)
        # Kept beside the hub counter on purpose: a store rebuilt from a
        # dump runs kernel-less (``_tm_samples is None``) and still counts.
        self.samples_ingested += 1
        if self._tm_samples is not None:
            self._tm_samples.inc()
        return appended

    # -- reading --------------------------------------------------------------
    def series(self) -> list[Series]:
        """Every series, in canonical (name, labels) order."""
        return [self._series[key] for key in self._keys]

    def match(self, metric: str | None = None,
              selector: dict[str, str] | None = None) -> list[Series]:
        """Series matching an exact metric name and label-equality selector."""
        wanted = selector or {}
        keys = self._keys
        # (metric,) sorts just before every (metric, labels) key
        first = 0 if metric is None else bisect_left(keys, (metric,))
        out = []
        for index in range(first, len(keys)):
            series = self._series[keys[index]]
            if metric is not None and series.name != metric:
                break
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
            key = series_key(series.name, series.labels)
            if key not in store._series:
                insort(store._keys, key)
            store._series[key] = series
        return store
