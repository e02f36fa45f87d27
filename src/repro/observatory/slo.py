"""Declarative SLOs with fast/slow burn-rate alerting.

An :class:`SLOSpec` names an objective over stored observatory series —
either a *threshold* objective ("step-latency p95 stays under 30 s",
bad = points over the threshold) or a *ratio* objective ("stream gaps
stay under 1% of pushed samples", bad/total = deltas of two cumulative
counters).  The :class:`SLOEvaluator` sweeps the store on the sim clock
and applies multi-window burn-rate rules in the SRE-workbook style: a
*fast* rule (short window, high factor) catches cliff failures in
minutes, a *slow* rule (long window, low factor) catches steady leaks
that would exhaust the error budget over the run.

``burn = bad_fraction / (1 - target)`` — the rate at which the error
budget is being spent, where 1.0 means "exactly on budget".  A rule
fires when its window's burn exceeds its factor; the alert goes through
the existing :class:`repro.monitor.ExperimentMonitor` channel as a typed
``slo_burn`` alert, and whole-history ``budget_remaining`` is surfaced
in the observatory's dump.  Every window is read through
:meth:`~repro.observatory.tsdb.Series.window` over the raw tier, so
"whole history" reaches as far back as the raw ring does (see
:class:`SLOSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

#: default multi-window burn-rate rules (window sim-seconds, burn factor)
FAST_WINDOW = 120.0
SLOW_WINDOW = 600.0


@dataclass(frozen=True)
class BurnRateRule:
    """One burn-rate alerting rule: a lookback window and a burn factor."""

    name: str
    window: float
    factor: float
    severity: str


DEFAULT_RULES = (BurnRateRule("fast", FAST_WINDOW, 14.0, "critical"),
                 BurnRateRule("slow", SLOW_WINDOW, 2.0, "warning"))


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over stored observatory series.

    ``kind="threshold"`` counts points of ``metric``/``selector`` whose
    value exceeds ``threshold`` as bad events.  ``kind="ratio"`` divides
    window deltas of the cumulative ``bad_metric`` counter by deltas of
    ``total_metric``.  ``target`` is the good fraction the objective
    promises (0.99 → a 1% error budget).

    Events are counted over the raw tier only, so the budget is over
    what the raw ring retains — 512 points per series, 4.3 simulated
    hours at the 30 s flush — not over the run: once a series has taken
    more, the oldest flushes leave ``events`` / ``bad`` /
    ``budget_remaining`` silently.
    """

    name: str
    metric: str = ""
    selector: dict[str, str] = field(default_factory=dict)
    kind: str = "threshold"
    threshold: float = 0.0
    target: float = 0.99
    bad_metric: str = ""
    bad_selector: dict[str, str] = field(default_factory=dict)
    total_metric: str = ""
    total_selector: dict[str, str] = field(default_factory=dict)
    rules: tuple = DEFAULT_RULES
    tenant: str | None = None
    min_events: int = 1


def default_slos() -> list[SLOSpec]:
    """The three stock MOST objectives the issue names.

    * ``step-latency-p95`` — the streamed p95 of
      ``coordinator.mspsds.step_time`` stays under 30 sim-seconds;
    * ``breaker-open-ratio`` — no site's circuit breaker sits open
      (``net.breaker.state`` > 0 counts as a bad observation);
    * ``stream-gap-rate`` — NSDS receiver gaps stay under 1% of pushed
      stream samples.
    """
    return [
        SLOSpec(name="step-latency-p95",
                metric="coordinator.mspsds.step_time",
                selector={"stat": "p95"}, threshold=30.0, target=0.99),
        SLOSpec(name="breaker-open-ratio", metric="net.breaker.state",
                threshold=0.0, target=0.95),
        SLOSpec(name="stream-gap-rate", kind="ratio",
                bad_metric="nsds.receiver.gaps",
                total_metric="nsds.stream.pushed", target=0.99),
    ]


def _counter_delta(store, metric: str, selector: dict[str, str],
                   start: float, end: float) -> float:
    """Sum of (last - first) over the window across matching series."""
    total = 0.0
    for series in store.match(metric, selector):
        _, values = series.window(start, end)
        if len(values) >= 2:
            total += values[-1] - values[0]
        elif values:
            total += values[0]
    return total


class SLOEvaluator:
    """Periodically evaluates SLO specs over the observatory store."""

    def __init__(self, kernel, store, slos, *,
                 alert_sink: Callable[..., Any] | None = None,
                 interval: float = 60.0):
        self.kernel = kernel
        self.store = store
        self.slos = list(slos)
        self.alert_sink = alert_sink
        self.interval = interval
        self._firing: set[tuple[str, str]] = set()
        self._proc = None
        self._running = False
        self._tm_sweeps = kernel.telemetry.counter("observatory.slo.sweeps")
        self._tm_alerts = kernel.telemetry.counter("observatory.slo.alerts")

    @property
    def alerts_raised(self) -> int:
        """Burn-rate rules that started firing
        (``observatory.slo.alerts``)."""
        return self._tm_alerts.value

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic sweep loop on the kernel."""
        if self._running:
            return
        self._running = True
        self._proc = self.kernel.process(self._sweep_loop(),
                                         name="observatory-slo")

    def stop(self) -> None:
        self._running = False

    def _sweep_loop(self):
        while self._running:
            yield self.kernel.timeout(self.interval)
            if not self._running:
                return
            self.evaluate()

    # -- evaluation -----------------------------------------------------------
    def _events(self, slo: SLOSpec, start: float,
                end: float) -> tuple[float, float]:
        """(bad, total) event counts for one SLO over [start, end]."""
        if slo.kind == "ratio":
            bad = _counter_delta(self.store, slo.bad_metric,
                                 slo.bad_selector, start, end)
            total = _counter_delta(self.store, slo.total_metric,
                                   slo.total_selector, start, end)
            return bad, total
        bad = 0.0
        total = 0.0
        for series in self.store.match(slo.metric, slo.selector):
            _, values = series.window(start, end)
            total += len(values)
            bad += sum(1 for value in values if value > slo.threshold)
        return bad, total

    def _burn(self, slo: SLOSpec, bad: float, total: float) -> float:
        if total < slo.min_events:
            return 0.0
        budget = max(1.0 - slo.target, 1e-9)
        return (bad / total) / budget

    def _status(self, slo: SLOSpec, now: float) -> dict[str, Any]:
        """One SLO's status row: whole-history budget, burn rate per
        rule, and the rules over their factor.  Reads only.  "Whole
        history" is ``[0, now]`` over the raw tier: what the ring has
        evicted is not counted (see :class:`SLOSpec`)."""
        bad, total = self._events(slo, 0.0, now)
        bad_fraction = bad / total if total else 0.0
        budget = max(1.0 - slo.target, 1e-9)
        burns = {rule.name: self._burn(slo, *self._events(
                     slo, max(0.0, now - rule.window), now))
                 for rule in slo.rules}
        return {"name": slo.name, "tenant": slo.tenant,
                "events": total, "bad": bad, "bad_fraction": bad_fraction,
                "budget_remaining":
                    max(0.0, min(1.0, 1.0 - bad_fraction / budget)),
                "burn": burns,
                "firing": [rule.name for rule in slo.rules
                           if burns[rule.name] > rule.factor]}

    def evaluate(self) -> list[dict[str, Any]]:
        """One sweep: burn rates per rule, firing state, typed alerts."""
        now = self.kernel.now
        self._tm_sweeps.inc()
        statuses = []
        for slo in self.slos:
            status = self._status(slo, now)
            for rule in slo.rules:
                key = (slo.name, rule.name)
                if rule.name not in status["firing"]:
                    self._firing.discard(key)
                elif key not in self._firing:
                    self._firing.add(key)
                    self._raise(slo, rule, status["burn"][rule.name],
                                status["budget_remaining"])
            statuses.append(status)
        return statuses

    def _raise(self, slo: SLOSpec, rule: BurnRateRule, burn: float,
               remaining: float) -> None:
        self._tm_alerts.inc()
        if self.alert_sink is None:
            return
        message = (f"SLO {slo.name}: {rule.name} burn rate "
                   f"{burn:.1f}x exceeds {rule.factor:.1f}x "
                   f"({remaining:.0%} budget left)")
        self.alert_sink("slo_burn", rule.severity, message,
                        detail={"slo": slo.name, "rule": rule.name,
                                "window": rule.window,
                                "factor": rule.factor, "burn": burn,
                                "budget_remaining": remaining,
                                "tenant": slo.tenant})

    # -- budget surfaces ------------------------------------------------------
    def budget_remaining(self) -> dict[str, float]:
        """Whole-history error budget remaining, keyed by SLO name."""
        return {status["name"]: status["budget_remaining"]
                for status in self.evaluate_quiet()}

    def evaluate_quiet(self) -> list[dict[str, Any]]:
        """Status dicts without mutating firing state or raising alerts."""
        now = self.kernel.now
        return [self._status(slo, now) for slo in self.slos]
