"""Seeded chaos campaigns over the full MOST assembly.

A campaign turns the paper's anecdotal fault history ("several network
interruptions ... a longer network failure at step 1493") into a
systematic robustness probe: a seeded RNG composes a randomized — but
fully deterministic — schedule of network and site faults over a real
:func:`~repro.most.assembly.build_most` deployment, runs the experiment
under a fault-tolerant coordinator (optionally with circuit breakers and
surrogate failover), and checks protocol invariants after every run.

Determinism contract: the RNG is consumed **only** while building the
:class:`ChaosPlan`.  Execution is driven entirely by the simulation
kernel and the deployment's own seeded generators, so the same seed
yields the same fault schedule, the same alerts at the same sim times,
and the same invariant verdicts — a failing seed is a reproducible bug
report, not a flake.

Invariants checked per run (:func:`check_invariants`), each stated once
in :mod:`repro.invariants` and read off the run's own evidence:

* the run completed (or, for naive-policy control runs, aborted where
  expected);
* the committed step sequence is contiguous and strictly monotone;
* no transaction was physically executed twice — every duplicate
  execute request was absorbed by NTCP's at-most-once idempotency (each
  server's executions equal its executed transactions, and no site
  executed two names of one step), on an aborted run as on a completed
  one;
* with no degradation, displacement/force histories are **bit-exact**
  (``np.array_equal``) against a clean same-config baseline;
* degraded step labels exactly track the failover/readmission windows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.coordinator import FaultTolerantFaultPolicy
from repro.grid import ChaosEvent
from repro.invariants import Evidence, judge
from repro.most.assembly import MOSTDeployment, build_most
from repro.most.config import MOSTConfig
from repro.most.session import default_fail_step, default_most_fault_policy
from repro.util.errors import ConfigurationError

#: fault vocabulary a plan draws from, all site-targeted.  The per-event
#: kind draw indexes ``rng.integers(len(CHAOS_KINDS))``, so growing the
#: tuple would silently reshuffle every existing seed's schedule (a
#: scheduler's death is :func:`make_scheduler_crash_plan`, not a kind).
CHAOS_KINDS = ("transient_drop", "duplicate", "reorder", "corrupt",
               "jitter", "crash", "outage")
#: sites a plan may target
CHAOS_SITES = ("uiuc", "cu", "ncsa")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule: ``make_plan(seed, ...)`` output."""

    seed: int
    n_steps: int
    events: tuple[ChaosEvent, ...]
    #: a permanent coordinator—site outage near the end, forcing failover
    fatal_site: str = ""
    fatal_step: int = 0

    def describe(self) -> list[dict[str, Any]]:
        """JSON-friendly schedule (bench output, cross-run comparison)."""
        rows = [asdict(e) for e in self.events]
        if self.fatal_site:
            rows.append(asdict(ChaosEvent(
                kind="fatal_outage", step=self.fatal_step,
                site=self.fatal_site, duration=float("inf"))))
        return rows


def make_plan(seed: int, config: MOSTConfig, *, n_events: int = 5,
              force_failover: bool = False) -> ChaosPlan:
    """Draw a deterministic fault schedule from ``seed``.

    Faults land on steps in the middle 80% of the run (step 0 and the
    final step are protocol edges better exercised deliberately), with
    durations bounded so a fault-tolerant coordinator *can* ride each
    one out — the point of a recoverable campaign is that it recovers.
    With ``force_failover`` the plan ends in a permanent outage at the
    paper's fatal fraction of the run, so only surrogate failover can
    finish the experiment.
    """
    if n_events < 0:
        raise ConfigurationError("n_events must be >= 0")
    rng = np.random.default_rng(seed)
    n_steps = config.n_steps
    lo = max(1, round(n_steps * 0.1))
    hi = max(lo + 1, round(n_steps * 0.9))
    events = []
    for _ in range(n_events):
        kind = CHAOS_KINDS[int(rng.integers(len(CHAOS_KINDS)))]
        site = CHAOS_SITES[int(rng.integers(len(CHAOS_SITES)))]
        step = int(rng.integers(lo, hi))
        duration = 0.0
        count = 1
        magnitude = 0.0
        if kind == "outage":
            duration = float(rng.uniform(30.0, 180.0))
        elif kind == "crash":
            duration = float(rng.uniform(20.0, 90.0))
        elif kind == "jitter":
            duration = float(rng.uniform(60.0, 240.0))
            magnitude = float(rng.uniform(0.02, 0.2))
        elif kind in ("transient_drop", "duplicate", "reorder", "corrupt"):
            count = int(rng.integers(1, 3))
        events.append(ChaosEvent(kind=kind, step=step, site=site,
                                 duration=duration, count=count,
                                 magnitude=magnitude))
    events.sort(key=lambda e: (e.step, e.site, e.kind))
    fatal_site = ""
    fatal_step = 0
    if force_failover:
        fatal_site = CHAOS_SITES[int(rng.integers(len(CHAOS_SITES)))]
        fatal_step = default_fail_step(config)
    return ChaosPlan(seed=seed, n_steps=n_steps, events=tuple(events),
                     fatal_site=fatal_site, fatal_step=fatal_step)


def arm_plan(dep: MOSTDeployment, plan: ChaosPlan) -> None:
    """Arm every event of ``plan`` on a freshly built deployment (see
    :meth:`~repro.grid.Grid.arm`, which refuses a bad event before the
    run)."""
    for event in plan.events:
        dep.arm(event)
    if plan.fatal_site:
        dep.arm(ChaosEvent(kind="outage", step=plan.fatal_step,
                           site=plan.fatal_site, duration=float("inf")))


def _check_run(evidence: Evidence, histories: list[tuple], *,
               expect_completion: bool, label: str,
               versus: str) -> tuple[dict[str, bool], list[str]]:
    """The per-run rules, once, under both sweeps: (checks, violations).

    * :mod:`repro.invariants`' completion (when ``expect_completion``),
      monotone-commits and at-most-once, judged over ``evidence``, under
      this sweep's ``checks`` names;
    * with zero degraded steps a completed run is bit-exact: every
      ``(got, expected)`` pair of ``histories`` — this run's against the
      clean ``versus`` run's, ``[]`` when there is none — is array-equal;
    * degraded-labeling against the failover manager's events (checked
      ``degraded_labels``; holds trivially for a run without one).

    ``label`` prefixes each violation with the run it is about.
    """
    keys = {"completion": "completed",
            "monotone-commits": "commit_sequence_monotone",
            "at-most-once": "no_double_execute"}
    found = judge(evidence, [name for name in keys
                             if expect_completion or name != "completion"])
    checks = {key: not any(v.invariant == name for v in found)
              for name, key in keys.items()}
    violations = [label + v.detail for v in found]
    result = evidence.result
    if histories and result.completed and result.degraded_steps == 0:
        exact = all(np.array_equal(got, expected)
                    for got, expected in histories)
        checks[f"bit_exact_vs_{versus}"] = exact
        if not exact:
            violations.append(
                f"{label}histories differ from the {versus} run despite "
                f"zero degraded steps")
    labels = judge(evidence, ["degraded-labeling"])
    checks["degraded_labels"] = not labels
    violations += [label + v.detail for v in labels]
    return checks, violations


def check_invariants(result, dep: MOSTDeployment, *, baseline=None,
                     failover=None) -> dict[str, Any]:
    """Judge one chaos run; returns verdicts plus a violations list.

    The per-run rules (:func:`_check_run`) over the whole deployment:
    its sites' real servers, any surrogate still serving, and the
    failover manager's events.
    """
    evidence = Evidence(
        result=result,
        servers={name: site.server for name, site in dep.sites.items()},
        failover=failover)
    checks, violations = _check_run(
        evidence,
        [] if baseline is None else [
            (result.displacement_history(), baseline.displacement_history()),
            (result.force_history(), baseline.force_history())],
        expect_completion=True, label="", versus="baseline")
    return {"checks": checks, "violations": violations,
            "ok": not violations,
            "duplicate_executes": sum(server.metrics()["duplicate_executes"]
                                      for server in evidence.servers.values()),
            "degraded_steps": result.degraded_steps}


@dataclass
class ChaosRunReport:
    """Everything one seed's run produced, JSON-friendly via ``row()``."""

    seed: int
    plan: ChaosPlan
    result: Any
    invariants: dict[str, Any]
    alerts: list[tuple] = field(default_factory=list)
    failover_events: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.invariants["ok"])

    def row(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "schedule": self.plan.describe(),
                "completed": self.result.completed,
                "steps_completed": self.result.steps_completed,
                "recoveries": self.result.recoveries,
                "degraded_steps": self.invariants["degraded_steps"],
                "duplicate_executes": self.invariants["duplicate_executes"],
                "checks": dict(self.invariants["checks"]),
                "violations": list(self.invariants["violations"]),
                "alerts": [list(a) for a in self.alerts],
                "failover_events": list(self.failover_events),
                "ok": self.ok}


class ChaosCampaign:
    """Run the MOST assembly under N seeded fault schedules.

    Each seed gets a fresh deployment (chaos must not leak between
    runs), the seed's :class:`ChaosPlan`, a fault-tolerant coordinator
    — with breakers and surrogate failover when ``failover`` is on —
    and a post-run invariant sweep against a lazily built clean
    baseline.  ``monitor=True`` attaches the operations console so the
    alert feed joins each report (and stays deterministic per seed).
    """

    def __init__(self, config: MOSTConfig | None = None, *,
                 n_events: int = 5, force_failover: bool = False,
                 failover: bool = True, monitor: bool = False):
        self.config = config or MOSTConfig()
        self.n_events = n_events
        self.force_failover = force_failover
        self.failover = failover
        self.monitor = monitor
        self._baseline = None

    def baseline(self):
        """The clean same-config run chaos results must match bit-exact."""
        if self._baseline is None:
            dep = build_most(self.config)
            dep.start_backends()
            coordinator = dep.make_coordinator(
                run_id="chaos-baseline",
                fault_policy=FaultTolerantFaultPolicy())
            self._baseline = dep.kernel.run(
                until=dep.kernel.process(coordinator.run()))
            dep.stop_observation()
        return self._baseline

    def run_one(self, seed: int) -> ChaosRunReport:
        plan = make_plan(seed, self.config, n_events=self.n_events,
                         force_failover=self.force_failover)
        dep = build_most(self.config)
        dep.start_backends()
        kit = None
        if self.monitor:
            from repro.monitor import attach_monitoring

            kit = attach_monitoring(dep)
            kit.start()
        manager = dep.make_failover() if self.failover else None
        arm_plan(dep, plan)
        coordinator = dep.make_coordinator(
            run_id=f"chaos-{seed}",
            fault_policy=default_most_fault_policy(), failover=manager)
        if kit is not None:
            kit.watch_coordinator(coordinator)
        result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))
        if kit is not None:
            kit.stop()
        dep.stop_observation()
        invariants = check_invariants(result, dep, baseline=self.baseline(),
                                      failover=manager)
        alerts = []
        if kit is not None:
            alerts = [(a.kind, a.severity, a.site, a.step)
                      for a in kit.monitor.alerts]
        failover_events = manager.report()["events"] if manager else []
        return ChaosRunReport(seed=seed, plan=plan, result=result,
                              invariants=invariants, alerts=alerts,
                              failover_events=failover_events)

    def run(self, seeds) -> list[ChaosRunReport]:
        return [self.run_one(int(seed)) for seed in seeds]


# ---------------------------------------------------------------------------
# Multi-tenant (fleet) extension: seeded outages on *shared* sites plus the
# per-tenant form of the invariant sweep.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetOutage:
    """One scheduled coordinator—site link outage on a shared pool site.

    Fleet outages are wall-clock (simulated time) rather than
    step-triggered: a pooled site serves many tenants' steps, so "site-3
    is down from t=40 for 25 s" is the natural failure unit — whoever
    holds the lease at the time eats the fault.
    """

    site: str
    start: float
    duration: float


def make_fleet_outage_plan(seed: int, site_names, *, n_events: int = 4,
                           window: tuple[float, float] = (10.0, 300.0),
                           duration: tuple[float, float] = (5.0, 40.0),
                           ) -> list[FleetOutage]:
    """Draw a deterministic schedule of shared-site outages from ``seed``.

    Durations are bounded so a fault-tolerant tenant *can* retry through
    each one; the fairness question the fleet tests ask is whether the
    tenant unlucky enough to hold the faulted lease still finishes in
    bounded time relative to its neighbours.
    """
    if n_events < 0:
        raise ConfigurationError("n_events must be >= 0")
    sites = list(site_names)
    if not sites:
        raise ConfigurationError("a fleet outage plan needs target sites")
    rng = np.random.default_rng(seed)
    events = [FleetOutage(
        site=sites[int(rng.integers(len(sites)))],
        start=float(rng.uniform(*window)),
        duration=float(rng.uniform(*duration)))
        for _ in range(n_events)]
    events.sort(key=lambda e: (e.start, e.site))
    return events


def arm_fleet_outages(grid, plan) -> None:
    """Install a fleet outage plan on a grid (duck-typed: needs ``faults``).

    Links are taken down between ``coord`` and each event's site host —
    on a fleet grid, site name == host name.
    """
    for event in plan:
        grid.faults.schedule_outage("coord", event.site, start=event.start,
                                    duration=event.duration)


def check_fleet_invariants(outcomes, *, baselines=None,
                           expect_completion: bool = True,
                           fencing=None) -> dict[str, Any]:
    """The invariant sweep, per tenant, over a fleet run's outcomes.

    ``outcomes`` is an iterable of
    :class:`~repro.fleet.scheduler.TenantOutcome` (a campaign's
    deliveries); ``baselines`` maps ``run_id`` to a solo displacement history
    (:func:`~repro.fleet.scheduler.solo_displacement_history`).  Each
    outcome is judged by the per-run rules (:func:`_check_run`) over its
    *lease* and its failover manager: at-most-once reads each leased
    site's server, whose transactions of other runs the run's own names
    set apart, so it holds for a degraded run and a redelivered one
    alike; degraded-labeling reads the manager's events.

    ``fencing`` (a :class:`~repro.queue.fencing.FencingAuthority` or its
    ``report()`` dict) adds this sweep's own rule, the zombie sweep: **no
    write from a stale epoch was ever accepted** (``stale_accepts`` must
    be empty), and every superseded epoch that tried to write was
    refused at least once.

    Returns ``{"ok", "violations", "by_run", "duplicate_executes"}``
    plus a ``"fencing"`` summary when a fencing authority was passed.
    """
    violations: list[str] = []
    by_run: dict[str, dict[str, bool]] = {}
    total_duplicates = 0
    for outcome in outcomes:
        result = outcome.result
        run = f"{outcome.tenant}/{outcome.run_id}"
        solo = (baselines or {}).get(outcome.run_id)
        by_run[run], found = _check_run(
            Evidence(result=result, servers={
                site.name: site.server for site in outcome.lease.sites},
                failover=outcome.failover),
            [] if solo is None else [(result.displacement_history(), solo)],
            expect_completion=expect_completion, label=f"{run}: ",
            versus="solo")
        violations += found
        total_duplicates += outcome.duplicate_executes()
    verdict: dict[str, Any] = {
        "violations": violations, "by_run": by_run,
        "duplicate_executes": total_duplicates}
    if fencing is not None:
        report = fencing.report() if hasattr(fencing, "report") else fencing
        stale_accepts = report["stale_accepts"]
        if stale_accepts:
            violations.append(
                f"fencing: {len(stale_accepts)} stale-epoch writes were "
                f"ACCEPTED: {stale_accepts[:3]}…")
        current = report["current_epoch"]
        refused = report["refusals_by_epoch"]
        silent = [e["epoch"] for e in report.get("epochs", [])
                  if e["epoch"] < current and e["epoch"] not in refused]
        verdict["fencing"] = {
            "current_epoch": current,
            "refusals": len(report["refusals"]),
            "refusals_by_epoch": dict(refused),
            "stale_accepts": len(stale_accepts),
            "superseded_epochs_never_refused": silent,
        }
    return {"ok": not violations, **verdict}


def make_scheduler_crash_plan(seed: int, *, n_crashes: int = 3,
                              window: tuple[float, float] = (10.0, 90.0)
                              ) -> tuple[float, ...]:
    """Draw deterministic scheduler-crash delays for a durable campaign.

    Returns the ``crash_after`` tuple for
    :func:`~repro.queue.scheduler.run_durable_campaign`: each entry is
    how long the corresponding incarnation lives before it is killed
    mid-flight.
    """
    if n_crashes < 0:
        raise ConfigurationError("n_crashes must be >= 0")
    rng = np.random.default_rng(seed)
    return tuple(float(rng.uniform(*window)) for _ in range(n_crashes))


def make_repo_outage_plan(seed: int) -> list[FleetOutage]:
    """Two seeded repository outages for a durable campaign (the
    coord—repo link, 5–20 s each, within the first two minutes).

    The queue's claim and terminal appends cross this link; the
    :class:`~repro.net.retry.RetryPolicy` on the journal store must ride
    each outage out, delaying the append instead of losing it.  Arm with
    :func:`arm_fleet_outages` — on a fleet grid the repository's host
    name is ``repo``.
    """
    return make_fleet_outage_plan(seed, ["repo"], n_events=2,
                                  window=(10.0, 120.0),
                                  duration=(5.0, 20.0))
