"""Seeded chaos campaigns over the full MOST assembly, and the one replay
every fault schedule runs through.

A campaign turns the paper's anecdotal fault history ("several network
interruptions ... a longer network failure at step 1493") into a
systematic robustness probe: a seeded RNG composes a randomized — but
fully deterministic — schedule of network and site faults over a real
:func:`~repro.most.assembly.build_most` deployment, runs the experiment
under a fault-tolerant coordinator (optionally with circuit breakers and
surrogate failover), and judges every run.

:func:`replay` is the one fault driver: it arms a schedule of
:class:`~repro.grid.ChaosEvent` on a deployment, runs the coordinator
(resuming from the checkpoint when a ``crash_*`` event aborts the first
incarnation) and collects the run's :class:`~repro.invariants.Evidence`
with :func:`evidence_of`.  A chaos run is its replay of a seeded plan on
MOST, the clean baseline the empty schedule's, and the protocol
verifier's bounded schedules are its replays on the verifier's two-site
rig (``repro.verify.explorer._Rig``).

Determinism contract: the RNG is consumed **only** while building the
:class:`ChaosPlan`.  Execution is driven entirely by the simulation
kernel and the deployment's own seeded generators, so the same seed
yields the same fault schedule, the same alerts at the same sim times,
and the same invariant verdicts — a failing seed is a reproducible bug
report, not a flake.

Each run is judged (:func:`check_invariants`) by every predicate of
:mod:`repro.invariants` over its own evidence — completion, monotone
commits, at-most-once, name reuse, orphaned names, command freshness and
degraded labeling — and, with no degradation, by bit-exactness: its
displacement/force histories equal (``np.array_equal``) a clean
same-config baseline's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.coordinator import NaiveFaultPolicy, load_resume
from repro.grid import ChaosEvent
from repro.invariants import PREDICATES, Evidence, Violation, judge
from repro.most.assembly import build_most
from repro.most.config import MOSTConfig
from repro.most.session import default_fail_step, default_most_fault_policy
from repro.repository.checkpoint import (
    CheckpointPolicy,
    InMemoryCheckpointStore,
)
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

    @property
    def schedule(self) -> tuple[ChaosEvent, ...]:
        """The events :func:`replay` arms: ``events``, then the fatal
        outage as a permanent ``outage``."""
        if not self.fatal_site:
            return self.events
        return (*self.events, ChaosEvent(
            kind="outage", step=self.fatal_step, site=self.fatal_site,
            duration=float("inf")))

    def describe(self) -> list[dict[str, Any]]:
        """JSON-friendly schedule (bench output, cross-run comparison),
        the fatal outage's kind spelt ``fatal_outage``."""
        rows = [asdict(e) for e in self.schedule]
        if self.fatal_site:
            rows[-1]["kind"] = "fatal_outage"
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


def evidence_of(grid, coordinator, result) -> Evidence:
    """What ``coordinator``'s run (``result``) left behind on ``grid``,
    for the predicates to judge: the sites' servers, the coordinator's
    failover manager (and so its surrogates), its final name for every
    step at every site, each site's DOFs, and the servers'
    ``core.server.propose`` spans."""
    return Evidence(
        result=result,
        servers={name: site.server for name, site in grid.sites.items()},
        failover=coordinator.failover,
        names={step: coordinator._step_names(step)
               for step in range(result.target_steps + 1)},
        dofs={site.name: site.dof_indices for site in coordinator.sites},
        proposals=grid.kernel.telemetry.tracer.spans("core.server.propose"))


def replay(deployment, schedule, *, run_id: str, failover: bool = False,
           watch=None) -> tuple[Evidence, Any]:
    """Run ``schedule`` on ``deployment``; returns the run's evidence
    (:func:`evidence_of`) and its last coordinator.

    ``deployment`` is a :class:`~repro.grid.Grid` with a
    ``make_coordinator(run_id=..., **options)``: MOST's
    :class:`~repro.most.assembly.MOSTDeployment` or the verifier's rig.
    With ``failover`` the deployment's ``make_failover()`` builds the
    run's breakers and surrogates first.  Every event is then armed up
    front (:meth:`~repro.grid.Grid.arm` refuses a bad one before the
    run), and the coordinator runs under
    :func:`~repro.most.session.default_most_fault_policy`; ``watch`` is
    called with the coordinator before it runs.

    A ``crash_*`` event instead runs incarnation 1 under the
    abort-on-first-failure policy into the armed fault (the verb's
    replies die and the link goes down), leaving an abort-time
    checkpoint; the link is then restored and incarnation 2 resumes from
    the checkpoint on the same grid, reconciling per PROTOCOL.md §7.
    """
    manager = deployment.make_failover() if failover else None
    for event in schedule:
        deployment.arm(event)
    crash = next((event for event in schedule
                  if event.kind.startswith("crash_")), None)
    options = {"run_id": run_id, "failover": manager}
    if crash is None:
        options["fault_policy"] = default_most_fault_policy()
    else:
        store = InMemoryCheckpointStore()
        options.update(fault_policy=NaiveFaultPolicy(),
                       checkpoint_store=store,
                       checkpoint_policy=CheckpointPolicy(every_n_steps=0))
        if deployment.run(deployment.make_coordinator(**options).run()) \
                .completed:
            raise ConfigurationError(
                f"crash replay at step {crash.step} did not abort")
        deployment.network.set_link_state(deployment.hub, crash.site,
                                          up=True)
        options["state"], options["prior_records"] = deployment.run(
            load_resume(store, run_id))
    coordinator = deployment.make_coordinator(**options)
    if watch is not None:
        watch(coordinator)
    result = deployment.run(coordinator.run())
    return evidence_of(deployment, coordinator, result), coordinator


def _check_run(evidence: Evidence, histories: list[tuple], *,
               expect_completion: bool,
               versus: str) -> tuple[dict[str, bool], list[str]]:
    """The per-run rules, once, under both sweeps: (checks, violations).

    Every predicate of :mod:`repro.invariants` over ``evidence``
    (``completion`` only when ``expect_completion``), and beside them
    bit-exactness: with zero degraded steps a completed run's every
    ``(got, expected)`` pair of ``histories`` — this run's against the
    clean ``versus`` run's, ``[]`` when there is none — is array-equal.
    ``checks`` maps each rule's key to whether it held.
    """
    keys = {"completion": "completed",
            "monotone-commits": "commit_sequence_monotone",
            "at-most-once": "no_double_execute",
            "name-reuse": "no_name_reuse",
            "orphaned-names": "no_orphaned_names",
            "command-freshness": "commands_fresh",
            "degraded-labeling": "degraded_labels"}
    found = judge(evidence, [name for name in PREDICATES
                             if expect_completion or name != "completion"])
    result = evidence.result
    if histories and result.completed and result.degraded_steps == 0:
        keys["bit-exact"] = f"bit_exact_vs_{versus}"
        if not all(np.array_equal(got, expected)
                   for got, expected in histories):
            found.append(Violation(
                "bit-exact", f"histories differ from the {versus} run "
                             f"despite zero degraded steps"))
    checks = {key: not any(v.invariant == name for v in found)
              for name, key in keys.items()}
    return checks, [v.detail for v in found]


def check_invariants(evidence: Evidence, *, baseline=None) -> dict[str, Any]:
    """Judge one chaos run's evidence by the per-run rules
    (:func:`_check_run`), bit-exact against ``baseline``'s result when
    one is given; returns verdicts plus a violations list."""
    result = evidence.result
    checks, violations = _check_run(
        evidence,
        [] if baseline is None else [
            (result.displacement_history(), baseline.displacement_history()),
            (result.force_history(), baseline.force_history())],
        expect_completion=True, versus="baseline")
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
    evidence: Evidence
    invariants: dict[str, Any]
    alerts: list[tuple] = field(default_factory=list)
    failover_events: list[dict] = field(default_factory=list)

    @property
    def result(self):
        """The run's :class:`~repro.coordinator.records.ExperimentResult`."""
        return self.evidence.result

    @property
    def ok(self) -> bool:
        return bool(self.invariants["ok"])

    def row(self) -> dict[str, Any]:
        result = self.result
        return {"seed": self.seed, "schedule": self.plan.describe(),
                "completed": result.completed,
                "steps_completed": result.steps_completed,
                "recoveries": result.recoveries, **self.invariants,
                "alerts": [list(a) for a in self.alerts],
                "failover_events": list(self.failover_events)}


class ChaosCampaign:
    """Run the MOST assembly under N seeded fault schedules.

    Each seed gets a fresh deployment (chaos must not leak between
    runs), and its :class:`ChaosPlan` is :func:`replay`-ed there — with
    breakers and surrogate failover when ``failover`` is on — then
    judged against a lazily built clean baseline, the empty schedule's
    replay.  ``monitor=True`` attaches the operations console so the
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

    @cached_property
    def baseline(self):
        """The clean same-config run chaos results must match bit-exact:
        the empty schedule's replay, built on first use."""
        dep = build_most(self.config)
        dep.start_backends()
        evidence, _ = replay(dep, (), run_id="chaos-baseline")
        dep.stop_observation()
        return evidence.result

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
        evidence, _ = replay(dep, plan.schedule, run_id=f"chaos-{seed}",
                             failover=self.failover,
                             watch=kit and kit.watch_coordinator)
        alerts = []
        if kit is not None:
            kit.stop()
            alerts = [(a.kind, a.severity, a.site, a.step)
                      for a in kit.monitor.alerts]
        dep.stop_observation()
        manager = evidence.failover
        return ChaosRunReport(
            seed=seed, plan=plan, evidence=evidence,
            invariants=check_invariants(evidence, baseline=self.baseline),
            alerts=alerts,
            failover_events=manager.report()["events"] if manager else [])

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
    alike; degraded-labeling reads the manager's events.  A fleet run's
    evidence carries no names, DOFs or propose spans, so name-reuse,
    orphaned-names and command-freshness hold vacuously here.

    ``fencing`` (a :class:`~repro.queue.fencing.FencingAuthority`'s
    ``report()`` dict, as ``CampaignResult.fencing`` holds it) adds this
    sweep's own rule, the zombie sweep: **no write from a stale epoch was
    ever accepted** (``stale_accepts`` must be empty), and every
    superseded epoch that tried to write was refused at least once.

    Returns ``{"ok", "violations", "by_run", "duplicate_executes"}``
    plus a ``"fencing"`` summary when a fencing report was passed.
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
            expect_completion=expect_completion, versus="solo")
        violations += [f"{run}: {detail}" for detail in found]
        total_duplicates += outcome.duplicate_executes()
    verdict: dict[str, Any] = {
        "violations": violations, "by_run": by_run,
        "duplicate_executes": total_duplicates}
    if fencing is not None:
        stale_accepts = fencing["stale_accepts"]
        if stale_accepts:
            violations.append(
                f"fencing: {len(stale_accepts)} stale-epoch writes were "
                f"ACCEPTED: {stale_accepts[:3]}…")
        current = fencing["current_epoch"]
        refused = fencing["refusals_by_epoch"]
        silent = [e["epoch"] for e in fencing.get("epochs", [])
                  if e["epoch"] < current and e["epoch"] not in refused]
        verdict["fencing"] = {
            "current_epoch": current,
            "refusals": len(fencing["refusals"]),
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
