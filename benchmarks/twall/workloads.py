"""The four T-WALL workloads: seeded inputs, one repetition, oracles.

A workload turns ``--seed`` into inputs once (a :class:`MOSTConfig`, or a
submission list plus a crash plan), builds its oracles during set-up, and
then runs the same single public call per repetition.  The program under
test only ever sees the generated inputs, never the seed.

Host clock (``perf_counter`` / ``process_time``) and sim clock
(``kernel.now``) are read side by side and kept in separate fields.  Host
times are corrected for machine-speed drift when a yardstick is running
(see yardstick.py); the raw reading is kept beside the corrected one.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.chaos import make_scheduler_crash_plan
from repro.fleet import SitePool, TenantRegistry, build_fleet_grid
from repro.most import ExperimentSession, MOSTConfig
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    QueueSubmission,
    attach_durable_repository,
    run_durable_campaign,
)

#: ``--seed 2003`` is the paper configuration (July 30, 2003)
PAPER_SEED = 2003
#: paper-seed peak |d|, final d and committed steps per workload, with
#: the rtol they are held to: loose enough for another BLAS build, far too
#: tight for changed physics
REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def derive_seeds(seed: int) -> dict[str, int]:
    """Motion, network and crash-plan seeds for one ``--seed``."""
    if seed == PAPER_SEED:
        return {"motion": 2003, "network": 730, "crash": 11}
    motion, network, crash = np.random.SeedSequence(seed).generate_state(3)
    return {"motion": int(motion), "network": int(network),
            "crash": int(crash)}


def host_cpu_s() -> float:
    """Host CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_call(call, yardstick):
    """Run ``call()`` between readings of both host clocks.

    Returns ``(result, clocks)`` where ``clocks`` holds the four clock
    fields of a :class:`Repetition`; with a running yardstick ``host_s``
    and ``cpu_s`` are corrected for the machine's speed over exactly this
    interval, else they are the raw readings and ``speed`` is 1.
    """
    mark = yardstick.mark() if yardstick else 0
    cpu0, host0 = host_cpu_s(), time.perf_counter()
    result = call()
    raw_host_s, raw_cpu_s = time.perf_counter() - host0, host_cpu_s() - cpu0
    slice_s, speed = yardstick.since(mark) if yardstick else (0.0, 1.0)
    return result, {"host_s": (raw_host_s - slice_s) * speed,
                    "cpu_s": (raw_cpu_s - slice_s) * speed,
                    "raw_host_s": raw_host_s, "speed": speed}


def history_digest(histories) -> str:
    """SHA-256 over displacement histories, in the order given."""
    sha = hashlib.sha256()
    for history in histories:
        sha.update(np.ascontiguousarray(history).tobytes())
    return sha.hexdigest()


def layer_counts(hub, steps: int, direct: dict[str, float]) -> dict:
    """The deterministic per-layer counts (names.COUNTS minus the one
    host-clock ratio): public telemetry folded by metric name (labels
    summed away, a histogram contributing its max), plus ``direct`` —
    values read off result objects."""
    totals: dict[str, float] = {}
    for record in hub.metrics_snapshot():
        if record["type"] == "histogram":
            key = record["name"] + ".max"
            totals[key] = max(totals.get(key, 0.0), record["summary"]["max"])
        else:
            totals[record["name"]] = (totals.get(record["name"], 0)
                                      + record["value"])

    def total(name):
        return totals.get(name, 0)

    counts = {
        "sim.events": total("sim.kernel.events"),
        "net.messages_sent": total("net.network.sent"),
        "net.dropped": total("net.network.dropped"),
        "net.rpc_calls": total("net.rpc.calls"),
        "net.rpc_retries": total("net.rpc.retries"),
        "core.proposed": total("core.server.proposed"),
        "core.executed": total("core.server.executed"),
        "core.duplicate_executes": total("core.server.duplicate_executes"),
        "nsds.samples_pushed": total("nsds.stream.pushed"),
        "repository.checkpoints": total("coordinator.checkpoint.writes"),
        "telemetry.series": len(hub.registry),
        "telemetry.spans": len(hub.spans()),
        "observatory.series": total("observatory.store.series"),
        "observatory.samples_ingested": total("observatory.store.samples"),
        "observatory.points": total("observatory.store.appends"),
        "fleet.leases_granted": total("fleet.pool.leases_granted"),
        "fleet.lease_wait_sim_s_max": total("fleet.pool.lease_wait.max"),
        "repository.files_ingested": 0, "monitor.alerts": 0,
        "queue.journal_entries": 0, "queue.redeliveries": 0,
        "queue.refusals": 0, "queue.stale_accepts": 0,
        **direct,
    }
    for name, per_step in (("sim.events", "sim.events_per_step"),
                           ("net.messages_sent", "net.messages_per_step"),
                           ("nsds.samples_pushed", "nsds.samples_per_step")):
        counts[per_step] = counts[name] / steps if steps else 0.0
    return counts


@dataclass
class Repetition:
    """What one repetition measured and what its oracles said."""

    host_s: float       # corrected by the yardstick when one is running
    cpu_s: float        # likewise
    raw_host_s: float   # perf_counter as read
    speed: float        # machine speed over the repetition, 1.0 = reference
    sim_s: float
    steps: int
    operations: int
    failed: int
    failures: list[str]
    digest: str
    counts: dict[str, float]
    #: peak |d|, final d, committed steps — compared with reference.json
    shape: dict[str, float] = field(default_factory=dict)


class MostWorkload:
    """One full-record MOST run per repetition (one operation)."""

    def __init__(self, name: str, seed: int, yardstick=None):
        self.name = name
        self.yardstick = yardstick
        seeds = derive_seeds(seed)
        self.config = MOSTConfig(motion_seed=seeds["motion"],
                                 network_seed=seeds["network"])
        self.oracle_digest: str | None = None

    def _session(self, name: str, config: MOSTConfig) -> ExperimentSession:
        if name == "most_bare":
            return ExperimentSession(config, simulation_only=True)
        session = ExperimentSession(config).with_observers()
        if name == "most_observed":
            session = session.with_observatory()
        return session

    def inputs(self) -> dict:
        """The generated inputs, for the output document."""
        return {"motion_seed": self.config.motion_seed,
                "network_seed": self.config.network_seed,
                "n_steps": self.config.n_steps}

    def set_up(self) -> None:
        """Build the cross-workload oracle, then warm up.

        ``most_observed`` must leave physics alone, so its oracle is a
        ``most_full`` run of the same inputs.  Every MOST workload warms up
        with a tenth-length run of itself: Python has nothing to compile,
        so a short run fills every cache a long one would, and the
        contract's time cap is better spent on timed repetitions.
        """
        if self.name == "most_observed":
            self.oracle_digest = self._run("most_full", self.config).digest
        self._run(self.name, self.config.scaled(self.config.n_steps // 10))

    def repeat(self) -> Repetition:
        rep = self._run(self.name, self.config)
        if self.oracle_digest not in (None, rep.digest):
            rep.failures.append("displacement history differs from the "
                                "most_full run of the same inputs")
            rep.failed = 1
        return rep

    def _run(self, name: str, config: MOSTConfig) -> Repetition:
        outcome, clocks = timed_call(
            lambda: self._session(name, config).run(), self.yardstick)

        dep = outcome.deployment
        history = outcome.result.displacement_history()
        digest = history_digest([history])
        duplicates = sum(site.server.metrics()["duplicate_executes"]
                         for site in dep.sites.values())
        failures = []
        if not outcome.completed:
            failures.append(f"not completed: {outcome.result.aborted_reason}")
        if outcome.steps_completed != config.n_steps - 1:
            failures.append(f"committed {outcome.steps_completed} steps, "
                            f"expected {config.n_steps - 1}")
        if duplicates:
            failures.append(f"{duplicates} duplicate executes")
        counts = layer_counts(
            dep.kernel.telemetry, outcome.steps_completed,
            {"repository.files_ingested": outcome.files_ingested,
             "monitor.alerts": len(outcome.alerts)})
        return Repetition(
            **clocks, sim_s=dep.kernel.now,
            steps=outcome.steps_completed, operations=1,
            failed=1 if failures else 0, failures=failures, digest=digest,
            counts=counts,
            shape={"peak_abs_d": float(np.max(np.abs(history))),
                   "final_d": float(np.ravel(history)[-1]),
                   "steps": outcome.steps_completed})


class CampaignWorkload:
    """One durable campaign per repetition: 120 operations."""

    name = "campaign_durable"
    N_SITES, N_TENANTS, RUNS_PER_TENANT = 8, 24, 5
    N_STEPS, CHECKPOINT_EVERY = 30, 5
    N_CRASHES, TAKEOVER_DELAY = 3, 25.0

    def __init__(self, seed: int, yardstick=None):
        self.yardstick = yardstick
        seeds = derive_seeds(seed)
        self.crash_seed = seeds["crash"]
        self.config = MOSTConfig(motion_seed=seeds["motion"],
                                 network_seed=seeds["network"])
        # Each tenant sweeps its own ground-motion intensity, so the
        # per-run bit-exactness oracle compares 24 distinct histories.
        self.submissions = [
            QueueSubmission(
                submission_id=f"t{tenant:02d}-r{run}", tenant=f"t{tenant:02d}",
                n_steps=self.N_STEPS, n_sites=1,
                motion_scale=0.75 + 0.5 * tenant / (self.N_TENANTS - 1),
                checkpoint_every=self.CHECKPOINT_EVERY)
            for tenant in range(self.N_TENANTS)
            for run in range(self.RUNS_PER_TENANT)]
        self.reference: dict[str, np.ndarray] = {}
        self.crash_times: tuple[float, ...] = ()

    def inputs(self) -> dict:
        """The generated inputs, for the output document."""
        return {"motion_seed": self.config.motion_seed,
                "crash_seed": self.crash_seed,
                "crash_times_sim_s": list(self.crash_times),
                "submissions": len(self.submissions)}

    def _campaign(self, submissions, *, durable: bool, crash_times=()):
        grid = build_fleet_grid(self.N_SITES, config=self.config)
        pool = SitePool(grid.kernel, grid.sites.values())
        registry = TenantRegistry(grid)
        store = (attach_durable_repository(grid, name="twall") if durable
                 else InMemoryJournalStore())
        queue = ExperimentQueue(grid.kernel, store,
                                FencingAuthority(grid.kernel))
        result = run_durable_campaign(
            grid, pool, registry, queue, submissions,
            crash_after=tuple(crash_times),
            takeover_delay=self.TAKEOVER_DELAY)
        return result, store, grid

    def set_up(self) -> None:
        """Uncrashed in-memory-journal reference: the bit-exactness oracle,
        the bound of the seeded crash window, and the warm-up (it is a
        full-size campaign through every layer but the repository journal
        and the recovery path)."""
        baseline, _, _ = self._campaign(self.submissions, durable=False)
        self.reference = baseline.histories()
        duration = baseline.summary()["duration"]
        # Kill times count from each incarnation's drain start; the window
        # stays well below the uncrashed duration so every successor
        # inherits in-flight work and every zombie has a write to be
        # refused (same window as BENCH_tqueue).
        self.crash_times = make_scheduler_crash_plan(
            self.crash_seed, n_crashes=self.N_CRASHES,
            window=(0.03 * duration, 0.10 * duration))

    def repeat(self) -> Repetition:
        # One submission is deliberately submitted twice: dedupe oracle.
        submitted = self.submissions + [self.submissions[0]]
        (result, store, grid), clocks = timed_call(
            lambda: self._campaign(submitted, durable=True,
                                   crash_times=self.crash_times),
            self.yardstick)

        summary = result.summary()
        by_run = {outcome.run_id: outcome for outcome in result.outcomes
                  if outcome.completed}
        failures = []
        for run_id, oracle in self.reference.items():
            outcome = by_run.get(run_id)
            if outcome is None:
                failures.append(f"{run_id}: not completed")
            elif outcome.result.steps_completed != self.N_STEPS - 1:
                failures.append(f"{run_id}: committed "
                                f"{outcome.result.steps_completed} steps")
            elif outcome.duplicate_executes():
                failures.append(f"{run_id}: duplicate executes")
            elif not np.array_equal(
                    outcome.result.displacement_history(), oracle):
                failures.append(f"{run_id}: history differs from the "
                                "uncrashed reference")
        operations = len(self.submissions)
        failed = len(failures)
        by_epoch = result.fencing["refusals_by_epoch"]
        unrefused = [epoch for epoch in range(1, self.N_CRASHES + 1)
                     if by_epoch.get(epoch, 0) < 1]
        campaign_wide = []
        if summary["submissions"] != operations:
            campaign_wide.append("resubmitted id was not deduped")
        if summary["stale_accepts"]:
            campaign_wide.append(f"{summary['stale_accepts']} stale-epoch "
                                 "writes accepted")
        if summary["duplicate_executes"]:
            campaign_wide.append(f"{summary['duplicate_executes']} "
                                 "duplicate executes")
        if unrefused:
            campaign_wide.append(f"crash epochs never refused: {unrefused}")
        if campaign_wide:
            # A broken campaign-wide guarantee taints every run in it.
            failures.extend(campaign_wide)
            failed = operations

        histories = [by_run[run_id].result.displacement_history()
                     for run_id in sorted(by_run)]
        steps = sum(outcome.result.steps_completed
                    for outcome in by_run.values())
        counts = layer_counts(
            grid.kernel.telemetry, steps,
            {"repository.files_ingested": len(store.repo_store),
             "queue.journal_entries": store.appended,
             "queue.redeliveries": summary["redeliveries"],
             "queue.refusals": summary["refusals"],
             "queue.stale_accepts": summary["stale_accepts"]})
        return Repetition(
            **clocks, sim_s=grid.kernel.now, steps=steps,
            operations=operations, failed=failed, failures=failures,
            digest=history_digest(histories), counts=counts,
            shape={"peak_abs_d": max((float(np.max(np.abs(h)))
                                      for h in histories), default=0.0),
                   "final_d": (float(np.ravel(histories[-1])[-1])
                               if histories else 0.0),
                   "steps": steps})


def make_workload(name: str, seed: int, yardstick=None):
    """The workload object for ``name`` with inputs generated from ``seed``."""
    if name == CampaignWorkload.name:
        return CampaignWorkload(seed, yardstick)
    return MostWorkload(name, seed, yardstick)


def check_against_reference(name: str, shape: dict[str, float]) -> list[str]:
    """Paper-seed guard: compare a repetition's shape with reference.json."""
    reference = json.loads(REFERENCE_PATH.read_text())
    misses = []
    for key, want in reference["workloads"][name].items():
        got = shape[key]
        if not math.isclose(got, want, rel_tol=reference["rtol"]):
            misses.append(f"{key} = {got!r}, reference.json has {want!r}")
    return misses
