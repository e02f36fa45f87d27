"""Conformance replay: the abstract model vs the live coordinator.

The model checker is only as good as its transition relation, so every
``make verify`` run replays every explored trace through a *real*
deployment — :class:`~repro.coordinator.mspsds.SimulationCoordinator`
driving genuine NTCP servers over the simulated network, with the same
faults injected at the same message points — and compares the live
observables 1:1 against the model's :attr:`TraceResult.expected` tables:
per-site transaction counters (real and surrogate), completion, the
committed-step ledger, resume generation, degraded labels, the §7
reconciliation classification, and the §9 pipeline counters.  Any
divergence fails the verification run: either the implementation drifted
from PROTOCOL.md or the model did, and both are bugs.

A schedule's :class:`repro.grid.ChaosEvent` events are armed up front
through :meth:`repro.grid.Grid.arm` like the chaos campaigns' and the
public day's: a watcher on the wire recognises the step's marker inside
the site's request of the fault's NTCP operation and installs the fault
at that exact message point, so replays land each fault
deterministically regardless of pacing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coordinator import (
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
    load_resume,
)
from repro.core.policy import SitePolicy
from repro.grid import ChaosEvent, Grid
from repro.repository.checkpoint import (
    CheckpointPolicy,
    InMemoryCheckpointStore,
)
from repro.structural import StructuralModel, el_centro_like
from repro.util.errors import ConfigurationError
from repro.verify.explorer import ExplorationResult
from repro.verify.model import (
    BACKOFF,
    BACKOFF_FACTOR,
    COMPUTE_TIME,
    DT,
    EXECUTION_TIMEOUT,
    LATENCY,
    MAX_ATTEMPTS,
    MAX_BACKOFF,
    RPC_RETRIES,
    RPC_TIMEOUT,
    SITE_STIFFNESS,
    SITES,
    TraceResult,
    VerifyConfig,
)

__all__ = ["Divergence", "replay_trace", "run_conformance"]

#: the counters the model commits to (subset of the server's STAT_KEYS).
COUNTER_KEYS = ("proposed", "executed", "cancelled",
                "duplicate_proposals", "duplicate_executes")

#: pipeline telemetry counters compared for pipelined replays.
PIPELINE_KEYS = ("speculated", "hits", "mispredicts", "drains")

_RUN_ID = "verify"


@dataclass(frozen=True)
class Divergence:
    """One observable where the live replay disagrees with the model."""

    path: str
    model: object
    live: object


class _Rig:
    """The model's deployment as one live :class:`~repro.grid.Grid`, with
    the experiment every replay of a :class:`VerifyConfig` runs on it."""

    def __init__(self, config: VerifyConfig, *, with_failover: bool = False):
        self.config = config
        self.grid = grid = Grid.star()
        self.stiffness = dict.fromkeys(SITES, SITE_STIFFNESS)
        grid.add_simulation_sites(self.stiffness, latency=LATENCY,
                                  compute_time=COMPUTE_TIME)
        self.model = StructuralModel(
            mass=[[2.0]], stiffness=[[100.0]]).with_rayleigh_damping(0.05)
        # n_steps committed steps need n_steps + 1 motion samples (the
        # extra one is the step-0 rest measurement).
        self.motion = el_centro_like(
            duration=(config.n_steps + 1) * DT, dt=DT).scaled_to_pga(1.0)
        self.client = grid.client(timeout=RPC_TIMEOUT, retries=RPC_RETRIES)
        self.sites = grid.bindings()
        self.failover = grid.failover(
            self.stiffness, port="ogsi-failover", compute_time=COMPUTE_TIME,
            surrogate_name="{}-surrogate".format,
            site_policy=SitePolicy()) if with_failover else None

    def make_coordinator(self, **options) -> SimulationCoordinator:
        """A coordinator over this rig's sites, per the config's mode
        (pipelined replays get a fresh bit-exact predictor — the same
        linear substructures as the sites); ``options`` go to
        :class:`SimulationCoordinator` untouched."""
        predictor = None
        if self.config.pipeline_depth:
            predictor = self.grid.predictor(self.stiffness,
                                            name="{}-predictor".format)
        return SimulationCoordinator(
            run_id=_RUN_ID, client=self.client, model=self.model,
            motion=self.motion, sites=self.sites,
            execution_timeout=EXECUTION_TIMEOUT, failover=self.failover,
            predictor=predictor, **options)


def _observe(rig: _Rig, result, coordinator) -> dict:
    """The live observables, shaped exactly like the model's expected."""

    def counters(server) -> dict:
        metrics = server.metrics()
        return {key: metrics[key] for key in COUNTER_KEYS}

    active = rig.failover.active if rig.failover is not None else {}
    per_site = {site: {"real": counters(rig.grid.sites[site].server),
                       "surrogate": (counters(active[site].server)
                                     if site in active else None)}
                for site in SITES}
    reconcile = {}
    if coordinator.last_reconciliation is not None:
        reconcile = {action.site: action.action
                     for action in coordinator.last_reconciliation.actions}
    pipeline = None
    if rig.config.pipeline_depth:
        telemetry = rig.grid.kernel.telemetry
        pipeline = {key: telemetry.counter(f"coordinator.pipeline.{key}",
                                           run_id=_RUN_ID).value
                    for key in PIPELINE_KEYS}
    return {
        "completed": result.completed,
        "committed_steps": [record.step for record in result.steps],
        "generation": coordinator.state.generation,
        "degraded": {str(record.step): sorted(record.degraded)
                     for record in result.steps if record.degraded},
        "sites": per_site,
        "reconcile": reconcile,
        "pipeline": pipeline,
    }


def _replay(config: VerifyConfig, schedule: tuple[ChaosEvent, ...]) -> dict:
    """Run ``schedule`` through one live rig with every event armed up
    front; returns the live observables.

    A fatal outage builds the rig with failover.  A crash runs
    incarnation 1 under the abort-on-first-failure policy into the armed
    fault (the verb's replies die and the link goes down), leaving an
    abort-time checkpoint; the link is then restored and incarnation 2
    resumes from the checkpoint on the same grid, reconciling per the §7
    table.
    """
    rig = _Rig(config, with_failover=any(
        event.kind == "fatal_outage_propose" for event in schedule))
    for event in schedule:
        rig.grid.arm(event)
    crash = next((event for event in schedule
                  if event.kind.startswith("crash_")), None)
    if crash is None:
        coordinator = rig.make_coordinator(
            fault_policy=FaultTolerantFaultPolicy(  # the model's arithmetic
                max_attempts=MAX_ATTEMPTS, backoff=BACKOFF,
                backoff_factor=BACKOFF_FACTOR, max_backoff=MAX_BACKOFF))
        return _observe(rig, rig.grid.run(coordinator.run()), coordinator)
    store = InMemoryCheckpointStore()
    options = {"fault_policy": NaiveFaultPolicy(), "checkpoint_store": store,
               "checkpoint_policy": CheckpointPolicy(every_n_steps=0)}
    if rig.grid.run(rig.make_coordinator(**options).run()).completed:
        raise ConfigurationError(
            f"crash replay at step {crash.step} did not abort")
    rig.grid.network.set_link_state("coord", crash.site, up=True)
    state, prior_records = rig.grid.run(load_resume(store, _RUN_ID))
    second = rig.make_coordinator(state=state, prior_records=prior_records,
                                  **options)
    return _observe(rig, rig.grid.run(second.run()), second)


def _diff(path: str, model_value, live_value,
          out: list[Divergence]) -> None:
    """Structural comparison; model ``None`` means *not committed to*."""
    if model_value is None:
        return
    if isinstance(model_value, dict):
        if not isinstance(live_value, dict):
            out.append(Divergence(path, model_value, live_value))
            return
        for key in sorted(set(model_value) | set(live_value)):
            _diff(f"{path}.{key}", model_value.get(key),
                  live_value.get(key) if live_value else None, out)
        return
    if model_value != live_value:
        out.append(Divergence(path, model_value, live_value))


def replay_trace(config: VerifyConfig,
                 trace: TraceResult) -> list[Divergence]:
    """Replay one explored trace through a live rig; returns every
    observable where the live run departs from the model's tables."""
    divergences: list[Divergence] = []
    _diff("$", trace.expected, _replay(config, trace.schedule), divergences)
    return divergences


def run_conformance(exploration: ExplorationResult,
                    ) -> list[tuple[TraceResult, Divergence]]:
    """Replay every explored trace; returns each divergence with the
    trace it came from."""
    return [(trace, divergence) for trace in exploration.traces
            for divergence in replay_trace(exploration.config, trace)]
