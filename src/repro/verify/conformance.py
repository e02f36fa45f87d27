"""Conformance replay: the abstract model vs the live coordinator.

The model checker is only as good as its transition relation, so every
``make verify`` run replays a sampled subset of explored traces through a
*real* deployment — :class:`~repro.coordinator.mspsds.SimulationCoordinator`
driving genuine NTCP servers over the simulated network, with the same
fault injected at the same message point — and compares the live
observables 1:1 against the model's :attr:`TraceResult.expected` tables:
per-site transaction counters (real and surrogate), completion, the
committed-step ledger, resume generation, degraded labels, the §7
reconciliation classification, and the §9 pipeline counters.  Any
divergence fails the verification run: either the implementation drifted
from PROTOCOL.md or the model did, and both are bugs.

Faults are armed through :meth:`repro.grid.Grid.arm`, like the chaos
campaigns' and the public day's: a watcher on the wire recognises the
step's marker inside the site's request of the fault's NTCP operation and
installs the fault at that exact message point, so replays land the
fault deterministically regardless of pacing.
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
    OUTAGE_DURATION,
    RPC_RETRIES,
    RPC_TIMEOUT,
    SITE_STIFFNESS,
    SITES,
    FaultEvent,
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


def _ft_policy() -> FaultTolerantFaultPolicy:
    """The fault-tolerant policy the model's timing arithmetic mirrors."""
    return FaultTolerantFaultPolicy(
        max_attempts=MAX_ATTEMPTS, backoff=BACKOFF,
        backoff_factor=BACKOFF_FACTOR, max_backoff=MAX_BACKOFF)


def _arm(rig: _Rig, event: FaultEvent) -> None:
    """Arm one model fault kind at its live message point (see
    :meth:`~repro.grid.Grid.arm`).  Only the speculative outage lifts; a
    fatal outage or a crash downs the link for good."""
    rig.grid.arm(ChaosEvent(
        kind=event.kind, step=event.step, site=event.site,
        duration=(OUTAGE_DURATION if event.kind == "spec_outage_propose"
                  else float("inf"))))


def _observe(rig: _Rig, result, coordinator) -> dict:
    """The live observables, shaped exactly like the model's expected."""
    per_site = {}
    active = rig.failover.active if rig.failover is not None else {}
    for site in SITES:
        metrics = rig.grid.sites[site].server.metrics()
        counters = {key: metrics[key] for key in COUNTER_KEYS}
        surrogate = None
        if site in active:
            surrogate_metrics = active[site].server.metrics()
            surrogate = {key: surrogate_metrics[key] for key in COUNTER_KEYS}
        per_site[site] = {"real": counters, "surrogate": surrogate}
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


def _replay_single(config: VerifyConfig,
                   event: FaultEvent | None) -> dict:
    """One-incarnation replay (wire faults, outages, or the clean run)."""
    with_failover = (event is not None
                     and event.kind == "fatal_outage_propose")
    rig = _Rig(config, with_failover=with_failover)
    if event is not None:
        _arm(rig, event)
    coordinator = rig.make_coordinator(fault_policy=_ft_policy())
    result = rig.grid.run(coordinator.run())
    return _observe(rig, result, coordinator)


def _replay_crash(config: VerifyConfig, event: FaultEvent) -> dict:
    """Two-incarnation replay for the coordinator-crash kinds.

    Incarnation 1 runs the abort-on-first-failure policy into the armed
    fault (the verb's replies die and the link goes down), leaving an
    abort-time checkpoint; the link is then restored and incarnation 2
    resumes from the checkpoint, reconciling per the §7 table.
    """
    rig = _Rig(config)
    _arm(rig, event)
    store = InMemoryCheckpointStore()
    policy = CheckpointPolicy(every_n_steps=0)
    first = rig.make_coordinator(fault_policy=NaiveFaultPolicy(),
                                 checkpoint_store=store,
                                 checkpoint_policy=policy)
    aborted = rig.grid.run(first.run())
    if aborted.completed:
        raise ConfigurationError(
            f"crash replay at step {event.step} did not abort")

    rig.grid.network.set_link_state("coord", event.site, up=True)
    state, prior_records = _run_store(load_resume(store, _RUN_ID))
    second = rig.make_coordinator(
        fault_policy=NaiveFaultPolicy(), checkpoint_store=store,
        checkpoint_policy=policy, state=state, prior_records=prior_records)
    result = rig.grid.run(second.run())
    return _observe(rig, result, second)


def _run_store(gen):
    """Drive an in-memory store primitive (completes without yielding)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise ConfigurationError("in-memory store call unexpectedly yielded")


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
    observable where the live run departs from the model's tables.

    Only clean and single-fault traces are replayable — the sampler
    (`ExplorationResult.traces_by_kind`) picks exactly those.
    """
    if len(trace.schedule) > 1:
        raise ConfigurationError(
            "conformance replays sample clean/single-fault traces only")
    event = trace.schedule[0] if trace.schedule else None
    if event is not None and event.kind in ("crash_propose", "crash_execute"):
        live = _replay_crash(config, event)
    else:
        live = _replay_single(config, event)
    divergences: list[Divergence] = []
    _diff("$", trace.expected, live, divergences)
    return divergences


def run_conformance(exploration: ExplorationResult,
                    ) -> list[tuple[str, Divergence]]:
    """Replay the exploration's sampled trace of each kind (see
    `ExplorationResult.traces_by_kind`); returns every divergence with
    the kind of the trace it came from."""
    sampled = exploration.traces_by_kind()
    return [(kind, divergence) for kind in sorted(sampled)
            for divergence in replay_trace(exploration.config,
                                           sampled[kind])]
