"""One composable entry point for running a MOST experiment.

The §3.4 scenarios accreted as separate ``run_*`` functions, each
re-stating the same build → observe → fault → coordinate → drain
skeleton with one knob changed — and each copy drifting a little.
:class:`ExperimentSession` is that skeleton, once, with every knob a
builder method::

    from repro import ExperimentSession, MOSTConfig

    session = (ExperimentSession(MOSTConfig().scaled(100),
                                 run_id="my-run")
               .with_faults()              # the public-day fault schedule
               .with_fault_tolerance()    # retry through the transients
               .with_monitoring()         # live operations console
               .with_pipeline()           # speculative pipelined stepping
               )
    outcome = session.run()               # -> SessionResult
    print(outcome.result.steps_completed, outcome.alerts)

Orthogonal capabilities compose: resume-from-checkpoint
(:meth:`~ExperimentSession.with_resume`), graceful degradation
(:meth:`~ExperimentSession.with_degradation`), remote observers
(:meth:`~ExperimentSession.with_observers`), vectorized ensembles
(:meth:`~ExperimentSession.with_ensemble`).  Each §3.4 run is a
composition: the dry run is the bare session, the public run adds
``with_observers().with_faults()``, the fault-tolerant counterfactual
``with_metadata(False).with_faults().with_fault_tolerance()``, and the
rehearsal passes ``simulation_only=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.coordinator import (
    ExperimentResult,
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    load_resume,
)
from repro.grid import ChaosEvent
from repro.most.assembly import (
    MOSTDeployment,
    build_most,
    build_simulation_only,
)
from repro.most.config import MOSTConfig
from repro.net.rpc import RpcError
from repro.ogsi import invoke
from repro.util.errors import ConfigurationError, ReproError

#: The paper's fatal step as a fraction of the record: 1493 of 1500.
PAPER_FAIL_FRACTION = 1493 / 1500


def default_most_fault_policy() -> FaultTolerantFaultPolicy:
    """The retry schedule every fault-tolerant MOST scenario uses: 12
    attempts, 30 s backoff growing 1.5× to 600 s — patient enough to sit
    out the public day's long outage (the fleet's brisker counterpart is
    :func:`repro.fleet.default_fleet_fault_policy`)."""
    return FaultTolerantFaultPolicy(max_attempts=12, backoff=30.0,
                                    backoff_factor=1.5, max_backoff=600.0)


def _scaled_step(config: MOSTConfig, fraction: float) -> int:
    """``fraction`` of the run as a step, clamped to 1..n_steps - 1."""
    return max(1, min(round(config.n_steps * fraction), config.n_steps - 1))


def default_fail_step(config: MOSTConfig) -> int:
    """Step 1493 scaled to shortened configs (paper ratio 1493/1500)."""
    return _scaled_step(config, PAPER_FAIL_FRACTION)


def _public_day(config: MOSTConfig, *, fail_at_step: int,
                outage_duration: float) -> list[ChaosEvent]:
    """The public-run fault schedule: three recoverable transients spread
    through the day (each drops one reply, which the NTCP client's
    retransmission recovers), then the long uiuc outage at the fatal
    step."""
    events = []
    for frac, site in ((0.15, "cu"), (0.40, "uiuc"), (0.65, "cu")):
        step = max(1, min(int(frac * config.n_steps), config.n_steps - 1))
        if step != fail_at_step:
            events.append(ChaosEvent("transient_drop", step, site))
    return events + [ChaosEvent("outage", fail_at_step, "uiuc",
                                duration=outage_duration)]


def _check_fault(config: MOSTConfig, defaults: dict[str, int],
                 **given: float | None) -> dict[str, float]:
    """``given`` with each ``None`` step replaced by its default, once
    every other ``*_step`` is one the run reaches (steps are
    0..n_steps - 1; step 0 is the initialization round) and every
    ``*_duration`` is ``>= 0`` (``inf`` is permanent); anything else is
    refused, naming the parameter."""
    for name, value in given.items():
        if value is not None and not (
                value >= 0 if name.endswith("_duration") else
                type(value) is int and 0 <= value < config.n_steps):
            raise ConfigurationError(
                f"{name}={value!r} is out of range (steps are "
                f"0..{config.n_steps - 1}, durations >= 0)")
    return {name: defaults[name] if value is None else value
            for name, value in given.items()}


def _add_remote_participants(dep: MOSTDeployment, *, n_chef: int,
                             n_stream: int) -> None:
    """Log participants into CHEF; subscribe a few to each site's NSDS."""
    from repro.net.rpc import RpcClient
    from repro.nsds import NSDSReceiver

    kernel, network = dep.kernel, dep.network
    portal_rpc = RpcClient(network, "portal", default_timeout=30.0)

    def chef_crowd():
        tokens = []
        for i in range(n_chef):
            token = yield from invoke(portal_rpc, dep.chef.handle, "login",
                                      {"user": f"observer-{i:03d}"})
            tokens.append(token)
            if i % 25 == 0:
                yield from invoke(
                    portal_rpc, dep.chef.handle, "chatPost",
                    {"token": token, "text": f"observer-{i:03d} joined"})
        return tokens

    kernel.process(chef_crowd(), name="chef-crowd")

    receivers = []
    # Viewers watch from the portal host (one RPC client each is overkill;
    # one shared client subscribes on their behalf).
    for name in ("uiuc", "cu"):
        site = dep.sites[name]
        if site.nsds is None:
            continue
        if ("portal", name) not in network._routes:
            network.connect("portal", name, latency=0.03, fifo=False)
        viewer_rpc = RpcClient(network, "portal", default_timeout=30.0)

        def subscribe(site=site, viewer_rpc=viewer_rpc):
            for _ in range(n_stream // 2):
                recv = NSDSReceiver(network, "portal")
                receivers.append(recv)
                yield from invoke(
                    viewer_rpc, site.nsds.handle, "subscribe",
                    {"sink_host": "portal", "sink_port": recv.port,
                     "lifetime": 1e9})

        kernel.process(subscribe(), name=f"nsds-subscribers-{name}")
    dep.extras["nsds_receivers"] = receivers


# ---------------------------------------------------------------------------
# The session itself
# ---------------------------------------------------------------------------

@dataclass
class SessionResult:
    """Everything a finished :class:`ExperimentSession` has to report.

    ``result`` and ``deployment`` are always set; the remaining fields
    are populated by the capabilities that were composed in — e.g.
    ``alerts``/``rollups`` only when monitoring was attached,
    ``reconciliation`` only when a resume actually happened.
    """

    result: ExperimentResult
    deployment: MOSTDeployment
    run_id: str
    ntcp_retries: int = 0
    chef_peak_online: int = 0
    files_ingested: int = 0
    stream_samples_pushed: int = 0
    fail_at_step: int | None = None
    aborted_result: ExperimentResult | None = None
    reconciliation: Any = None
    checkpoints: int = 0
    monitoring: Any = None
    alerts: list = field(default_factory=list)
    rollups: dict[str, Any] = field(default_factory=dict)
    breakers: dict[str, Any] = field(default_factory=dict)
    failover: dict[str, Any] | None = None
    degraded_steps: int = 0
    degraded_spans: list = field(default_factory=list)
    metadata_object: Any = None
    outage_at_step: int | None = None
    slow_at_step: int | None = None
    observatory: Any = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.result.completed

    @property
    def steps_completed(self) -> int:
        return self.result.steps_completed


class ExperimentSession:
    """Composable builder for one MOST experiment run.

    Construct with a :class:`MOSTConfig` (or ``None`` for the paper's
    full-length defaults), chain ``with_*`` methods to opt into
    capabilities, then call :meth:`run` exactly once.  Every builder
    method returns ``self`` so calls chain; calling one twice replaces
    the earlier setting.
    """

    def __init__(self, config: MOSTConfig | None = None, *,
                 run_id: str = "most-session",
                 simulation_only: bool = False):
        self.config = config or MOSTConfig()
        self.run_id = run_id
        self.simulation_only = simulation_only
        self._fault_policy = None
        self._metadata = True
        self._observers: dict[str, Any] | None = None
        self._faults: dict[str, Any] | None = None
        self._anomalies: dict[str, Any] | None = None
        self._resume: dict[str, Any] | None = None
        self._monitoring: dict[str, Any] | None = None
        self._observatory: dict[str, Any] | None = None
        self._degradation: dict[str, Any] | None = None
        self._pipeline: dict[str, Any] | None = None
        self._variants: list | None = None
        self._ran = False

    # -- fault handling ----------------------------------------------------
    def with_fault_tolerance(self, policy=None) -> "ExperimentSession":
        """Retry steps through transient failures (§4 features).

        ``policy=None`` gives :func:`default_most_fault_policy`; any
        other coordinator fault policy is used as given.  Without this
        call the coordinator runs the naive policy.
        """
        self._fault_policy = policy or default_most_fault_policy()
        return self

    def with_faults(self, fail_at_step: int | None = None, *,
                    outage_duration: float = 1800.0) -> "ExperimentSession":
        """Arm the public-day fault schedule: three transients plus the
        long uiuc outage at ``fail_at_step`` (default: the paper's 1493,
        scaled).  ``outage_duration=float('inf')`` makes it permanent —
        the graceful-degradation counterfactual."""
        self._faults = _check_fault(
            self.config, {"fail_at_step": default_fail_step(self.config)},
            fail_at_step=fail_at_step, outage_duration=outage_duration)
        return self

    def with_anomalies(self, *, outage_at_step: int | None = None,
                       outage_duration: float = 600.0,
                       slow_at_step: int | None = None
                       ) -> "ExperimentSession":
        """Arm the monitored-run anomalies: a mid-run uiuc outage
        (default: halfway) and the NCSA simulation drifting 40× slower
        (default: a quarter in) — the two events the console's detectors
        exist for."""
        self._anomalies = _check_fault(
            self.config, {"outage_at_step": _scaled_step(self.config, 0.5),
                          "slow_at_step": _scaled_step(self.config, 0.25)},
            outage_at_step=outage_at_step, outage_duration=outage_duration,
            slow_at_step=slow_at_step)
        return self

    # -- observation & participants ---------------------------------------
    def with_observers(self, n_chef: int | None = None,
                       n_stream: int | None = None) -> "ExperimentSession":
        """Log remote participants into CHEF and subscribe NSDS viewers
        (defaults: the config's public-day head-counts)."""
        self._observers = {"n_chef": n_chef, "n_stream": n_stream}
        return self

    def with_metadata(self, enabled: bool = True) -> "ExperimentSession":
        """Upload the §3.3 component metadata before the run (default on
        for full deployments; simulation-only never uploads)."""
        self._metadata = enabled
        return self

    def with_monitoring(self, on_alert=None) -> "ExperimentSession":
        """Attach the live operations console (``on_alert`` sees each
        alert as it is raised); its alert feed and metric rollups land on
        the :class:`SessionResult`."""
        self._monitoring = {"on_alert": on_alert}
        return self

    def with_observatory(self, *,
                         slo_interval: float = 60.0) -> "ExperimentSession":
        """Attach the grid observatory (see :mod:`repro.observatory`):
        range queries over the console's time-series store on the
        portal, SLO burn-rate alerting through the console, and a flight
        recorder snapshotted on escalation or abort.  Implies
        :meth:`with_monitoring` if it was not requested explicitly."""
        self._observatory = {"slo_interval": slo_interval}
        if self._monitoring is None:
            self._monitoring = {"on_alert": None}
        return self

    # -- durability & degradation ------------------------------------------
    def with_resume(self, *, checkpoint_every: int = 25) -> "ExperimentSession":
        """Checkpoint into the repository every ``checkpoint_every`` steps
        and, if the run aborts, bring up a second coordinator incarnation
        (under :func:`default_most_fault_policy`) that reconciles
        in-flight transactions and completes the remaining steps."""
        self._resume = {"checkpoint_every": checkpoint_every}
        return self

    def with_degradation(self, policy=None, *,
                         breaker_config=None) -> "ExperimentSession":
        """Per-site circuit breakers plus surrogate failover: a site whose
        breaker stays open past the policy's recovery budget is hot-swapped
        for its numerical surrogate instead of aborting the run."""
        self._degradation = {"policy": policy,
                             "breaker_config": breaker_config}
        return self

    # -- performance --------------------------------------------------------
    def with_pipeline(self, predictor=None) -> "ExperimentSession":
        """Speculative pipelined stepping: while step *n* executes, the
        coordinator proposes *n+1* from predicted forces
        (``predictor=None`` builds the deployment's design-stiffness
        predictor) and adopts the speculation only when it is bit-exact."""
        self._pipeline = {"predictor": predictor}
        return self

    def with_ensemble(self, variants: Sequence) -> "ExperimentSession":
        """Drive N ground-motion variants through one coordinator, one
        protocol cycle advancing every variant (see
        :class:`~repro.coordinator.ensemble.EnsembleCoordinator`)."""
        self._variants = list(variants)
        return self

    # -- execution ----------------------------------------------------------
    def _make_coordinator(self, dep: MOSTDeployment, **options):
        if self._pipeline is not None:
            options.update(
                predictor=self._pipeline["predictor"] or dep.make_predictor())
        return dep.make_coordinator(run_id=self.run_id,
                                    variants=self._variants, **options)

    def run(self) -> SessionResult:
        """Build the deployment, run the composed experiment, drain, report."""
        if self._ran:
            raise ConfigurationError(
                "an ExperimentSession runs once; build a new one")
        if (self._resume is not None and self._faults is not None
                and not math.isfinite(self._faults["outage_duration"])):
            raise ConfigurationError(
                "with_resume() waits out the outage before restarting; a "
                "permanent outage (outage_duration=inf) never ends")
        self._ran = True
        config = self.config
        faults, anomalies = self._faults or {}, self._anomalies or {}
        dep = (build_simulation_only(config) if self.simulation_only
               else build_most(config))
        dep.start_backends()
        if not self.simulation_only:
            dep.start_observation()
            if self._metadata:
                from repro.most.metadata import upload_most_metadata

                dep.kernel.run(
                    until=dep.kernel.process(upload_most_metadata(dep)))
        if self._observers is not None:
            _add_remote_participants(
                dep,
                n_chef=(self._observers["n_chef"]
                        if self._observers["n_chef"] is not None
                        else config.n_remote_participants),
                n_stream=(self._observers["n_stream"]
                          if self._observers["n_stream"] is not None
                          else config.n_stream_viewers))
        if faults:
            for event in _public_day(config, **faults):
                dep.arm(event)

        kit = None
        if self._monitoring is not None:
            from repro.monitor import attach_monitoring

            kit = attach_monitoring(dep,
                                    on_alert=self._monitoring["on_alert"])
        obs = None
        if self._observatory is not None:
            from repro.observatory import attach_observatory

            obs = attach_observatory(
                dep, kit, run_id=self.run_id,
                slo_interval=self._observatory["slo_interval"])
        if anomalies:
            if anomalies["slow_at_step"] != anomalies["outage_at_step"]:
                # the NCSA simulation drifting 40x slower for the rest of
                # the run: one site's evaluation suddenly dominating
                dep.arm(ChaosEvent("slowdown", anomalies["slow_at_step"],
                                   "ncsa", magnitude=40.0))
            dep.arm(ChaosEvent("outage", anomalies["outage_at_step"], "uiuc",
                               duration=anomalies["outage_duration"]))
        if kit is not None:
            kit.start()
        if obs is not None:
            obs.start()

        failover = None
        if self._degradation is not None:
            from repro.coordinator import DegradationPolicy
            from repro.net import BreakerConfig

            failover = dep.make_failover(
                policy=self._degradation["policy"]
                or DegradationPolicy(recovery_budget=300.0, readmit=True,
                                     probe_interval=120.0),
                breaker_config=self._degradation["breaker_config"]
                or BreakerConfig(failure_threshold=3, open_interval=120.0))

        store = ckpt_policy = None
        if self._resume is not None:
            from repro.repository import CheckpointPolicy

            store = dep.make_checkpoint_store()
            ckpt_policy = CheckpointPolicy(
                every_n_steps=self._resume["checkpoint_every"])

        options = dict(checkpoint_store=store, checkpoint_policy=ckpt_policy,
                       failover=failover)
        coordinator = self._make_coordinator(
            dep, fault_policy=self._fault_policy or NaiveFaultPolicy(),
            **options)
        if kit is not None:
            kit.watch_coordinator(coordinator)
        result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))

        aborted = reconciliation = None
        checkpoints = coordinator.state.checkpoint_seq if store else 0
        if self._resume is not None and not result.completed:
            # Wait out the (public-schedule) outage, then bring up the
            # second incarnation against the same still-running grid.
            outage = faults.get("outage_duration", 1800.0)
            dep.kernel.run(until=dep.kernel.now + outage + 1.0)
            state, prior = dep.kernel.run(
                until=dep.kernel.process(load_resume(store, self.run_id)))
            if state is None:
                # Died before any checkpoint: nothing to resume from.
                checkpoints = 0
            else:
                aborted = result
                second = self._make_coordinator(
                    dep,
                    fault_policy=default_most_fault_policy(),
                    state=state, prior_records=prior, **options)
                result = dep.kernel.run(
                    until=dep.kernel.process(second.run()))
                reconciliation = second.last_reconciliation
                checkpoints = second.state.checkpoint_seq
        if obs is not None:
            if not result.completed:
                # Freeze the black box before anything else drains — the
                # step-1493 snapshot the paper's operators never had.
                obs.record_abort(result)
            obs.stop()
        if kit is not None:
            kit.stop()

        # Degradation history into the repository's metadata service: the
        # archived run says *which* steps are numerical, not just that
        # some are.
        metadata_object = None
        if failover is not None and failover.events:
            try:
                metadata_object = dep.kernel.run(until=dep.kernel.process(
                    dep.make_facade(dep.coordinator_rpc).annotate(
                        "degradation",
                        {"run_id": self.run_id, **failover.report()})))
            except (RpcError, ReproError):
                metadata_object = None  # repo unreachable: report-only

        dep.stop_observation()
        # Final sweep: upload whatever the DAQ stop-flush staged (the
        # paper's ingestion is incremental *and* complete).
        for site in dep.sites.values():
            if site.ingest is not None:
                drain = dep.kernel.process(site.ingest.drain())
                drain.defuse()  # repo may be unreachable in fault scenarios
        # Let in-flight uploads, streams and notifications drain.
        dep.kernel.run(until=dep.kernel.now + 600.0)
        ingested = sum(len(s.ingest.uploaded) for s in dep.sites.values()
                       if s.ingest is not None)
        pushed = sum(s.nsds.pushed for s in dep.sites.values()
                     if s.nsds is not None)

        outcome = SessionResult(
            result=result, deployment=dep, run_id=self.run_id,
            ntcp_retries=dep.coordinator_rpc.stats.retries,
            chef_peak_online=dep.chef.peak_online,
            files_ingested=ingested, stream_samples_pushed=pushed,
            fail_at_step=faults.get("fail_at_step"), aborted_result=aborted,
            reconciliation=reconciliation, checkpoints=checkpoints,
            outage_at_step=anomalies.get("outage_at_step"),
            slow_at_step=anomalies.get("slow_at_step"),
            metadata_object=metadata_object,
            degraded_steps=result.degraded_steps,
            degraded_spans=result.degraded_spans())
        if failover is not None:
            outcome.breakers = {name: b.snapshot()
                                for name, b in failover.breakers.items()}
            outcome.failover = failover.report()
        if kit is not None:
            outcome.monitoring = kit
            outcome.alerts = list(kit.monitor.alerts)
            outcome.rollups = kit.monitor.rollups()
        if obs is not None:
            outcome.observatory = obs
        return outcome
