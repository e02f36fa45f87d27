"""The MS-PSDS stepping loop over NTCP.

Per time step the coordinator (paper Figure 5 / §3) drives an explicit
state machine::

    INTEGRATE -> PROPOSE -> EXECUTE -> COMMIT

1. **INTEGRATE** — compute the next displacement from the pseudo-dynamic
   integrator (force data feeds the computational model, "the correct
   displacements were calculated and sent to the ... test sites");
2. **PROPOSE** — one transaction per site, so every site can veto before
   anything moves;
3. **EXECUTE** — all transactions in parallel; collect measured forces;
4. **COMMIT** — assemble the global restoring force and advance the
   integrator.

The machine's position lives in a serializable
:class:`~repro.coordinator.state.ExperimentState` (next step index,
committed integrator snapshot, pending transaction names).  With a
:mod:`checkpoint store <repro.repository.checkpoint>` attached, the state
plus the unflushed :class:`StepRecord` tail is persisted every N committed
steps and, best-effort, at abort time — so an aborted run resumes instead
of restarting: a new coordinator built from the checkpoint replays
committed-but-unpersisted steps through NTCP's idempotent propose/execute
(the servers return stored outcomes without touching specimens) and
reconciles the in-flight step via
:class:`~repro.coordinator.reconcile.Reconciler`.

Failures surface here as exceptions from the NTCP client; the configured
:class:`~repro.coordinator.fault_policy.FaultPolicy` decides retry vs
abort.  Retries and resumes reuse the same transaction names, so NTCP's
at-most-once semantics guarantee no step is ever applied twice to a
physical specimen — even across a coordinator restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.coordinator.fault_policy import FaultPolicy, NaiveFaultPolicy
from repro.coordinator.reconcile import Reconciler, ReconciliationReport
from repro.coordinator.records import ExperimentResult, StepRecord
from repro.coordinator.state import (
    PHASE_COMMIT,
    PHASE_EXECUTE,
    PHASE_IDLE,
    PHASE_INTEGRATE,
    PHASE_PROPOSE,
    ExperimentState,
    record_to_payload,
    transaction_name,
)
from repro.core.client import NTCPClient
from repro.core.messages import ProposalVerdict
from repro.control.actions import make_displacement_actions
from repro.net.breaker import CircuitBreaker
from repro.net.rpc import RpcError
from repro.ogsi.handle import GridServiceHandle
from repro.repository.checkpoint import CheckpointPolicy, build_checkpoint_doc
from repro.structural.ground_motion import GroundMotion
from repro.structural.integrators import CentralDifferencePSD
from repro.structural.model import StructuralModel
from repro.util.errors import ConfigurationError, ProtocolError, ReproError


class SiteBinding:
    """One substructure site: its NTCP handle and global-DOF mapping.

    ``dof_indices[local] = global`` — the site receives displacements for
    its local DOFs and returns forces on them.
    """

    def __init__(self, name: str, handle: GridServiceHandle, dof_indices=(0,)):
        self.name = name
        self.handle = handle
        self.dof_indices = np.asarray(dof_indices, dtype=int)


class _Abort(Exception):
    """``raise _Abort(step, reason) from exc`` ends the run from anywhere
    in the step machine.  Not a :class:`ReproError`, so no retry handler
    swallows it; the one abort exit in :meth:`SimulationCoordinator.run`
    records it, with the site ``exc`` was tagged with.
    """


@dataclass
class _InFlightStep:
    """One step's propose+execute round, running as a background process.

    With a predictor the stepping loop keeps at most two of these alive:
    the *verified* step (its commanded displacement came from the
    committed integrator state) and the *speculative* step issued one
    ahead of it from predicted forces.  ``process`` is the kernel process
    running :meth:`SimulationCoordinator._step_at_all_sites`; its value
    is the per-site force map.  The process is defused at creation —
    a speculation abandoned by rollback must never crash the kernel —
    and awaited explicitly where its outcome matters.
    """

    step: int
    d: np.ndarray                 #: the displacement commanded to the sites
    txns: dict[str, str]          #: site name -> transaction name
    process: Any                  #: kernel Process yielding the force map
    issued_at: float              #: sim time the round went on the wire


class SimulationCoordinator:
    """Drives a distributed hybrid experiment to completion.

    Args:
        run_id: unique name; prefixes every transaction name.
        client: the NTCP client (owns RPC retry behaviour).
        model: nominal linear model of the full structure — mass and
            damping are exact (they are numerical in PSD testing); the
            stiffness is the design estimate used only for integrator setup.
        motion: the ground acceleration record (one step per sample).
        sites: substructure bindings; together they must restrain every DOF.
        fault_policy: retry/abort behaviour on step failures.
        execution_timeout: per-transaction execution budget sent to sites.
        checkpoint_store: optional
            :class:`~repro.repository.checkpoint.CheckpointStoreBase`;
            when set, experiment state is persisted per ``checkpoint_policy``.
        checkpoint_policy: when to checkpoint (default: every 50 steps,
            plus a best-effort checkpoint while aborting).
        state: a prepared resume state (see
            :func:`~repro.coordinator.state.load_resume`); ``None``
            starts a fresh run.
        prior_records: the committed steps recovered from checkpoints
            (:func:`~repro.coordinator.state.load_resume`'s second
            value), prepended to this incarnation's result.
        failover: optional
            :class:`~repro.coordinator.failover.FailoverManager`.  It owns
            one circuit breaker per site, and every NTCP exchange with a
            site passes through that breaker, so a site that keeps
            failing is fast-failed (``BreakerOpen``) instead of burning
            the full RPC retry ladder on every attempt.  Consulted when a
            step attempt fails, it may swap a dead site for its numerical
            surrogate (graceful degradation) instead of letting the fault
            policy abort the run.
        predictor: object with ``predict(site, targets) -> forces``
            (see :class:`~repro.coordinator.predictor.SubstructurePredictor`).
            Given one, the coordinator steps pipelined: while step *n*
            executes at the sites, it speculatively integrates and
            proposes step *n+1* from the predicted restoring forces,
            hiding one protocol round trip per step.  A speculation is
            adopted only when its command is bit-exact with the one the
            measured forces produce; a mispredict or a mid-flight fault
            rolls it back under the §7 cancel+rename discipline, so
            committed histories stay bit-exact with the sequential run.
    """

    def __init__(self, *, run_id: str, client: NTCPClient,
                 model: StructuralModel, motion: GroundMotion,
                 sites: list[SiteBinding],
                 fault_policy: FaultPolicy | None = None,
                 execution_timeout: float = 60.0,
                 negotiation_barrier: bool = True,
                 integrator_factory: Callable | None = None,
                 checkpoint_store=None,
                 checkpoint_policy: CheckpointPolicy | None = None,
                 state: ExperimentState | None = None,
                 prior_records: Sequence[StepRecord] = (),
                 failover=None,
                 predictor=None):
        if not sites:
            raise ConfigurationError("coordinator needs at least one site")
        covered = set()
        for site in sites:
            covered.update(int(i) for i in site.dof_indices)
        if covered != set(range(model.n_dof)):
            raise ConfigurationError(
                f"sites cover DOFs {sorted(covered)}; model has "
                f"{model.n_dof} DOF(s)")
        self.run_id = run_id
        self.client = client
        self.model = model
        self.motion = motion
        self.sites = list(sites)
        self.fault_policy = fault_policy or NaiveFaultPolicy()
        self.execution_timeout = execution_timeout
        #: With the barrier (the paper's design), *all* sites must accept a
        #: step's proposals before any site executes.  Disabling it (an
        #: ablation) lets each site execute as soon as its own proposal is
        #: accepted — one overlapped round trip faster, but a late
        #: rejection leaves other specimens already moved.
        self.negotiation_barrier = negotiation_barrier
        self.checkpoint_store = checkpoint_store
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        if state is None:
            self.state = ExperimentState(run_id=run_id,
                                         target_steps=motion.n_steps - 1,
                                         dt=motion.dt)
        else:
            if state.run_id != run_id:
                raise ConfigurationError(
                    f"resume state is for run {state.run_id!r}, "
                    f"coordinator is {run_id!r}")
            if (state.target_steps != motion.n_steps - 1
                    or not np.isclose(state.dt, motion.dt)):
                raise ConfigurationError(
                    "resume state does not match the configured motion "
                    f"record (state: {state.target_steps} steps @ "
                    f"{state.dt}; motion: {motion.n_steps - 1} @ "
                    f"{motion.dt})")
            if state.generation > 0 and state.integrator is None:
                raise ConfigurationError(
                    "resume state carries no integrator snapshot")
            self.state = state
        self.prior_records = list(prior_records)
        self.failover = failover
        self.predictor = predictor
        #: monotone epoch appended (``-s<n>``) to transaction names whose
        #: speculation was rolled back — a cancelled name is burned
        #: server-side, so the verified re-proposal must never reuse it.
        self._speculation_epoch = 0
        self.last_reconciliation: ReconciliationReport | None = None
        self._records_flushed = 0
        self._txn_overrides: dict[tuple[int, str], str] = {}
        self.kernel = client.rpc.kernel
        telemetry = self.kernel.telemetry
        self._tracer = telemetry.tracer
        self._tm_steps = telemetry.counter("coordinator.mspsds.steps",
                                           run_id=run_id)
        self._tm_retries = telemetry.counter("coordinator.mspsds.retries",
                                             run_id=run_id)
        self._tm_step_time = telemetry.histogram("coordinator.mspsds.step_time",
                                                 run_id=run_id)
        self._tm_ckpt_writes = telemetry.counter(
            "coordinator.checkpoint.writes", run_id=run_id)
        self._tm_replayed = telemetry.counter("coordinator.resume.replayed",
                                              run_id=run_id)
        self._tm_degraded_steps = telemetry.counter(
            "coordinator.failover.degraded_steps", run_id=run_id)
        self._tm_spec_issued = telemetry.counter(
            "coordinator.pipeline.speculated", run_id=run_id)
        self._tm_spec_hits = telemetry.counter(
            "coordinator.pipeline.hits", run_id=run_id)
        self._tm_spec_mispredicts = telemetry.counter(
            "coordinator.pipeline.mispredicts", run_id=run_id)
        self._tm_spec_drains = telemetry.counter(
            "coordinator.pipeline.drains", run_id=run_id)
        #: any pseudo-dynamic stepper (start / propose_next / commit,
        #: snapshot / restore, state_shape): CentralDifferencePSD for MOST;
        #: AlphaOSPSD for stiff structures whose frequencies exceed the
        #: explicit stability limit.
        factory = integrator_factory or CentralDifferencePSD
        self.integrator = factory(model, motion.dt)
        #: twin used only to compute speculative commands — it is
        #: re-grounded in the committed integrator's snapshot before
        #: every speculation, so it never drifts from truth.
        self._shadow = (factory(model, motion.dt) if predictor is not None
                        else None)
        self._integrator_started = False
        if self.state.integrator is not None:
            self.integrator.restore(self.state.integrator)
            self._integrator_started = True
        if failover is not None:
            failover.bind(self)

    @property
    def breakers(self) -> Mapping[str, CircuitBreaker]:
        """The failover manager's per-site breakers (none without one);
        the health probe and ``SessionResult.breakers`` read them."""
        return self.failover.breakers if self.failover is not None else {}

    # -- helpers -----------------------------------------------------------
    def _txn_name(self, step: int, site: SiteBinding) -> str:
        return (self._txn_overrides.get((step, site.name))
                or transaction_name(self.run_id, step, site.name))

    def _step_names(self, step: int) -> dict[str, str]:
        return {site.name: self._txn_name(step, site) for site in self.sites}

    def _rename(self, step: int, site: str, name: str) -> None:
        """The only writer of the override table."""
        self._txn_overrides[(step, site)] = name

    def cancel_and_forget(self, handle: GridServiceHandle, name: str) -> None:
        """Fire-and-forget cancel of a name that may be burned at a site.

        Never awaited and defused: the site is often unreachable (the
        cancel dies on the wire) and hygiene must neither block the step
        machine nor crash the kernel.
        """
        self.kernel.process(self.client.cancel(handle, name),
                            name=f"retire.{name}").defuse()

    def retire(self, step: int, site: SiteBinding, *,
               rename: str | None = None) -> str:
        """§7: give up ``site``'s current name for ``step``.

        The name is cancelled fire-and-forget; with ``rename`` (a suffix:
        ``-s<epoch>`` for a rolled-back speculation, ``-f<n>`` for a
        failover) the step's next proposal uses ``<name><rename>`` — a
        cancelled name is burned server-side, so reusing it would turn
        the re-proposal into a permanent rejection.  Returns the name the
        step uses from here on.
        """
        name = self._txn_name(step, site)
        self.cancel_and_forget(site.handle, name)
        if rename is not None:
            name += rename
            self._rename(step, site.name, name)
        return name

    def _site_targets(self, site: SiteBinding,
                      d_global: np.ndarray) -> dict:
        if d_global.ndim > 1:
            # Ensemble batch: one column per scenario variant; the wire
            # value for each DOF is the whole row.
            return {local: [float(v) for v in d_global[global_dof]]
                    for local, global_dof in enumerate(site.dof_indices)}
        return {local: float(d_global[global_dof])
                for local, global_dof in enumerate(site.dof_indices)}

    def _zero_displacement(self) -> np.ndarray:
        """The at-rest command for step 0, in the integrator's state shape
        (widened by ensembles)."""
        return np.zeros(self.integrator.state_shape())

    def _external_force(self, step: int) -> np.ndarray:
        """External load for ``step`` (ensembles widen it per variant)."""
        return self.model.external_force(self.motion.accel[step])

    def _coerce_site_forces(self, forces: dict) -> dict:
        """Normalize one site's raw force readings keyed by local DOF."""
        out: dict[int, Any] = {}
        for dof, f in forces.items():
            if isinstance(f, (list, tuple)):
                out[int(dof)] = [float(v) for v in f]
            else:
                out[int(dof)] = float(f)
        return out

    def _assemble_forces(self, per_site: dict[str, dict],
                         ) -> np.ndarray:
        r = np.zeros(self.integrator.state_shape())
        for site in self.sites:
            forces = per_site[site.name]
            for local, global_dof in enumerate(site.dof_indices):
                r[global_dof] += np.asarray(forces[local], dtype=float)
        return r

    def _guarded(self, site: SiteBinding, exchange):
        """Run one site's NTCP exchange through its circuit breaker.

        Fast-fails with :class:`BreakerOpen` while the site's breaker is
        open, records the outcome otherwise, and tags the propagating
        exception with ``site`` so the fault policy and failover manager
        know who failed.  Without failover there are no breakers, and a
        site served by its surrogate has none (see
        :meth:`~repro.coordinator.failover.FailoverManager.breaker_for`).
        """
        breaker = (None if self.failover is None
                   else self.failover.breaker_for(site.name))
        if breaker is not None:
            breaker.check()
        try:
            result = yield from exchange
        except (RpcError, ReproError) as exc:
            if getattr(exc, "site", None) in (None, "?"):
                exc.site = site.name
            # Policy rejections are the site *working* (vetoing an unsafe
            # command is NTCP behaving as designed), not failing.
            if breaker is not None and not (isinstance(exc, ProtocolError)
                                            and "rejected" in str(exc)):
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _at_every_site(self, span_name: str, step: int, ctx, per_site):
        """One ``span_name`` span over ``per_site(site, span)`` run at
        every site at once (one :meth:`Kernel.join
        <repro.sim.Kernel.join>`).

        Waits for all of them; the span ends failed if any of them
        raises, and is returned still open otherwise (the caller knows
        what a success looks like).
        """
        span = self._tracer.start_span(span_name, parent=ctx, step=step)
        try:
            yield self.kernel.join(per_site(site, span) for site in self.sites)
        except BaseException:
            span.end(ok=False)
            raise
        return span

    def _step_at_all_sites(self, step: int, d_global: np.ndarray, ctx=None,
                           *, set_phase: bool = True):
        """Propose then execute step ``step`` at every site, in parallel.

        Returns ``{site: {local_dof: force}}``; raises on any failure
        (after cancelling accepted siblings if a site rejected).  ``ctx``
        is the step span context the phase spans nest under.
        ``set_phase=False`` keeps ``state.phase`` untouched — a
        speculative round must not make the serialized machine claim it
        is executing a step that has not been verified yet.
        """
        if not self.negotiation_barrier:
            results = yield from self._step_without_barrier(step, d_global,
                                                            ctx)
            return results
        verdicts: dict[str, ProposalVerdict] = {}

        def propose_one(site: SiteBinding, span):
            actions = make_displacement_actions(
                self._site_targets(site, d_global))
            verdicts[site.name] = yield from self._guarded(
                site, self.client.propose(
                    site.handle, self._txn_name(step, site), actions,
                    execution_timeout=self.execution_timeout, ctx=span))

        propose_span = yield from self._at_every_site(
            "coordinator.step.propose", step, ctx, propose_one)
        if self.state.generation and all(v.state == "executed"
                                         for v in verdicts.values()):
            # Every site already holds this step's outcome: the resumed
            # coordinator is replaying a committed-but-unpersisted step
            # through the idempotent paths; no specimen will move.
            self._tm_replayed.inc()

        rejected = [name for name, v in verdicts.items()
                    if v.state not in ("accepted", "executed", "executing")]
        if rejected:
            propose_span.end(ok=False, rejected=",".join(rejected))
            # Abort this step: cancel the accepted siblings for hygiene.
            for site in self.sites:
                if verdicts[site.name].state == "accepted":
                    self.retire(step, site)
            name = rejected[0]
            error = ProtocolError(
                f"site {name} rejected step {step}: "
                f"{verdicts[name].error or ''}")
            error.site = name  # as _guarded tags a failed exchange
            raise error
        propose_span.end(ok=True)

        if set_phase:
            self.state.phase = PHASE_EXECUTE
        results: dict[str, dict[int, float]] = {}

        def execute_one(site: SiteBinding, span):
            result = yield from self._guarded(site, self.client.execute(
                site.handle, self._txn_name(step, site),
                timeout=self.execution_timeout + 10.0, ctx=span))
            results[site.name] = self._coerce_site_forces(
                result.readings["forces"])

        execute_span = yield from self._at_every_site(
            "coordinator.step.execute", step, ctx, execute_one)
        execute_span.end(ok=True)
        return results

    def _step_without_barrier(self, step: int, d_global: np.ndarray,
                              ctx=None):
        """Ablation path: per-site propose→execute chains, no global gate."""
        results: dict[str, dict[int, float]] = {}

        def chain_one(site: SiteBinding, span):
            actions = make_displacement_actions(
                self._site_targets(site, d_global))
            result = yield from self._guarded(
                site, self.client.propose_and_execute(
                    site.handle, self._txn_name(step, site), actions,
                    execution_timeout=self.execution_timeout,
                    timeout=self.execution_timeout + 10.0, ctx=span))
            results[site.name] = self._coerce_site_forces(
                result.readings["forces"])

        span = yield from self._at_every_site(
            "coordinator.step.propose_execute", step, ctx, chain_one)
        span.end(ok=True)
        return results

    def _round(self, step: int, d_global: np.ndarray, ctx=None, *,
               initial_error=None):
        """One step's round under the fault policy; returns (forces,
        attempts).

        The hook the stepping loop and :meth:`_initialize` await a step
        through (:class:`~repro.coordinator.realtime.RealTimeCoordinator`
        replaces it with a fixed-period tick).  ``initial_error`` feeds in
        the failure of a round already issued in the background, so
        attempt #1 consults the policy instead of re-sending blindly.
        """
        attempt = 0
        exc = initial_error
        while True:
            attempt += 1
            if exc is None:
                try:
                    forces = yield from self._step_at_all_sites(step,
                                                                d_global, ctx)
                    return forces, attempt
                except (RpcError, ReproError) as caught:
                    exc = caught
            site = getattr(exc, "site", "?")
            self.kernel.emit(f"coordinator.{self.run_id}", "step.failed",
                             step=step, attempt=attempt, error=str(exc))
            if isinstance(exc, ProtocolError) and "rejected" in str(exc):
                # A policy rejection is not transient; never retry.
                raise exc
            if self.failover is not None and self.failover.consider(
                    step=step, site=site, error=exc):
                # The site was just swapped for its numerical
                # surrogate (and the step's transaction renamed);
                # retry immediately instead of asking the policy.
                self._tm_retries.inc()
                exc = None
                continue
            decision = self.fault_policy.decide(
                step=step, attempt=attempt, site=site, error=exc)
            if decision.action != "retry":
                raise exc
            self._tm_retries.inc()
            if decision.delay > 0:
                wait_span = self._tracer.start_span(
                    "coordinator.step.retry_wait", parent=ctx,
                    step=step, attempt=attempt)
                yield self.kernel.timeout(decision.delay)
                wait_span.end()
            exc = None

    # -- speculation ---------------------------------------------------------
    def _predicted_forces(self, d_cmd: np.ndarray) -> dict[str, dict]:
        """What the predictor expects every site to measure for ``d_cmd``."""
        return {site.name: self.predictor.predict(
                    site.name, self._site_targets(site, d_cmd))
                for site in self.sites}

    def _issue_step(self, step: int, d_cmd: np.ndarray,
                    parent=None) -> _InFlightStep:
        """Launch one step's propose+execute round as a background process.

        ``parent`` is the step span of a verified round, which nests its
        ``round`` span; a speculation has none (its step span opens only
        once it is adopted), so its ``speculate`` span is a root.  The
        round runs :meth:`_step_at_all_sites` without touching
        ``state.phase`` (the serialized machine must not claim to execute
        a step that is still speculative); the process is defused so an
        abandoned speculation's failure never crashes the kernel.
        """
        txns = self._step_names(step)
        span_name = ("coordinator.step.speculate" if parent is None
                     else "coordinator.step.round")

        def round_runner():
            span = self._tracer.start_span(span_name, parent=parent,
                                           step=step)
            try:
                forces = yield from self._step_at_all_sites(
                    step, d_cmd, span, set_phase=False)
            except BaseException:
                span.end(ok=False)
                raise
            span.end(ok=True)
            return forces

        process = self.kernel.process(round_runner(),
                                      name=f"step.round.{step}")
        process.defuse()
        return _InFlightStep(step=step, d=d_cmd, txns=txns, process=process,
                             issued_at=self.kernel.now)

    def _speculate(self, step: int, pending: _InFlightStep):
        """Issue step ``step`` speculatively while ``pending`` executes.

        The shadow integrator is re-grounded in the committed state,
        advanced through the in-flight command against *predicted*
        restoring forces, and the resulting displacement goes on the wire
        one round trip early.  The speculative names are recorded in
        ``state.speculative`` (at ``state.speculative_step``) so a
        checkpoint taken while they may be burned lets the resume drain
        them.  Returns ``None`` (speculation skipped) if the prediction
        goes non-finite — the verified path will abort cleanly instead.
        """
        shadow = self._shadow
        shadow.restore(self.integrator.snapshot())
        # Re-deriving the in-flight command arms the shadow for commit
        # (AlphaOS predictor-corrector refuses to commit un-proposed).
        shadow.propose_next()
        r_hat = self._assemble_forces(self._predicted_forces(pending.d))
        shadow.commit(pending.d, r_hat, self._external_force(pending.step))
        d_hat = shadow.propose_next()
        if not np.all(np.isfinite(d_hat)):
            return None
        spec = self._issue_step(step, d_hat)
        self.state.speculative = dict(spec.txns)
        self.state.speculative_step = step
        self._tm_spec_issued.inc()
        return spec

    def _adopt(self, spec: _InFlightStep) -> bool:
        """Judge a speculation once its predecessor has committed: adopt
        it as the next in-flight step (a hit), or roll it back.

        ``propose_next()`` both re-arms the integrator for the next
        commit and yields the truth the speculation is judged against.
        It is a pure function of committed state, so a rolled-back path
        recomputing it at the next clean boundary gets the identical
        command.
        """
        d_true = self.integrator.propose_next()
        if spec.process.triggered and not spec.process.ok:
            # The speculative round already died (site fault
            # mid-speculation); never adopt a broken round.
            self._rollback_speculation(spec, "fault")
            return False
        if not np.array_equal(d_true, spec.d):
            self._rollback_speculation(spec, "mispredict")
            return False
        self._tm_spec_hits.inc()
        self.state.pending = dict(spec.txns)
        self.state.phase = PHASE_EXECUTE
        # Adoption verifies the speculation: from here on it is an
        # ordinary in-flight step a resume may harvest.
        self.state.speculative = {}
        self.state.speculative_step = 0
        return True

    def _rollback_speculation(self, spec: _InFlightStep, reason: str) -> None:
        """:meth:`retire` a wrong (or fault-stranded) speculation.

        Non-blocking (the round's own process is defused and left to
        die); the step's verified re-proposal gets a fresh ``-s<epoch>``
        name.  The burned names stay in ``state.speculative`` until the
        replacement goes on the wire, keeping the resume drain able to
        find them.
        """
        self._speculation_epoch += 1
        for site in self.sites:
            self.retire(spec.step, site,
                        rename=f"-s{self._speculation_epoch}")
        if reason == "mispredict":
            self._tm_spec_mispredicts.inc()
        else:
            self._tm_spec_drains.inc()
        self.kernel.emit(f"coordinator.{self.run_id}", "pipeline.rolled_back",
                         step=spec.step, reason=reason)

    # -- checkpointing -------------------------------------------------------
    def _write_checkpoint(self, result: ExperimentResult, reason: str):
        """Kernel process: persist state + unflushed record tail.

        Best-effort by design — a checkpoint that cannot reach the
        repository is reported (``checkpoint.failed``) but never kills or
        perturbs the experiment.
        """
        seq = self.state.checkpoint_seq + 1
        self.state.integrator = self.integrator.snapshot()
        state_payload = self.state.to_payload()
        state_payload["checkpoint_seq"] = seq
        tail = result.steps[self._records_flushed:]
        doc = build_checkpoint_doc(
            run_id=self.run_id, seq=seq, wall_time=self.kernel.now,
            reason=reason, state_payload=state_payload,
            record_payloads=[record_to_payload(r) for r in tail])
        span = self._tracer.start_span("coordinator.checkpoint.write",
                                       run_id=self.run_id, seq=seq,
                                       reason=reason)
        try:
            yield from self.checkpoint_store.save(doc)
        except (RpcError, ReproError) as exc:
            span.end(ok=False)
            self.kernel.emit(f"coordinator.{self.run_id}", "checkpoint.failed",
                             seq=seq, reason=reason, error=str(exc))
            return
        span.end(ok=True)
        self.state.checkpoint_seq = seq
        self._records_flushed = len(result.steps)
        self._tm_ckpt_writes.inc()

    def _maybe_checkpoint(self, result: ExperimentResult, *, reason: str,
                          force: bool = False):
        if self.checkpoint_store is None or not self._integrator_started:
            return
        committed = self.state.step - 1
        if not force and not self.checkpoint_policy.due(committed):
            return
        yield from self._write_checkpoint(result, reason)

    # -- lifecycle -----------------------------------------------------------
    def _record_abort(self, result: ExperimentResult, step: int,
                      reason: str, site: str) -> None:
        result.aborted_reason = reason
        result.aborted_at_step = step
        result.aborted_site = site
        result.wall_finished = self.kernel.now
        self.kernel.emit(f"coordinator.{self.run_id}", "experiment.aborted",
                         step=step, site=site, error=reason)

    def _initialize(self, result: ExperimentResult):
        """Step 0: measure forces at rest and start the integrator."""
        d0 = self._zero_displacement()
        init_span = self._tracer.start_span("coordinator.step",
                                            run_id=self.run_id, step=0)
        self.state.phase = PHASE_PROPOSE
        self.state.pending = self._step_names(0)
        try:
            forces0, _ = yield from self._round(0, d0, init_span)
        except (RpcError, ReproError) as exc:
            init_span.end(ok=False)
            raise _Abort(0, f"initialization failed: {exc}") from exc
        init_span.end(ok=True)
        r0 = self._assemble_forces(forces0)
        self.integrator.start(r0=r0, p0=self._external_force(0))
        self._integrator_started = True
        self.state.pending = {}
        self.state.phase = PHASE_IDLE
        self.state.step = 1
        yield from self._maybe_checkpoint(result, reason="policy")

    def _resume(self, result: ExperimentResult):
        """Re-enter the step machine after a coordinator restart."""
        result.steps.extend(self.prior_records)
        self._records_flushed = len(result.steps)
        self.kernel.emit(f"coordinator.{self.run_id}", "experiment.resumed",
                         step=self.state.step,
                         generation=self.state.generation,
                         prior_steps=len(self.prior_records))
        reconciler = Reconciler(client=self.client, sites=self.sites,
                                state=self.state, tracer=self._tracer)
        report = yield from reconciler.run()
        self.last_reconciliation = report
        # The reconciler already cancelled what needed cancelling (and
        # waited for the answer); only the rename half of retire is left.
        for action in report.actions:
            self._rename(self.state.step, action.site, action.transaction)
        # Speculative overrides are applied *after* the in-flight step's,
        # so when the speculation's step index collides with state.step
        # (a rollback left burned names at the step a later commit made
        # current) the drain's rename wins — harvesting a mispredicted
        # speculation would commit forces for a displacement the
        # integrator never chose.
        for action in report.speculative:
            self._rename(self.state.speculative_step, action.site,
                         action.transaction)
            self._tm_spec_drains.inc()
        self.state.speculative = {}
        self.state.speculative_step = 0
        self.state.pending = {}
        self.state.phase = PHASE_IDLE

    def _integrate(self, step: int, step_span) -> np.ndarray:
        """INTEGRATE, under its phase span: the next displacement command,
        or the abort.

        Numerical divergence (e.g. an explicit integrator past its
        stability limit) ends the experiment, it does not crash the
        coordinator.
        """
        self.state.phase = PHASE_INTEGRATE
        span = self._tracer.start_span("coordinator.step.integrate",
                                       parent=step_span, step=step)
        try:
            d_next = self.integrator.propose_next()
            if not np.all(np.isfinite(d_next)):
                raise FloatingPointError("non-finite displacement")
        except (ValueError, FloatingPointError) as exc:
            span.end(ok=False)
            step_span.end(ok=False)
            raise _Abort(step, f"integrator diverged: {exc}") from exc
        span.end()
        return d_next

    def _commit(self, result: ExperimentResult, step: int, d: np.ndarray,
                forces: dict[str, dict], attempts: int,
                started: float) -> StepRecord:
        """COMMIT: advance the integrator through the measured forces,
        record the step, and move the machine to the next one."""
        self.state.phase = PHASE_COMMIT
        r = self._assemble_forces(forces)
        self.integrator.commit(d, r, self._external_force(step))
        record = StepRecord(step=step, model_time=step * self.motion.dt,
                            displacement=d.copy(), restoring_force=r,
                            site_forces=forces, attempts=attempts,
                            wall_started=started,
                            wall_finished=self.kernel.now,
                            degraded=tuple(self.state.degraded_sites))
        result.steps.append(record)
        self._tm_steps.inc()
        self._tm_step_time.observe(record.wall_finished - started)
        if record.degraded:
            self._tm_degraded_steps.inc()
        self.state.pending = {}
        self.state.phase = PHASE_IDLE
        self.state.step = step + 1
        return record

    def _run_steps(self, result: ExperimentResult):
        """The stepping loop: one committed step per iteration.

        Without a predictor nothing is in flight between iterations: each
        step is a clean boundary and its round runs inline, INTEGRATE →
        PROPOSE → EXECUTE → COMMIT.  With one, the round runs in the
        background and step *n+1* goes on the wire speculatively (from
        predicted forces) while step *n* executes; once *n* commits, the
        speculation is *adopted* as the next in-flight step if its
        command is bit-exact with the committed integrator's, or rolled
        back (cancel + ``-s`` rename), which makes the next iteration a
        clean boundary again.  Either way the committed history is the
        sequential one.
        """
        pending: _InFlightStep | None = None
        while self.state.step <= self.state.target_steps:
            step = self.state.step
            if pending is None and self.failover is not None:
                # Recovered sites re-enter only at a clean boundary, so a
                # step never splits its propose/execute across two
                # servers, not even under a live speculation.
                self.failover.apply_readmissions(step)
            # The step span and its contiguous phase children (integrate →
            # propose → execute → commit, plus retry_wait on faults) are
            # the paper's Figure-5 step-time breakdown: phase durations sum
            # to the step's wall time on the sim clock.  Checkpoint spans
            # live *outside* the step span for the same reason.
            step_span = self._tracer.start_span("coordinator.step",
                                                run_id=self.run_id, step=step)
            if pending is None:
                issued_at = self.kernel.now
                d = self._integrate(step, step_span)
                self.state.phase = PHASE_PROPOSE
                self.state.pending = self._step_names(step)
                if self.predictor is not None:
                    pending = self._issue_step(step, d, step_span)
                    # The replacement names for any rolled-back
                    # speculation of this step are now on the wire; the
                    # burned originals are dead garbage no resume needs
                    # to drain.
                    self.state.speculative = {}
                    self.state.speculative_step = 0
            else:
                d, issued_at = pending.d, pending.issued_at
            spec = None
            if (pending is not None and step < self.state.target_steps
                    and not (self.failover is not None
                             and self.failover.has_pending_readmissions)):
                spec = self._speculate(step + 1, pending)
            try:
                if pending is None:
                    forces, attempts = yield from self._round(step, d,
                                                              step_span)
                else:
                    self.state.phase = PHASE_EXECUTE
                    try:
                        forces, attempts = (yield pending.process), 1
                    except (RpcError, ReproError) as exc:
                        # Drain the speculation *before* the policy
                        # fallback: its retries may swap in a surrogate,
                        # and a speculative transaction must never
                        # straddle that swap.
                        if spec is not None:
                            self._rollback_speculation(spec, "fault")
                            spec = None
                        forces, attempts = yield from self._round(
                            step, d, step_span, initial_error=exc)
            except (RpcError, ReproError) as exc:
                step_span.end(ok=False)
                raise _Abort(step, str(exc)) from exc
            commit_span = self._tracer.start_span(
                "coordinator.step.commit", parent=step_span, step=step)
            record = self._commit(result, step, d, forces, attempts,
                                  issued_at)
            commit_span.end()
            attrs = ({"degraded": ",".join(record.degraded)}
                     if record.degraded else {})
            if self.predictor is not None:
                adopted = spec is not None and self._adopt(spec)
                attrs.update(speculated=spec is not None, adopted=adopted)
                pending = spec if adopted else None
            step_span.end(ok=True, attempts=attempts, **attrs)
            yield from self._maybe_checkpoint(result, reason="policy")

    # -- the experiment ------------------------------------------------------
    def run(self):
        """Kernel process: execute the full record; returns the result.

        Never raises for step failures — aborts are recorded in the result
        (``completed=False``), matching how MOST's premature exit was itself
        a recorded outcome, not a crash.  A resumed coordinator
        (``state.generation > 0``) reconciles the aborted attempt first,
        then continues from the checkpointed step; its result contains the
        prior incarnations' records too, so histories merge seamlessly.
        """
        resumed = self.state.generation > 0
        result = ExperimentResult(run_id=self.run_id,
                                  target_steps=self.state.target_steps,
                                  dt=self.motion.dt,
                                  wall_started=(self.state.wall_started
                                                if resumed
                                                else self.kernel.now))
        try:
            if resumed:
                yield from self._resume(result)
            else:
                self.state.wall_started = result.wall_started
                self.kernel.emit(f"coordinator.{self.run_id}",
                                 "experiment.started",
                                 steps=result.target_steps,
                                 sites=len(self.sites))
                yield from self._initialize(result)
            yield from self._run_steps(result)
        except _Abort as abort:
            # The one abort exit.  The best-effort final checkpoint
            # captures the in-flight step's pending transaction names, so
            # resume-time reconciliation can probe exactly what was on
            # the wire.  The site is the one ``_guarded`` tagged onto the
            # failure the abort was raised from ("" when no site failed:
            # a diverged integrator).
            self._record_abort(result, *abort.args,
                               site=getattr(abort.__cause__, "site", ""))
            if self.checkpoint_policy.on_abort:
                yield from self._maybe_checkpoint(result, reason="abort",
                                                  force=True)
            return result
        result.completed = True
        result.wall_finished = self.kernel.now
        self.kernel.emit(f"coordinator.{self.run_id}", "experiment.completed",
                         steps=result.steps_completed,
                         wall=result.wall_duration)
        yield from self._maybe_checkpoint(result, reason="final", force=True)
        return result
