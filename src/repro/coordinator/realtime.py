"""Near-real-time coordination (paper §5, "Ongoing Work").

"MOST and most follow-on experiments have lax performance requirements;
even long delays can be tolerated without affecting results.  We are
working with engineers ... to support distributed experiments with
near-real-time requirements.  This work has two facets: we are working on
improving NTCP performance, while the earthquake engineers are developing
simulation and control software that can better tolerate delays."

:class:`RealTimeCoordinator` implements both facets in their simplest
faithful form:

* **protocol side** — one-round dispatch (``propose_and_execute`` chains,
  no cross-site barrier) issued on a *fixed period*: the integrator ticks
  every ``period`` seconds whether or not every site has answered;
* **engineering side** — delay tolerance via *force prediction*: when a
  site's measurement for the current displacement has not arrived by the
  tick, its restoring force is linearly extrapolated from its last two
  known values, and a site still busy with the previous command simply
  skips one (its actuator is behind; the prediction carries the physics).

The price of speed is fidelity drift, which is exactly the §5 trade: the
faster the period relative to site response time, the more predicted
forces enter the integration.  :class:`RealTimeStats` quantifies it, and
``bench_trt_realtime`` sweeps the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coordinator.mspsds import SiteBinding
from repro.coordinator.records import ExperimentResult, StepRecord
from repro.coordinator.state import transaction_name
from repro.core.client import NTCPClient
from repro.control.actions import make_displacement_actions
from repro.net.rpc import RpcError
from repro.structural.ground_motion import GroundMotion
from repro.structural.integrators import CentralDifferencePSD
from repro.structural.model import StructuralModel
from repro.util.errors import ConfigurationError, ReproError


@dataclass
class RealTimeStats:
    """Fidelity accounting for a near-real-time run."""

    steps: int = 0
    predicted_forces: int = 0      # site-steps integrated from prediction
    skipped_dispatches: int = 0    # commands never sent (site busy)
    site_predictions: dict[str, int] = field(default_factory=dict)
    failures: int = 0

    @property
    def prediction_fraction(self) -> float:
        total = self.steps * max(1, len(self.site_predictions))
        return self.predicted_forces / total if total else 0.0


class _SiteChannel:
    """Per-site command pipe: at most one in-flight command."""

    def __init__(self, binding: SiteBinding):
        self.binding = binding
        self.busy = False
        self.last_forces: list[np.ndarray] = []  # history, newest last
        self.pending_step: int | None = None

    def predict(self) -> np.ndarray:
        """Linear extrapolation from the last two measured force vectors."""
        if not self.last_forces:
            return np.zeros(len(self.binding.dof_indices))
        if len(self.last_forces) == 1:
            return self.last_forces[-1].copy()
        return 2 * self.last_forces[-1] - self.last_forces[-2]

    def record(self, forces: np.ndarray) -> None:
        self.last_forces.append(forces)
        if len(self.last_forces) > 2:
            self.last_forces.pop(0)


class RealTimeCoordinator:
    """Fixed-period MS-PSDS stepping with force prediction."""

    def __init__(self, *, run_id: str, client: NTCPClient,
                 model: StructuralModel, motion: GroundMotion,
                 sites: list[SiteBinding], period: float,
                 execution_timeout: float | None = None):
        if period <= 0:
            raise ConfigurationError("period must be positive")
        covered = set()
        for site in sites:
            covered.update(int(i) for i in site.dof_indices)
        if covered != set(range(model.n_dof)):
            raise ConfigurationError("sites do not cover the model's DOFs")
        self.run_id = run_id
        self.client = client
        self.model = model
        self.motion = motion
        self.period = period
        self.execution_timeout = (execution_timeout if execution_timeout
                                  is not None else max(10.0, 50 * period))
        self.kernel = client.rpc.kernel
        self.channels = [_SiteChannel(s) for s in sites]
        self.integrator = CentralDifferencePSD(model, motion.dt)
        self.stats = RealTimeStats(
            site_predictions={s.name: 0 for s in sites})

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, channel: _SiteChannel, step: int,
                  d_global: np.ndarray) -> None:
        """Fire-and-forget command to one site."""
        binding = channel.binding
        targets = {local: float(d_global[g])
                   for local, g in enumerate(binding.dof_indices)}
        channel.busy = True
        channel.pending_step = step

        def chain():
            try:
                result = yield from self.client.propose_and_execute(
                    binding.handle,
                    transaction_name(self.run_id, step, binding.name),
                    make_displacement_actions(targets),
                    execution_timeout=self.execution_timeout,
                    timeout=self.execution_timeout + 5.0, retries=0)
            except (RpcError, ReproError):
                self.stats.failures += 1
                channel.busy = False
                channel.pending_step = None
                return
            forces = result.readings["forces"]
            channel.record(np.array(
                [forces[local] for local in
                 range(len(binding.dof_indices))], dtype=float))
            channel.busy = False
            channel.pending_step = None

        proc = self.kernel.process(chain(),
                                   name=f"rt.{binding.name}.{step}")
        proc.defuse()

    def _gather_forces(self) -> np.ndarray:
        """Freshest forces (measured or predicted) assembled globally."""
        r = np.zeros(self.model.n_dof)
        for channel in self.channels:
            if channel.busy or not channel.last_forces:
                forces = channel.predict()
                self.stats.predicted_forces += 1
                self.stats.site_predictions[channel.binding.name] += 1
            else:
                forces = channel.last_forces[-1]
            for local, g in enumerate(channel.binding.dof_indices):
                r[g] += forces[local]
        return r

    # -- the run ---------------------------------------------------------------
    def run(self):
        """Kernel process; returns an :class:`ExperimentResult`."""
        result = ExperimentResult(run_id=self.run_id,
                                  target_steps=self.motion.n_steps - 1,
                                  dt=self.motion.dt,
                                  wall_started=self.kernel.now)
        d0 = np.zeros(self.model.n_dof)
        for channel in self.channels:
            self._dispatch(channel, 0, d0)
        # give initialization one full site response before ticking
        yield self.kernel.timeout(self.execution_timeout)
        r0 = self._gather_forces()
        self.integrator.start(
            r0=r0, p0=self.model.external_force(self.motion.accel[0]))

        for step in range(1, self.motion.n_steps):
            tick_started = self.kernel.now
            d_next = self.integrator.propose_next()
            for channel in self.channels:
                if channel.busy:
                    self.stats.skipped_dispatches += 1
                else:
                    self._dispatch(channel, step, d_next)
            yield self.kernel.timeout(self.period)
            r_next = self._gather_forces()
            p_next = self.model.external_force(self.motion.accel[step])
            self.integrator.commit(d_next, r_next, p_next)
            self.stats.steps += 1
            site_forces = {
                c.binding.name: {local: float(
                    (c.last_forces[-1] if c.last_forces else
                     np.zeros(len(c.binding.dof_indices)))[local])
                    for local in range(len(c.binding.dof_indices))}
                for c in self.channels}
            result.steps.append(StepRecord(
                step=step, model_time=step * self.motion.dt,
                displacement=d_next.copy(), restoring_force=r_next,
                site_forces=site_forces, attempts=1,
                wall_started=tick_started, wall_finished=self.kernel.now))
        result.completed = True
        result.wall_finished = self.kernel.now
        return result
