"""Near-real-time coordination (paper §5, "Ongoing Work").

"MOST and most follow-on experiments have lax performance requirements;
even long delays can be tolerated without affecting results.  We are
working with engineers ... to support distributed experiments with
near-real-time requirements.  This work has two facets: we are working on
improving NTCP performance, while the earthquake engineers are developing
simulation and control software that can better tolerate delays."

:class:`RealTimeCoordinator` is the MS-PSDS stepping loop of
:class:`~repro.coordinator.mspsds.SimulationCoordinator` under a fixed
period: it replaces only the step's round, and inherits everything else
(initialization, integration, commit, force assembly, transaction names,
the abort on a diverged integrator).  Its round is both facets in their
simplest faithful form:

* **protocol side** — one-round dispatch (``propose_and_execute`` chains,
  no cross-site barrier) issued on a *fixed period*: the integrator ticks
  every ``period`` seconds whether or not every site has answered;
* **engineering side** — delay tolerance via *force prediction*: when a
  site's measurement for the current displacement has not arrived by the
  tick, its restoring force is linearly extrapolated from its last two
  measured values, and a site still busy with the previous command simply
  skips one (its actuator is behind; the prediction carries the physics).

The price of speed is fidelity drift, which is exactly the §5 trade: the
faster the period relative to site response time, the more predicted
forces enter the integration.  :class:`RealTimeStats` quantifies it, and
``bench_trt_realtime`` sweeps the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coordinator.mspsds import SimulationCoordinator, SiteBinding
from repro.core.client import NTCPClient
from repro.control.actions import make_displacement_actions
from repro.net.rpc import RpcError
from repro.structural.ground_motion import GroundMotion
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


class RealTimeCoordinator(SimulationCoordinator):
    """Fixed-period MS-PSDS stepping with force prediction."""

    def __init__(self, *, run_id: str, client: NTCPClient,
                 model: StructuralModel, motion: GroundMotion,
                 sites: list[SiteBinding], period: float,
                 execution_timeout: float | None = None):
        if period <= 0:
            raise ConfigurationError("period must be positive")
        super().__init__(
            run_id=run_id, client=client, model=model, motion=motion,
            sites=sites, execution_timeout=(
                execution_timeout if execution_timeout is not None
                else max(10.0, 50 * period)))
        self.period = period
        self.stats = RealTimeStats(
            site_predictions={s.name: 0 for s in sites})
        self._busy: set[str] = set()
        #: site -> its last two measured force vectors, newest last
        self._measured: dict[str, list[np.ndarray]] = {
            s.name: [] for s in sites}

    def _dispatch(self, site: SiteBinding, step: int,
                  d_global: np.ndarray) -> None:
        """Fire-and-forget command to one idle site."""
        self._busy.add(site.name)

        def chain():
            try:
                outcome = yield from self.client.propose_and_execute(
                    site.handle, self._txn_name(step, site),
                    make_displacement_actions(
                        self._site_targets(site, d_global)),
                    execution_timeout=self.execution_timeout,
                    timeout=self.execution_timeout + 5.0, retries=0)
            except (RpcError, ReproError):
                self.stats.failures += 1
            else:
                forces = outcome.readings["forces"]
                measured = self._measured[site.name]
                measured.append(np.array(
                    [forces[local] for local in range(len(site.dof_indices))],
                    dtype=float))
                del measured[:-2]
            self._busy.discard(site.name)

        self.kernel.process(chain(), name=f"rt.{site.name}.{step}").defuse()

    def _integrated_forces(self, site: SiteBinding) -> dict[int, float]:
        """The site's measured force, or — busy or never measured — its
        linear extrapolation from the last two measurements."""
        measured = self._measured[site.name]
        if site.name in self._busy or not measured:
            self.stats.predicted_forces += 1
            self.stats.site_predictions[site.name] += 1
            forces = (2 * measured[-1] - measured[-2] if len(measured) == 2
                      else measured[-1] if measured
                      else np.zeros(len(site.dof_indices)))
        else:
            forces = measured[-1]
        return dict(enumerate(forces.tolist()))

    def _round(self, step: int, d_global: np.ndarray, ctx=None):
        """One tick: command every idle site, wait one period (a full
        ``execution_timeout`` for the at-rest step 0), and return the
        forces to integrate.  Never fails: a lost command is a prediction.
        """
        for site in self.sites:
            if site.name in self._busy:
                self.stats.skipped_dispatches += 1
            else:
                self._dispatch(site, step, d_global)
        yield self.kernel.timeout(self.period if step
                                  else self.execution_timeout)
        if step:
            self.stats.steps += 1
        return {site.name: self._integrated_forces(site)
                for site in self.sites}, 1
