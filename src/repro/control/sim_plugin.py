"""Pure-simulation control plugin.

"It allows us to first test hybrid experiments with purely simulation
components and then seamlessly replace the simulation components with
physical simulations" — this plugin is the first half of that sentence: it
evaluates a numerical substructure directly, optionally charging a
configurable compute time to the simulation clock.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.control.actions import displacement_targets
from repro.core.messages import Proposal
from repro.core.plugin import ControlPlugin
from repro.core.policy import SitePolicy


class SimulationPlugin(ControlPlugin):
    """Evaluates a substructure's restoring force numerically.

    ``substructure`` is anything with ``dof_indices`` and
    ``restoring(d_local) -> forces`` (see
    :class:`repro.structural.substructure.LinearSubstructure`).  DOF numbers
    in the actions are *local* substructure indices (0..len-1).
    """

    plugin_type = "simulation"

    def __init__(self, substructure, *, compute_time: float = 0.05,
                 policy: SitePolicy | None = None):
        super().__init__(policy=policy)
        self.substructure = substructure
        self.compute_time = compute_time
        self.steps_executed = 0

    def execute(self, proposal: Proposal):
        targets = displacement_targets(proposal.actions)
        if self.compute_time > 0:
            yield self.kernel.timeout(self.compute_time)
        readings = substructure_readings(self.substructure, targets,
                                         self.compute_time)
        self.steps_executed += 1
        return readings


def substructure_readings(substructure, targets: dict,
                          settle_time: float) -> dict[str, Any]:
    """The readings of ``substructure`` driven to ``targets`` (local DOF →
    displacement): displacements and restoring forces per DOF.

    An ensemble batch (list-valued targets, one entry per variant) is
    evaluated in one vectorized ``restoring()`` call, each reading a list
    per DOF: the compute time is charged once for the whole batch, which
    is the amortization that makes ensemble stepping fast.
    """
    values = list(targets.values())
    batched = any(isinstance(value, list) for value in values)
    d_local = np.zeros((len(substructure.dof_indices), len(values[0]))
                       if batched else len(substructure.dof_indices))
    for dof, value in targets.items():
        d_local[dof] = value
    forces = np.atleast_1d(substructure.restoring(d_local))
    read = (lambda row: [float(x) for x in row]) if batched else float
    return {"displacements": {dof: read(d_local[dof]) for dof in targets},
            "forces": {dof: read(forces[dof]) for dof in targets},
            "settle_time": settle_time}
