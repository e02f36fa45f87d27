"""Restoring-force prediction for speculative (pipelined) stepping.

Pipelined stepping overlaps protocol phases: while step *n* executes at
the sites, the coordinator already integrates and proposes step *n+1*.
Doing that requires the restoring forces for step *n* before they are
measured — a **predictor** supplies them.

:class:`SubstructurePredictor` evaluates each site's *nominal*
substructure model with exactly the arithmetic
:class:`~repro.control.sim_plugin.SimulationPlugin` uses, operation for
operation — same zero-fill, same ``np.atleast_1d``, same per-DOF
``float()`` narrowing.  For a numerical site whose plugin wraps the same
substructure the prediction is therefore **bit-identical** to the
measurement, and pipelined histories match sequential ones exactly.  For
a physical site the nominal model is only an estimate; the coordinator
compares the speculated displacement against the truth on every commit
and rolls the speculation back when it diverges beyond the configured
tolerance.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.util.errors import ConfigurationError


class SubstructurePredictor:
    """Predicts per-site restoring forces from nominal substructures.

    ``substructures`` maps site name → anything with ``dof_indices`` and
    ``restoring(d_local) -> forces`` (see
    :class:`~repro.structural.substructure.LinearSubstructure`).  DOF
    numbers in ``targets`` are *local* substructure indices, exactly as
    in the ``set-displacement`` action vocabulary.
    """

    def __init__(self, substructures: dict[str, Any]):
        if not substructures:
            raise ConfigurationError(
                "predictor needs at least one substructure")
        self.substructures = dict(substructures)

    def predict(self, site: str, targets: dict) -> dict:
        """Predicted ``{local_dof: force}`` for one site's targets.

        Mirrors ``SimulationPlugin.execute``: list-valued targets (an
        ensemble batch) produce list-valued forces, scalars produce
        scalars — with the same float narrowing in both cases.
        """
        substructure = self.substructures.get(site)
        if substructure is None:
            raise ConfigurationError(f"no predictor substructure for "
                                     f"site {site!r}")
        n = len(substructure.dof_indices)
        batched = any(isinstance(v, (list, tuple, np.ndarray))
                      for v in targets.values())
        if batched:
            width = len(next(iter(targets.values())))
            d_local = np.zeros((n, width))
            for dof, value in targets.items():
                d_local[dof, :] = [float(v) for v in value]
        else:
            d_local = np.zeros(n)
            for dof, value in targets.items():
                d_local[dof] = float(value)
        forces = np.atleast_1d(substructure.restoring(d_local))
        if batched:
            return {dof: [float(f) for f in forces[dof]] for dof in targets}
        return {dof: float(forces[dof]) for dof in targets}
