"""Ensemble stepping: one coordinator drives N scenario variants at once.

A parameter study ("the same structure under eight scaled ground
motions") traditionally reruns the whole distributed experiment per
variant, paying the NTCP round trip and the sites' compute time N times
per step.  :class:`EnsembleCoordinator` batches instead: the integrator
state widens to ``(n_dof, n_variants)`` (see
:class:`~repro.structural.integrators.EnsembleCentralDifferencePSD`),
each proposal carries a *list* of displacements per DOF — one entry per
variant — and each site evaluates its substructure once over the whole
batch.  One INTEGRATE → PROPOSE → EXECUTE → COMMIT cycle therefore
advances every variant, amortizing both the protocol exchange and the
per-site compute charge across the ensemble.

Column *i* of the batched history is bit-identical to a solo run driven
by variant *i* alone: the dense algebra (``@``, ``lu_solve``) is
column-independent, the external load for each variant is computed with
exactly the solo code path, and the wire format round-trips floats
losslessly.  Checkpoints, resume, telemetry, degradation, and pipelined
stepping all compose — the ensemble only changes the *shape* flowing
through the machine, not the machine itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coordinator.mspsds import SimulationCoordinator
from repro.coordinator.records import ExperimentResult
from repro.structural.ground_motion import GroundMotion
from repro.structural.integrators import EnsembleCentralDifferencePSD
from repro.util.errors import ConfigurationError


class EnsembleCoordinator(SimulationCoordinator):
    """Drives N scenario variants through one distributed experiment.

    Args:
        variants: the ground-motion record per variant.  All records
            must share ``dt`` and ``n_steps`` (the ensemble advances in
            lock-step; scale or substitute accelerograms, don't re-grid
            them).
        integrator_factory: optional ``(model, dt, n_variants) ->``
            batched integrator (default
            :class:`~repro.structural.integrators.EnsembleCentralDifferencePSD`);
            its ``state_shape()`` is ``(n_dof, n_variants)``, the shape
            every vector of the run takes.

    Every other argument matches :class:`SimulationCoordinator`.
    """

    def __init__(self, *, variants: Sequence[GroundMotion],
                 integrator_factory=None, **kwargs):
        variants = list(variants)
        if not variants:
            raise ConfigurationError("ensemble needs at least one variant")
        first = variants[0]
        for i, motion in enumerate(variants[1:], start=1):
            if (motion.n_steps != first.n_steps
                    or not np.isclose(motion.dt, first.dt)):
                raise ConfigurationError(
                    f"variant {i} has {motion.n_steps} steps @ {motion.dt}; "
                    f"variant 0 has {first.n_steps} @ {first.dt} — ensemble "
                    "variants must share the time grid")
        self.variants = variants
        self.n_variants = len(variants)
        if "motion" in kwargs:
            raise ConfigurationError(
                "pass ensemble records via variants=, not motion=")
        factory = integrator_factory or EnsembleCentralDifferencePSD
        n_variants = self.n_variants
        super().__init__(
            motion=first,
            integrator_factory=lambda model, dt: factory(model, dt,
                                                         n_variants),
            **kwargs)

    # -- hook override (shape widening) -----------------------------------
    def _external_force(self, step: int) -> np.ndarray:
        # One solo-code-path evaluation per variant, stacked as columns:
        # bit-exact with N separate runs by construction.
        return np.stack([self.model.external_force(v.accel[step])
                         for v in self.variants], axis=1)


def variant_displacement_history(result: ExperimentResult,
                                 variant: int) -> np.ndarray:
    """One variant's committed displacement history, ``(steps, n_dof)``.

    Slices column ``variant`` out of every committed record — the array
    a solo run of that variant would have produced, for comparison or
    per-variant post-processing.
    """
    rows = []
    for record in result.steps:
        d = np.asarray(record.displacement, dtype=float)
        if d.ndim < 2:
            raise ConfigurationError(
                f"step {record.step} is not an ensemble record")
        if not 0 <= variant < d.shape[1]:
            raise ConfigurationError(
                f"variant {variant} out of range (ensemble has "
                f"{d.shape[1]})")
        rows.append(d[:, variant])
    return np.array(rows)
