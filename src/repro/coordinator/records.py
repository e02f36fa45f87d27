"""Experiment records produced by the coordinator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StepRecord:
    """One completed MS-PSDS step."""

    step: int
    model_time: float          # structural time (step * dt)
    displacement: np.ndarray   # commanded global displacement
    restoring_force: np.ndarray
    site_forces: dict[str, dict[int, float]]
    attempts: int              # 1 = clean step; >1 = recovered from failure
    wall_started: float        # simulation wall-clock
    wall_finished: float
    #: sites served by a numerical surrogate when this step committed
    #: (empty for a healthy step) — the graceful-degradation label that
    #: rides into telemetry, checkpoints, and the final report.
    degraded: tuple[str, ...] = ()

    @property
    def wall_duration(self) -> float:
        return self.wall_finished - self.wall_started

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)


@dataclass
class ExperimentResult:
    """The full outcome of one coordinated run.

    ``recoveries`` counts step attempts beyond the first — each is a
    transient failure the coordinator survived.  ``completed`` is False when
    the run aborted early (``aborted_reason`` says why, ``steps_completed``
    says where — e.g. 1493).
    """

    run_id: str
    target_steps: int
    dt: float
    steps: list[StepRecord] = field(default_factory=list)
    completed: bool = False
    aborted_reason: str = ""
    aborted_site: str = ""
    aborted_at_step: int | None = None  # the step that was in flight
    wall_started: float = 0.0
    wall_finished: float = 0.0

    @property
    def steps_completed(self) -> int:
        return len(self.steps)

    @property
    def recoveries(self) -> int:
        return sum(r.attempts - 1 for r in self.steps)

    @property
    def degraded_steps(self) -> int:
        """Committed steps that ran with at least one surrogate site."""
        return sum(1 for r in self.steps if r.degraded)

    def degraded_spans(self) -> list[tuple[int, int, tuple[str, ...]]]:
        """Contiguous ``(first_step, last_step, sites)`` degraded ranges."""
        spans: list[tuple[int, int, tuple[str, ...]]] = []
        for r in self.steps:
            if not r.degraded:
                continue
            if spans and spans[-1][1] == r.step - 1 \
                    and spans[-1][2] == r.degraded:
                spans[-1] = (spans[-1][0], r.step, r.degraded)
            else:
                spans.append((r.step, r.step, r.degraded))
        return spans

    @property
    def wall_duration(self) -> float:
        return self.wall_finished - self.wall_started

    def displacement_history(self) -> np.ndarray:
        """(n_steps, n_dof) array of commanded displacements."""
        if not self.steps:
            return np.zeros((0, 0))
        return np.vstack([r.displacement for r in self.steps])

    def force_history(self) -> np.ndarray:
        if not self.steps:
            return np.zeros((0, 0))
        return np.vstack([r.restoring_force for r in self.steps])

    def site_force_history(self, site: str, local_dof: int = 0) -> np.ndarray:
        return np.array([r.site_forces[site][local_dof] for r in self.steps])

    def step_durations(self) -> np.ndarray:
        return np.array([r.wall_duration for r in self.steps])

    def summary(self) -> dict:
        """The §3.4-style results row benchmarks print."""
        return {
            "run_id": self.run_id,
            "completed": self.completed,
            "steps_completed": self.steps_completed,
            "target_steps": self.target_steps,
            "recoveries": self.recoveries,
            "aborted_reason": self.aborted_reason,
            "aborted_site": self.aborted_site,
            "aborted_at_step": self.aborted_at_step,
            "degraded_steps": self.degraded_steps,
            "degraded_sites": sorted({site for r in self.steps
                                      for site in r.degraded}),
            "wall_duration": self.wall_duration,
            "mean_step_duration": (float(np.mean(self.step_durations()))
                                   if self.steps else 0.0),
            "peak_displacement": (float(np.max(np.abs(
                self.displacement_history()))) if self.steps else 0.0),
        }
