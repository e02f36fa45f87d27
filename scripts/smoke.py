#!/usr/bin/env python
"""CI smoke target: run a short experiment, validate its telemetry.

A MOST-shaped two-site run (a few dozen steps), then the full telemetry
pipeline end-to-end:

1. export the run as JSONL (meta + metrics + spans) and re-load it;
2. schema-validate the export and the metrics document;
3. check the Figure-5 invariant — each step's phase spans sum to the
   step's wall time;
4. render the step-latency table with :mod:`repro.telemetry.report`.

Exits non-zero on any failure, so CI can gate on
``python scripts/smoke.py``.  Artifacts land in ``benchmarks/out/``.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import (
    GroundMotion,
    SimulationCoordinator,
    StructuralModel,
    TelemetryHub,
)
from repro.grid import Grid
from repro.telemetry import validate_jsonl_export, validate_metrics_payload
from repro.telemetry.report import CORE_PHASES, report_from_jsonl, step_rows

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "out"
N_STEPS = 40


def run_experiment():
    grid = Grid.star()
    for name, latency in (("uiuc", 0.02), ("colorado", 0.03)):
        grid.add_simulation_site(name, 50.0, latency=latency,
                                 compute_time=0.1)
    model = StructuralModel(mass=[[2.0, 0.0], [0.0, 2.0]],
                            stiffness=[[150.0, -50.0], [-50.0, 50.0]],
                            damping=[[1.0, 0.0], [0.0, 1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(N_STEPS) * 0.3))
    coordinator = SimulationCoordinator(
        run_id="smoke", client=grid.client(timeout=1e3, retries=1),
        model=model, motion=motion,
        sites=grid.bindings({"uiuc": [0], "colorado": [1]}),
        execution_timeout=1e3)
    return grid.run(coordinator.run()), grid.kernel


def main() -> int:
    result, kernel = run_experiment()
    if not result.completed:
        print(f"FAIL: experiment aborted: {result.aborted_reason}")
        return 1
    print(f"experiment: {result.steps_completed}/{result.target_steps} steps "
          f"in {result.wall_duration:.1f} simulated s")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = kernel.telemetry.export_jsonl(
        OUT_DIR / "smoke.trace.jsonl", experiment="smoke")
    loaded = TelemetryHub.load_jsonl(trace_path)
    validate_jsonl_export(loaded)
    print(f"trace: {len(loaded['metrics'])} metrics, "
          f"{len(loaded['spans'])} spans -> {trace_path}")

    payload = kernel.telemetry.metrics_payload("smoke")
    validate_metrics_payload(payload)
    metrics_path = OUT_DIR / "smoke.metrics.json"
    metrics_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
    print(f"metrics: schema-valid -> {metrics_path}")

    rows = step_rows(loaded["spans"])
    if len(rows) != result.steps_completed + 1:  # init + integrated steps
        print(f"FAIL: {len(rows)} step spans for "
              f"{result.steps_completed} steps")
        return 1
    for row in rows[1:]:
        phase_sum = sum(row["phases"].get(p, 0.0) for p in CORE_PHASES)
        if abs(phase_sum - row["total"]) > 1e-9:
            print(f"FAIL: step {row['step']} phases sum to {phase_sum}, "
                  f"step wall time is {row['total']}")
            return 1
    print(f"decomposition: {len(rows)} steps, phases sum to step wall time")

    print()
    print(report_from_jsonl(trace_path, max_rows=5))
    print()
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
