"""T-PERF — §5: NTCP performance and delay tolerance.

The paper closes with two §5 observations: "MOST and most follow-on
experiments have lax performance requirements; even long delays can be
tolerated", and ongoing work on "improving NTCP performance" for
near-real-time experiments.  Three sub-experiments quantify both:

1. **Step-latency decomposition** — per-step wall time vs one-way link
   latency for a protocol-only site (zero back-end time): the pure NTCP
   cost is ~4 one-way latencies (propose + execute round trips).
2. **Delay tolerance** — the same sweep with a MOST-like back-end
   (settle + polling): step time barely moves until latency approaches
   the back-end time, the quantitative form of "even long delays can be
   tolerated".
3. **Negotiation-barrier ablation** — with vs without the all-sites
   barrier on asymmetric sites: the latency saving bought by giving up
   the before-any-motion safety property.

This module also compares the three MOST stepping modes — sequential,
pipelined, vectorized ensemble.  Run as a script (``make bench-perf``) it
writes the comparison document ``BENCH_tperf_ntcp.json`` at the repo
root; under pytest ``bench_stepping_modes`` re-measures and *compares*
against that committed file.  The floors are the ``tperf_ntcp`` row of
``_report.BENCHES``.
"""

import json
import pathlib

import numpy as np

from repro.coordinator import SimulationCoordinator
from repro.grid import Grid
from repro.structural import GroundMotion, StructuralModel

from repro.coordinator import variant_displacement_history
from repro.most import ExperimentSession, MOSTConfig
from repro.most.assembly import build_simulation_only
from repro.telemetry.report import report_from_jsonl

from _report import (
    BENCH_SCHEMA_ID,
    OUT_DIR,
    check_bench,
    write_bench,
    write_metrics,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DOC = REPO_ROOT / "BENCH_tperf_ntcp.json"


def sweep_rig(latency: float, *, backend_time: float, n_steps: int = 30,
              barrier: bool = True, asymmetric: bool = False):
    """One coordinator + two sites; returns (mean step wall time, hub)."""
    grid = Grid.star()
    params = {"a": (latency, backend_time),
              "b": ((0.005 if asymmetric else latency),
                    (backend_time * 10 if asymmetric else backend_time))}
    for name, (lat, bt) in params.items():
        grid.add_simulation_site(name, 50.0, latency=lat, compute_time=bt)
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(n_steps) * 0.1))
    coord = SimulationCoordinator(
        run_id="perf", client=grid.client(timeout=1e4, retries=0),
        model=model, motion=motion, sites=grid.bindings(),
        execution_timeout=1e4, negotiation_barrier=barrier)
    result = grid.run(coord.run())
    assert result.completed
    return float(np.mean(result.step_durations())), grid.kernel.telemetry


def bench_tperf_ntcp():
    lines = ["NTCP performance (paper §5)", "",
             "[1] protocol-only step cost vs one-way link latency "
             "(no back-end time)",
             f"    {'latency [ms]':>13}{'s/step':>10}{'x latency':>11}"]
    latencies = (0.005, 0.025, 0.1, 0.25)
    trace_hub = None
    for lat in latencies:
        step, hub = sweep_rig(lat, backend_time=0.0)
        if lat == 0.025:
            trace_hub = hub  # representative run, exported below
        lines.append(f"    {1e3 * lat:>13.0f}{step:>10.3f}"
                     f"{step / lat:>11.1f}")
        # propose + execute are two round trips: ~4 one-way latencies
        assert 3.5 <= step / lat <= 5.0
    lines += ["    -> pure NTCP cost is ~4 one-way latencies/step "
              "(propose RT + execute RT)", ""]

    lines += ["[2] delay tolerance with a MOST-like back-end (10 s "
              "settle/poll per step)",
              f"    {'latency [ms]':>13}{'s/step':>10}{'overhead':>10}"]
    base, _ = sweep_rig(0.0005, backend_time=10.0, n_steps=10)
    for lat in (0.005, 0.1, 0.5):
        step, _ = sweep_rig(lat, backend_time=10.0, n_steps=10)
        overhead = (step - base) / base
        lines.append(f"    {1e3 * lat:>13.0f}{step:>10.2f}"
                     f"{100 * overhead:>9.1f}%")
        assert overhead < 0.25  # 500 ms latency costs <25% of a step
    lines += ["    -> 'even long delays can be tolerated without "
              "affecting results' (§5):",
              "       actuator settle dominates; 100x latency growth barely "
              "moves step time", ""]

    lines += ["[3] ablation: negotiation barrier on asymmetric sites "
              "(fast link+slow site / slow link+fast site)",
              f"    {'configuration':<28}{'s/step':>10}"]
    with_barrier, _ = sweep_rig(0.25, backend_time=0.5, asymmetric=True,
                                barrier=True)
    without, _ = sweep_rig(0.25, backend_time=0.5, asymmetric=True,
                           barrier=False)
    lines.append(f"    {'all-sites barrier (paper)':<28}{with_barrier:>10.3f}")
    lines.append(f"    {'no barrier (ablated)':<28}{without:>10.3f}")
    assert without < with_barrier
    lines += [f"    -> the barrier costs "
              f"{1e3 * (with_barrier - without):.0f} ms/step here; the "
              "paper pays it to guarantee",
              "       no site moves before every site has accepted "
              "(irreversible physical actions)"]

    # Structured artifacts: full trace (metrics + spans) of the
    # representative 25 ms run, its metrics document, and the Figure-5
    # style step-time breakdown rendered from the trace alone.
    assert trace_hub is not None
    trace_path = trace_hub.export_jsonl(OUT_DIR / "tperf_ntcp.trace.jsonl",
                                        experiment="tperf_ntcp")
    write_metrics("tperf_ntcp", trace_hub)
    lines += ["", "[4] per-step phase breakdown at 25 ms latency "
              "(from the exported trace)"]
    lines += ["    " + row
              for row in report_from_jsonl(trace_path).splitlines()]
    write_report("tperf_ntcp", lines)


# ---------------------------------------------------------------------------
# Stepping modes: sequential vs pipelined vs vectorized ensemble
# ---------------------------------------------------------------------------

def _mode_record(result, *, n_variants: int = 1) -> dict:
    wall = float(result.wall_duration)
    steps = int(result.steps_completed)
    return {"steps": steps, "variants": n_variants, "sim_duration": wall,
            "median_step_latency": float(np.median(result.step_durations())),
            "aggregate_steps_per_s": steps / wall,
            "aggregate_variant_steps_per_s": steps * n_variants / wall}


def run_stepping_modes(n_steps: int = 60, n_variants: int = 8) -> dict:
    """Run the three MOST stepping modes; return the comparison document.

    Every figure is *simulated* seconds on the deterministic kernel, so
    the document is bit-identical run to run — safe to commit and diff.
    Variant 0 of the ensemble is the unscaled record, which must come out
    bit-exact against the sequential run (as must the whole pipelined
    history: speculation that mispredicts rolls back, so committed
    physics never changes).  The pipelined session's trace goes to
    ``benchmarks/out/tperf_pipelined.trace.jsonl``, for the step report
    CLI.
    """
    config = MOSTConfig().scaled(n_steps)
    base = build_simulation_only(config).motion
    scales = [1.0] + [0.5 + 0.5 * i / n_variants
                      for i in range(1, n_variants)]
    variants = [GroundMotion(dt=base.dt, accel=base.accel * s)
                for s in scales]

    sequential = ExperimentSession(config, run_id="bench-seq",
                                   simulation_only=True).run()
    pipelined = (ExperimentSession(config, run_id="bench-pipe",
                                   simulation_only=True)
                 .with_pipeline()
                 .run())
    pipelined.deployment.kernel.telemetry.export_jsonl(
        OUT_DIR / "tperf_pipelined.trace.jsonl", experiment="tperf_pipelined")
    ensemble = (ExperimentSession(config, run_id="bench-ens",
                                  simulation_only=True)
                .with_ensemble(variants)
                .run())

    seq_hist = sequential.result.displacement_history()
    modes = {"sequential": _mode_record(sequential.result),
             "pipelined": _mode_record(pipelined.result),
             "ensemble": _mode_record(ensemble.result,
                                      n_variants=n_variants)}
    payload = {
        "schema": BENCH_SCHEMA_ID,
        "experiment": "tperf_ntcp",
        "config": {"n_steps": n_steps, "n_variants": n_variants},
        "modes": modes,
        "speedups": {
            "pipelined_aggregate_steps_per_s":
                modes["pipelined"]["aggregate_steps_per_s"]
                / modes["sequential"]["aggregate_steps_per_s"],
            "ensemble_aggregate_variant_steps_per_s":
                modes["ensemble"]["aggregate_variant_steps_per_s"]
                / modes["sequential"]["aggregate_variant_steps_per_s"],
        },
        "bit_exact": {
            "pipelined": bool(np.array_equal(
                pipelined.result.displacement_history(), seq_hist)),
            "ensemble_base_variant": bool(np.array_equal(
                variant_displacement_history(ensemble.result, 0), seq_hist)),
        },
    }
    return payload


def _stepping_report(payload: dict) -> list[str]:
    lines = ["MOST stepping modes (pipelined NTCP + vectorized ensembles)",
             "",
             f"    {'mode':<12}{'steps':>7}{'variants':>10}"
             f"{'s/step (med)':>14}{'steps/s':>10}{'var-steps/s':>13}"]
    for name in ("sequential", "pipelined", "ensemble"):
        m = payload["modes"][name]
        lines.append(f"    {name:<12}{m['steps']:>7}{m['variants']:>10}"
                     f"{m['median_step_latency']:>14.3f}"
                     f"{m['aggregate_steps_per_s']:>10.3f}"
                     f"{m['aggregate_variant_steps_per_s']:>13.3f}")
    speed = payload["speedups"]
    exact = payload["bit_exact"]
    lines += [
        "",
        f"    pipelined speedup : "
        f"{speed['pipelined_aggregate_steps_per_s']:.2f}x aggregate steps/s "
        f"(bit-exact: {exact['pipelined']})",
        f"    ensemble speedup  : "
        f"{speed['ensemble_aggregate_variant_steps_per_s']:.2f}x aggregate "
        f"variant-steps/s (base variant bit-exact: "
        f"{exact['ensemble_base_variant']})",
    ]
    return lines


def bench_stepping_modes():
    payload = run_stepping_modes()
    check_bench(payload, committed=True)
    # a gate compares; only `make bench-perf` writes the tracked file
    assert payload == json.loads(BENCH_DOC.read_text()), \
        f"{BENCH_DOC.name} is stale: regenerate it with `make bench-perf`"
    write_report("tperf_stepping_modes", _stepping_report(payload))


def main() -> int:
    """``make bench-perf``: the comparison, written to the repo root."""
    payload = run_stepping_modes()
    print("\n".join(_stepping_report(payload)))
    write_bench(BENCH_DOC, payload, committed=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
