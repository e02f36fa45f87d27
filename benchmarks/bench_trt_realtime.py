"""T-RT — §5 extension: near-real-time coordination trade-off.

The paper's closing future-work item: supporting "distributed experiments
with near-real-time requirements" by improving NTCP performance and by
control software "that can better tolerate delays".  This bench sweeps the
fixed step period of :class:`~repro.coordinator.realtime.RealTimeCoordinator`
against a site whose back-end takes a fixed time to respond, and reports
the whole trade surface: wall-clock speedup vs lock-step, the fraction of
integration steps that used *predicted* (extrapolated) forces, and the
fidelity loss relative to the lock-step reference trace.

Expected shape: while the period exceeds the site response time the run is
exact and speedup scales with 1/period; pushing the period below the site
response time buys more speed only by substituting prediction for
measurement, and fidelity degrades — the quantitative reason the §5 work
needed *both* facets, not just a faster protocol.
"""

import numpy as np

from repro.coordinator import RealTimeCoordinator, SimulationCoordinator
from repro.grid import Grid
from repro.structural import GroundMotion, StructuralModel

from _report import write_report

BACKEND_TIME = 0.08   # site response time [s]
N_STEPS = 150


def build(backend_time=BACKEND_TIME):
    grid = Grid.star()
    grid.add_simulation_sites({"a": 60.0, "b": 40.0}, latency=0.005,
                              compute_time=backend_time)
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(N_STEPS) * 0.1))
    return (grid.kernel, grid.client(timeout=100.0, retries=0), model,
            motion, grid.bindings())


def bench_trt_realtime():
    # lock-step reference
    k, client, model, motion, sites = build()
    ref = k.run(until=k.process(SimulationCoordinator(
        run_id="ref", client=client, model=model, motion=motion,
        sites=sites).run()))
    d_ref = ref.displacement_history().ravel()
    ref_wall = ref.wall_duration
    scale = float(np.max(np.abs(d_ref)))

    dt = 0.02
    lines = ["Near-real-time coordination (paper §5 ongoing work)", "",
             f"site response time {BACKEND_TIME * 1e3:.0f} ms; structural "
             f"dt {dt * 1e3:.0f} ms; lock-step reference wall "
             f"{ref_wall:.1f} s (pace unguaranteed)",
             "",
             "RealTimeCoordinator guarantees one integration step per "
             "fixed period:",
             f"{'period [ms]':>12}{'x real-time':>12}{'predicted':>11}"
             f"{'skipped':>9}{'rms err':>9}"]
    rows = []
    for period in (0.5, 0.2, 0.1, 0.05, 0.02):
        k, client, model, motion, sites = build()
        rt = RealTimeCoordinator(run_id="rt", client=client, model=model,
                                 motion=motion, sites=sites, period=period)
        result = k.run(until=k.process(rt.run()))
        d = result.displacement_history().ravel()
        n = min(len(d), len(d_ref))
        rms = float(np.sqrt(np.mean((d[:n] - d_ref[:n]) ** 2))) / scale
        rt_factor = period / dt  # 1.0 = true real time
        rows.append((period, rt_factor, rt.stats.prediction_fraction,
                     rt.stats.skipped_dispatches, rms))
        lines.append(f"{period * 1e3:>12.0f}{rt_factor:>12.1f}"
                     f"{100 * rt.stats.prediction_fraction:>10.0f}%"
                     f"{rt.stats.skipped_dispatches:>9}{rms:>9.3f}")

    # shape assertions: exactness above the site time, degradation below
    exact = [r for r in rows if r[0] >= 2 * BACKEND_TIME]
    pushed = [r for r in rows if r[0] < BACKEND_TIME]
    assert all(r[4] < 1e-9 and r[2] == 0.0 for r in exact)
    assert all(r[2] > 0.0 for r in pushed)
    assert rows[-1][4] > rows[0][4]  # pace bought with fidelity

    lines += ["",
              "shape: pacing slower than the site response time is exact "
              "(MOST's regime, ~600x",
              "real-time); pushing the pace toward true real-time (1.0x) "
              "substitutes predicted",
              "forces for measurements and fidelity degrades to "
              "instability — why §5 needed",
              "delay-tolerant control software, not just a faster NTCP"]
    write_report("trt_realtime", lines)
