"""F6/F7 — Figures 6-7: the physical substructure tests at UIUC and CU.

Regenerates what the photographs show: each column specimen on its
servo-hydraulic rig tracking commanded displacements.  The report gives
tracking accuracy, settle-time statistics, hysteresis energy (the columns
yield), and the sensor suite's noise floor — per site, via each site's
real control chain (Shore-Western frames at UIUC, xPC commands at CU).
"""

import numpy as np

from repro.most import ExperimentSession, MOSTConfig

from _report import write_report


def bench_f67_specimens():
    config = MOSTConfig().scaled(300)
    report = ExperimentSession(config, run_id="most-dry").run()
    result = report.result
    assert result.completed
    dep = report.deployment

    lines = ["Figures 6-7 reproduction: physical column tests", ""]
    d_cmd = result.displacement_history().ravel()
    for name, chain in (("uiuc", "Shore-Western servo-hydraulics"),
                        ("cu", "Matlab/xPC real-time target")):
        spec = dep.sites[name].specimen
        history = spec.history
        cmd = np.array([m.commanded for m in history])
        ach = np.array([m.achieved for m in history])
        settle = np.array([m.settle_time for m in history])
        forces = np.array([m.force for m in history])
        tracking_rms = float(np.sqrt(np.mean((ach - cmd) ** 2)))
        # hysteresis loop energy from the measured data
        energy = float(np.trapezoid(forces, ach))
        lines += [
            f"{name.upper()} column ({chain}):",
            f"  moves executed      : {len(history)}",
            f"  peak displacement   : {1e3 * np.max(np.abs(ach)):.1f} mm "
            f"(stroke limit {1e3 * config.actuator_stroke:.0f} mm)",
            f"  tracking error RMS  : {1e6 * tracking_rms:.1f} um",
            f"  settle time         : mean {np.mean(settle):.1f} s, "
            f"max {np.max(settle):.1f} s",
            f"  peak measured force : {np.max(np.abs(forces)) / 1e3:.0f} kN",
            f"  hysteresis energy   : {energy / 1e3:.1f} kJ "
            f"({'yielded' if energy > 1e3 else 'elastic'})",
            "",
        ]
        assert tracking_rms < 1e-4          # actuator tracks commands
        assert np.max(np.abs(ach)) <= config.actuator_stroke
        assert energy > 0                    # plastic dissipation observed
    lines.append(f"commanded drift range across the run: "
                 f"[{1e3 * d_cmd.min():.1f}, {1e3 * d_cmd.max():.1f}] mm")
    write_report("f67_specimens", lines)
