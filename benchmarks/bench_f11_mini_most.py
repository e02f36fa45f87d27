"""F11 — Figure 11: Mini-MOST.

Regenerates the tabletop emulation: the same coordinator code as MOST with
re-scaled constants, the LabVIEW/stepper control chain, and the
first-order kinetic simulator as the hardware-free stand-in.  The report
compares the two modes and the scale gap to full MOST.
"""

import numpy as np

from repro.mini_most import (
    BeamProperties,
    MiniMOSTConfig,
    run_mini_most,
)

from _report import write_report


def bench_f11_mini_most():
    beam = BeamProperties()
    config = MiniMOSTConfig(n_steps=250)

    hw_result, hw_dep = run_mini_most(config)
    kin_result, _ = run_mini_most(config, use_kinetic_simulator=True)
    assert hw_result.completed and kin_result.completed

    d_hw = hw_result.displacement_history().ravel()
    d_kin = kin_result.displacement_history().ravel()
    corr = float(np.corrcoef(d_hw, d_kin)[0, 1])
    assert corr > 0.9
    assert hw_dep.motor.total_steps_moved > 0
    quantum = config.step_size
    # every commanded position was realized on the step lattice
    achieved = np.array([hw_dep.motor.position])
    assert np.allclose(achieved / quantum, np.round(achieved / quantum))

    mean_step = float(np.mean(hw_result.step_durations()))
    lines = [
        "Figure 11 reproduction: Mini-MOST tabletop rig", "",
        f"beam: {beam.length:.1f} m x {100 * beam.width:.0f} cm, tip "
        f"stiffness {beam.stiffness:.0f} N/m "
        f"(f_n {beam.natural_frequency / (2 * np.pi):.2f} Hz)",
        f"stepper: {1e6 * config.step_size:.0f} um/step, "
        f"{config.step_rate:.0f} steps/s, "
        f"{hw_dep.motor.total_steps_moved} steps moved",
        "",
        f"{'mode':<26}{'steps':>7}{'peak [mm]':>11}{'s/step':>8}",
        f"{'stepper + beam':<26}{hw_result.steps_completed:>7}"
        f"{1e3 * np.max(np.abs(d_hw)):>11.2f}{mean_step:>8.2f}",
        f"{'first-order kinetic sim':<26}{kin_result.steps_completed:>7}"
        f"{1e3 * np.max(np.abs(d_kin)):>11.2f}"
        f"{float(np.mean(kin_result.step_durations())):>8.2f}",
        "",
        f"response correlation hardware vs kinetic: {corr:.3f} "
        "(drop-in test stand-in)",
        "same SimulationCoordinator code as MOST; only the constants "
        "changed (paper §3.5)",
        f"scale gap: Mini-MOST paces {mean_step:.2f} s/step vs ~12 s/step "
        "for servo-hydraulic MOST",
    ]
    write_report("f11_mini_most", lines)
