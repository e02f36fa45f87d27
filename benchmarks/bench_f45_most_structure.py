"""F4/F5 — Figures 4-5: the MOST structure and its modular decomposition.

Regenerates the MS-PSDS decomposition of the two-bay frame: the structure
is split into left column / middle section / right column substructures,
coupled by the coordinator through NTCP, and the distributed response is
validated against (a) a monolithic central-difference integration and
(b) a Newmark reference solution of the equivalent linear model.  The
report gives the response series summary the Figure-5 data flow produces.
"""

import numpy as np
import pytest

from repro.most import ExperimentSession, MOSTConfig
from repro.structural import (
    CentralDifferencePSD,
    LinearSubstructure,
    NewmarkBeta,
    StructuralModel,
    SubstructuredModel,
    kanai_tajimi_record,
)

from _report import write_report


def bench_f45_most_structure():
    config = MOSTConfig().scaled(300)
    report = ExperimentSession(config, run_id="most-simonly",
                               simulation_only=True).run()
    result = report.result
    assert result.completed

    # local references
    model = StructuralModel(
        mass=[[config.mass]], stiffness=[[config.k_total]]
    ).with_rayleigh_damping(config.damping_ratio)
    motion = kanai_tajimi_record(duration=config.n_steps * config.dt,
                                 dt=config.dt, pga=config.pga,
                                 seed=config.motion_seed)
    subs = SubstructuredModel(
        mass=model.mass, damping=model.damping,
        substructures=[
            LinearSubstructure("uiuc", [[config.k_uiuc]], [0]),
            LinearSubstructure("ncsa", [[config.k_ncsa]], [0]),
            LinearSubstructure("cu", [[config.k_cu]], [0])])
    psd_local = CentralDifferencePSD(model, config.dt).integrate(
        motion, restoring=subs.restoring)
    newmark = NewmarkBeta(model, config.dt).integrate(motion)

    d_dist = result.displacement_history().ravel()
    d_local = np.array([r.displacement[0] for r in psd_local])
    d_newmark = np.array([r.displacement[0] for r in newmark])
    scale = float(np.max(np.abs(d_newmark)))

    err_local = float(np.max(np.abs(d_dist - d_local))) / scale
    # Central difference vs Newmark accumulate different period distortion
    # at omega*dt ~ 0.36, so pointwise error grows as phase drift; amplitude
    # and waveform correlation are the meaningful agreement measures.
    corr_newmark = float(np.corrcoef(d_dist, d_newmark)[0, 1])
    amp_ratio = float(np.max(np.abs(d_dist)) / scale)
    assert err_local < 1e-9       # distributed == monolithic PSD exactly
    # Agreement with the implicit reference is bounded by the explicit
    # scheme's period distortion at this omega*dt, not by distribution.
    assert corr_newmark > 0.90
    assert 0.75 < amp_ratio < 1.25

    share = {name: result.site_force_history(name)
             for name in ("uiuc", "ncsa", "cu")}
    total = result.force_history().ravel()
    lines = [
        "Figures 4-5 reproduction: MS-PSDS decomposition of the MOST frame",
        "",
        f"substructures: UIUC column k={config.k_uiuc:.1e}  "
        f"NCSA middle k={config.k_ncsa:.1e}  CU column k={config.k_cu:.1e}",
        f"steps: {result.steps_completed}, dt={config.dt}s, "
        f"peak drift {1e3 * np.max(np.abs(d_dist)):.1f} mm",
        "",
        "validation:",
        f"  distributed vs monolithic PSD : max err {err_local:.2e} "
        "(identical algebra)",
        f"  distributed vs Newmark ref    : correlation {corr_newmark:.3f}, "
        f"amplitude ratio {amp_ratio:.3f}",
        "",
        "force sharing at peak-drift step (the Figure-4 load path):",
    ]
    peak_step = int(np.argmax(np.abs(d_dist)))
    for name in ("uiuc", "ncsa", "cu"):
        frac = share[name][peak_step] / total[peak_step]
        lines.append(f"  {name:<5} {100 * frac:5.1f}% of restoring force "
                     f"(stiffness share "
                     f"{100 * getattr(config, 'k_' + name) / config.k_total:5.1f}%)")
        assert frac == pytest.approx(
            getattr(config, "k_" + name) / config.k_total, abs=0.02)
    write_report("f45_most_structure", lines)
