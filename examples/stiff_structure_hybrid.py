#!/usr/bin/env python
"""Hybrid-testing a stiff structure: why the integrator is pluggable.

MOST's frame (T ≈ 0.35 s) sits comfortably inside the central-difference
stability limit, but many NEES specimens — squat shear walls, braced
frames, base-isolated equipment — do not.  This example coordinates a
hybrid test of a stiff structure (ω = 200 rad/s, i.e. dt_crit = 10 ms)
at dt = 20 ms and shows: the explicit central-difference scheme diverges,
while the α-Operator-Splitting method (the Nakashima-school approach the
paper cites as reference [14]) runs the same distributed test stably.

Also demonstrates the response-spectrum utility used to characterize the
input motion.

Run:  python examples/stiff_structure_hybrid.py
"""

import numpy as np

from repro import GroundMotion, SimulationCoordinator, StructuralModel
from repro.grid import Grid
from repro.structural import AlphaOSPSD, kanai_tajimi_record, \
    response_spectrum
from repro.viz import sparkline


def build(integrator_factory, n_steps=300):
    grid = Grid.star()
    grid.add_simulation_sites({"wall-lab": 2.5e4, "brace-lab": 1.5e4},
                              latency=0.01, compute_time=0.0)
    model = StructuralModel(mass=[[1.0]], stiffness=[[4.0e4]]
                            ).with_rayleigh_damping(0.02)
    dt = 0.02
    motion = GroundMotion(dt=dt,
                          accel=kanai_tajimi_record(
                              duration=n_steps * dt, dt=dt, pga=2.0,
                              seed=14).accel)
    coord = SimulationCoordinator(
        run_id="stiff", client=grid.client(timeout=30.0, retries=2),
        model=model, motion=motion, sites=grid.bindings(),
        integrator_factory=integrator_factory)
    return grid.kernel, coord, model, motion


def main() -> None:
    _, _, model, motion = build(AlphaOSPSD, n_steps=10)
    omega = float(model.natural_frequencies()[0])
    print("stiff structure hybrid test")
    print(f"  omega = {omega:.0f} rad/s  ->  central-difference limit "
          f"dt < {2 / omega * 1e3:.0f} ms; test runs at "
          f"{motion.dt * 1e3:.0f} ms\n")

    # characterize the input (engineering due diligence)
    record = kanai_tajimi_record(duration=6.0, dt=0.02, pga=2.0, seed=14)
    periods = [0.03, 0.1, 0.3, 1.0]
    spec = response_spectrum(record, periods)
    print("  input record response spectrum (5% damping):")
    for t_n, sa in zip(periods, spec["Sa"]):
        marker = "  <- structure" if abs(t_n - 2 * np.pi / omega) < 0.02 \
            else ""
        print(f"    T={t_n:5.2f}s  Sa={sa / 9.81:5.2f} g{marker}")

    print("\n[1/2] central difference (the MOST default) ...")
    with np.errstate(over="ignore", invalid="ignore"):
        k, coord, model, motion = build(None)
        result = k.run(until=k.process(coord.run()))
    d = result.displacement_history().ravel()
    finite = d[np.isfinite(d)]
    peak = float(np.max(np.abs(finite))) if finite.size else float("inf")
    print(f"  completed={result.completed}; peak |d| = {peak:.3e} m "
          f"-> {'DIVERGED' if peak > 1.0 else 'ok'}")

    print("[2/2] alpha-OS (integrator_factory=AlphaOSPSD) ...")
    k, coord, model, motion = build(AlphaOSPSD)
    result = k.run(until=k.process(coord.run()))
    d = result.displacement_history().ravel()
    # At dt > T/2 nobody resolves the resonance; the meaningful check is
    # that the stiff structure tracks its quasi-static response bound.
    quasi_static_peak = float(np.max(np.abs(motion.accel))
                              * model.mass[0, 0] / model.stiffness[0, 0])
    peak = float(np.max(np.abs(d)))
    print(f"  completed={result.completed}; peak |d| = {peak:.3e} m "
          f"(quasi-static bound {quasi_static_peak:.3e} m -> "
          f"ratio {peak / quasi_static_peak:.2f})")
    print("  response: " + sparkline(d, width=60))
    print("\nSame sites, same NTCP traffic, same coordinator — only the "
          "stepping scheme changed.")


if __name__ == "__main__":
    main()
