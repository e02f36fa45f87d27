#!/usr/bin/env python
"""An earthquake engineer's session with the NTCP toolbox (paper §3.1).

The MOST coordinator "was written by an earthquake engineer using a Matlab
toolbox that we developed to provide a convenient interface to NTCP".
This example is that workflow in Python: wire two test sites, sanity-check
a command against facility limits, run a hand-written cyclic loading
protocol, and plot the resulting hysteresis loop — in the terminal.

Run:  python examples/engineer_toolbox.py
"""

import numpy as np

from repro import NTCPToolbox, SitePolicy
from repro.control import ShoreWesternController, ShoreWesternPlugin
from repro.grid import Grid
from repro.structural import BilinearSpring, PhysicalSpecimen
from repro.structural.specimen import Actuator, Sensor
from repro.viz import scatter_plot, sparkline


def build_lab():
    grid = Grid.star(hub="office")
    specimens = {}
    # a fixed noise seed per rig: the same plot and energy on every run
    for name, k, seed in (("east-rig", 2.0e6, 502), ("west-rig", 1.6e6, 424)):
        spec = PhysicalSpecimen(
            name, BilinearSpring(k=k, fy=3.0e4, alpha=0.08),
            actuator=Actuator(min_settle=1.0, max_stroke=0.05,
                              tracking_std=1e-6),
            lvdt=Sensor(noise_std=1e-6), load_cell=Sensor(noise_std=20.0),
            seed=seed)
        specimens[name] = spec
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-0.05, maximum=0.05)
        grid.add_site(
            name, ShoreWesternPlugin(ShoreWesternController({0: spec}),
                                     policy=policy),
            latency=0.003)
    tb = NTCPToolbox(grid.client(timeout=60.0, retries=2),
                     run_id="cyclic-2026")
    for name in specimens:
        tb.add_site(name, f"gsh://{name}/ogsi/ntcp-{name}")
    return grid.kernel, tb, specimens


def main() -> None:
    kernel, tb, specimens = build_lab()
    print("NTCP toolbox session: two rigs, one engineer\n")

    # 1. sanity-check a command against facility limits before running
    def preflight():
        verdicts = yield from tb.check({"east-rig": 0.2, "west-rig": 0.01})
        return verdicts

    verdicts = kernel.run(until=kernel.process(preflight()))
    print("pre-flight check of a 200 mm command:")
    for site, verdict in verdicts.items():
        print(f"  {site}: {verdict}")
    print("(nothing moved — negotiation only)\n")

    # 2. a hand-written cyclic loading protocol
    amplitudes = np.concatenate([
        np.full(8, a) for a in (0.01, 0.02, 0.035)])
    phases = np.tile(np.sin(np.linspace(0, 2 * np.pi, 8, endpoint=False)),
                     3)
    targets = amplitudes * phases

    history = {"east-rig": [], "west-rig": []}

    def protocol():
        for n, d in enumerate(targets, start=1):
            forces = yield from tb.step(n, {"east-rig": float(d),
                                            "west-rig": float(d)})
            for site, f in forces.items():
                history[site].append((d, f))

    kernel.run(until=kernel.process(protocol()))
    print(f"cyclic protocol complete: {len(targets)} steps, "
          f"{kernel.now:.0f} s of lab time\n")

    # 3. results, in the terminal
    east = history["east-rig"]
    d = [p[0] for p in east]
    f = [p[1] for p in east]
    print("commanded displacement:", sparkline(d, width=48))
    print("measured force:        ", sparkline(f, width=48))
    print()
    print(scatter_plot(d, [v / 1e3 for v in f],
                       title="east-rig hysteresis (3 amplitude blocks)",
                       x_label="displacement [m]", y_label="force [kN]"))
    energy = float(np.trapezoid(f, d))
    print(f"\ndissipated energy: {energy:.0f} J "
          f"({'yielded' if energy > 100 else 'elastic'}); "
          f"plastic offset {1e3 * specimens['east-rig'].element.plastic_disp:.2f} mm")


if __name__ == "__main__":
    main()
