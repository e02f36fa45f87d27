#!/usr/bin/env python
"""Quickstart: one NTCP site, one client, three protocol verbs.

Builds the smallest possible NEESgrid deployment — a coordinator host and
one site whose NTCP server fronts a numerically simulated substructure —
then walks a transaction through the propose → execute → inspect cycle of
paper Figure 1, plus one rejected proposal to show policy negotiation.

Run:  python examples/quickstart.py
"""

from repro import (
    LinearSubstructure,
    SimulationPlugin,
    SitePolicy,
    make_displacement_actions,
)
from repro.grid import Grid


def main() -> None:
    # -- wire the world ----------------------------------------------------
    # A grid is one hub host (here "coordinator") on a simulation kernel
    # and a simulated WAN; sites are added as spokes.
    grid = Grid.star(hub="coordinator")

    # The site: host "lab" one 25 ms WAN hop away, an OGSI container on it
    # hosting an NTCP server ("ntcp-lab") whose control plugin evaluates a
    # 50 kN/mm linear substructure, with a facility policy limiting
    # commands to +/- 5 cm.
    policy = SitePolicy().limit("set-displacement", "value",
                                minimum=-0.05, maximum=0.05)
    plugin = SimulationPlugin(
        LinearSubstructure("column", [[5.0e7]], dof_indices=[0]),
        compute_time=0.1, policy=policy)
    handle = grid.add_site("lab", plugin, latency=0.025).handle
    print(f"deployed NTCP service at {handle}")

    # The client: retry-safe NTCP verbs over RPC, issued from the hub.
    client = grid.client(timeout=10.0, retries=3)

    # -- one full transaction ------------------------------------------------
    def session():
        verdict = yield from client.propose(
            handle, "quickstart-step-1",
            make_displacement_actions({0: 0.012}))
        print(f"proposal verdict: {verdict.state}")

        result = yield from client.execute(handle, "quickstart-step-1")
        force = result.readings["forces"][0]
        print(f"executed: displacement 12 mm -> measured force {force/1e3:.1f} kN")

        txn = yield from client.get_transaction(handle, "quickstart-step-1")
        print(f"transaction timeline: {txn['timestamps']}")

        # A proposal the site must refuse: 8 cm exceeds the 5 cm limit.
        verdict = yield from client.propose(
            handle, "quickstart-step-2",
            make_displacement_actions({0: 0.08}))
        print(f"oversized proposal: {verdict.state} ({verdict.error})")
        return "done"

    grid.run(session())
    print(f"simulated wall time elapsed: {grid.kernel.now:.3f} s")


if __name__ == "__main__":
    main()
