"""T-FT — §2.1/§3.4 fault-tolerance claims, plus the dedup ablation.

Three sub-experiments:

1. **At-most-once under response loss** — for increasing numbers of lost
   replies, the retried execute never re-runs the plugin; the ablated
   (at-least-once) server re-moves the specimen every retry.
2. **Recovery accounting** — injected transient failures vs observed
   retransmissions/recoveries across a coordinated run.
3. **Policy face-off** — naive vs fault-tolerant coordinators over a sweep
   of outage durations: the table shows where each survives (the paper's
   "final network error" is exactly the regime where naive dies and FT
   lives).
"""

import numpy as np

from repro.control import make_displacement_actions
from repro.coordinator import (
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
)
from repro.core.plugin import ControlPlugin
from repro.grid import Grid
from repro.structural import GroundMotion, StructuralModel
from repro.testing import make_site
from repro.verify.explorer import mutated

from _report import write_report


class CountingPlugin(ControlPlugin):
    plugin_type = "counting"

    def __init__(self):
        super().__init__()
        self.executions = 0

    def execute(self, proposal):
        self.executions += 1
        yield self.kernel.timeout(0.05)
        return {"displacements": {0: 0.0}, "forces": {0: 0.0}}


def dedup_trial(drops: int) -> int:
    """Executions observed after ``drops`` lost replies + client retries."""
    plugin = CountingPlugin()
    env = make_site(plugin, timeout=1.0, retries=drops + 2)

    def go():
        yield from env.client.propose(
            env.handle, "t", make_displacement_actions({0: 0.01}))
        env.faults.drop_matching(
            lambda m: m.src == "site" and m.port.startswith("rpc-reply"),
            count=drops)
        yield from env.client.execute(env.handle, "t")

    env.run(go())
    return plugin.executions


def outage_trial(duration: float, policy) -> tuple[bool, int]:
    grid = Grid.star()
    grid.add_simulation_sites({"a": 60.0, "b": 40.0}, latency=0.02,
                              compute_time=0.2)
    grid.faults.schedule_outage("coord", "b", start=10.0, duration=duration)
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(120) * 0.1))
    coord = SimulationCoordinator(
        run_id="trial", client=grid.client(timeout=5.0, retries=2),
        model=model, motion=motion, sites=grid.bindings(),
        fault_policy=policy, execution_timeout=10.0)
    result = grid.run(coord.run())
    return result.completed, result.steps_completed


def bench_tft_fault_tolerance():
    lines = ["NTCP fault tolerance (paper §2.1, §3.4)", "",
             "[1] at-most-once vs at-least-once under lost replies",
             f"    {'replies lost':>13}{'NTCP executions':>17}"
             f"{'ablated executions':>20}"]
    for drops in (1, 2, 3):
        dedup = dedup_trial(drops)
        with mutated("dedupe_execute"):  # at-least-once
            ablated = dedup_trial(drops)
        lines.append(f"    {drops:>13}{dedup:>17}{ablated:>20}")
        assert dedup == 1
        assert ablated == drops + 1
    lines += ["    -> 'without any danger of the same action being "
              "executed twice' holds only with dedup", ""]

    lines += ["[2] naive vs fault-tolerant coordinator vs outage duration",
              f"    {'outage [s]':>11}{'naive':>16}{'fault-tolerant':>17}"]
    crossover_seen = False
    for duration in (5.0, 30.0, 120.0, 600.0):
        n_ok, n_steps = outage_trial(duration, NaiveFaultPolicy())
        f_ok, f_steps = outage_trial(
            duration, FaultTolerantFaultPolicy(max_attempts=8, backoff=20.0,
                                               backoff_factor=2.0,
                                               max_backoff=300.0))
        lines.append(f"    {duration:>11.0f}"
                     f"{('completed' if n_ok else f'died@{n_steps + 1}'):>16}"
                     f"{('completed' if f_ok else f'died@{f_steps + 1}'):>17}")
        if not n_ok and f_ok:
            crossover_seen = True
    assert crossover_seen, "expected a regime where only FT survives"
    lines += ["    -> the MOST public run sat in the middle rows: NTCP "
              "retries mask short faults,",
              "       only a coordinator using the retry features survives "
              "long ones (§3.4 lesson)"]
    write_report("tft_fault_tolerance", lines)
