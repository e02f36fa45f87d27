"""F2 — Figure 2: NTCP server core + control plugin.

Reproduces the architectural claim of Figure 2: the server core is generic
and the client code is byte-for-byte identical across back-ends.  The same
client step runs against all four MOST-era plugins (simulation,
Shore-Western, MPlugin+Matlab, MPlugin+xPC) plus the Mini-MOST LabVIEW
plugin; the report shows each returning the same physics through the same
interface.
"""

import pytest

from repro.control import (
    LabVIEWPlugin,
    MatlabBackend,
    MPlugin,
    ShoreWesternController,
    ShoreWesternPlugin,
    SimulationPlugin,
    StepperMotor,
    XPCBackend,
    XPCTarget,
    make_displacement_actions,
)
from repro.structural import LinearSpring, LinearSubstructure, PhysicalSpecimen
from repro.structural.specimen import Actuator, Sensor
from repro.testing import make_site

from _report import write_report

K = 2.0e6  # N/m — the "substructure" every backend implements


def quiet_specimen(seed=0):
    return PhysicalSpecimen(
        "spec", LinearSpring(k=K),
        actuator=Actuator(tracking_std=0.0, max_stroke=1.0, min_settle=0.5),
        lvdt=Sensor(), load_cell=Sensor(), seed=seed)


def build_backends():
    """name -> (env, wall-clock cost drivers noted in the report)."""
    envs = {}

    env = make_site(SimulationPlugin(
        LinearSubstructure("sim", [[K]], [0]), compute_time=0.1))
    envs["simulation"] = env

    env = make_site(ShoreWesternPlugin(
        ShoreWesternController({0: quiet_specimen()})), timeout=120.0)
    envs["shore-western"] = env

    env = make_site(MPlugin(), timeout=120.0)
    MatlabBackend(env.server.plugin, LinearSubstructure("m", [[K]], [0]),
                  poll_interval=0.2, compute_time=0.1).start(env.kernel)
    envs["mplugin+matlab"] = env

    env = make_site(MPlugin(), timeout=120.0)
    XPCBackend(env.server.plugin, XPCTarget({0: quiet_specimen()}),
               poll_interval=0.2).start(env.kernel)
    envs["mplugin+xpc"] = env

    env = make_site(LabVIEWPlugin(
        {0: (StepperMotor(step_size=1e-5, step_rate=1000.0,
                          max_travel=0.1), LinearSpring(K))}), timeout=120.0)
    envs["labview"] = env

    return envs


def run_identical_client_step(env, name):
    """THE client code — identical for every backend (Figure 2's point)."""

    def go():
        result = yield from env.client.propose_and_execute(
            env.handle, name, make_displacement_actions({0: 0.005}),
            execution_timeout=60.0)
        return result.readings["forces"][0], env.kernel.now

    return env.run(go())


def bench_f2_plugin_swap():
    envs = build_backends()
    lines = ["Figure 2 reproduction: one client, five control back-ends",
             "", f"{'backend':<18}{'force@5mm [kN]':>16}{'step wall [s]':>15}"]
    forces = {}
    for name, env in envs.items():
        t0 = env.kernel.now
        force, t1 = run_identical_client_step(env, f"swap-{name}")
        forces[name] = force
        lines.append(f"{name:<18}{force / 1e3:>16.2f}{t1 - t0:>15.2f}")
    expected = K * 0.005
    for name, force in forces.items():
        assert force == pytest.approx(expected, rel=1e-6), name
    lines += ["",
              f"all five back-ends returned k*d = {expected / 1e3:.1f} kN "
              "through the identical client call",
              "(step wall time differs: polling/settle/stepper dynamics are "
              "the back-end's business)"]
    write_report("f2_plugin_swap", lines)
