"""F1 — Figure 1: NTCP state transitions.

Regenerates the transaction life cycle of the paper's Figure 1 by driving
one transaction down each path (accept→execute→complete, reject, cancel,
fail) against a live server, and reports the observed state graphs with
their per-transition timestamps.
"""

from repro.control import SimulationPlugin, make_displacement_actions
from repro.core.plugin import ControlPlugin
from repro.core.policy import SitePolicy
from repro.net import RemoteException
from repro.structural import LinearSubstructure

from repro.testing import make_site

from _report import write_metrics, write_report


def drive_all_paths():
    """Run one transaction down each Figure-1 path; return the histories."""
    histories = {}

    # accept -> execute -> executed
    env = make_site(SimulationPlugin(
        LinearSubstructure("s", [[100.0]], [0]), compute_time=0.05))

    def happy():
        yield from env.client.propose_and_execute(
            env.handle, "t-executed", make_displacement_actions({0: 0.01}))

    env.run(happy())
    histories["executed"] = env.server.transactions["t-executed"].timestamps

    # reject
    strict = SitePolicy().limit("set-displacement", "value",
                                minimum=-1e-6, maximum=1e-6)
    env2 = make_site(SimulationPlugin(
        LinearSubstructure("s", [[100.0]], [0]), policy=strict))

    def rejected():
        yield from env2.client.propose(
            env2.handle, "t-rejected", make_displacement_actions({0: 0.5}))

    env2.run(rejected())
    histories["rejected"] = env2.server.transactions["t-rejected"].timestamps

    # accept -> cancel
    def cancelled():
        yield from env.client.propose(
            env.handle, "t-cancelled", make_displacement_actions({0: 0.01}))
        yield from env.client.cancel(env.handle, "t-cancelled")

    env.run(cancelled())
    histories["cancelled"] = env.server.transactions["t-cancelled"].timestamps

    # accept -> execute -> failed (execution timeout)
    class Stuck(ControlPlugin):
        plugin_type = "stuck"

        def execute(self, proposal):
            yield self.kernel.timeout(1e9)
            return {}

    env3 = make_site(Stuck(), timeout=60.0)

    def failed():
        yield from env3.client.propose(
            env3.handle, "t-failed", make_displacement_actions({0: 0.0}),
            execution_timeout=2.0)
        try:
            yield from env3.client.execute(env3.handle, "t-failed",
                                           timeout=30.0)
        except RemoteException:
            pass

    env3.run(failed())
    histories["failed"] = env3.server.transactions["t-failed"].timestamps
    return histories, env


def bench_f1_state_transitions():
    histories, env = drive_all_paths()

    lines = ["Figure 1 reproduction: NTCP transaction state transitions", ""]
    for path, history in histories.items():
        chain = " -> ".join(f"{s}@{t:.3f}s" for s, t in history.items())
        lines.append(f"{path:>10}: {chain}")
    expected = {
        "executed": ["proposed", "accepted", "executing", "executed"],
        "rejected": ["proposed", "rejected"],
        "cancelled": ["proposed", "accepted", "cancelled"],
        "failed": ["proposed", "accepted", "executing", "failed"],
    }
    for path, states in expected.items():
        observed = list(histories[path])
        assert observed == states, (path, observed)
    lines += ["", "all four Figure-1 paths observed with monotone timestamps"]
    for history in histories.values():
        times = list(history.values())
        assert times == sorted(times)
    write_report("f1_ntcp_transactions", lines)
    # Counters from the happy-path site: core.server.* transaction
    # counts, net.* per-hop stats, rpc latency.
    write_metrics("f1_ntcp_transactions", env.kernel.telemetry)
