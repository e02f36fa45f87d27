"""F9 — Figure 9: the MOST control configuration.

Verifies the deployed control chains match Figure 9 box-for-box —
coordinator (Matlab-toolbox-style client) → three NTCP servers → the
site-specific plugin stacks — and reports, per site, the plugin type, the
back-end chain, and the measured per-step latency decomposition (protocol
round trips vs back-end time).
"""

import numpy as np

from repro.control import MatlabBackend, XPCBackend
from repro.most import MOSTConfig, build_most

from _report import write_report


def bench_f9_control_config():
    config = MOSTConfig().scaled(40)
    dep = build_most(config)
    dep.start_backends()

    # Figure 9 wiring assertions
    chains = {
        "uiuc": (dep.sites["uiuc"].server.plugin.plugin_type,
                 "Shore-Western controller -> servo-hydraulics"),
        "ncsa": (dep.sites["ncsa"].server.plugin.plugin_type,
                 "poll-based Matlab simulation"),
        "cu": (dep.sites["cu"].server.plugin.plugin_type,
               "Matlab -> xPC target -> servo-hydraulics"),
    }
    assert chains["uiuc"][0] == "shore-western"
    assert chains["ncsa"][0] == "mplugin"
    assert chains["cu"][0] == "mplugin"
    assert isinstance(dep.sites["ncsa"].backend, MatlabBackend)
    assert isinstance(dep.sites["cu"].backend, XPCBackend)
    assert type(dep.sites["ncsa"].server.plugin) \
        is type(dep.sites["cu"].server.plugin)  # "the same plugin code"

    coordinator = dep.make_coordinator(run_id="f9")
    result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))
    assert result.completed

    durations = result.step_durations()
    rpc_latencies = np.array(dep.coordinator_rpc.stats.latencies)
    lines = [
        "Figure 9 reproduction: MOST control components", "",
        "site   plugin          back-end chain",
    ]
    for name, (ptype, chain) in chains.items():
        lines.append(f"{name:<6} {ptype:<15} {chain}")
    lines += [
        "",
        f"coordinated steps          : {result.steps_completed}",
        f"step wall time             : mean "
        f"{float(np.mean(durations)):.1f} s "
        f"(min {float(np.min(durations)):.1f}, "
        f"max {float(np.max(durations)):.1f})",
        f"NTCP request round trips   : mean "
        f"{float(np.mean(rpc_latencies)):.2f} s over "
        f"{len(rpc_latencies)} calls",
        "",
        "shape: step time is dominated by actuator settle + back-end "
        "polling, not by the\nprotocol — the reason MOST tolerated long "
        "network delays (paper §5)",
    ]
    write_report("f9_control_config", lines)
