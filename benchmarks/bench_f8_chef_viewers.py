"""F8 — Figure 8: the CHEF data viewers.

Regenerates the Figure-8 experience: a remote participant's data viewer is
fed by the UIUC NSDS stream during a (shortened) run and renders the three
view types the figure shows — structure response time series and a
hysteresis plot — plus the VCR/timeline behaviour described in the text.
The report gives the rendered view contents.
"""

from repro.chef import DataViewer, HysteresisView, TimeSeriesView
from repro.most import MOSTConfig, build_most
from repro.net import RpcClient
from repro.nsds import NSDSReceiver
from repro.ogsi import invoke

from _report import write_report


def run_viewed_experiment(n_steps=200):
    config = MOSTConfig().scaled(n_steps)
    dep = build_most(config)
    dep.network.connect("portal", "uiuc", latency=0.03, fifo=False)
    dep.start_backends()
    dep.start_observation()

    viewer = DataViewer()
    viewer.add_view(TimeSeriesView("uiuc-displacement", window=300.0))
    viewer.add_view(TimeSeriesView("uiuc-force", window=300.0))
    viewer.add_view(HysteresisView("uiuc-displacement", "uiuc-force"))
    viewer.save_arrangement("most-response")
    receiver = NSDSReceiver(dep.network, "portal",
                            callback=viewer.on_sample)
    rpc = RpcClient(dep.network, "portal", default_timeout=30.0)

    def subscribe():
        yield from invoke(rpc, dep.sites["uiuc"].nsds.handle, "subscribe",
                          {"sink_host": "portal", "sink_port": receiver.port,
                           "lifetime": 1e9})

    dep.kernel.process(subscribe())
    coordinator = dep.make_coordinator(run_id="f8")
    result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))
    dep.stop_observation()
    dep.kernel.run(until=dep.kernel.now + 60.0)
    return viewer, receiver, result


def bench_f8_chef_viewers():
    viewer, receiver, result = run_viewed_experiment()
    assert result.completed

    viewer.go_live()
    ts_disp, ts_force, hyst = viewer.render()
    n_received = receiver.received_count("uiuc-displacement")
    assert n_received > 0
    assert ts_disp["current"] is not None
    assert len(hyst["points"]) == n_received

    # VCR semantics: rewind runs the cursor backwards at 4x
    end = viewer.extent()[1]
    viewer.rewind()
    viewer.advance(10.0)
    assert viewer.cursor == end - 40.0
    mid_render = viewer.views[0].render(viewer.series, viewer.cursor)

    # timeline click
    viewer.seek(end / 2)
    assert viewer.mode == "paused"

    lines = [
        "Figure 8 reproduction: CHEF data viewers fed by NSDS", "",
        f"near-real-time samples received : {n_received} "
        f"({receiver.loss_count('uiuc-displacement')} lost, best-effort)",
        f"time-series view  : {len(ts_disp['points'])} points, current "
        f"drift {1e3 * ts_disp['current']:.2f} mm",
        f"force view        : {len(ts_force['points'])} points",
        f"hysteresis view   : {len(hyst['points'])} (d, F) pairs, "
        f"loop spans {1e3 * min(p[0] for p in hyst['points']):.1f}.."
        f"{1e3 * max(p[0] for p in hyst['points']):.1f} mm",
        "",
        "VCR + timeline:",
        f"  rewind 10 s at 4x -> cursor {viewer.cursor:.0f}s window render "
        f"has {len(mid_render['points'])} points",
        "  timeline click    -> viewer paused at clicked instant",
        "arrangement 'most-response' saved and reloadable",
    ]
    write_report("f8_chef_viewers", lines)
