#!/usr/bin/env python
"""Remote participation in a running experiment (paper §2.2, §3.2, Fig. 8).

A remote engineer's view of a (shortened) MOST dry run: log into the CHEF
worksite, chat, subscribe to the UIUC NSDS stream, drive a data viewer with
time-series and hysteresis views, pan a telepresence camera, and — after
the run — query the metadata catalog and download an archived data file
through the repository façade.

Run:  python examples/remote_participation.py
"""

import numpy as np

from repro.chef import DataViewer, HysteresisView, TimeSeriesView
from repro.daq import StagingStore
from repro import MOSTConfig, RpcClient, build_most
from repro.nsds import NSDSReceiver
from repro.ogsi import invoke
from repro.telepresence import VideoViewer


def main() -> None:
    config = MOSTConfig().scaled(120)
    dep = build_most(config)
    kernel, network = dep.kernel, dep.network
    network.connect("portal", "uiuc", latency=0.03, fifo=False)

    dep.start_backends()
    dep.start_observation()

    # -- the remote participant ----------------------------------------------
    rpc = RpcClient(network, "portal", default_timeout=30.0)
    viewer = DataViewer()
    viewer.add_view(TimeSeriesView("uiuc-displacement", window=120.0))
    viewer.add_view(HysteresisView("uiuc-displacement", "uiuc-force"))
    viewer.save_arrangement("structure-response")
    receiver = NSDSReceiver(network, "portal", callback=viewer.on_sample)
    video = VideoViewer(network, "portal")

    def participant():
        uiuc = dep.sites["uiuc"]
        token = yield from invoke(rpc, dep.chef.handle, "login",
                                  {"user": "remote-engineer"})
        yield from invoke(rpc, dep.chef.handle, "chatPost",
                          {"token": token, "text": "watching the UIUC column"})
        yield from invoke(rpc, uiuc.nsds.handle, "subscribe",
                          {"sink_host": "portal", "sink_port": receiver.port,
                           "lifetime": 1e9})
        yield from invoke(rpc, uiuc.camera.handle, "subscribe",
                          {"sink_host": "portal", "sink_port": video.port,
                           "lifetime": 600.0})
        yield from invoke(rpc, uiuc.camera.handle, "ptz",
                          {"pan": 25.0, "zoom": 4.0})
        return token

    kernel.process(participant(), name="participant")

    # -- the experiment ------------------------------------------------------
    coordinator = dep.make_coordinator(run_id="most-remote-demo")
    result = kernel.run(until=kernel.process(coordinator.run()))
    dep.stop_observation()
    kernel.run(until=kernel.now + 300.0)  # drain uploads and streams

    print(f"experiment: {result.steps_completed}/{result.target_steps} "
          f"steps in {result.wall_duration / 3600:.2f} h simulated")
    print(f"CHEF: {dep.chef.peak_online} online, "
          f"{len(dep.chef.chat)} chat message(s)")
    print(f"NSDS: received {receiver.received_count('uiuc-displacement')} "
          f"displacement samples "
          f"({receiver.loss_count('uiuc-displacement')} lost, best-effort)")
    print(f"video: {video.frame_count} frames, last PTZ "
          f"{video.latest['ptz'] if video.latest else None}")

    # -- the data viewer (Figure 8) ---------------------------------------------
    viewer.go_live()
    renders = viewer.render()
    ts, hyst = renders
    print(f"\ndata viewer at t={viewer.cursor:.0f}s "
          f"(arrangement 'structure-response'):")
    print(f"  time-series: {len(ts['points'])} points in window, "
          f"current drift {1e3 * (ts['current'] or 0):.2f} mm")
    print(f"  hysteresis:  {len(hyst['points'])} (d, F) pairs")
    viewer.seek(viewer.extent()[1] / 2)
    print(f"  after timeline click: cursor at {viewer.cursor:.0f}s, "
          f"mode {viewer.mode}")

    # -- post-experiment data access via the facade ------------------------------
    facade = dep.make_facade(rpc)
    downloads = StagingStore("laptop")

    def fetch():
        names = yield from facade.list_files("most/uiuc/")
        if not names:
            return None, []
        report = yield from facade.download(names[0], downloads)
        ids = yield from facade.query_metadata("data-file")
        return report, ids

    report, ids = kernel.run(until=kernel.process(fetch()))
    print(f"\nrepository: {len(ids)} metadata records")
    if report:
        print(f"downloaded {report.logical_name} "
              f"({report.size} bytes via {report.protocol} "
              f"in {report.duration:.2f}s)")
        rows = downloads.get(report.logical_name).rows
        forces = [row[1].get("uiuc-force", 0.0) for row in rows]
        print(f"  file holds {len(rows)} samples, "
              f"peak archived force {max(np.abs(forces)) / 1e3:.1f} kN")


if __name__ == "__main__":
    main()
