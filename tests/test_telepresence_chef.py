"""Tests for telepresence cameras and the CHEF collaboration environment."""

import pytest

from repro.chef import ChefWorksite, DataViewer, HysteresisView, TimeSeriesView
from repro.net import Network, RemoteException, RpcClient
from repro.nsds.stream import StreamSample
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.telepresence import CameraService, PTZState, VideoViewer
from repro.util.errors import ConfigurationError


def portal_env():
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("lab")
    net.add_host("user")
    net.connect("lab", "user", latency=0.02)
    container = ServiceContainer(net, "lab")
    rpc = RpcClient(net, "user", default_timeout=60.0)
    return k, net, container, rpc


def call(k, rpc, service_id, op, params):
    return k.run(until=k.process(rpc.call(
        "lab", "ogsi", "invoke",
        {"service_id": service_id, "operation": op, "params": params})))


class TestCamera:
    def test_ptz_move_takes_slew_time(self):
        k, net, container, rpc = portal_env()
        container.deploy(CameraService("cam"))
        state = call(k, rpc, "cam", "ptz", {"pan": 60.0})
        assert state["pan"] == 60.0
        assert k.now >= 2.0  # 60 deg at 30 deg/s

    def test_ptz_limits_enforced(self):
        k, net, container, rpc = portal_env()
        container.deploy(CameraService("cam"))

        def go():
            try:
                yield from rpc.call("lab", "ogsi", "invoke", {
                    "service_id": "cam", "operation": "ptz",
                    "params": {"pan": 500.0}})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "PolicyViolation"

    def test_frame_stream_to_viewer(self):
        k, net, container, rpc = portal_env()
        cam = CameraService("cam", frame_interval=0.5)
        container.deploy(cam)
        frames = []
        viewer = VideoViewer(net, "user", callback=frames.append)
        call(k, rpc, "cam", "subscribe", {"sink_host": "user",
                                          "sink_port": viewer.port,
                                          "lifetime": 10.0})
        k.run(until=15.0)
        assert viewer.frame_count == len(frames) >= 15
        assert viewer.latest is frames[-1]
        assert viewer.latest["camera"] == "cam"

    def test_stream_stops_after_expiry(self):
        k, net, container, rpc = portal_env()
        cam = CameraService("cam", frame_interval=0.5)
        container.deploy(cam)
        viewer = VideoViewer(net, "user")
        call(k, rpc, "cam", "subscribe", {"sink_host": "user",
                                          "sink_port": viewer.port,
                                          "lifetime": 5.0})
        k.run(until=30.0)
        assert 0 < viewer.frame_count <= 12
        assert not cam.streaming  # loop exited

    def test_a_destroyed_camera_stops_streaming(self):
        k, net, container, rpc = portal_env()
        cam = CameraService("cam", frame_interval=0.5)
        container.deploy(cam)
        viewer = VideoViewer(net, "user")
        call(k, rpc, "cam", "subscribe", {"sink_host": "user",
                                          "sink_port": viewer.port,
                                          "lifetime": 1e9})
        k.run(until=3.0)
        assert cam.streaming and viewer.frame_count > 0
        container.destroy("cam")
        k.run(until=k.now + 0.5)          # frames in flight land; one tick
        seen, counter = viewer.frame_count, cam.frame_counter
        assert not cam.streaming
        k.run(until=k.now + 5.0)
        assert (viewer.frame_count, cam.frame_counter) == (seen, counter)

    def test_frames_carry_current_ptz(self):
        k, net, container, rpc = portal_env()
        cam = CameraService("cam", frame_interval=1.0)
        container.deploy(cam)
        viewer = VideoViewer(net, "user")
        call(k, rpc, "cam", "subscribe", {"sink_host": "user",
                                          "sink_port": viewer.port,
                                          "lifetime": 20.0})
        call(k, rpc, "cam", "ptz", {"pan": 30.0})
        k.run(until=25.0)
        assert viewer.latest["ptz"]["pan"] == 30.0

    def test_a_raising_consumer_loses_only_its_own_frames(self):
        k, net, container, rpc = portal_env()
        sink = k.telemetry.add_sink(InMemorySink())
        cam = CameraService("cam", frame_interval=1.0)
        container.deploy(cam)

        def crash(frame):
            raise RuntimeError("decoder crashed")

        frames = []
        broken = VideoViewer(net, "user", callback=crash)
        healthy = VideoViewer(net, "user", callback=frames.append)
        for viewer in (broken, healthy):
            call(k, rpc, "cam", "subscribe", {"sink_host": "user",
                                              "sink_port": viewer.port,
                                              "lifetime": 10.0})
        k.run(until=15.0)   # the camera kept streaming to both
        assert healthy.frame_count == len(frames) >= 9
        assert healthy.subscriber_errors == 0
        assert broken.subscriber_errors == broken.frame_count >= 9
        assert broken.latest["camera"] == "cam"
        errors = [r for r in sink.records if r.subsystem == "notify.user"
                  and r.kind == "subscriber.error"]
        assert len(errors) == broken.subscriber_errors
        assert {e.detail["port"] for e in errors} == {broken.port}
        assert errors[0].detail["error"] == "RuntimeError: decoder crashed"

    def test_clamped_helper(self):
        assert PTZState(pan=999, tilt=-99, zoom=0.1).clamped() == \
            PTZState(pan=170.0, tilt=-30.0, zoom=1.0)


class TestChefWorksite:
    def make(self):
        k, net, container, rpc = portal_env()
        chef = ChefWorksite("chef")
        container.deploy(chef)
        return k, rpc, chef

    def login(self, k, rpc, user):
        return call(k, rpc, "chef", "login", {"user": user})

    def test_login_and_chat(self):
        k, rpc, chef = self.make()
        t1 = self.login(k, rpc, "alice")
        t2 = self.login(k, rpc, "bob")
        call(k, rpc, "chef", "chatPost", {"token": t1, "text": "servo up"})
        call(k, rpc, "chef", "chatPost", {"token": t2, "text": "copy"})
        history = call(k, rpc, "chef", "chatHistory", {"token": t1})
        assert [m["user"] for m in history] == ["alice", "bob"]

    def test_invalid_token_rejected(self):
        k, rpc, chef = self.make()

        def go():
            try:
                yield from rpc.call("lab", "ogsi", "invoke", {
                    "service_id": "chef", "operation": "chatPost",
                    "params": {"token": "forged", "text": "hi"}})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "SecurityError"

    def test_peak_online_tracking(self):
        k, rpc, chef = self.make()
        tokens = [self.login(k, rpc, f"u{i}") for i in range(5)]
        call(k, rpc, "chef", "logout", {"token": tokens[0]})
        self.login(k, rpc, "late")
        assert chef.peak_online == 5
        assert chef.total_logins == 6

    def test_message_board_threads(self):
        k, rpc, chef = self.make()
        t = self.login(k, rpc, "alice")
        tid = call(k, rpc, "chef", "boardCreateThread", {
            "token": t, "title": "Step 400 anomaly",
            "text": "force spike at CU?"})
        call(k, rpc, "chef", "boardReply", {"token": t, "thread_id": tid,
                                            "text": "sensor glitch"})
        threads = call(k, rpc, "chef", "boardThreads", {"token": t})
        assert threads == [{"thread_id": tid, "title": "Step 400 anomaly",
                            "author": "alice", "posts": 2}]

    def test_notebook(self):
        k, rpc, chef = self.make()
        t = self.login(k, rpc, "operator")
        call(k, rpc, "chef", "notebookAdd", {
            "token": t, "title": "dry run", "body": "completed 1500 steps"})
        entries = call(k, rpc, "chef", "notebookEntries", {"token": t})
        assert entries[0]["title"] == "dry run"

    def test_who_is_online(self):
        k, rpc, chef = self.make()
        t = self.login(k, rpc, "alice")
        self.login(k, rpc, "bob")
        assert call(k, rpc, "chef", "whoIsOnline",
                    {"token": t}) == ["alice", "bob"]


class TestDataViewer:
    def feed(self, viewer, channel, points):
        for i, (t, v) in enumerate(points):
            viewer.on_sample(StreamSample(channel=channel, sequence=i + 1,
                                          time=t, value=v))

    def test_live_mode_follows_data(self):
        dv = DataViewer()
        self.feed(dv, "disp", [(0.0, 0.0), (1.0, 0.5), (2.0, 0.3)])
        assert dv.cursor == 2.0

    def test_time_series_render(self):
        dv = DataViewer()
        dv.add_view(TimeSeriesView("disp", window=10.0))
        self.feed(dv, "disp", [(float(i), i * 0.1) for i in range(5)])
        (render,) = dv.render()
        assert render["type"] == "time-series"
        assert render["current"] == pytest.approx(0.4)
        assert len(render["points"]) == 5

    def test_hysteresis_render_pairs_channels(self):
        dv = DataViewer()
        dv.add_view(HysteresisView("disp", "force"))
        for i in range(4):
            dv.on_sample(StreamSample("disp", i + 1, float(i), i * 0.01))
            dv.on_sample(StreamSample("force", i + 1, float(i), i * 10.0))
        (render,) = dv.render()
        assert render["points"] == [(0.0, 0.0), (0.01, 10.0),
                                    (0.02, 20.0), (0.03, 30.0)]

    def test_vcr_controls(self):
        dv = DataViewer()
        self.feed(dv, "disp", [(float(i), 0.0) for i in range(101)])
        dv.seek(50.0)
        assert dv.mode == "paused" and dv.cursor == 50.0
        dv.play()
        dv.advance(10.0)
        assert dv.cursor == 60.0
        dv.rewind()
        dv.advance(5.0)  # 4x backwards
        assert dv.cursor == 40.0
        dv.fast_forward()
        dv.advance(5.0)
        assert dv.cursor == 60.0
        dv.go_live()
        assert dv.cursor == 100.0 and dv.mode == "live"

    def test_cursor_clamped_to_extent(self):
        dv = DataViewer()
        self.feed(dv, "disp", [(0.0, 0.0), (10.0, 1.0)])
        dv.seek(999.0)
        assert dv.cursor == 10.0
        dv.rewind()
        dv.advance(100.0)
        assert dv.cursor == 0.0

    def test_out_of_order_samples_sorted(self):
        dv = DataViewer()
        dv.on_sample(StreamSample("x", 2, 2.0, "late"))
        dv.on_sample(StreamSample("x", 1, 1.0, "early"))
        s = dv.series["x"]
        assert s.value_at(1.5) == "early"
        assert s.value_at(2.5) == "late"

    def test_arrangements_saved_and_loaded(self):
        dv = DataViewer()
        dv.add_view(TimeSeriesView("disp"))
        dv.save_arrangement("response")
        dv.views = []
        dv.add_view(HysteresisView("disp", "force"))
        dv.save_arrangement("hysteresis")
        dv.load_arrangement("response")
        assert isinstance(dv.views[0], TimeSeriesView)
        with pytest.raises(ConfigurationError):
            dv.load_arrangement("missing")

    def test_save_empty_arrangement_rejected(self):
        with pytest.raises(ConfigurationError):
            DataViewer().save_arrangement("empty")
