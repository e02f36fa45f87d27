"""Pan/tilt/zoom camera service and viewer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ogsi.notification import NotificationSink
from repro.ogsi.service import GridService
from repro.util.errors import PolicyViolation
from repro.util.ids import IdFactory


@dataclass(frozen=True)
class PTZState:
    """Camera orientation: pan/tilt in degrees, zoom as magnification."""

    pan: float = 0.0
    tilt: float = 0.0
    zoom: float = 1.0

    def clamped(self) -> "PTZState":
        return PTZState(pan=max(-170.0, min(170.0, self.pan)),
                        tilt=max(-30.0, min(90.0, self.tilt)),
                        zoom=max(1.0, min(20.0, self.zoom)))


class CameraService(GridService):
    """One lab camera: PTZ control plus a frame stream.

    Operations: ``ptz`` (absolute move; takes slew time proportional to the
    angular travel), ``getState``, ``subscribe``/``unsubscribe`` (frame
    push).  Frames are synthetic dicts carrying the camera state and a
    frame counter — enough to verify that viewers see what the camera does.
    MOST ran "at least one accessible camera at each site", remotely
    operable.
    """

    #: degrees per second of pan/tilt slew
    SLEW_RATE = 30.0

    def __init__(self, service_id: str, *, frame_interval: float = 0.5):
        super().__init__(service_id)
        self.state = PTZState()
        self.frame_interval = frame_interval
        self.frame_counter = 0
        self.streaming = False

    def on_attach(self) -> None:
        self.subscribers = self.subscription_table(
            IdFactory(f"{self.service_id}.viewer"))
        self.service_data.set("ptz", self.state.__dict__.copy())
        for op in ("ptz", "getState", "subscribe", "unsubscribe"):
            self.expose(op, getattr(self, f"_op_{op}"))

    # -- control -----------------------------------------------------------
    def _op_ptz(self, caller, pan: float | None = None,
                tilt: float | None = None, zoom: float | None = None):
        target = PTZState(
            pan=self.state.pan if pan is None else float(pan),
            tilt=self.state.tilt if tilt is None else float(tilt),
            zoom=self.state.zoom if zoom is None else float(zoom))
        clamped = target.clamped()
        if clamped != target:
            raise PolicyViolation(
                f"PTZ target out of range: {target}", parameter="ptz")
        travel = max(abs(clamped.pan - self.state.pan),
                     abs(clamped.tilt - self.state.tilt))
        slew = travel / self.SLEW_RATE
        if slew > 0:
            yield self.kernel.timeout(slew)
        self.state = clamped
        self.service_data.set("ptz", self.state.__dict__.copy())
        self.emit("camera.moved", pan=clamped.pan, tilt=clamped.tilt,
                  zoom=clamped.zoom, slew=slew)
        return self.state.__dict__.copy()

    def _op_getState(self, caller):
        return self.state.__dict__.copy()

    # -- streaming ------------------------------------------------------------
    def _op_subscribe(self, caller, sink_host: str, sink_port: str,
                      lifetime: float = 600.0):
        viewer_id = self.subscribers.subscribe(caller, sink_host, sink_port,
                                               lifetime)
        if not self.streaming:
            self.streaming = True
            self.kernel.process(self._stream(), name=f"{self.service_id}.stream")
        return viewer_id

    def _op_unsubscribe(self, caller, viewer_id: str):
        return self.subscribers.unsubscribe(viewer_id, caller)

    def _stream(self):
        """Push frames while any subscription is live; stop when none are
        (all lapsed or cancelled, or the camera destroyed)."""
        while True:
            frame = {"camera": self.service_id,
                     "frame": self.frame_counter + 1,
                     "time": self.kernel.now, "ptz": self.state.__dict__.copy()}
            if not self.subscribers.publish(None, lambda _viewer_id: frame):
                self.streaming = False
                return
            self.frame_counter += 1
            yield self.kernel.timeout(self.frame_interval)


class VideoViewer(NotificationSink):
    """The subscriber sink for camera frames: shows the latest, counts
    the rest (a consumer that wants every frame is the ``callback``)."""

    port_prefix = "video"

    #: the most recent frame accepted, if any
    latest: dict | None = None

    def accept(self, payload: Any) -> dict | None:
        if not isinstance(payload, dict) or "frame" not in payload:
            return None
        self.latest = payload
        return payload

    @property
    def frame_count(self) -> int:
        """Frames received."""
        return self.accepted
