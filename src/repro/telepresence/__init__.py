"""Telepresence subsystem (paper §2.2).

"NEESgrid includes a telepresence system, which uses commodity hardware and
software to provide a video feed and basic camera control (pan/tilt/zoom) to
remote observers."  :class:`~repro.telepresence.camera.CameraService` is a
grid service offering PTZ control with mechanical slew timing and a
best-effort frame stream to subscribed viewers;
:class:`~repro.telepresence.camera.VideoViewer` is the observer side —
the :class:`~repro.ogsi.notification.NotificationSink` for frames, which
shows the latest frame and counts the rest.
"""

from repro.telepresence.camera import CameraService, PTZState, VideoViewer
from repro.telepresence.referral import ReferralService

__all__ = ["CameraService", "PTZState", "VideoViewer", "ReferralService"]
