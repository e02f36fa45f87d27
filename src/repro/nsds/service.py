"""The NSDS grid service: ingest from the DAQ tap, push to subscribers."""

from __future__ import annotations

from typing import Any

from repro.nsds.stream import RingBuffer, StreamSample
from repro.ogsi.service import GridService
from repro.util.errors import ProtocolError
from repro.util.ids import IdFactory


def _wire(sample: StreamSample) -> dict:
    """A sample as it travels: a ``getLatest`` / ``drain`` reply item
    and, under its ``stream``, the pushed datagram."""
    return {"channel": sample.channel, "sequence": sample.sequence,
            "time": sample.time, "value": sample.value}


class NSDSService(GridService):
    """Best-effort streaming of DAQ samples.

    Deployment wires :meth:`ingest` to a :class:`~repro.daq.DAQSystem` live
    tap (``daq.on_sample(nsds.ingest)``).  Each channel keeps a bounded ring
    buffer for late-joining pollers; every sample is pushed immediately to
    matching subscribers as one wire payload, which reaches each sink host
    as one datagram however many of the subscribers are there (see
    :meth:`~repro.ogsi.notification.SubscriptionTable.publish`; ideally
    over a non-FIFO link — ordering is the receiver's problem, as with
    real streaming transports).

    Operations: ``subscribe``, ``unsubscribe``, ``listChannels``,
    ``getLatest``, ``drain`` (polling access for viewers that prefer pull).
    """

    def __init__(self, service_id: str, *, buffer_capacity: int = 256):
        super().__init__(service_id)
        self.buffer_capacity = buffer_capacity
        self.buffers: dict[str, RingBuffer] = {}
        self._sequences: dict[str, int] = {}
        self._tm_pushed = None  # built on attach

    def on_attach(self) -> None:
        self.service_data.set("channels", [])
        for op in ("subscribe", "unsubscribe", "listChannels", "getLatest",
                   "drain"):
            self.expose(op, getattr(self, f"_op_{op}"))
        telemetry = self.kernel.telemetry
        self._tm_pushed = telemetry.counter("nsds.stream.pushed",
                                            service=self.service_id)
        self.subscribers = self.subscription_table(
            IdFactory(f"{self.service_id}.stream"),
            on_lapsed=telemetry.counter("nsds.stream.expired_subs",
                                        service=self.service_id).inc)

    @property
    def pushed(self) -> int:
        """Samples pushed, one per subscriber reached
        (``nsds.stream.pushed``; 0 before the service is deployed)."""
        return self._tm_pushed.value if self._tm_pushed is not None else 0

    # -- ingest (local, called by the DAQ tap) -------------------------------
    def ingest(self, time: float, row: dict[str, float]) -> None:
        """Accept one DAQ sample row; buffer and push per channel."""
        for channel, value in row.items():
            seq = self._sequences.get(channel, 0) + 1
            self._sequences[channel] = seq
            sample = StreamSample(channel=channel, sequence=seq,
                                  time=time, value=value)
            buf = self.buffers.get(channel)
            if buf is None:
                buf = RingBuffer(self.buffer_capacity)
                self.buffers[channel] = buf
                self.service_data.set("channels", sorted(self.buffers))
            buf.append(sample)
            self._push(sample)

    def _push(self, sample: StreamSample) -> None:
        # One payload for every subscriber, so the subscribers on one
        # host share a datagram: the receivers only read it.
        payload = {"stream": self.service_id, **_wire(sample)}
        self._tm_pushed.inc(self.subscribers.publish(
            sample.channel, lambda _sub_id: payload))

    # -- operations ----------------------------------------------------------
    def _op_subscribe(self, caller, sink_host: str, sink_port: str,
                      channels: list[str] | None = None,
                      lifetime: float = 600.0):
        return self.subscribers.subscribe(caller, sink_host, sink_port,
                                          lifetime, channels)

    def _op_unsubscribe(self, caller, subscription_id: str):
        return self.subscribers.unsubscribe(subscription_id, caller)

    def _op_listChannels(self, caller):
        return sorted(self.buffers)

    def _buffer(self, channel: Any) -> RingBuffer:
        """The ring of ``channel``; a non-string or unknown channel is a
        :class:`ProtocolError`."""
        if not isinstance(channel, str):
            raise ProtocolError(
                f"stream channel must be a string, got {channel!r}")
        buf = self.buffers.get(channel)
        if buf is None:
            raise ProtocolError(f"no such stream channel {channel!r}")
        return buf

    def _op_getLatest(self, caller, channel: str):
        latest = self._buffer(channel).latest()
        return None if latest is None else _wire(latest)

    def _op_drain(self, caller, channel: str, max_items: int = 100):
        buf = self._buffer(channel)
        if (isinstance(max_items, bool) or not isinstance(max_items, int)
                or max_items < 1):
            raise ProtocolError(
                f"max_items must be an int >= 1, got {max_items!r}")
        return [_wire(sample) for sample in buf.drain(max_items)]

    def drop_stats(self) -> dict[str, int]:
        """Per-channel ring-buffer drops (best-effort accounting)."""
        return {name: buf.dropped for name, buf in self.buffers.items()}
