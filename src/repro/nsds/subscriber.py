"""Subscriber-side stream receiver with gap accounting."""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import Network
from repro.nsds.stream import StreamSample
from repro.ogsi.notification import NotificationSink


class NSDSReceiver(NotificationSink):
    """The subscriber sink for NSDS datagrams, with sequence accounting.

    Because delivery is best-effort over possibly non-FIFO links, samples
    may arrive out of order or not at all.  The receiver keeps, per
    channel, how many samples arrived and the lowest and highest sequence
    seen — never the samples, which go to ``callback`` and nowhere else
    (and are built only when there is one).
    Skipped sequence numbers (``nsds.receiver.gaps``) and late arrivals
    (``nsds.receiver.out_of_order``) are counted into the run's telemetry
    registry, labelled by host and port, so stream-health consumers read
    them the same way as every other metric.  All of it is measured from
    the first sequence a channel shows: a subscriber that joins mid-run
    has lost nothing it never asked for.
    """

    port_prefix = "nsds-sink"

    def __init__(self, network: Network, host: str,
                 callback: Callable[[StreamSample], None] | None = None):
        super().__init__(network, host, callback)
        self.highest_seq: dict[str, int] = {}
        self._lowest_seq: dict[str, int] = {}
        self._received: dict[str, int] = {}
        telemetry = network.kernel.telemetry
        self._tm_gaps = telemetry.counter("nsds.receiver.gaps",
                                          host=host, port=self.port)
        self._tm_out_of_order = telemetry.counter(
            "nsds.receiver.out_of_order", host=host, port=self.port)

    @property
    def out_of_order(self) -> int:
        """Samples that arrived after a later sequence number."""
        return self._tm_out_of_order.value

    @property
    def gap_count(self) -> int:
        """Sequence numbers skipped at arrival time (gross, not net:
        a gap later filled by an out-of-order arrival stays counted)."""
        return self._tm_gaps.value

    def accept(self, payload: Any) -> StreamSample | dict | None:
        """Count a well-formed datagram; the :class:`StreamSample` for
        ``callback``, built only when there is one (else the payload
        itself, so the datagram still counts as accepted).  A sequence
        that is not an int, a bool included, drops the datagram."""
        if not isinstance(payload, dict):
            return None
        channel, sequence = payload.get("channel"), payload.get("sequence")
        if (not isinstance(channel, str) or isinstance(sequence, bool)
                or not isinstance(sequence, int)
                or "time" not in payload or "value" not in payload):
            return None
        prev = self.highest_seq.get(channel)
        if prev is None:
            self._lowest_seq[channel] = self.highest_seq[channel] = sequence
        elif sequence < prev:
            self._tm_out_of_order.inc()
            if sequence < self._lowest_seq[channel]:
                self._lowest_seq[channel] = sequence
        elif sequence > prev:
            if sequence > prev + 1:
                self._tm_gaps.inc(sequence - prev - 1)
            self.highest_seq[channel] = sequence
        self._received[channel] = self._received.get(channel, 0) + 1
        if self.callback is None:
            return payload
        return StreamSample(channel, sequence, payload["time"],
                            payload["value"])

    def received_count(self, channel: str) -> int:
        return self._received.get(channel, 0)

    def loss_count(self, channel: str) -> int:
        """Sequence numbers never seen, between the lowest and the
        highest this subscriber has seen."""
        if channel not in self._received:
            return 0
        return (self.highest_seq[channel] - self._lowest_seq[channel] + 1
                - self._received[channel])
