"""Subscriber-side stream receiver with gap accounting."""

from __future__ import annotations

from typing import Callable

from repro.net.network import Message, Network
from repro.nsds.stream import StreamSample


class NSDSReceiver:
    """Receives NSDS datagrams on a bound port; tracks sequence gaps.

    Because delivery is best-effort over possibly non-FIFO links, samples
    may arrive out of order or not at all.  The receiver records, per
    channel, the samples in arrival order and the highest sequence seen;
    skipped sequence numbers (``nsds.receiver.gaps``) and late arrivals
    (``nsds.receiver.out_of_order``) are counted into the run's telemetry
    registry, labelled by host and port, so stream-health consumers read
    them the same way as every other metric.
    """

    def __init__(self, network: Network, host: str,
                 callback: Callable[[StreamSample], None] | None = None):
        self.network = network
        self.host = host
        self.port = network.new_port("nsds-sink")
        self.callback = callback
        self.samples: dict[str, list[StreamSample]] = {}
        self.highest_seq: dict[str, int] = {}
        telemetry = network.kernel.telemetry
        self._tm_gaps = telemetry.counter("nsds.receiver.gaps",
                                          host=host, port=self.port)
        self._tm_out_of_order = telemetry.counter(
            "nsds.receiver.out_of_order", host=host, port=self.port)
        network.host(host).bind(self.port, self._on_message)

    @property
    def out_of_order(self) -> int:
        """Samples that arrived after a later sequence number."""
        return self._tm_out_of_order.value

    @property
    def gap_count(self) -> int:
        """Sequence numbers skipped at arrival time (gross, not net:
        a gap later filled by an out-of-order arrival stays counted)."""
        return self._tm_gaps.value

    def _on_message(self, msg: Message) -> None:
        payload = msg.payload
        if not isinstance(payload, dict) or "channel" not in payload:
            return
        sample = StreamSample(channel=payload["channel"],
                              sequence=payload["sequence"],
                              time=payload["time"], value=payload["value"])
        per = self.samples.setdefault(sample.channel, [])
        per.append(sample)
        prev = self.highest_seq.get(sample.channel, 0)
        if sample.sequence < prev:
            self._tm_out_of_order.inc()
        elif sample.sequence > prev + 1:
            self._tm_gaps.inc(sample.sequence - prev - 1)
        self.highest_seq[sample.channel] = max(prev, sample.sequence)
        if self.callback is not None:
            self.callback(sample)

    def received_count(self, channel: str) -> int:
        return len(self.samples.get(channel, []))

    def loss_count(self, channel: str) -> int:
        """Sequence numbers never seen (as of the highest seen)."""
        return self.highest_seq.get(channel, 0) - self.received_count(channel)

    def values(self, channel: str) -> list:
        """Values in sequence order (late arrivals sorted into place)."""
        return [s.value for s in sorted(self.samples.get(channel, []),
                                        key=lambda s: s.sequence)]
