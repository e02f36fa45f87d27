"""NEESgrid Streaming Data Service (NSDS).

"The NEESGrid Streaming Data Service provides a best-effort stream of
real-time data from the data acquisition (DAQ) system."  The service tails
the DAQ's live tap into per-channel ring buffers and pushes sequenced
datagrams to remote subscribers over non-FIFO (UDP-like) delivery.  Best
effort means exactly that: a slow or lossy path drops samples, the sequence
numbers expose the gaps, and nothing blocks the experiment.  The
subscriber side, :class:`~repro.nsds.subscriber.NSDSReceiver`, is the
one guarded :class:`~repro.ogsi.notification.NotificationSink` with
sequence accounting: it counts what arrived and hands each sample to its
``callback`` — it keeps no samples of its own, and a raising consumer is
counted, not propagated.
"""

from repro.nsds.stream import RingBuffer, StreamSample
from repro.nsds.service import NSDSService
from repro.nsds.subscriber import NSDSReceiver

__all__ = ["RingBuffer", "StreamSample", "NSDSService", "NSDSReceiver"]
