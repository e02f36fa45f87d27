"""T-STREAM — ablation: NSDS bounded ring buffers vs unbounded queues.

DESIGN.md §6's last design choice: the streaming service drops the oldest
samples when a consumer falls behind ("best-effort stream", §2.2), instead
of queueing without bound.  This bench overloads an NSDS channel with a
slow polling consumer under both policies and reports the trade:

* bounded ring (the paper's best-effort semantics): constant memory, the
  consumer always sees *recent* data (low staleness), drops are counted
  and visible through sequence gaps;
* unbounded queue (ablated): nothing is dropped, but memory grows without
  limit and the consumer reads ever-staler samples — by the end of the
  run it is looking at data from minutes ago, useless for telepresence.

Earthquake experiments "often produce more data than can be streamed
reliably in real-time" (§2.3) — this is the quantitative case for the
design.
"""

from repro.nsds import NSDSService
from repro.net import Network
from repro.ogsi import ServiceContainer
from repro.sim import Kernel

from _report import write_report

PRODUCE_HZ = 50.0       # DAQ-rate production
CONSUME_HZ = 5.0        # a slow viewer draining by polling
DURATION = 120.0


def run_policy(capacity: int) -> dict:
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("site")
    nsds = NSDSService("nsds", buffer_capacity=capacity)
    ServiceContainer(net, "site").deploy(nsds)

    staleness_samples = []
    consumed = [0]

    def producer():
        i = 0
        while k.now < DURATION:
            yield k.timeout(1.0 / PRODUCE_HZ)
            i += 1
            nsds.ingest(k.now, {"force": float(i)})

    def consumer():
        while k.now < DURATION + 5.0:
            yield k.timeout(1.0 / CONSUME_HZ)
            batch = nsds._op_drain(None, channel="force", max_items=1) \
                if "force" in nsds.buffers else []
            for sample in batch:
                consumed[0] += 1
                staleness_samples.append(k.now - sample["time"])

    k.process(producer())
    k.process(consumer())
    k.run(until=DURATION + 10.0)
    buf = nsds.buffers["force"]
    mean_staleness = (sum(staleness_samples) / len(staleness_samples)
                      if staleness_samples else 0.0)
    tail = staleness_samples[-20:]
    return {
        "capacity": capacity,
        "produced": buf.appended,
        "consumed": consumed[0],
        "dropped": buf.dropped,
        "backlog": len(buf),
        "staleness_end": sum(tail) / len(tail) if tail else 0.0,
        "mean_staleness": mean_staleness,
    }


def bench_tstream_drop_policy():
    bounded = run_policy(capacity=64)
    unbounded = run_policy(capacity=10_000_000)

    # shape: same load, opposite failure modes
    assert bounded["produced"] == unbounded["produced"]
    assert bounded["dropped"] > 0
    assert unbounded["dropped"] == 0
    assert bounded["backlog"] <= 64
    assert unbounded["backlog"] > 50 * bounded["backlog"]
    assert bounded["staleness_end"] < unbounded["staleness_end"] / 10

    def row(tag, r):
        return (f"{tag:<22}{r['produced']:>9}{r['consumed']:>9}"
                f"{r['dropped']:>9}{r['backlog']:>9}"
                f"{r['staleness_end']:>12.1f}")

    lines = [
        "NSDS drop-policy ablation (DESIGN.md §6; paper §2.2 best-effort)",
        "",
        f"load: {PRODUCE_HZ:.0f} Hz producer vs {CONSUME_HZ:.0f} Hz "
        f"consumer for {DURATION:.0f} s",
        "",
        f"{'policy':<22}{'produced':>9}{'consumed':>9}{'dropped':>9}"
        f"{'backlog':>9}{'staleness':>12}",
        row("bounded ring (paper)", bounded),
        row("unbounded (ablated)", unbounded),
        "",
        "bounded: constant memory, fresh data, loss visible via sequence "
        "gaps;",
        "unbounded: no loss but unbounded memory and end-of-run staleness "
        f"of {unbounded['staleness_end']:.0f} s —",
        "useless for 'a best-effort stream of real-time data' (§2.2)",
    ]
    write_report("tstream_drop_policy", lines)
