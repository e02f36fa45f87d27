"""Direct-call probes: host time per call into one layer at a time.

cProfile's per-call tax distorts exactly the small hot functions a layer
optimisation targets, so each probe here calls one layer's public
functions in isolation, untraced, in a tight loop: five batches, the
median batch's time per call.  Batches are sized so a probe stays near a
second — 4,000 calls a batch (20,000 in all) where a call costs
microseconds, fewer where a call is a multi-hop repository round trip.
The ``for`` loop around the call is part of every number.

All times are host clock; the kernels these probes spin are throwaway.
"""

from __future__ import annotations

import itertools
import statistics
import time

from repro import (
    ExperimentSession,
    Kernel,
    LinearSubstructure,
    MOSTConfig,
    Network,
    NTCPClient,
    NTCPServer,
    Proposal,
    QueueSubmission,
    RpcClient,
    RpcService,
    ServiceContainer,
    SimulationPlugin,
    TelemetryHub,
    TimeSeriesStore,
    make_displacement_actions,
)
from repro.net.rpc import RpcRequest
from repro.nsds import NSDSReceiver, NSDSService
from repro.queue import InMemoryJournalStore

BATCHES = 5


def per_call_s(batch, calls: int) -> float:
    """Median over ``BATCHES`` of ``batch(calls)``'s host time per call."""
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        batch(calls)
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def _two_hosts() -> tuple[Kernel, Network]:
    kernel = Kernel()
    network = Network(kernel, seed=0)
    network.add_host("a")
    network.add_host("b")
    network.connect("a", "b", latency=0.01)
    return kernel, network


def _propose_params(transaction: str) -> dict:
    """The ``invoke`` params an NTCP propose puts on the wire."""
    proposal = Proposal(transaction=transaction,
                        actions=tuple(make_displacement_actions({0: 0.012})),
                        execution_timeout=60.0, proposal_lifetime=3600.0)
    return {"service_id": "ntcp-b", "operation": "propose",
            "params": {"proposal": proposal.to_dict()}}


def probe_sim() -> dict[str, float]:
    kernel = Kernel()

    def batch(calls):
        for _ in range(calls):
            kernel.timeout(1.0)
        kernel.run()

    return {"sim.timeout_us": per_call_s(batch, 4000) * 1e6}


def probe_net() -> dict[str, float]:
    kernel, network = _two_hosts()
    network.host("b").bind("ntcp", lambda msg: None)
    payload = RpcRequest(request_id="a.req-1", method="invoke",
                         params=_propose_params("step00001"),
                         reply_port="rpc-reply-1")

    def send_batch(calls):
        for _ in range(calls):
            network.send("a", "b", "ntcp", payload)
        kernel.run()

    service = RpcService(network, "b", "echo")
    service.register("echo", lambda caller, **params: params)
    client = RpcClient(network, "a")

    def rpc_batch(calls):
        def caller():
            for _ in range(calls):
                yield from client.call("b", "echo", "echo", {"x": 1})
        kernel.run(until=kernel.process(caller()))

    return {"net.send_deliver_us": per_call_s(send_batch, 4000) * 1e6,
            "net.rpc_call_us": per_call_s(rpc_batch, 2000) * 1e6}


def probe_core() -> dict[str, float]:
    kernel, network = _two_hosts()
    plugin = SimulationPlugin(
        LinearSubstructure("column", [[5.0e7]], dof_indices=[0]),
        compute_time=0.0)
    handle = ServiceContainer(network, "b").deploy(
        NTCPServer("ntcp-b", plugin))
    client = NTCPClient(RpcClient(network, "a", default_timeout=10.0))
    actions = make_displacement_actions({0: 0.012})
    steps = itertools.count()

    def batch(calls):
        def transactions():
            for _ in range(calls):
                name = f"probe-step{next(steps):06d}"
                yield from client.propose(handle, name, actions)
                yield from client.execute(handle, name)
        kernel.run(until=kernel.process(transactions()))

    # one call = one transaction: propose + execute, two RPC round trips
    return {"core.txn_us": per_call_s(batch, 500) * 1e6}


def probe_telemetry() -> dict[str, float]:
    hub = TelemetryHub()
    counter = hub.counter("twall.probe.count")
    histogram = hub.histogram("twall.probe.value")

    def inc_batch(calls):
        for _ in range(calls):
            counter.inc()

    def observe_batch(calls):
        for _ in range(calls):
            histogram.observe(1.0)

    return {"telemetry.inc_ns": per_call_s(inc_batch, 20000) * 1e9,
            "telemetry.observe_ns": per_call_s(observe_batch, 20000) * 1e9}


def probe_nsds(n_subscribers: int = 8) -> dict[str, float]:
    kernel, network = _two_hosts()
    nsds = NSDSService("nsds-probe")
    ServiceContainer(network, "a").deploy(nsds)
    viewer = RpcClient(network, "b")

    def subscribe():
        for _ in range(n_subscribers):
            receiver = NSDSReceiver(network, "b")
            yield from viewer.call(
                "a", "ogsi", "invoke",
                {"service_id": nsds.service_id, "operation": "subscribe",
                 "params": {"sink_host": "b", "sink_port": receiver.port,
                            "lifetime": 1e9}})

    kernel.run(until=kernel.process(subscribe()))

    def batch(calls):
        for _ in range(calls):
            nsds.ingest(kernel.now, {"lvdt": 0.012})
        kernel.run()

    # one call = one ingested sample pushed to and received by 8 viewers
    return {"nsds.push_us": per_call_s(batch, 1000) * 1e6}


def probe_observatory() -> dict[str, float]:
    store = TimeSeriesStore(Kernel())
    labels = [{"site": f"site-{index}", "stat": "p95"} for index in range(8)]
    clock = itertools.count()

    def batch(calls):
        for index in range(calls):
            store.append("twall.probe.metric", labels[index % 8],
                         float(next(clock)), 1.0)

    return {"observatory.append_us": per_call_s(batch, 4000) * 1e6}


def probe_repository() -> dict[str, float]:
    """Checkpoint save/load through GridFTP + NFMS on a small grid.

    A 31-step checkpointed run supplies a real document (state plus the
    five records of a ``checkpoint_every=5`` interval); the probe re-saves
    it under a fresh run id with rising sequence numbers, then reads the
    history back the way a recovering scheduler does.
    """
    outcome = (ExperimentSession(MOSTConfig().scaled(31), run_id="probe-seed",
                                 simulation_only=True)
               .with_resume(checkpoint_every=5).run())
    dep = outcome.deployment
    kernel = dep.kernel
    store = dep.make_checkpoint_store()
    doc, records = kernel.run(
        until=kernel.process(store.load_history("probe-seed")))
    template = dict(doc, run_id="probe", records=records[-5:],
                    state=dict(doc["state"], run_id="probe"))
    seqs = itertools.count(1)

    def save_batch(calls):
        for _ in range(calls):
            kernel.run(until=kernel.process(
                store.save(dict(template, seq=next(seqs)))))

    def load_batch(calls):
        for _ in range(calls):
            fresh = dep.make_checkpoint_store()  # no merged-history cache
            kernel.run(until=kernel.process(fresh.load_history("probe")))

    return {"repository.checkpoint_save_ms": per_call_s(save_batch, 100) * 1e3,
            "repository.checkpoint_load_ms": per_call_s(load_batch, 100) * 1e3}


def probe_queue(journal_entries: int = 400) -> dict[str, float]:
    kernel = Kernel()
    body = QueueSubmission(submission_id="t00-r0", tenant="t00", n_steps=30,
                           checkpoint_every=5).body()

    def append_to(store, calls):
        def appends():
            for index in range(calls):
                yield from store.append(
                    "submit", dict(body, submission_id=f"s{index}"),
                    time=kernel.now)
        kernel.run(until=kernel.process(appends()))

    grown = InMemoryJournalStore()
    # replay a journal the size of one campaign_durable repetition's
    campaign_sized = InMemoryJournalStore()
    append_to(campaign_sized, journal_entries)

    def replay_batch(calls):
        for _ in range(calls):
            kernel.run(until=kernel.process(campaign_sized.replay()))

    return {"queue.journal_append_us":
            per_call_s(lambda calls: append_to(grown, calls), 4000) * 1e6,
            "queue.replay_ms": per_call_s(replay_batch, 20) * 1e3}


def run_all() -> dict[str, float]:
    """Every probe in ``names.PROBES``, name -> host time per call."""
    results: dict[str, float] = {}
    for probe in (probe_sim, probe_net, probe_core, probe_telemetry,
                  probe_nsds, probe_observatory, probe_repository,
                  probe_queue):
        results.update(probe())
    return results
