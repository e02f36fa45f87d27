"""F3 — Figure 3: the NEESgrid repository architecture.

Regenerates the Figure-3 data path end to end: DAQ deposit → ingestion
tool → GridFTP upload → NFMS logical registration + NMDS metadata → remote
download through the façade (negotiating gridftp vs the https bridge).
The report shows the archive contents and the transport negotiation
outcomes.
"""

from repro.daq import StagingStore
from repro.daq.filestore import RepositoryFileStore
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.repository import (
    GridFTPTransport,
    HttpsBridgeTransport,
    IngestionTool,
    NFMSService,
    NMDSService,
    RepositoryFacade,
)
from repro.sim import Kernel

from _report import write_report


def build_repo_world():
    k = Kernel()
    net = Network(k, seed=0)
    for h in ("site", "repo", "user"):
        net.add_host(h)
    net.connect("site", "repo", latency=0.02)
    net.connect("user", "repo", latency=0.06)
    container = ServiceContainer(net, "repo")
    nmds, nfms = NMDSService(), NFMSService()
    container.deploy(nmds)
    container.deploy(nfms)
    nfms.install_transport("gridftp")
    nfms.install_transport("https")
    staging = StagingStore()
    repo_store = RepositoryFileStore()
    rpc = RpcClient(net, "site", default_timeout=30.0, default_retries=2)
    tool = IngestionTool(
        RepositoryFacade(rpc, nmds.handle, nfms.handle,
                         {"gridftp": GridFTPTransport(net)},
                         repo_store=repo_store, staging=staging),
        experiment="most")
    return k, net, staging, repo_store, nmds, nfms, tool


def bench_f3_repository():
    k, net, staging, repo_store, nmds, nfms, tool = build_repo_world()

    # deposit and ingest a handful of DAQ blocks
    for i in range(5):
        staging.deposit(f"block-{i}", [(float(j), {"d": 0.01 * j,
                                                   "f": 100.0 * j})
                                       for j in range(60)], created=float(i))
    k.run(until=k.process(tool.drain()))

    user_rpc = RpcClient(net, "user", default_timeout=60.0)
    # a gridftp-capable user and an https-only user (the bridge servlet)
    reports = {}
    for label, transports in (
            ("gridftp-user", {"gridftp": GridFTPTransport(net)}),
            ("https-user", {"https": HttpsBridgeTransport(net)})):
        facade = RepositoryFacade(user_rpc, nmds.handle, nfms.handle,
                                  transports, repo_store=repo_store)
        local = StagingStore(label)

        def fetch(facade=facade, local=local):
            names = yield from facade.list_files("most/")
            report = yield from facade.download(names[0], local)
            ids = yield from facade.query_metadata("data-file")
            return names, report, ids

        reports[label] = k.run(until=k.process(fetch()))

    names, g_report, ids = reports["gridftp-user"]
    _, h_report, _ = reports["https-user"]
    assert len(names) == 5
    assert len(ids) == 5
    assert g_report.protocol == "gridftp"
    assert h_report.protocol == "https"
    assert g_report.duration < h_report.duration

    lines = ["Figure 3 reproduction: repository architecture data path", "",
             f"ingested files     : {len(tool.uploaded)}",
             f"NFMS logical names : {names}",
             f"NMDS metadata      : {len(ids)} data-file objects "
             f"(+{len(nmds.objects) - len(ids)} other)",
             "",
             "transport negotiation (same logical file):",
             f"  gridftp-capable user -> {g_report.protocol:<8} "
             f"{g_report.duration:.3f}s",
             f"  https-only user      -> {h_report.protocol:<8} "
             f"{h_report.duration:.3f}s",
             "",
             "shape check: GridFTP beats the https bridge; both verified "
             "checksums on arrival"]
    write_report("f3_repository", lines)
    assert tool.failed_attempts == 0
