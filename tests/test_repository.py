"""Tests for the data & metadata repository (NMDS, NFMS, transports, ingest)."""

import pytest

from repro.daq import DAQSystem, SensorChannel, StagingStore
from repro.daq.filestore import RepositoryFileStore
from repro.net import FaultInjector, Network, RemoteException, RpcClient
from repro.ogsi import ServiceContainer
from repro.repository import (
    GridFTPTransport,
    HttpsBridgeTransport,
    IngestionTool,
    NFMSService,
    NMDSService,
    RepositoryFacade,
    SchemaSpec,
    TransferFailed,
)
from repro.sim import Kernel
from repro.structural.specimen import Sensor
from repro.util.errors import ProtocolError


def repo_env(*, latency=0.02):
    """site host (DAQ + ingestion) + repo host (NMDS/NFMS/filestore)."""
    k = Kernel()
    net = Network(k, seed=0)
    for h in ("site", "repo", "user"):
        net.add_host(h)
    net.connect("site", "repo", latency=latency)
    net.connect("user", "repo", latency=latency)
    container = ServiceContainer(net, "repo")
    nmds = NMDSService()
    nfms = NFMSService()
    container.deploy(nmds)
    container.deploy(nfms)
    nfms.install_transport("gridftp")
    nfms.install_transport("https")
    repo_store = RepositoryFileStore()
    return k, net, nmds, nfms, repo_store


def invoke(k, rpc, service_id, op, params):
    return k.run(until=k.process(rpc.call(
        "repo", "ogsi", "invoke",
        {"service_id": service_id, "operation": op, "params": params})))


class TestSchemaSpec:
    def test_validate_types(self):
        spec = SchemaSpec.from_dict("sensor", {
            "name": "string", "gain": "number",
            "notes": {"type": "string", "required": False}})
        spec.validate({"name": "lvdt", "gain": 2.5})
        with pytest.raises(ProtocolError, match="missing required"):
            spec.validate({"gain": 2.5})
        with pytest.raises(ProtocolError, match="expected number"):
            spec.validate({"name": "lvdt", "gain": "high"})

    def test_boolean_is_not_number(self):
        spec = SchemaSpec.from_dict("s", {"count": "integer"})
        with pytest.raises(ProtocolError, match="boolean"):
            spec.validate({"count": True})

    def test_unknown_type_rejected(self):
        spec = SchemaSpec.from_dict("s", {"x": "quaternion"})
        with pytest.raises(ProtocolError, match="unknown type"):
            spec.validate({"x": 1})


class TestNMDS:
    def make(self):
        k, net, nmds, nfms, repo_store = repo_env()
        rpc = RpcClient(net, "user", default_timeout=30.0)
        return k, rpc, nmds

    def test_create_and_get(self):
        k, rpc, nmds = self.make()
        oid = invoke(k, rpc, "nmds", "createObject", {
            "object_type": "specimen",
            "fields": {"material": "A992 steel", "length_m": 1.2}})
        obj = invoke(k, rpc, "nmds", "getObject", {"object_id": oid})
        assert obj["fields"]["material"] == "A992 steel"
        assert obj["version"] == 1

    def test_update_creates_version_history(self):
        k, rpc, nmds = self.make()
        oid = invoke(k, rpc, "nmds", "createObject", {
            "object_type": "note", "fields": {"text": "v1"}})
        invoke(k, rpc, "nmds", "updateObject", {
            "object_id": oid, "fields": {"text": "v2"}})
        v2 = invoke(k, rpc, "nmds", "getObject", {"object_id": oid})
        v1 = invoke(k, rpc, "nmds", "getObject", {"object_id": oid,
                                                  "version": 1})
        assert v2["fields"]["text"] == "v2" and v2["version"] == 2
        assert v1["fields"]["text"] == "v1" and v1["latest_version"] == 2

    def test_missing_version_rejected(self):
        from repro.net import RemoteException as RE

        k, rpc, nmds = self.make()
        oid = invoke(k, rpc, "nmds", "createObject", {
            "object_type": "note", "fields": {"text": "x"}})

        def go():
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nmds", "operation": "getObject",
                    "params": {"object_id": oid, "version": 9}})
            except RE as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"

    def test_schema_enforced_on_create_and_update(self):
        k, rpc, nmds = self.make()
        invoke(k, rpc, "nmds", "defineSchema", {
            "name": "sensor", "spec": {"name": "string", "gain": "number"}})

        def bad_create():
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nmds", "operation": "createObject",
                    "params": {"object_type": "sensor",
                               "fields": {"name": "lvdt"}}})
            except RemoteException as exc:
                return exc.remote_message

        assert "missing required" in k.run(until=k.process(bad_create()))
        oid = invoke(k, rpc, "nmds", "createObject", {
            "object_type": "sensor",
            "fields": {"name": "lvdt", "gain": 1.0}})
        assert oid

    def test_schemas_are_first_class_versioned_objects(self):
        k, rpc, nmds = self.make()
        sid = invoke(k, rpc, "nmds", "defineSchema", {
            "name": "sensor", "spec": {"name": "string"}})
        assert sid in invoke(k, rpc, "nmds", "listObjects",
                             {"object_type": "schema"})
        sid2 = invoke(k, rpc, "nmds", "defineSchema", {
            "name": "sensor", "spec": {"name": "string", "gain": "number"}})
        assert sid2 == sid  # same object, new version
        obj = invoke(k, rpc, "nmds", "getObject", {"object_id": sid})
        assert obj["version"] == 2

    def test_acl_blocks_other_subjects(self):
        """With string credentials as subjects, per-object authz applies."""
        k, rpc, nmds = self.make()

        def create_as(subject):
            result = yield from rpc.call("repo", "ogsi", "invoke", {
                "service_id": "nmds", "operation": "createObject",
                "params": {"object_type": "note",
                           "fields": {"text": "private"}}},
                credential=subject)
            return result

        oid = k.run(until=k.process(create_as("/CN=Alice")))

        def read_as(subject):
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nmds", "operation": "getObject",
                    "params": {"object_id": oid}}, credential=subject)
                return "ok"
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(read_as("/CN=Alice"))) == "ok"
        assert k.run(until=k.process(read_as("/CN=Bob"))) == "SecurityError"

        def grant():
            yield from rpc.call("repo", "ogsi", "invoke", {
                "service_id": "nmds", "operation": "setAcl",
                "params": {"object_id": oid, "readers": ["/CN=Bob"]}},
                credential="/CN=Alice")

        k.run(until=k.process(grant()))
        assert k.run(until=k.process(read_as("/CN=Bob"))) == "ok"

    def test_only_owner_sets_acl(self):
        k, rpc, nmds = self.make()

        def create():
            oid = yield from rpc.call("repo", "ogsi", "invoke", {
                "service_id": "nmds", "operation": "createObject",
                "params": {"object_type": "note", "fields": {}}},
                credential="/CN=Alice")
            return oid

        oid = k.run(until=k.process(create()))

        def mallory_acl():
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nmds", "operation": "setAcl",
                    "params": {"object_id": oid, "readers": ["/CN=Mallory"]}},
                    credential="/CN=Mallory")
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(mallory_acl())) == "SecurityError"


class TestNFMS:
    def make(self):
        k, net, nmds, nfms, repo_store = repo_env()
        rpc = RpcClient(net, "user", default_timeout=30.0)
        return k, rpc, nfms

    def test_register_resolve(self):
        k, rpc, nfms = self.make()
        invoke(k, rpc, "nfms", "registerFile", {
            "logical_name": "most/uiuc/block1", "host": "repo",
            "store": "repository", "size": 1024, "checksum": "abc"})
        replicas = invoke(k, rpc, "nfms", "resolve",
                          {"logical_name": "most/uiuc/block1"})
        assert replicas[0]["host"] == "repo"

    def test_duplicate_registration_rejected(self):
        k, rpc, nfms = self.make()
        invoke(k, rpc, "nfms", "registerFile", {
            "logical_name": "f", "host": "repo", "store": "repository",
            "size": 1, "checksum": "x"})

        def dup():
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nfms", "operation": "registerFile",
                    "params": {"logical_name": "f", "host": "repo",
                               "store": "repository", "size": 1,
                               "checksum": "x"}})
            except RemoteException as exc:
                return exc.remote_message

        assert "already" in k.run(until=k.process(dup()))

    def test_replicas_accumulate(self):
        k, rpc, nfms = self.make()
        invoke(k, rpc, "nfms", "registerFile", {
            "logical_name": "f", "host": "repo", "store": "repository",
            "size": 1, "checksum": "x"})
        n = invoke(k, rpc, "nfms", "addReplica", {
            "logical_name": "f", "host": "site", "store": "staging",
            "size": 1, "checksum": "x"})
        assert n == 2

    def test_negotiation_prefers_server_order(self):
        k, rpc, nfms = self.make()
        invoke(k, rpc, "nfms", "registerFile", {
            "logical_name": "f", "host": "repo", "store": "repository",
            "size": 1, "checksum": "x"})
        deal = invoke(k, rpc, "nfms", "negotiateTransfer", {
            "logical_name": "f", "client_protocols": ["https", "gridftp"]})
        assert deal["protocol"] == "gridftp"  # installed first server-side
        deal2 = invoke(k, rpc, "nfms", "negotiateTransfer", {
            "logical_name": "f", "client_protocols": ["https"]})
        assert deal2["protocol"] == "https"

    def test_no_mutual_protocol(self):
        k, rpc, nfms = self.make()
        invoke(k, rpc, "nfms", "registerFile", {
            "logical_name": "f", "host": "repo", "store": "repository",
            "size": 1, "checksum": "x"})

        def go():
            try:
                yield from rpc.call("repo", "ogsi", "invoke", {
                    "service_id": "nfms", "operation": "negotiateTransfer",
                    "params": {"logical_name": "f",
                               "client_protocols": ["carrier-pigeon"]}})
            except RemoteException as exc:
                return exc.remote_message

        assert "no mutual transport" in k.run(until=k.process(go()))

    def test_list_files_prefix(self):
        k, rpc, nfms = self.make()
        for name in ("most/uiuc/a", "most/cu/b", "other/x"):
            invoke(k, rpc, "nfms", "registerFile", {
                "logical_name": name, "host": "repo", "store": "repository",
                "size": 1, "checksum": "x"})
        assert invoke(k, rpc, "nfms", "listFiles",
                      {"prefix": "most/"}) == ["most/cu/b", "most/uiuc/a"]


class TestTransports:
    def make(self, latency=0.05):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("site")
        net.add_host("repo")
        net.connect("site", "repo", latency=latency)
        staging = StagingStore()
        repo_store = RepositoryFileStore()
        f = staging.deposit("data", [(0.0, {"x": 1.0})] * 1000, created=0.0)
        return k, net, staging, repo_store, f

    def test_gridftp_moves_file(self):
        k, net, staging, repo, f = self.make()
        gftp = GridFTPTransport(net)
        report = k.run(until=k.process(
            gftp.transfer("site", "repo", f, repo)))
        assert repo.exists("data")
        assert report.size == f.size
        assert report.duration > 0
        assert gftp.transfers_completed == 1

    def test_gridftp_faster_than_https_on_fat_link(self):
        k, net, staging, repo, f = self.make(latency=0.1)
        gftp = GridFTPTransport(net)
        https = HttpsBridgeTransport(net)
        t0 = k.now
        k.run(until=k.process(gftp.transfer("site", "repo", f, repo)))
        gridftp_time = k.now - t0
        t1 = k.now
        k.run(until=k.process(https.transfer(
            "site", "repo", f, repo, dst_name="data-https")))
        https_time = k.now - t1
        assert gridftp_time < https_time

    def test_outage_fails_with_restart_marker(self):
        k, net, staging, repo, f = self.make()
        # Make the transfer slow enough that the outage hits mid-flight.
        gftp = GridFTPTransport(net, bandwidth=1e4, chunk_size=1024)
        FaultInjector(net).schedule_outage("site", "repo", start=0.3)

        def go():
            try:
                yield from gftp.transfer("site", "repo", f, repo)
            except TransferFailed as exc:
                return exc

        exc = k.run(until=k.process(go()))
        assert 0 < exc.bytes_done < f.size
        assert not repo.exists("data")

    def test_resume_after_restart_marker(self):
        k, net, staging, repo, f = self.make()
        gftp = GridFTPTransport(net, bandwidth=1e4, chunk_size=1024)
        inj = FaultInjector(net)
        inj.schedule_outage("site", "repo", start=0.3, duration=1.0)

        def go():
            try:
                yield from gftp.transfer("site", "repo", f, repo)
                return None
            except TransferFailed as exc:
                yield k.timeout(2.0)  # wait out the outage
                report = yield from gftp.transfer(
                    "site", "repo", f, repo, resume_from=exc.bytes_done)
                return report

        report = k.run(until=k.process(go()))
        assert repo.exists("data")
        assert report.resumed_from > 0

    def test_no_route_fails(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("a")
        net.add_host("b")
        staging = StagingStore()
        f = staging.deposit("f", [(0.0, {"x": 1.0})], created=0.0)
        gftp = GridFTPTransport(net)

        def go():
            try:
                yield from gftp.transfer("a", "b", f, StagingStore())
            except TransferFailed as exc:
                return str(exc)

        assert "no route" in k.run(until=k.process(go()))


class TestIngestionPipeline:
    def build(self, *, sweep_interval=1.0, latency=0.02):
        k = Kernel()
        net = Network(k, seed=0)
        for h in ("site", "repo"):
            net.add_host(h)
        net.connect("site", "repo", latency=latency)
        container = ServiceContainer(net, "repo")
        nmds, nfms = NMDSService(), NFMSService()
        container.deploy(nmds)
        container.deploy(nfms)
        nfms.install_transport("gridftp")
        staging = StagingStore()
        repo_store = RepositoryFileStore()
        rpc = RpcClient(net, "site", default_timeout=30.0,
                        default_retries=2)
        tool = IngestionTool(
            RepositoryFacade(rpc, nmds.handle, nfms.handle,
                             {"gridftp": GridFTPTransport(net)},
                             repo_store=repo_store, staging=staging),
            experiment="most", sweep_interval=sweep_interval)
        return k, net, staging, repo_store, nmds, nfms, tool

    def test_daq_to_repository_end_to_end(self):
        k, net, staging, repo_store, nmds, nfms, tool = self.build()
        daq = DAQSystem("site", k, staging, sample_interval=0.1,
                        block_size=10)
        daq.add_channel(SensorChannel("load", lambda: 5.0,
                                      Sensor(noise_std=0.0)))
        daq.start()
        tool.start()
        k.run(until=10.0)
        daq.stop()
        tool.stop()
        k.run(until=20.0)
        assert len(tool.uploaded) >= 5
        assert repo_store.exists(tool.uploaded[0])
        # metadata exists for each uploaded file
        assert len(nmds.objects) >= len(tool.uploaded)
        assert len(nfms.files) == len(tool.uploaded)

    def test_ingest_retries_after_outage(self):
        k, net, staging, repo_store, nmds, nfms, tool = self.build()
        staging.deposit("block-1", [(0.0, {"x": 1.0})] * 500, created=0.0)
        FaultInjector(net).schedule_outage("site", "repo", start=0.0,
                                           duration=5.0)
        tool.start()
        k.run(until=30.0)
        tool.stop()
        k.run(until=40.0)
        assert tool.failed_attempts >= 1
        assert tool.uploaded == ["most/site/block-1"]
        assert repo_store.exists("most/site/block-1")

    def test_facade_download_roundtrip(self):
        k, net, staging, repo_store, nmds, nfms, tool = self.build()
        staging.deposit("block-1", [(0.0, {"x": 7.0})] * 20, created=0.0)
        k.run(until=k.process(tool.drain()))
        # now a user downloads through the facade
        net.add_host("user")
        net.connect("user", "repo", latency=0.02)
        user_rpc = RpcClient(net, "user", default_timeout=30.0)
        facade = RepositoryFacade(
            user_rpc, nmds.handle, nfms.handle,
            transports={"gridftp": GridFTPTransport(net)},
            repo_store=repo_store)
        local = StagingStore("user-downloads")

        def go():
            names = yield from facade.list_files("most/")
            report = yield from facade.download(names[0], local)
            return names, report

        names, report = k.run(until=k.process(go()))
        assert names == ["most/site/block-1"]
        assert local.exists("most/site/block-1")
        got = local.get("most/site/block-1")
        assert got.rows[0][1]["x"] == 7.0

    def test_facade_metadata_queries(self):
        k, net, staging, repo_store, nmds, nfms, tool = self.build()
        staging.deposit("block-1", [(0.0, {"x": 1.0})], created=0.0)
        k.run(until=k.process(tool.drain()))
        rpc = RpcClient(net, "site", default_timeout=30.0)
        facade = RepositoryFacade(rpc, nmds.handle)

        def go():
            ids = yield from facade.query_metadata("data-file")
            obj = yield from facade.get_metadata(ids[0])
            note = yield from facade.annotate(
                "note", {"text": "uploaded during dry run"})
            return ids, obj, note

        ids, obj, note = k.run(until=k.process(go()))
        assert obj["fields"]["site"] == "site"
        assert obj["fields"]["rows"] == 1
        assert note


class TestFacadeFiles:
    """The façade's file side: the one put / fetch / list / remove path."""

    def build(self):
        k, net, nmds, nfms, repo_store = repo_env()
        facade = RepositoryFacade(
            RpcClient(net, "site", default_timeout=30.0), nmds.handle,
            nfms.handle, {"gridftp": GridFTPTransport(net)},
            repo_store=repo_store)
        return k, net, nfms, repo_store, facade

    def test_put_list_fetch_remove_roundtrip(self):
        k, net, nfms, repo_store, facade = self.build()

        def go():
            for seq in (2, 1):
                yield from facade.put_text(f"docs/run/{seq:06d}.json",
                                           f'{{"seq": {seq}}}')
            yield from facade.put_text("docs/run/notes.txt", "not numbered")
            seqs = yield from facade.list_seqs("docs/run/")
            texts = []
            for _ in range(2):  # a second fetch must not collide in staging
                texts.append((yield from facade.fetch_text(
                    "docs/run/000002.json")))
            yield from facade.remove("docs/run/000001.json")
            after = yield from facade.list_seqs("docs/run/")
            return seqs, texts, after

        seqs, texts, after = k.run(until=k.process(go()))
        assert seqs == [1, 2]
        assert texts == ['{"seq": 2}'] * 2
        assert after == [2]
        assert not repo_store.exists("docs/run/000001.json")
        assert sorted(nfms.files) == ["docs/run/000002.json",
                                      "docs/run/notes.txt"]
        # the repository is the archive: nothing put or fetched stays staged
        assert len(facade.staging) == 0

    def test_upload_resumes_after_transfer_failure(self):
        k, net, nfms, repo_store, facade = self.build()
        staged = facade.staging.deposit(
            "block-1", [(0.0, {"x": 1.0})] * 40000, created=0.0)
        FaultInjector(net).schedule_outage("site", "repo", start=0.05,
                                           duration=5.0)

        def go():
            try:
                yield from facade.upload(staged, "most/site/block-1")
            except TransferFailed as exc:
                failed_at = exc.bytes_done
            assert "most/site/block-1" not in nfms.files  # never registered
            yield k.timeout(10.0)
            report = yield from facade.upload(staged, "most/site/block-1",
                                              resume_from=failed_at)
            return failed_at, report

        failed_at, report = k.run(until=k.process(go()))
        assert 0 < failed_at < staged.size
        assert report.resumed_from == failed_at
        assert repo_store.get("most/site/block-1").checksum == staged.checksum
        assert "most/site/block-1" in nfms.files

    def test_missing_or_empty_file_is_a_typed_error(self):
        k, net, nfms, repo_store, facade = self.build()

        def fetch(name):
            text = yield from facade.fetch_text(name)
            return text

        def put_then_lose():
            yield from facade.put_text("docs/lost.json", "{}")
            repo_store.remove("docs/lost.json")  # NFMS still lists it
            empty = facade.staging.deposit("docs/empty.json", [],
                                           created=0.0)
            yield from facade.upload(empty, "docs/empty.json")

        k.run(until=k.process(put_then_lose()))
        with pytest.raises(ProtocolError, match="lost.json.*missing"):
            k.run(until=k.process(fetch("docs/lost.json")))
        with pytest.raises(ProtocolError, match="empty.json.*empty"):
            k.run(until=k.process(fetch("docs/empty.json")))
        with pytest.raises(RemoteException, match="unknown logical file"):
            k.run(until=k.process(fetch("docs/never-put.json")))
