"""Tests for the Matlab-style toolbox, the referral service, and §3.3
MOST metadata."""

import pytest

from repro.control import SimulationPlugin
from repro.coordinator import NTCPToolbox
from repro.core import NTCPClient, NTCPServer
from repro.core.policy import SitePolicy
from repro.most import ExperimentSession, MOSTConfig, build_most
from repro.most.metadata import MOST_SCHEMAS, most_component_records
from repro.net import Network, RemoteException, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import LinearSubstructure
from repro.telepresence import ReferralService
from repro.util.errors import ConfigurationError, ProtocolError


def toolbox_env(*, k_by_site=None, policies=None):
    k_by_site = k_by_site or {"uiuc": 60.0, "cu": 40.0}
    kernel = Kernel()
    net = Network(kernel, seed=0)
    net.add_host("coord")
    tb = None
    handles = {}
    for name, kk in k_by_site.items():
        net.add_host(name)
        net.connect("coord", name, latency=0.01)
        c = ServiceContainer(net, name)
        server = NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]), compute_time=0.0,
            policy=(policies or {}).get(name)))
        handles[name] = c.deploy(server)
    client = NTCPClient(RpcClient(net, "coord", default_timeout=30.0),
                        timeout=30.0, retries=2)
    tb = NTCPToolbox(client, run_id="lab")
    for name, handle in handles.items():
        tb.add_site(name, str(handle))
    return kernel, tb


class TestNTCPToolbox:
    def test_step_returns_forces_by_site(self):
        kernel, tb = toolbox_env()

        def script():
            forces = yield from tb.step(1, {"uiuc": 0.01, "cu": 0.01})
            return forces

        forces = kernel.run(until=kernel.process(script()))
        assert forces["uiuc"] == pytest.approx(0.6)
        assert forces["cu"] == pytest.approx(0.4)

    def test_engineer_style_loop(self):
        """A hand-written coordinator loop, as the MOST engineer wrote."""
        kernel, tb = toolbox_env()
        trace = []

        def script():
            d = 0.0
            for n in range(1, 6):
                d += 0.002
                forces = yield from tb.step(n, {"uiuc": d, "cu": d})
                trace.append(sum(forces.values()))

        kernel.run(until=kernel.process(script()))
        assert trace == pytest.approx([100.0 * 0.002 * i for i in
                                       range(1, 6)])

    def test_check_is_side_effect_free(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-0.005, maximum=0.005)
        kernel, tb = toolbox_env(policies={"cu": policy})

        def script():
            verdicts = yield from tb.check({"uiuc": 0.01, "cu": 0.01})
            return verdicts

        verdicts = kernel.run(until=kernel.process(script()))
        assert verdicts["uiuc"] == "accepted"
        assert verdicts["cu"].startswith("rejected")

    def test_step_rejection_cancels_siblings(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-0.005, maximum=0.005)
        kernel, tb = toolbox_env(policies={"cu": policy})

        def script():
            try:
                yield from tb.step(1, {"uiuc": 0.02, "cu": 0.02})
            except ProtocolError as exc:
                return str(exc)

        message = kernel.run(until=kernel.process(script()))
        assert "cu rejected" in message

    def test_status_inspection(self):
        kernel, tb = toolbox_env()

        def script():
            yield from tb.step(1, {"uiuc": 0.01, "cu": 0.01})
            txn = yield from tb.status("uiuc", 1)
            return txn

        txn = kernel.run(until=kernel.process(script()))
        assert txn["state"] == "executed"

    def test_unknown_site_rejected(self):
        kernel, tb = toolbox_env()
        with pytest.raises(ConfigurationError, match="unknown site"):
            list(tb.step(1, {"nowhere": 0.01}))

    def test_duplicate_site_rejected(self):
        kernel, tb = toolbox_env()
        with pytest.raises(ConfigurationError):
            tb.add_site("uiuc", "gsh://uiuc/ogsi/ntcp-uiuc")


class TestReferralService:
    def make_env(self):
        kernel = Kernel()
        net = Network(kernel, seed=0)
        net.add_host("portal")
        net.add_host("user")
        net.connect("portal", "user", latency=0.01)
        c = ServiceContainer(net, "portal")
        referral = ReferralService()
        c.deploy(referral)
        rpc = RpcClient(net, "user", default_timeout=30.0)
        return kernel, referral, rpc

    def call(self, kernel, rpc, op, params):
        return kernel.run(until=kernel.process(rpc.call(
            "portal", "ogsi", "invoke",
            {"service_id": "referral", "operation": op, "params": params})))

    def test_register_and_lookup(self):
        kernel, referral, rpc = self.make_env()
        self.call(kernel, rpc, "register", {
            "experiment": "most", "kind": "camera",
            "label": "UIUC camera", "handle": "gsh://uiuc/ogsi/cam",
            "site": "uiuc"})
        self.call(kernel, rpc, "register", {
            "experiment": "most", "kind": "stream",
            "label": "UIUC stream", "handle": "gsh://uiuc/ogsi/nsds"})
        cameras = self.call(kernel, rpc, "lookup",
                            {"experiment": "most", "kind": "camera"})
        assert cameras == [{"kind": "camera", "label": "UIUC camera",
                            "handle": "gsh://uiuc/ogsi/cam",
                            "site": "uiuc"}]
        everything = self.call(kernel, rpc, "lookup", {"experiment": "most"})
        assert len(everything) == 2

    def test_unknown_experiment(self):
        kernel, referral, rpc = self.make_env()

        def go():
            try:
                yield from rpc.call("portal", "ogsi", "invoke", {
                    "service_id": "referral", "operation": "lookup",
                    "params": {"experiment": "ghost"}})
            except RemoteException as exc:
                return exc.remote_type

        assert kernel.run(until=kernel.process(go())) == "ProtocolError"

    def test_duplicate_handle_rejected(self):
        kernel, referral, rpc = self.make_env()
        params = {"experiment": "most", "kind": "camera", "label": "x",
                  "handle": "gsh://a/b/c"}
        self.call(kernel, rpc, "register", params)

        def go():
            try:
                yield from rpc.call("portal", "ogsi", "invoke", {
                    "service_id": "referral", "operation": "register",
                    "params": params})
            except RemoteException as exc:
                return exc.remote_message

        assert "already registered" in kernel.run(until=kernel.process(go()))

    def test_withdraw(self):
        kernel, referral, rpc = self.make_env()
        self.call(kernel, rpc, "register", {
            "experiment": "most", "kind": "camera", "label": "x",
            "handle": "gsh://a/b/c"})
        assert self.call(kernel, rpc, "withdraw", {
            "experiment": "most", "handle": "gsh://a/b/c"}) is True
        assert self.call(kernel, rpc, "lookup", {"experiment": "most"}) == []

    def test_bad_kind(self):
        kernel, referral, rpc = self.make_env()

        def go():
            try:
                yield from rpc.call("portal", "ogsi", "invoke", {
                    "service_id": "referral", "operation": "register",
                    "params": {"experiment": "e", "kind": "hologram",
                               "label": "x", "handle": "h"}})
            except RemoteException as exc:
                return exc.remote_message

        assert "unknown resource kind" in kernel.run(
            until=kernel.process(go()))

    def test_most_assembly_prepopulates_referral(self):
        dep = build_most(MOSTConfig().scaled(10))
        referral = dep.extras["referral"]
        resources = referral._op_lookup(None, experiment="most")
        kinds = sorted(r["kind"] for r in resources)
        assert kinds == ["camera", "camera", "repository", "stream",
                         "stream", "worksite"]
        assert referral._op_listExperiments(None) == ["most"]


class TestMOSTMetadata:
    def test_records_cover_all_components_and_schemas(self):
        dep = build_most(MOSTConfig().scaled(10))
        records = most_component_records(dep)
        assert len(records) == 9  # 3 components x 3 schemas
        types = {t for t, _ in records}
        assert types == set(MOST_SCHEMAS)

    def test_records_validate_against_schemas(self):
        from repro.repository import SchemaSpec

        dep = build_most(MOSTConfig().scaled(10))
        for object_type, fields in most_component_records(dep):
            SchemaSpec.from_dict(object_type,
                                 MOST_SCHEMAS[object_type]).validate(fields)

    def test_physical_vs_simulated_roles(self):
        dep = build_most(MOSTConfig().scaled(10))
        roles = {f["component"]: f["role"]
                 for t, f in most_component_records(dep)
                 if t == "structural-configuration"}
        assert roles == {"uiuc": "physical", "cu": "physical",
                         "ncsa": "simulated"}

    def test_dry_run_uploads_metadata_before_experiment(self):
        report = ExperimentSession(MOSTConfig().scaled(30),
                                   run_id="most-dry").run()
        dep = report.deployment
        schemas = [o for o in dep.nmds.objects.values()
                   if o.object_type == "schema"]
        assert {s.fields["name"] for s in schemas} == set(MOST_SCHEMAS)
        configs = [o for o in dep.nmds.objects.values()
                   if o.object_type == "structural-configuration"]
        assert len(configs) == 3
        # uploaded before the run: metadata creation precedes step records
        meta_time = max(o.created for o in configs)
        first_step_wall = report.result.steps[0].wall_started
        assert meta_time <= first_step_wall

    def test_nonparticipant_can_interpret_sensor_data(self):
        """The §3.3 goal: from the catalog alone, map a data file's channel
        names to the component instrumentation descriptions."""
        report = ExperimentSession(MOSTConfig().scaled(30),
                                   run_id="most-dry").run()
        dep = report.deployment
        instrumented = {
            o.fields["component"]: set(o.fields["channels"])
            for o in dep.nmds.objects.values()
            if o.object_type == "instrumentation"}
        data_files = [o for o in dep.nmds.objects.values()
                      if o.object_type == "data-file"]
        assert data_files
        for meta in data_files:
            site = meta.fields["site"]
            logical = meta.fields["logical_name"]
            rows = dep.repo_store.get(logical).rows
            channels = set(rows[0][1])
            assert channels == instrumented[site]
