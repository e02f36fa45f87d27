"""Checkpoint / restore round-trips: codecs, schema, stores, and resume.

Covers the resumable-lifecycle stack bottom-up: the hex-float codecs
(bit-exact, including ``-0.0`` and denormals), integrator
``snapshot``/``restore``, :class:`ExperimentState` payload round-trips,
the ``repro.checkpoint/v1`` schema validators, the in-memory store's
history merge, and finally full abort → resume runs on a three-site rig —
both the reconcile path (abort-time checkpoint captured the in-flight
transactions) and the replay path (resume from an older periodic
checkpoint drives committed steps through NTCP's idempotent verbs).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import SimulationPlugin
from repro.coordinator import (
    NaiveFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
    StepRecord,
    load_resume,
    records_from_payloads,
    resume_state_from_checkpoint,
    step_marker,
)
from repro.coordinator import state as coordinator_state
from repro.coordinator.reconcile import (
    ACTION_CANCEL,
    ACTION_REPROPOSE,
)
from repro.coordinator.state import (
    ExperimentState,
    decode_floats,
    decode_integrator,
    encode_floats,
    encode_integrator,
    record_from_payload,
    record_to_payload,
)
from repro.core import NTCPClient, NTCPServer
from repro.net import FaultInjector, Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.repository import checkpoint as checkpoint_schema
from repro.repository.checkpoint import (
    MANIFEST_SCHEMA_ID,
    SCHEMA_ID,
    CheckpointPolicy,
    CheckpointSchemaError,
    InMemoryCheckpointStore,
    RepositoryCheckpointStore,
    build_checkpoint_doc,
    validate_checkpoint_payload,
    validate_manifest_payload,
)
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.structural import (
    AlphaOSPSD,
    CentralDifferencePSD,
    LinearSubstructure,
    StructuralModel,
    el_centro_like,
)
from repro.structural.integrators import EnsembleCentralDifferencePSD
from repro.util.errors import ConfigurationError, SchemaError


def run_store(gen):
    """Drive a store primitive that completes without yielding."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("in-memory store call unexpectedly yielded")


def make_model() -> StructuralModel:
    return StructuralModel(mass=[[2.0]], stiffness=[[100.0]]
                           ).with_rayleigh_damping(0.05)


def make_state(**overrides) -> ExperimentState:
    fields = dict(run_id="run", target_steps=50, dt=0.02, step=4,
                  phase="idle", generation=0, pending={},
                  integrator=None, checkpoint_seq=0, wall_started=0.0)
    fields.update(overrides)
    return ExperimentState(**fields)


def make_record_payload(step: int = 1, displacement: float = 0.001) -> dict:
    record = StepRecord(step=step, model_time=step * 0.02,
                        displacement=np.array([displacement]),
                        restoring_force=np.array([100.0 * displacement]),
                        site_forces={"uiuc": {0: 30.0 * displacement}},
                        attempts=1, wall_started=float(step),
                        wall_finished=float(step) + 0.5)
    return record_to_payload(record)


def make_doc(*, seq: int = 1, step: int = 4, reason: str = "policy") -> dict:
    state = make_state(step=step, checkpoint_seq=seq)
    return build_checkpoint_doc(
        run_id="run", seq=seq, wall_time=float(seq), reason=reason,
        state_payload=state.to_payload(),
        record_payloads=[make_record_payload(s) for s in range(1, step)])


class TestHexCodec:
    SPECIALS = (0.0, -0.0, 1.0, -1.0 / 3.0, np.pi, 5e-324, -5e-324,
                1.7976931348623157e308, 2.2250738585072014e-308)

    def test_round_trip_is_bit_exact(self):
        encoded = encode_floats(self.SPECIALS)
        decoded = decode_floats(encoded)
        assert [v.hex() for v in decoded] == [float(v).hex()
                                             for v in self.SPECIALS]

    def test_negative_zero_keeps_its_sign(self):
        (out,) = decode_floats(encode_floats([-0.0]))
        assert out == 0.0 and math.copysign(1.0, out) == -1.0

    def test_survives_json(self):
        encoded = json.loads(json.dumps(encode_floats(self.SPECIALS)))
        assert np.array_equal(decode_floats(encoded),
                              np.asarray(self.SPECIALS))


def advance(integrator, motion, steps):
    """Step a PSD integrator over exact linear restoring forces."""
    model = integrator.model
    history = []
    for i in steps:
        d = integrator.propose_next()
        integrator.commit(d, 100.0 * d, model.external_force(motion.accel[i]))
        history.append(np.asarray(d, dtype=float).copy())
    return np.array(history)


class TestIntegratorSnapshot:
    @pytest.mark.parametrize("factory", [CentralDifferencePSD, AlphaOSPSD])
    def test_restore_continues_bit_exact(self, factory):
        model = make_model()
        motion = el_centro_like(duration=1.0, dt=0.02)
        original = factory(model, motion.dt)
        original.start(r0=np.zeros(1),
                       p0=model.external_force(motion.accel[0]))
        advance(original, motion, range(1, 21))

        payload = json.loads(json.dumps(
            encode_integrator(original.snapshot())))
        clone = factory(model, motion.dt)
        clone.restore(decode_integrator(payload))

        rest_original = advance(original, motion, range(21, motion.n_steps))
        rest_clone = advance(clone, motion, range(21, motion.n_steps))
        assert rest_original.tobytes() == rest_clone.tobytes()

    @pytest.mark.parametrize("factory, kind, names", [
        (CentralDifferencePSD, "central-difference",
         ["d_prev", "d_curr", "r_curr", "p_curr"]),
        (AlphaOSPSD, "alpha-os", ["d", "v", "a", "r", "p"]),
        (lambda model, dt: EnsembleCentralDifferencePSD(model, dt, 3),
         "central-difference-ensemble",
         ["d_prev", "d_curr", "r_curr", "p_curr"]),
    ])
    def test_snapshot_document_layout_is_pinned(self, factory, kind, names):
        """Each kind's checkpoint document — its kind, step index and
        array names in order — survives encode → JSON → decode → restore,
        and the restored stepper continues bit-identically for 20 steps."""
        model = make_model()
        motion = el_centro_like(duration=1.0, dt=0.02)
        original = factory(model, motion.dt)
        shape = original.state_shape()

        def load(i):
            p = model.external_force(motion.accel[i])
            return p if len(shape) == 1 else np.outer(p, [1.0, 0.5, -2.0])

        def step(integrator, i):
            d = integrator.propose_next()
            return integrator.commit(d, 100.0 * d, load(i))

        original.start(r0=np.zeros(shape), p0=load(0))
        for i in range(1, 11):
            step(original, i)
        payload = json.loads(json.dumps(
            encode_integrator(original.snapshot())))
        assert list(payload) == ["kind", "step_index", "arrays"]
        assert payload["kind"] == kind
        assert payload["step_index"] == 10
        assert list(payload["arrays"]) == names

        clone = factory(model, motion.dt)
        clone.restore(decode_integrator(payload))
        assert encode_integrator(clone.snapshot()) == payload
        for i in range(11, 31):
            a, b = step(original, i), step(clone, i)
            assert a.step == b.step == i
            for field in ("displacement", "velocity", "acceleration",
                          "restoring_force"):
                assert getattr(a, field).shape == shape
                assert (getattr(a, field).tobytes()
                        == getattr(b, field).tobytes())

    @pytest.mark.parametrize("factory", [CentralDifferencePSD, AlphaOSPSD])
    def test_snapshot_before_start_rejected(self, factory):
        with pytest.raises(ConfigurationError, match="before start"):
            factory(make_model(), 0.02).snapshot()

    def test_restore_kind_mismatch_rejected(self):
        model = make_model()
        alpha = AlphaOSPSD(model, 0.02)
        alpha.start(r0=np.zeros(1), p0=np.zeros(1))
        with pytest.raises(ConfigurationError, match="does not match"):
            CentralDifferencePSD(model, 0.02).restore(alpha.snapshot())

    def test_restore_missing_array_rejected(self):
        model = make_model()
        integ = CentralDifferencePSD(model, 0.02)
        integ.start(r0=np.zeros(1), p0=np.zeros(1))
        snap = integ.snapshot()
        del snap["arrays"]["r_curr"]
        with pytest.raises(ConfigurationError, match="missing array"):
            CentralDifferencePSD(model, 0.02).restore(snap)

    def test_restore_wrong_shape_rejected(self):
        model = make_model()
        integ = CentralDifferencePSD(model, 0.02)
        integ.start(r0=np.zeros(1), p0=np.zeros(1))
        snap = integ.snapshot()
        snap["arrays"]["d_curr"] = np.zeros(3)
        with pytest.raises(ConfigurationError, match="shape"):
            CentralDifferencePSD(model, 0.02).restore(snap)

    def test_alpha_os_restore_lands_at_commit_boundary(self):
        """A restored alpha-OS integrator must demand a fresh predictor."""
        model = make_model()
        integ = AlphaOSPSD(model, 0.02)
        integ.start(r0=np.zeros(1), p0=np.zeros(1))
        integ.propose_next()  # leaves a predictor hanging
        snap_source = AlphaOSPSD(model, 0.02)
        snap_source.start(r0=np.zeros(1), p0=np.zeros(1))
        integ.restore(snap_source.snapshot())
        with pytest.raises(ConfigurationError, match="propose_next"):
            integ.commit(np.zeros(1), np.zeros(1), np.zeros(1))


class TestExperimentStatePayload:
    def test_round_trip_preserves_every_field(self):
        model = make_model()
        integ = CentralDifferencePSD(model, 0.02)
        integ.start(r0=np.array([0.25]), p0=np.array([-0.0]))
        state = make_state(step=7, phase="propose", generation=2,
                           pending={"uiuc": "run-step00007-uiuc"},
                           integrator=integ.snapshot(), checkpoint_seq=3,
                           wall_started=12.5)
        payload = json.loads(json.dumps(state.to_payload()))
        back = ExperimentState.from_payload(payload)
        assert (back.run_id, back.target_steps, back.dt, back.step,
                back.phase, back.generation, back.pending,
                back.checkpoint_seq, back.wall_started) == (
            state.run_id, state.target_steps, state.dt, state.step,
            state.phase, state.generation, state.pending,
            state.checkpoint_seq, state.wall_started)
        for name, vec in state.integrator["arrays"].items():
            assert back.integrator["arrays"][name].tobytes() == vec.tobytes()

    def test_unknown_phase_rejected(self):
        payload = make_state().to_payload()
        payload["phase"] = "warp"
        with pytest.raises(ConfigurationError, match="phase"):
            ExperimentState.from_payload(payload)

    def test_resume_bumps_generation_and_resets_phase(self):
        state = make_state(step=30, phase="execute", generation=1,
                           pending={"uiuc": "t"})
        state_payload = state.to_payload()
        state_payload["integrator"] = None
        doc = {"schema": SCHEMA_ID, "run_id": "run", "seq": 5,
               "wall_time": 9.0, "reason": "abort", "state": state_payload,
               "records": []}
        resumed = resume_state_from_checkpoint(doc)
        assert resumed.generation == 2
        assert resumed.phase == "idle"
        assert resumed.checkpoint_seq == 5
        assert resumed.step == 30
        assert resumed.pending == {"uiuc": "t"}


class TestRecordPayload:
    def test_round_trip_is_bit_exact(self):
        payload = json.loads(json.dumps(make_record_payload(
            step=3, displacement=-1.0 / 3.0)))
        record = record_from_payload(payload)
        assert record.step == 3
        assert record.displacement[0].hex() == (-1.0 / 3.0).hex()
        assert record.site_forces["uiuc"][0].hex() == (30.0 * -1.0 / 3.0).hex()

    def test_merged_history_is_ordered_by_step(self):
        payloads = [make_record_payload(s) for s in (5, 2, 9)]
        records = records_from_payloads(payloads)
        assert [r.step for r in records] == [2, 5, 9]


class TestSchemaValidation:
    def test_valid_document_passes(self):
        validate_checkpoint_payload(make_doc())

    def test_phase_literals_pinned_to_coordinator(self):
        # checkpoint.py keeps its own literal so the repository layer
        # never imports the coordinator; this is the promised pin.
        assert checkpoint_schema._PHASES == coordinator_state.PHASES

    @pytest.mark.parametrize("mutate, path", [
        (lambda d: d.__setitem__("schema", "repro.checkpoint/v0"),
         r"\$\.schema"),
        (lambda d: d.__setitem__("seq", 0), r"\$\.seq"),
        (lambda d: d.__setitem__("reason", "panic"), r"\$\.reason"),
        (lambda d: d["state"].__setitem__("phase", "warp"),
         r"\$\.state\.phase"),
        (lambda d: d["state"].__setitem__("run_id", "other"),
         r"\$\.state\.run_id"),
        (lambda d: d["state"].__setitem__("dt", 0.0), r"\$\.state\.dt"),
        (lambda d: d["records"][0].pop("displacement"),
         r"\$\.records\[0\]\.displacement"),
        (lambda d: d["records"][0].__setitem__("step", 0),
         r"\$\.records\[0\]\.step"),
        (lambda d: d["records"][0]["restoring_force"].append("not-hex"),
         r"\$\.records\[0\]\.restoring_force\[1\]"),
    ])
    def test_malformed_documents_name_the_json_path(self, mutate, path):
        doc = make_doc()
        mutate(doc)
        with pytest.raises(CheckpointSchemaError, match=path):
            validate_checkpoint_payload(doc)

    def test_integrator_payload_validated(self):
        model = make_model()
        integ = CentralDifferencePSD(model, 0.02)
        integ.start(r0=np.zeros(1), p0=np.zeros(1))
        state = make_state(integrator=integ.snapshot())
        payload = state.to_payload()
        payload["integrator"]["arrays"]["d_curr"] = ["not-hex"]
        doc = {"schema": SCHEMA_ID, "run_id": "run", "seq": 1,
               "wall_time": 0.0, "reason": "policy", "state": payload,
               "records": []}
        with pytest.raises(CheckpointSchemaError,
                           match=r"integrator\.arrays\.d_curr\[0\]"):
            validate_checkpoint_payload(doc)


class TestCheckpointPolicy:
    def test_due_every_n(self):
        policy = CheckpointPolicy(every_n_steps=10)
        assert policy.due(10) and policy.due(20)
        assert not policy.due(5) and not policy.due(11)

    def test_zero_disables_periodic_checkpoints(self):
        policy = CheckpointPolicy(every_n_steps=0)
        assert not any(policy.due(s) for s in range(1, 100))
        assert policy.on_abort  # the abort-time checkpoint survives

    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            CheckpointPolicy(every_n_steps=-1)


class TestInMemoryStore:
    def test_save_load_round_trip(self):
        store = InMemoryCheckpointStore()
        doc = make_doc(seq=1)
        assert run_store(store.save(doc)) == 1
        assert run_store(store.list_seqs("run")) == [1]
        assert run_store(store.load("run", 1)) == doc

    def test_duplicate_seq_rejected(self):
        store = InMemoryCheckpointStore()
        run_store(store.save(make_doc(seq=1)))
        with pytest.raises(ConfigurationError, match="already saved"):
            run_store(store.save(make_doc(seq=1)))

    def test_missing_seq_rejected(self):
        store = InMemoryCheckpointStore()
        with pytest.raises(ConfigurationError, match="no checkpoint"):
            run_store(store.load("run", 99))

    def test_malformed_document_rejected_on_save(self):
        store = InMemoryCheckpointStore()
        doc = make_doc()
        doc["reason"] = "panic"
        with pytest.raises(CheckpointSchemaError):
            run_store(store.save(doc))

    def test_empty_run_loads_nothing(self):
        store = InMemoryCheckpointStore()
        assert tuple(run_store(store.load_history("ghost"))) == (None, [])

    def test_history_merge_keeps_last_written_and_truncates(self):
        store = InMemoryCheckpointStore()
        state1 = make_state(step=4, checkpoint_seq=1)
        doc1 = build_checkpoint_doc(
            run_id="run", seq=1, wall_time=1.0, reason="policy",
            state_payload=state1.to_payload(),
            record_payloads=[make_record_payload(s) for s in (1, 2, 3)])
        # seq 2 rewrites step 3 and adds 4..6; its resume step is 6, so
        # step 6 itself belongs to the aborted attempt and must drop out.
        state2 = make_state(step=6, checkpoint_seq=2)
        rewritten = make_record_payload(3, displacement=0.125)
        doc2 = build_checkpoint_doc(
            run_id="run", seq=2, wall_time=2.0, reason="abort",
            state_payload=state2.to_payload(),
            record_payloads=[rewritten] + [make_record_payload(s)
                                           for s in (4, 5, 6)])
        run_store(store.save(doc1))
        run_store(store.save(doc2))

        latest, records = run_store(store.load_history("run"))
        assert latest["seq"] == 2
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5]
        assert records[2]["displacement"] == rewritten["displacement"]


def repository_store_env(k=None, net=None):
    """coord host + repo host running NFMS, with a store factory (the
    repo host joins ``net`` when a rig with a ``coord`` host is given).

    The factory lets one test create several store incarnations against
    the same repository — the resume pattern: the first incarnation wrote
    the checkpoints, a fresh one loads the history back.
    """
    from repro.daq.filestore import RepositoryFileStore
    from repro.repository import (
        GridFTPTransport,
        NFMSService,
        RepositoryFacade,
    )

    if net is None:
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("coord")
    net.add_host("repo")
    net.connect("coord", "repo", latency=0.02)
    container = ServiceContainer(net, "repo")
    nfms = NFMSService()
    handle = container.deploy(nfms)
    nfms.install_transport("gridftp")
    repo_store = RepositoryFileStore()
    rpc = RpcClient(net, "coord", default_timeout=30.0)

    def make_store():
        return RepositoryCheckpointStore(RepositoryFacade(
            rpc, nfms=handle, transports={"gridftp": GridFTPTransport(net)},
            repo_store=repo_store))

    return k, make_store


class TestTheStoreValidates:
    """``build_checkpoint_doc`` only assembles; every store's ``save``
    refuses a malformed document before anything is persisted."""

    @staticmethod
    def malformed_doc():
        state = make_state(step=4, checkpoint_seq=1)
        return build_checkpoint_doc(
            run_id="run", seq=1, wall_time=1.0, reason="panic",
            state_payload=state.to_payload(), record_payloads=[])

    def test_build_does_not_validate(self):
        assert self.malformed_doc()["reason"] == "panic"

    def test_in_memory_store(self):
        store = InMemoryCheckpointStore()
        with pytest.raises(CheckpointSchemaError, match=r"\$\.reason"):
            run_store(store.save(self.malformed_doc()))
        assert run_store(store.list_seqs("run")) == []

    def test_repository_store(self):
        kernel, make_store = repository_store_env()
        store = make_store()
        with pytest.raises(CheckpointSchemaError, match=r"\$\.reason"):
            next(store.save(self.malformed_doc()))
        assert len(store.facade.staging) == 0
        assert len(store.facade.repo_store) == 0
        assert kernel.run(until=kernel.process(store.list_seqs("run"))) == []

    def test_fenced_store(self):
        from repro.queue import FencedCheckpointStore, FencingAuthority

        authority = FencingAuthority(Kernel())
        inner = InMemoryCheckpointStore()
        store = FencedCheckpointStore(inner, authority,
                                      authority.register("sched-1"))
        with pytest.raises(CheckpointSchemaError, match=r"\$\.reason"):
            run_store(store.save(self.malformed_doc()))
        assert run_store(inner.list_seqs("run")) == []
        assert not authority.refusals  # refused by the schema, not the fence


def fetch_log(store):
    """The logical names ``store`` fetches from now on, counted where
    every repository read goes through: its façade."""
    fetched = []
    fetch_text = store.facade.fetch_text

    def recording(name, **kw):
        fetched.append(name)
        return fetch_text(name, **kw)

    store.facade.fetch_text = recording
    return fetched


def fail_manifest_write(store, seq, run_id="run"):
    """Stage "the manifest write for ``seq`` fails": its name is already
    taken in the client's staging area, so the deposit collides."""
    store.facade.staging.deposit(
        f"checkpoints/{run_id}/manifest/{seq:06d}.json", [], created=0.0)


def make_doc_pair():
    """Two overlapping checkpoint docs (same shape as the merge test)."""
    state1 = make_state(step=4, checkpoint_seq=1)
    doc1 = build_checkpoint_doc(
        run_id="run", seq=1, wall_time=1.0, reason="policy",
        state_payload=state1.to_payload(),
        record_payloads=[make_record_payload(s) for s in (1, 2, 3)])
    state2 = make_state(step=6, checkpoint_seq=2)
    rewritten = make_record_payload(3, displacement=0.125)
    doc2 = build_checkpoint_doc(
        run_id="run", seq=2, wall_time=2.0, reason="abort",
        state_payload=state2.to_payload(),
        record_payloads=[rewritten] + [make_record_payload(s)
                                       for s in (4, 5, 6)])
    return doc1, doc2


class TestManifestSchema:
    def make_manifest(self, **overrides):
        doc = make_doc(seq=2, step=6)
        manifest = {"schema": MANIFEST_SCHEMA_ID, "run_id": "run", "seq": 2,
                    "seqs": [1, 2], "latest": doc,
                    "records": doc["records"]}
        manifest.update(overrides)
        return manifest

    def test_valid_manifest_passes(self):
        validate_manifest_payload(self.make_manifest())

    @pytest.mark.parametrize("mutation", [
        {"schema": "repro.checkpoint/v1"},
        {"seqs": [2, 1]},
        {"seqs": [1]},          # last entry must equal seq
        {"seqs": []},
        {"seq": 3},             # latest doc seq must match
        {"run_id": "other"},
    ])
    def test_malformed_manifest_rejected(self, mutation):
        with pytest.raises(CheckpointSchemaError):
            validate_manifest_payload(self.make_manifest(**mutation))


    @pytest.mark.parametrize("field, order, path", [
        ("seqs", [1, 1, 2], "$.seqs[1]"),
        ("seqs", [2, 1, 2], "$.seqs[1]"),
        ("records", [0, 2, 1, 3, 4], "$.records[2].step"),
        ("records", [0, 1, 1, 2, 3, 4], "$.records[2].step"),
        ("records", [4, 3, 2, 1, 0], "$.records[1].step"),
    ])
    def test_a_step_out_of_order_is_named(self, field, order, path):
        """``seqs`` and the records' steps must each rise strictly: a
        manifest that repeats or steps back is a typed refusal naming
        the first entry out of order."""
        manifest = self.make_manifest()
        manifest[field] = ([manifest["records"][i] for i in order]
                           if field == "records" else order)
        with pytest.raises(SchemaError) as refusal:
            validate_manifest_payload(manifest)
        assert type(refusal.value) is CheckpointSchemaError
        assert str(refusal.value) == f"{path}: must be strictly ascending"


class TestRepositoryManifest:
    def save_all(self, k, store, docs):
        for doc in docs:
            k.run(until=k.process(store.save(doc)))

    def test_load_history_costs_one_manifest_fetch(self):
        k, make_store = repository_store_env()
        writer = make_store()
        self.save_all(k, writer, make_doc_pair())

        reader = make_store()  # the resume incarnation
        fetched = fetch_log(reader)
        latest, records = k.run(until=k.process(reader.load_history("run")))
        assert latest["seq"] == 2
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5]
        assert records[2]["displacement"] == \
            make_record_payload(3, displacement=0.125)["displacement"]
        # the point of the manifest: no per-sequence document fetches
        assert fetched == ["checkpoints/run/manifest/000002.json"]

    def test_history_identical_to_sequence_walk(self):
        k, make_store = repository_store_env()
        self.save_all(k, make_store(), make_doc_pair())
        fast = k.run(until=k.process(make_store().load_history("run")))
        # the same run in a repository no manifest reached: nothing was
        # compacted, and the merge walks every per-sequence document
        k, make_store = repository_store_env()
        writer = make_store()
        fail_manifest_write(writer, 1)
        fail_manifest_write(writer, 2)
        self.save_all(k, writer, make_doc_pair())
        slow_store = make_store()
        fetched = fetch_log(slow_store)
        slow = k.run(until=k.process(slow_store.load_history("run")))
        assert tuple(fast) == tuple(slow)
        assert fetched == ["checkpoints/run/000001.json",
                           "checkpoints/run/000002.json"]

    def test_stale_manifest_walks_only_newer_documents(self):
        k, make_store = repository_store_env()
        writer = make_store()
        # the second checkpoint lands without a manifest (write failed)
        fail_manifest_write(writer, 2)
        self.save_all(k, writer, make_doc_pair())

        reader = make_store()
        fetched = fetch_log(reader)
        latest, records = k.run(until=k.process(reader.load_history("run")))
        assert latest["seq"] == 2  # not the stale manifest's seq 1
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5]
        # seeded from the stale manifest, walked only the newer document
        assert fetched == ["checkpoints/run/manifest/000001.json",
                           "checkpoints/run/000002.json"]

    def test_manifest_write_failure_is_not_fatal(self):
        k, make_store = repository_store_env()
        doc1, _ = make_doc_pair()
        store = make_store()
        fail_manifest_write(store, 1)
        sink = k.telemetry.add_sink(InMemorySink())
        seq = k.run(until=k.process(store.save(doc1)))
        assert seq == 1
        [failed] = [r for r in sink.records if r.kind == "manifest.failed"]
        assert failed.subsystem == "repository.checkpoint"
        assert failed.detail["seq"] == 1
        repo_store = store.facade.repo_store
        assert not repo_store.exists("checkpoints/run/manifest/000001.json")
        # the per-sequence document is still there and loadable
        latest, records = k.run(until=k.process(
            make_store().load_history("run")))
        assert latest["seq"] == 1
        assert [r["step"] for r in records] == [1, 2, 3]

    def test_document_lost_from_the_store_falls_back_to_the_older_one(self):
        """NFMS still lists seq 2 but the store no longer holds it (or
        holds it with no rows): resume degrades to seq 1 through the same
        CheckpointCorrupt path a truncated document takes."""
        k, make_store = repository_store_env()
        sink = k.telemetry.add_sink(InMemorySink())
        writer = make_store()
        fail_manifest_write(writer, 1)
        fail_manifest_write(writer, 2)
        self.save_all(k, writer, make_doc_pair())
        repo_store = writer.facade.repo_store
        repo_store.remove("checkpoints/run/000002.json")

        def latest_seq():
            latest, _ = k.run(until=k.process(
                make_store().load_history("run")))
            return latest["seq"]

        assert latest_seq() == 1
        repo_store.deposit("checkpoints/run/000002.json", [], created=0.0)
        assert latest_seq() == 1
        corrupt = [r for r in sink.records if r.kind == "checkpoint.corrupt"]
        assert [r.detail["seq"] for r in corrupt] == [2, 2]

    def test_empty_run_short_circuits(self):
        k, make_store = repository_store_env()
        store = make_store()
        fetched = fetch_log(store)
        assert tuple(k.run(until=k.process(store.load_history("ghost")))) \
            == (None, [])
        assert fetched == []

    def test_the_client_keeps_no_staged_copy(self):
        """The repository is the archive: a document leaves the client's
        staging area once registered, a fetched copy once read (at
        4e99902 two saves and a load left six files behind)."""
        k, make_store = repository_store_env()
        doc1, doc2 = make_doc_pair()
        writer = make_store()
        fail_manifest_write(writer, 2)  # so the load walks a document too
        self.save_all(k, writer, [doc1, doc2])
        writer.facade.staging.remove("checkpoints/run/manifest/000002.json")
        assert len(writer.facade.staging) == 0
        reader = make_store()
        latest, _ = k.run(until=k.process(reader.load_history("run")))
        assert latest["seq"] == 2
        assert len(reader.facade.staging) == 0

    def test_a_fresh_incarnation_writes_a_contiguous_manifest(self):
        """Manifests after the first could not be written; a new store
        incarnation then saves the next checkpoint.  Seeded by the one
        merge (not by the stale manifest alone), the manifest it writes
        holds every step — at 4e99902 it held 1..3 and 7..8."""
        k, make_store = repository_store_env()
        doc1, doc2 = make_doc_pair()
        writer = make_store()
        fail_manifest_write(writer, 2)
        self.save_all(k, writer, [doc1, doc2])

        fresh = make_store()
        self.save_all(k, fresh, [make_tail_doc(3, steps=(7, 8))])
        manifest = json.loads(k.run(until=k.process(fresh.facade.fetch_text(
            "checkpoints/run/manifest/000003.json"))))
        assert [r["step"] for r in manifest["records"]] == list(range(1, 9))
        assert manifest["seqs"] == [1, 2, 3]
        # ... and what it superseded is retired, as after any manifest
        assert k.run(until=k.process(fresh.list_seqs("run"))) == [3]


def make_tail_doc(seq, *, steps, resume_step=None, displacement=0.001):
    """A checkpoint as the coordinator writes them: the record tail
    ``steps`` since the previous one, resuming at the step after it
    (``resume_step`` says where when the tail is empty)."""
    state = make_state(step=resume_step or steps[-1] + 1, checkpoint_seq=seq)
    return build_checkpoint_doc(
        run_id="run", seq=seq, wall_time=float(seq), reason="policy",
        state_payload=state.to_payload(),
        record_payloads=[make_record_payload(s, displacement)
                         for s in steps])


class TestCheckpointCompaction:
    def save_all(self, k, store, docs):
        for doc in docs:
            k.run(until=k.process(store.save(doc)))

    def test_superseded_documents_are_dropped(self):
        k, make_store = repository_store_env()
        sink = k.telemetry.add_sink(InMemorySink())
        writer = make_store()
        self.save_all(k, writer, make_doc_pair())
        # manifest 2 covers seq 1: its document and manifest are retired
        [compacted] = [r for r in sink.records if r.kind == "compacted"]
        assert compacted.detail == {"run_id": "run", "upto_seq": 2,
                                    "removed": 2}
        assert not writer.facade.repo_store.exists("checkpoints/run/000001.json")
        assert not writer.facade.repo_store.exists(
            "checkpoints/run/manifest/000001.json")
        assert writer.facade.repo_store.exists("checkpoints/run/000002.json")
        assert writer.facade.repo_store.exists(
            "checkpoints/run/manifest/000002.json")
        assert k.run(until=k.process(writer.list_seqs("run"))) == [2]

    def test_history_loads_on_partially_compacted_run(self):
        k, make_store = repository_store_env()
        doc1, doc2 = make_doc_pair()
        state3 = make_state(step=8, checkpoint_seq=3)
        doc3 = build_checkpoint_doc(
            run_id="run", seq=3, wall_time=3.0, reason="policy",
            state_payload=state3.to_payload(),
            record_payloads=[make_record_payload(s) for s in (7, 8)])
        writer = make_store()
        # the third checkpoint lands without a manifest (write failed)
        fail_manifest_write(writer, 3)
        self.save_all(k, writer, [doc1, doc2, doc3])  # 2 retires seq 1

        reader = make_store()
        fetched = fetch_log(reader)
        latest, records = k.run(until=k.process(reader.load_history("run")))
        assert latest["seq"] == 3
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5, 6, 7]
        # manifest 2 seeded steps 1-6; only document 3 had to be fetched —
        # the compacted seq-1 document is gone and never requested
        assert fetched == ["checkpoints/run/manifest/000002.json",
                           "checkpoints/run/000003.json"]


def build_three_site_rig(*, n_steps=60, dt=0.02, compute_time=0.05,
                         latency=0.01, seed=0):
    """Coordinator + three simulation sites restraining one shared DOF.

    Mirrors the rig in ``test_coordinator.py`` (tests are not a package,
    so the helper is replicated here).
    """
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("coord")
    stiffs = {"uiuc": 30.0, "ncsa": 40.0, "cu": 30.0}
    handles = {}
    servers = {}
    for name, kk in stiffs.items():
        net.add_host(name)
        net.connect("coord", name, latency=latency)
        container = ServiceContainer(net, name)
        plugin = SimulationPlugin(LinearSubstructure(name, [[kk]], [0]),
                                  compute_time=compute_time)
        server = NTCPServer(f"ntcp-{name}", plugin)
        handles[name] = container.deploy(server)
        servers[name] = server
    model = make_model()
    motion = el_centro_like(duration=n_steps * dt, dt=dt).scaled_to_pga(1.0)
    rpc = RpcClient(net, "coord", default_timeout=10.0, default_retries=3)
    client = NTCPClient(rpc, timeout=10.0, retries=3)
    sites = [SiteBinding(name, handles[name], [0]) for name in stiffs]
    return k, net, model, motion, client, sites, servers


def clean_history(n_steps=60):
    """Displacement history of the same rig run without faults."""
    k, net, model, motion, client, sites, servers = build_three_site_rig(
        n_steps=n_steps)
    coord = SimulationCoordinator(run_id="rig-clean", client=client,
                                  model=model, motion=motion, sites=sites)
    result = k.run(until=k.process(coord.run()))
    assert result.completed
    return result.displacement_history()


def abort_against_outage(run_id, policy):
    """Run the rig into a permanent cu outage until the coordinator dies."""
    k, net, model, motion, client, sites, servers = build_three_site_rig()
    store = InMemoryCheckpointStore()
    FaultInjector(net).schedule_outage("coord", "cu", start=3.0)
    coord = SimulationCoordinator(
        run_id=run_id, client=client, model=model, motion=motion,
        sites=sites, fault_policy=NaiveFaultPolicy(),
        checkpoint_store=store, checkpoint_policy=policy)
    aborted = k.run(until=k.process(coord.run()))
    assert not aborted.completed
    assert 0 < aborted.steps_completed < 59
    return k, net, model, motion, client, sites, servers, store, aborted


def arm_fatal_drop_at_step(net, step, site="cu"):
    """Swallow ``site``'s proposal for ``step`` and down its link.

    Watching the traffic (the MOST scenario's idiom) lands the failure in
    the PROPOSE phase deterministically: the target site never hears the
    proposal while its siblings have already accepted theirs.  Returns
    the installed filter so the test can remove it before resuming.
    """
    marker = step_marker(step, site)

    def trip(msg) -> bool:
        if msg.dst != site:
            return False
        if marker in str(getattr(msg.payload, "params", "")):
            net.set_link_state("coord", site, up=False)
            return True
        return False

    net.add_drop_filter(trip)
    return trip


class TestRigResume:
    def test_reconcile_resume_matches_clean_run(self):
        """Abort-time checkpoint path: the in-flight step died in PROPOSE,
        so the resume cancels the accepted siblings (burned names get the
        ``-r1`` suffix), re-proposes at the site that never heard the
        proposal, and lands bit-exact on the unfaulted trajectory."""
        fail_step = 30
        policy = CheckpointPolicy(every_n_steps=10)
        k, net, model, motion, client, sites, servers = build_three_site_rig()
        store = InMemoryCheckpointStore()
        trip = arm_fatal_drop_at_step(net, fail_step, site="cu")
        coord = SimulationCoordinator(
            run_id="rig-resume", client=client, model=model, motion=motion,
            sites=sites, fault_policy=NaiveFaultPolicy(),
            checkpoint_store=store, checkpoint_policy=policy)
        aborted = k.run(until=k.process(coord.run()))
        assert not aborted.completed
        assert aborted.aborted_at_step == fail_step
        assert aborted.steps_completed == fail_step - 1

        latest, _ = run_store(store.load_history("rig-resume"))
        assert latest["reason"] == "abort"
        assert latest["state"]["step"] == fail_step
        assert latest["state"]["phase"] == "propose"
        assert set(latest["state"]["pending"]) == {"uiuc", "ncsa", "cu"}

        net.remove_drop_filter(trip)
        net.set_link_state("coord", "cu", up=True)
        state, prior = run_store(load_resume(store, "rig-resume"))
        assert state.generation == 1
        assert [r.step for r in prior] == list(range(1, fail_step))
        second = SimulationCoordinator(
            run_id="rig-resume", client=client, model=model, motion=motion,
            sites=sites, fault_policy=NaiveFaultPolicy(),
            checkpoint_store=store, checkpoint_policy=policy,
            state=state, prior_records=prior)
        merged = k.run(until=k.process(second.run()))

        assert merged.completed and merged.steps_completed == 59
        report = second.last_reconciliation
        assert report is not None and len(report.actions) == 3
        by_site = {a.site: a for a in report.actions}
        # uiuc/ncsa accepted the in-flight step before the abort: their
        # names are burned by the cancel and replaced with -r1 names.
        for name in ("uiuc", "ncsa"):
            assert by_site[name].action == ACTION_CANCEL
            assert by_site[name].observed == "accepted"
            assert by_site[name].transaction.endswith("-r1")
        # cu never heard the proposal: same name, proposed afresh.
        assert by_site["cu"].action == ACTION_REPROPOSE
        assert not by_site["cu"].transaction.endswith("-r1")

        assert k.telemetry.counter("coordinator.resume.replayed",
                                   run_id="rig-resume").value == 0
        for name, server in servers.items():
            m = server.metrics()
            assert m["executed"] == 60
            assert m["duplicate_executes"] == 0
            assert m["cancelled"] == (1 if name in ("uiuc", "ncsa") else 0)
            assert server.plugin.steps_executed == 60

        assert merged.displacement_history().tobytes() == \
            clean_history().tobytes()

    def test_replay_resume_without_abort_checkpoint(self):
        """Replay path: with no abort-time checkpoint, the resumed
        coordinator replays committed-but-unpersisted steps through the
        idempotent NTCP verbs — specimens never move twice."""
        policy = CheckpointPolicy(every_n_steps=10, on_abort=False)
        (k, net, model, motion, client, sites, servers, store,
         aborted) = abort_against_outage("rig-replay", policy)

        latest, _ = run_store(store.load_history("rig-replay"))
        assert latest["reason"] == "policy"
        resume_step = latest["state"]["step"]
        assert resume_step <= aborted.aborted_at_step
        assert latest["state"]["pending"] == {}

        net.set_link_state("coord", "cu", up=True)
        state, prior = run_store(load_resume(store, "rig-replay"))
        second = SimulationCoordinator(
            run_id="rig-replay", client=client, model=model, motion=motion,
            sites=sites, fault_policy=NaiveFaultPolicy(),
            checkpoint_store=store, checkpoint_policy=policy,
            state=state, prior_records=prior)
        merged = k.run(until=k.process(second.run()))

        assert merged.completed and merged.steps_completed == 59
        # A periodic checkpoint has no in-flight names, so the reconciler
        # probes the default transaction names of the resume step — which
        # every site had already executed (the outage ate replies, not
        # requests): harvest everywhere, original names kept.
        report = second.last_reconciliation
        assert len(report.actions) == 3
        assert all(a.action == "harvest" and a.observed == "executed"
                   for a in report.actions)

        # Replay covers every committed-but-unpersisted step; when the
        # in-flight step itself had fully executed, it replays too.
        in_flight_executed = all(a.observed == "executed"
                                 for a in report.actions)
        expected_replays = (aborted.aborted_at_step - resume_step
                            + (1 if in_flight_executed else 0))
        replayed = k.telemetry.counter("coordinator.resume.replayed",
                                       run_id="rig-replay").value
        assert replayed == expected_replays >= 1
        for server in servers.values():
            m = server.metrics()
            # each replayed step returned the stored outcome...
            assert m["duplicate_executes"] == expected_replays
            assert m["executed"] == 60
            # ...and the specimen saw every step exactly once.
            assert server.plugin.steps_executed == 60

        assert merged.displacement_history().tobytes() == \
            clean_history().tobytes()


# ---------------------------------------------------------------------------
# the one merge cannot return a hole


def lose_from_memory(store, seq):
    store._runs["rig-hole"][seq] = "{truncated"


def lose_from_repository(store, seq):
    """NFMS still lists the document; the repository store lost it."""
    store.facade.repo_store.remove(f"checkpoints/rig-hole/{seq:06d}.json")


def memory_stores(k, net):
    store = InMemoryCheckpointStore()
    return store, (lambda: store), lose_from_memory


def repository_stores(k, net):
    """A repository no manifest after the first reaches, so the per-
    sequence documents are never compacted and the merge has to walk."""
    _, make_store = repository_store_env(k, net)
    writer = make_store()
    for seq in range(2, 8):
        fail_manifest_write(writer, seq, run_id="rig-hole")
    return writer, make_store, lose_from_repository


def resume_past_a_hole(stores):
    """Checkpoints every 10 steps, the third document (steps 11..20) lost
    after the run, then a second incarnation resumed from what is left.

    Returns the rig's kernel, a record sink attached before the first
    incarnation ran, the servers and reader factory, the resume point
    ``load_resume`` gave (``(step, checkpoint_seq, prior steps)``, read
    before the resumed coordinator advances the state), the resumed
    coordinator and its result.
    """
    policy = CheckpointPolicy(every_n_steps=10)
    k, net, model, motion, client, sites, servers = build_three_site_rig()
    sink = k.telemetry.add_sink(InMemorySink())
    writer, make_reader, lose = stores(k, net)
    first = SimulationCoordinator(
        run_id="rig-hole", client=client, model=model, motion=motion,
        sites=sites, checkpoint_store=writer, checkpoint_policy=policy)
    assert k.run(until=k.process(first.run())).completed
    assert first.state.checkpoint_seq == 7  # 0, 10, .., 50 and final

    lose(writer, 3)
    reader = make_reader()
    state, prior = k.run(until=k.process(load_resume(reader, "rig-hole")))
    resumed = (state.step, state.checkpoint_seq, [r.step for r in prior])
    second = SimulationCoordinator(
        run_id="rig-hole", client=client, model=model, motion=motion,
        sites=sites, checkpoint_store=reader, checkpoint_policy=policy,
        state=state, prior_records=prior)
    merged = k.run(until=k.process(second.run()))
    return k, sink, servers, make_reader, resumed, second, merged


class TestAHistoryNeverHasAHole:
    @pytest.mark.parametrize("stores", [memory_stores, repository_stores])
    def test_a_lost_middle_document_ends_the_history_there(self, stores):
        """Checkpoints every 10 steps, the third document (steps 11..20)
        is lost.  At 4e99902 the merge went around it and ``load_resume``
        answered "resume at step 60" with records 1..10, 21..59; now the
        resume point is the document before the hole, and the resumed
        coordinator replays the lost tail through the idempotent verbs."""
        _, _, servers, _, resumed, _, merged = resume_past_a_hole(stores)
        # the next checkpoint is numbered above every listed sequence
        assert resumed == (11, 7, list(range(1, 11)))

        assert merged.completed and merged.steps_completed == 59
        assert np.array_equal(merged.displacement_history(), clean_history())
        for server in servers.values():  # replayed, never re-actuated
            assert server.plugin.steps_executed == 60

    @pytest.mark.parametrize("stores", [memory_stores, repository_stores])
    def test_a_run_resumed_below_its_newest_document_checkpoints_again(
            self, stores):
        """Sequences 3..7 stay taken — by the lost document and by the
        stale tail above it — so the resumed run saves 8..12, and once 8
        closes the gap the one merge resumes from its last checkpoint.  At
        baee666 all five of its saves were ``checkpoint.failed``, its
        ``checkpoint_seq`` stayed 2 and, on the in-memory store, a second
        crash resumed at step 11 again."""
        k, sink, _, make_reader, _, second, merged = resume_past_a_hole(
            stores)
        assert merged.completed
        assert "checkpoint.failed" not in [r.kind for r in sink.records]
        assert second.state.checkpoint_seq == 12

        state, prior = k.run(until=k.process(
            load_resume(make_reader(), "rig-hole")))
        assert (state.step, state.checkpoint_seq) == (60, 12)
        assert [r.step for r in prior] == list(range(1, 60))


@st.composite
def damaged_runs(draw):
    """Tail lengths per checkpoint (empty tails happen: an abort-time
    checkpoint right after a periodic one), how many of the leading
    manifests could be written (0: an in-memory store), and what became
    of each document afterwards."""
    tails = draw(st.lists(st.integers(0, 3), min_size=1, max_size=7))
    manifests = draw(st.integers(0, len(tails)))
    fates = draw(st.lists(st.sampled_from(["kept", "kept", "corrupt", "lost"]),
                          min_size=len(tails), max_size=len(tails)))
    manifest_fate = draw(st.sampled_from(["kept", "kept", "corrupt"]))
    return tails, manifests, fates, manifest_fate


class TestTheOneMergeProperty:
    @settings(max_examples=120, deadline=None)
    @given(damaged_runs())
    def test_the_answer_is_a_whole_prefix_or_nothing(self, run):
        """Whatever is corrupted or lost, ``load_history`` answers
        ``(None, [])`` or steps ``1 .. k`` exactly as written, with
        ``latest`` the newest surviving document whose history below its
        resume step is whole — never anything else."""
        tails, manifests, fates, manifest_fate = run
        docs, committed = [], 0
        for seq, tail in enumerate(tails, start=1):
            steps = range(committed + 1, committed + tail + 1)
            committed += tail
            docs.append(make_tail_doc(seq, steps=steps, displacement=seq,
                                      resume_step=committed + 1))

        if manifests == 0:
            store = InMemoryCheckpointStore()
            for doc in docs:
                run_store(store.save(doc))
            files = store._runs["run"]
            for seq, fate in enumerate(fates, start=1):
                if fate == "corrupt":
                    files[seq] = "{truncated"
                elif fate == "lost":
                    del files[seq]
            survivors = {doc["seq"]: doc for doc, fate in zip(docs, fates)
                         if fate == "kept"}
            covered = set()
            latest, records = run_store(store.load_history("run"))
        else:
            k, make_store = repository_store_env()
            writer = make_store()
            for seq in range(manifests + 1, len(docs) + 1):
                fail_manifest_write(writer, seq)
            for doc in docs:
                k.run(until=k.process(writer.save(doc)))
            repo_store = writer.facade.repo_store
            # manifest ``manifests`` superseded every document below it
            survivors = {}
            for doc, fate in zip(docs[manifests - 1:], fates[manifests - 1:]):
                name = f"checkpoints/run/{doc['seq']:06d}.json"
                if fate == "kept":
                    survivors[doc["seq"]] = doc
                    continue
                repo_store.remove(name)
                if fate == "corrupt":
                    repo_store.deposit(name, [(0.0, "{truncated")],
                                       created=0.0)
            covered = set()
            if manifest_fate == "kept":
                survivors[manifests] = docs[manifests - 1]
                covered = set(range(1, docs[manifests - 1]["state"]["step"]))
            else:
                name = f"checkpoints/run/manifest/{manifests:06d}.json"
                repo_store.remove(name)
                repo_store.deposit(name, [(0.0, "{truncated")], created=0.0)
            latest, records = k.run(until=k.process(
                make_store().load_history("run")))

        # the oracle, as sets: walk the survivors in order; the answer is
        # the newest one below whose resume step every step is covered
        expected = None
        for seq in sorted(survivors):
            doc = survivors[seq]
            covered |= {r["step"] for r in doc["records"]}
            if covered >= set(range(1, doc["state"]["step"])):
                expected = doc
        if expected is None:
            assert (latest, records) == (None, [])
            return
        assert latest == expected
        written = {r["step"]: r for doc in docs for r in doc["records"]}
        assert records == [written[step]
                           for step in range(1, expected["state"]["step"])]
