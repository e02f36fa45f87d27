"""Invariance properties tying the whole stack together.

The deepest correctness claim of the architecture: *the physics of a
coordinated experiment is independent of the network* (latency, jitter,
transient faults) — the grid layer affects only when things happen, never
what is measured.  These tests pin that down, plus full-scale determinism.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from conftest import walk
from repro.control import SimulationPlugin
from repro.coordinator import (
    FaultTolerantFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import NTCPClient, NTCPServer
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel
from test_work_budget import SPAN_TREE_SHA


def run_with_network(latency, jitter, *, seed=0, n_steps=40):
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("coord")
    handles = {}
    for name, kk in (("a", 60.0), ("b", 40.0)):
        net.add_host(name)
        net.connect("coord", name, latency=latency, jitter=jitter)
        c = ServiceContainer(net, name)
        handles[name] = c.deploy(NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]), compute_time=0.05)))
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(n_steps) * 0.1))
    client = NTCPClient(RpcClient(net, "coord", default_timeout=60.0,
                                  default_retries=3), timeout=60.0,
                        retries=3)
    coord = SimulationCoordinator(
        run_id="inv", client=client, model=model, motion=motion,
        sites=[SiteBinding(n, handles[n], [0]) for n in handles],
        fault_policy=FaultTolerantFaultPolicy())
    result = k.run(until=k.process(coord.run()))
    assert result.completed
    return result


class TestNetworkInvariance:
    @given(latency=st.floats(min_value=0.001, max_value=0.5),
           jitter=st.floats(min_value=0.0, max_value=0.1),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_physics_independent_of_network(self, latency, jitter, seed):
        """Any latency/jitter/seed: identical displacement history."""
        baseline = run_with_network(0.001, 0.0)
        varied = run_with_network(latency, jitter, seed=seed)
        assert np.allclose(baseline.displacement_history(),
                           varied.displacement_history())

    def test_wall_time_does_depend_on_network(self):
        fast = run_with_network(0.001, 0.0)
        slow = run_with_network(0.3, 0.0)
        assert slow.wall_duration > 2 * fast.wall_duration


class TestFullScaleDeterminism:
    def test_public_run_fails_at_1493_reproducibly(self):
        """The headline number, at full scale, twice."""
        from repro.most import ExperimentSession, MOSTConfig

        def run_public():
            return (ExperimentSession(MOSTConfig(), run_id="most-public")
                    .with_observers()
                    .with_faults()
                    .run())

        first = run_public()
        second = run_public()
        assert first.result.aborted_at_step == 1493
        assert second.result.aborted_at_step == 1493
        assert first.result.steps_completed == second.result.steps_completed
        assert np.array_equal(first.result.displacement_history(),
                              second.result.displacement_history())

    def test_a_run_does_not_depend_on_the_hash_seed(self):
        """A 40-step simulation-only session and a 40-step session with
        the public day's observers, each in a fresh interpreter under
        ``PYTHONHASHSEED`` 0 and 1: the same history, span tree (the
        ``SPAN_TREE_SHA`` recipe), kernel events and messages.  Set and
        dict order over strings is the one thing that differs between
        the two processes."""
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", _DIGESTS], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout) for seed in ("0", "1")]
        assert runs[0] == runs[1]
        assert runs[0]["simulation-only"]["spans"] == SPAN_TREE_SHA
        assert {run["steps"] for run in runs[0].values()} == {39}

    def test_nothing_derives_a_value_from_the_builtin_hash(self):
        """``hash()`` of a string changes with ``PYTHONHASHSEED``, so a
        seed or an order taken from it differs between two runs of the
        same program: nothing in the library, the examples, the
        benchmarks or the scripts calls it."""
        calls = [f"{path}:{node.lineno}"
                 for _, path, tree in walk("src", "examples", "benchmarks",
                                           "scripts")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "hash"]
        assert calls == []


#: what one fresh interpreter prints: per session, its committed steps
#: and the digests the hash-seed test compares
_DIGESTS = """
import hashlib, json
import numpy as np
from repro.most import ExperimentSession, MOSTConfig

def digests(session):
    outcome = session.run()
    hub = outcome.deployment.kernel.telemetry
    def total(name):
        return sum(record["value"] for record in hub.metrics_snapshot()
                   if record["name"] == name)
    history = np.ascontiguousarray(outcome.result.displacement_history())
    return {"steps": outcome.steps_completed,
            "history": hashlib.sha256(history.tobytes()).hexdigest(),
            "spans": hashlib.sha256(json.dumps(
                [span.to_dict() for span in hub.spans()]).encode()
            ).hexdigest(),
            "events": total("sim.kernel.events"),
            "messages": total("net.network.sent")}

print(json.dumps({
    "simulation-only": digests(ExperimentSession(
        MOSTConfig().scaled(40), simulation_only=True)),
    "observers": digests(ExperimentSession(
        MOSTConfig().scaled(40)).with_observers())}))
"""
