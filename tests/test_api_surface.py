"""The curated top-level API: everything in ``repro.__all__`` must resolve.

Guards the public front door against drift: a rename deep in a subpackage
that breaks a top-level re-export fails here, not in a user's script.
"""

import inspect

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_all_is_sorted_within_sections():
    # no duplicates, and every entry is a public name
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert all(not n.startswith("_") for n in repro.__all__)


def test_key_types_identity():
    """Top-level names are the same objects as their subpackage homes."""
    from repro.coordinator import SimulationCoordinator
    from repro.core import NTCPClient, NTCPServer
    from repro.core.messages import ExecutionOutcome, ProposalVerdict
    from repro.sim import Kernel
    from repro.telemetry import TelemetryHub

    assert repro.Kernel is Kernel
    assert repro.NTCPServer is NTCPServer
    assert repro.NTCPClient is NTCPClient
    assert repro.ProposalVerdict is ProposalVerdict
    assert repro.ExecutionOutcome is ExecutionOutcome
    assert repro.SimulationCoordinator is SimulationCoordinator
    assert repro.TelemetryHub is TelemetryHub


def test_typed_results_exported_from_core():
    from repro.core import __all__ as core_all

    assert "ProposalVerdict" in core_all
    assert "ExecutionOutcome" in core_all


def test_runners_are_callables():
    assert inspect.isfunction(repro.run_dry_run)
    assert inspect.isfunction(repro.run_simulation_only)
    assert inspect.isfunction(repro.build_most)


def test_repository_and_envelope_are_each_spelt_once():
    """One repository client, one OGSI envelope.

    The NFMS/NMDS client operations appear as string literals only in the
    façade (the services register their own ``_op_*`` handlers), and the
    ``{"service_id", "operation", "params"}`` envelope only under
    ``repro/ogsi/``.
    """
    import ast
    import pathlib

    src = pathlib.Path(repro.__file__).parent
    client_ops = {"registerFile", "negotiateTransfer", "listFiles",
                  "unregisterFile", "createObject"}
    service_side = {src / "repository" / "nfms.py",
                    src / "repository" / "nmds.py"}
    op_homes, envelope_homes = set(), set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and node.value in client_ops
                    and path not in service_side):
                op_homes.add(path.relative_to(src).as_posix())
            if isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys
                        if isinstance(k, ast.Constant)}
                if {"service_id", "operation"} <= keys:
                    envelope_homes.add(path.relative_to(src).parts[0])
    assert op_homes == {"repository/facade.py"}
    assert envelope_homes == {"ogsi"}


def test_coordinator_decisions_are_each_spelt_once():
    """One transaction-name format, one override-table writer, one resume
    point, one fire-and-forget cancel (PROTOCOL.md §§7–9 rest on these)."""
    import ast
    import pathlib
    import re

    src = pathlib.Path(repro.__file__).parent
    name_format = re.compile(r"step\{[^}]*:05d\}")
    homes = {"format": set(), "override": set(), "resume": set(),
             "cancel": set()}
    for path in src.rglob("*.py"):
        where = path.relative_to(src).as_posix()
        text = path.read_text()
        if name_format.search(text):
            homes["format"].add(where)
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    if any(isinstance(t, ast.Subscript)
                           and getattr(t.value, "attr", "") == "_txn_overrides"
                           for t in targets):
                        homes["override"].add((where, func.name))
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "attr",
                                 getattr(node.func, "id", ""))
                if called == "resume_state_from_checkpoint":
                    homes["resume"].add((where, func.name))
                if called == "process" and any(
                        isinstance(arg, ast.Call)
                        and getattr(arg.func, "attr", "") == "cancel"
                        for arg in node.args):
                    homes["cancel"].add((where, func.name))
    assert homes == {
        "format": {"coordinator/state.py"},
        "override": {("coordinator/mspsds.py", "_rename")},
        "resume": {("coordinator/state.py", "load_resume")},
        "cancel": {("coordinator/mspsds.py", "cancel_and_forget")},
    }


def test_deployment_construction_is_spelt_once():
    """One star, one client pairing, one kit recipe: outside ``tests/`` and
    the T-WALL probes only :mod:`repro.grid` builds an NTCP server (plus
    the failover manager activating a surrogate), an NTCP client, a
    surrogate spec, a predictor or a circuit breaker."""
    import ast
    import pathlib

    src = pathlib.Path(repro.__file__).parent
    repo = src.parent.parent
    kit = {"NTCPServer", "NTCPClient", "SurrogateSpec",
           "SubstructurePredictor", "CircuitBreaker"}
    homes = {name: set() for name in kit}
    roots = [src, repo / "scripts", repo / "examples", repo / "benchmarks"]
    for path in (p for root in roots for p in root.rglob("*.py")):
        if "twall" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr",
                                 getattr(node.func, "id", ""))
                if called in kit:
                    homes[called].add(path.relative_to(repo).as_posix())
    grid = "src/repro/grid.py"
    assert homes == {
        "NTCPServer": {grid, "src/repro/coordinator/failover.py"},
        "NTCPClient": {grid},
        "SurrogateSpec": {grid},
        "SubstructurePredictor": {grid},
        "CircuitBreaker": {grid},
    }
