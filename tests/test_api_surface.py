"""The curated top-level API: everything in ``repro.__all__`` must resolve.

Guards the public front door against drift: a rename deep in a subpackage
that breaks a top-level re-export fails here, not in a user's script.
"""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import repro
from conftest import ROOT, walk

SRC = ROOT / "src" / "repro"


def tree_at(path: str) -> ast.Module:
    """The walker's parse of one repository file."""
    [tree] = [tree for _, where, tree in walk() if where == path]
    return tree


def spelt(names: set[str], *tops: str) -> set[tuple[str, str]]:
    """``(path, name)`` for each of ``names`` that a walked file binds,
    reads, defines, imports or takes as a parameter."""
    return {(path, name) for _, path, tree in walk(*tops)
            for node in ast.walk(tree)
            for name in names & {getattr(node, field, None)
                                 for field in ("id", "attr", "arg", "name")}}


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
    assert inspect.isclass(repro.ExperimentSession)
    assert inspect.isfunction(repro.ExperimentSession.run)
    assert inspect.isfunction(repro.build_most)


def test_importing_repro_loads_no_signal_processing_or_statistics():
    """``import repro`` pays for what a run executes: the ground-motion
    filter, the integrator solves and the modal frequencies are numpy, so
    no ``scipy`` module loads — not ``scipy.signal``, ``scipy.stats`` or
    ``scipy.linalg``.  A fresh interpreter, since this one has imported
    every test module's dependencies."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    probe = ("import sys, repro; print(sorted(m for m in sys.modules if "
             "m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_importing_chaos_loads_no_verifier():
    """The chaos and fleet sweeps share the verifier's invariants, not
    the verifier: ``import repro.chaos`` (T-WALL's ``campaign_durable``
    does) loads ``repro.invariants`` but neither ``repro.verify`` nor the
    ``unittest.mock`` its mutants are applied with."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    probe = ("import sys, repro.chaos; print(sorted(m for m in sys.modules "
             "if m in ('repro.invariants', 'unittest.mock') "
             "or m.startswith('repro.verify')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "['repro.invariants']"


def test_no_library_module_imports_scipy():
    """scipy is a test oracle only: no ``import scipy`` or ``from scipy``
    anywhere under ``src/repro``, a function-local one included."""
    importers = set()
    for _, path, tree in walk("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path)
    assert importers == set()


def test_the_package_depends_on_numpy_only():
    """``pyproject.toml``'s runtime ``dependencies`` name numpy alone.
    Read with a regex, not ``tomllib``, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                       re.MULTILINE | re.DOTALL)
    assert listed is not None
    names = [re.match(r"[A-Za-z0-9_.-]+", item.strip().strip("\"'")).group()
             for item in listed.group(1).split(",") if item.strip()]
    assert names == ["numpy"]


def test_repository_and_envelope_are_each_spelt_once():
    """One repository client, one OGSI envelope.

    The NFMS/NMDS client operations appear as string literals only in the
    façade (the services register their own ``_op_*`` handlers), and the
    ``{"service_id", "operation", "params"}`` envelope only under
    ``repro/ogsi/``.
    """
    client_ops = {"registerFile", "negotiateTransfer", "listFiles",
                  "unregisterFile", "createObject"}
    service_side = {"repro.repository.nfms", "repro.repository.nmds"}
    op_homes, envelope_homes = set(), set()
    for module, _, tree in walk("src"):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and node.value in client_ops
                    and module not in service_side):
                op_homes.add(module)
            if isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys
                        if isinstance(k, ast.Constant)}
                if {"service_id", "operation"} <= keys:
                    envelope_homes.add(module.split(".")[1])
    assert op_homes == {"repro.repository.facade"}
    assert envelope_homes == {"ogsi"}


def test_coordinator_decisions_are_each_spelt_once():
    """One transaction-name format, one override-table writer, one resume
    point, one fire-and-forget cancel (PROTOCOL.md §§7–9 rest on these)."""
    name_format = re.compile(r"step\{[^}]*:05d\}")
    homes = {"format": set(), "override": set(), "resume": set(),
             "cancel": set()}
    for _, path, tree in walk("src"):
        where = path.removeprefix("src/repro/")
        if name_format.search((ROOT / path).read_text()):
            homes["format"].add(where)
        for func in ast.walk(tree):
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
    kit = {"NTCPServer", "NTCPClient", "SurrogateSpec",
           "SubstructurePredictor", "CircuitBreaker"}
    homes = {name: set() for name in kit}
    for _, path, tree in walk("src", "scripts", "examples", "benchmarks"):
        if "/twall/" in path:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr",
                                 getattr(node.func, "id", ""))
                if called in kit:
                    homes[called].add(path)
    grid = "src/repro/grid.py"
    assert homes == {
        "NTCPServer": {grid, "src/repro/coordinator/failover.py"},
        "NTCPClient": {grid},
        "SurrogateSpec": {grid},
        "SubstructurePredictor": {grid},
        "CircuitBreaker": {grid},
    }


def test_a_scripted_fault_is_armed_in_one_place():
    """One watcher, one kind dispatch: in ``src/`` only :mod:`repro.grid`
    (``Grid.arm``) installs a fault primitive; the network's filter hook
    is otherwise called by the primitives themselves, and a timed outage
    is scheduled outside it only by the fleet's time-triggered plans."""
    primitives = {"add_drop_filter", "drop_matching", "duplicate_matching",
                  "reorder_matching", "corrupt_matching", "jitter_burst",
                  "crash_host", "schedule_outage"}
    homes = {name: set() for name in primitives}
    for _, path, tree in walk("src"):
        where = path.removeprefix("src/repro/")
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", "") in primitives):
                    homes[node.func.attr].add(
                        where if where != "chaos/campaign.py"
                        else f"{where}:{func.name}")
    grid = {"grid.py"}
    assert homes == {
        "add_drop_filter": {"net/faults.py", "grid.py"},
        **dict.fromkeys(["drop_matching", "duplicate_matching",
                         "reorder_matching", "corrupt_matching",
                         "jitter_burst", "crash_host"], grid),
        "schedule_outage": {"grid.py",
                            "chaos/campaign.py:arm_fleet_outages"},
    }


def test_a_run_is_handed_only_what_some_deployment_sets():
    """The option lists a run is built from, pinned: pipelining is "a
    predictor was given", surrogate failover owns the circuit breakers
    (failover without breakers, or breakers without failover, is not a
    configuration), and no option that no deployment sets comes back."""
    from repro.coordinator import (
        FailoverManager,
        RealTimeCoordinator,
        SimulationCoordinator,
    )
    from repro.grid import Grid
    from repro.monitor import ExperimentMonitor, attach_monitoring
    from repro.most import ExperimentSession
    from repro.most.assembly import MOSTDeployment
    from repro.net import RetryPolicy
    from repro.observatory import attach_observatory

    def spelt(fn):
        signature = inspect.signature(fn)
        return str(signature.replace(
            parameters=[p.replace(annotation=p.empty)
                        for p in signature.parameters.values()],
            return_annotation=signature.empty))

    assert spelt(SimulationCoordinator.__init__) == (
        "(self, *, run_id, client, model, motion, sites, fault_policy=None, "
        "execution_timeout=60.0, negotiation_barrier=True, "
        "integrator_factory=None, checkpoint_store=None, "
        "checkpoint_policy=None, state=None, prior_records=(), "
        "failover=None, predictor=None)")
    # real time is that loop under a period: none of the options above
    # passes through
    assert spelt(RealTimeCoordinator.__init__) == (
        "(self, *, run_id, client, model, motion, sites, period, "
        "execution_timeout=None)")
    assert spelt(FailoverManager.__init__) == (
        "(self, *, container, specs, breakers, policy=None)")
    assert spelt(Grid.failover) == (
        "(self, stiffness, *, port, compute_time, surrogate_name, "
        "site_policy, breaker_name=<class 'str'>, breaker_config=None, "
        "policy=None)")
    assert spelt(MOSTDeployment.make_failover) == (
        "(self, *, policy=None, breaker_config=None)")
    assert spelt(ExperimentSession.with_pipeline) == "(self, predictor=None)"
    assert spelt(ExperimentSession.with_resume) == (
        "(self, *, checkpoint_every=25)")
    assert spelt(ExperimentSession.with_monitoring) == "(self, on_alert=None)"
    assert spelt(attach_monitoring) == (
        "(dep, *, on_alert=None, stream_interval=30.0)")
    # the console's detector tuning and sweep period, and the SLO list,
    # are module constants / default_slos(): no deployment set them
    assert spelt(ExperimentMonitor.__init__) == (
        "(self, service_id='monitor-console', *, on_alert=None)")
    assert spelt(ExperimentSession.with_observatory) == (
        "(self, *, slo_interval=60.0)")
    assert spelt(attach_observatory) == (
        "(dep, kit, *, run_id, slo_interval=60.0)")
    assert "AlertThresholds" not in repro.__all__
    assert spelt(RetryPolicy.call) == "(self, kernel, make_attempt, *, key='')"
    assert not hasattr(Grid, "breakers")
    assert not hasattr(MOSTDeployment, "make_breakers")
    # the coordinator's breakers are a read-only view of the manager's
    view = SimulationCoordinator.breakers
    assert isinstance(view, property) and view.fset is None


def test_the_pseudo_dynamic_skeleton_is_written_once():
    """Among the pseudo-dynamic integrators (every class of
    ``structural/integrators.py`` but the reference :class:`NewmarkBeta`),
    the state shape, snapshot/restore, the convenience loop and the
    algebra hooks live on ``_PseudoDynamic``; the only overrides are the
    ensemble's shape, its column-wise algebra and α-OS clearing its
    pending predictor on restore.  Nothing else in ``src/`` — no
    coordinator — decides a state shape."""
    shared = {"snapshot", "restore", "integrate", "_apply", "_solve",
              "state_shape", "_state_shape"}
    homes = {name: set() for name in shared}
    for _, path, tree in walk("src"):
        where = path.removeprefix("src/repro/")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            pseudo_dynamic = (where == "structural/integrators.py"
                              and cls.name != "NewmarkBeta")
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and node.name in shared
                        and (pseudo_dynamic
                             or node.name.endswith("state_shape"))):
                    homes[node.name].add(f"{where}:{cls.name}")
    base = "structural/integrators.py:_PseudoDynamic"
    columnwise = "structural/integrators.py:_ColumnwiseAlgebra"
    assert homes == {
        "snapshot": {base},
        "restore": {base, "structural/integrators.py:AlphaOSPSD"},
        "integrate": {base},
        "_apply": {base, columnwise},
        "_solve": {base, columnwise},
        "state_shape": {
            base, "structural/integrators.py:EnsembleCentralDifferencePSD"},
        "_state_shape": set(),
    }


def test_every_instrument_has_one_owner_and_a_reader():
    """The hub is the only place a count lives, and nothing is written
    that nothing reads.

    *A reader.*  Every instrument created in ``src/`` — a ``.counter(`` /
    ``.gauge(`` / ``.histogram(`` call outside the hub's own package whose
    result is not read on the spot — has a row of the right kind in
    ARCHITECTURE's instrument table, the table has no row without an
    instrument, and the name (for an f-string family: a name under its
    static prefix) is a string in ``tests/``, ``benchmarks/``,
    ``scripts/`` or a ``src/`` module other than the creating one.

    *One owner.*  The seven former shadow copies are properties, no
    ``x.attr += n`` sits next to an instrument update, the network never
    ``repr``-s a payload, and no class owns an ``IdFactory`` (ports
    number per network, not per process).
    """
    kinds = {"counter", "gauge", "histogram"}
    updates = {"inc", "observe", "set", "add"}

    created = {}   # name ("prefix*" for an f-string family) -> (kind, home)
    said = {}      # file -> (string constants, static f-string prefixes)
    shadows, class_factories = [], []

    def listen(where, tree):
        nodes = list(ast.walk(tree))
        said[where] = (
            {n.value for n in nodes
             if isinstance(n, ast.Constant) and isinstance(n.value, str)},
            {n.values[0].value for n in nodes
             if isinstance(n, ast.JoinedStr) and n.values
             and isinstance(n.values[0], ast.Constant)})
        return nodes

    def is_update(stmt):
        return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "attr", "") in updates)

    for _, path, tree in walk("src", "tests", "benchmarks", "scripts"):
        nodes = listen(path, tree)
        if not path.startswith("src/"):
            continue
        where = path.removeprefix("src/repro/")
        read_on_the_spot = {id(n.value) for n in nodes
                            if isinstance(n, ast.Attribute)
                            and n.attr not in updates}
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                class_factories += [
                    (where, node.name) for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and getattr(stmt.value.func, "id", "") == "IdFactory"]
            for _, block in ast.iter_fields(node):   # body, orelse, ...
                if not isinstance(block, list):
                    continue
                for pair in zip(block, block[1:]):
                    for bump, update in (pair, pair[::-1]):
                        if (isinstance(bump, ast.AugAssign)
                                and isinstance(bump.target, ast.Attribute)
                                and is_update(update)):
                            shadows.append((where, bump.target.attr))
            if (isinstance(node, ast.Call) and id(node) not in read_on_the_spot
                    and getattr(node.func, "attr", "") in kinds
                    and not where.startswith("telemetry/")):
                arg = node.args[0]
                name = (arg.values[0].value + "*"
                        if isinstance(arg, ast.JoinedStr) else arg.value)
                assert created.setdefault(name, (node.func.attr, path)) == \
                    (node.func.attr, path), name

    def answers_to(name, names):
        """The members of ``names`` that name this instrument (family)."""
        if not name.endswith("*"):
            return {name} & names
        return {n for n in names
                if n.startswith(name[:-1]) and n != name[:-1]
                and n not in created}

    def read_in(name, consts, prefixes):
        """Named outright, or through an f-string such as
        ``f"coordinator.pipeline.{key}"``."""
        return answers_to(name, consts) or any(
            name.rstrip("*").startswith(prefix) and prefix.count(".") > 1
            for prefix in prefixes)

    # -- a reader -----------------------------------------------------------
    unread = sorted(name for name, (_, home) in created.items()
                    if not any(read_in(name, *heard)
                               for where, heard in said.items()
                               if where != home))
    assert not unread, " ".join(unread)

    # -- a row in ARCHITECTURE's table, and no row without an instrument ----
    doc = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    inventory = doc.split("| instrument | kind |")[1].split("\n\n")[0]
    table = {}
    for cell, kind in re.findall(r"^\| `([^`]+)` \| (\w+) \|", inventory,
                                 re.M):
        stem, leaves = re.fullmatch(r"([^{]*)(?:\{(.*)\})?", cell).groups()
        table.update((stem + leaf, kind)
                     for leaf in (leaves or "").split(","))
    rows = {name: answers_to(name, set(table)) for name in created}
    assert {name: {table[n] for n in rows[name]} for name in created} == \
        {name: {kind} for name, (kind, _) in created.items()}
    assert set(table) == set().union(*rows.values())

    # -- one owner ----------------------------------------------------------
    from repro.monitor import ExperimentMonitor, HealthPublisher
    from repro.net import CircuitBreaker, Network, RpcClient
    from repro.nsds import NSDSService
    from repro.observatory import SLOEvaluator

    assert shadows == []
    for cls, attr in ((Network, "stats"), (RpcClient, "stats"),
                      (NSDSService, "pushed"),
                      (ExperimentMonitor, "samples_seen"),
                      (HealthPublisher, "published"),
                      (SLOEvaluator, "alerts_raised"),
                      (CircuitBreaker, "trips")):
        assert isinstance(getattr(cls, attr), property), (cls, attr)
    assert "repr(" not in (SRC / "net" / "network.py").read_text()
    assert class_factories == []


def test_a_guarantee_has_one_gate():
    """Each protocol / campaign guarantee is stated once in the library and
    gated once in the harness: a tier-1 test or a ``BENCHES`` floor, never a
    smoke script, a bench ``--smoke`` fork or an inline re-assertion beside
    it — and ``make check`` reaches each gate once."""
    def sources(*roots):
        return [path for _, path, _ in walk(*roots) if "/twall/" not in path]

    # -- no hand-rolled runner beside the tests -----------------------------
    assert not list((ROOT / "scripts").glob("*smoke*.py"))
    assert not [path for path in sources("benchmarks")
                if "--smoke" in (ROOT / path).read_text()]

    # -- BENCHES is where a floor is written: the builders judge nothing ----
    builders = {"bench_tfleet.py": "run_fleet_campaign",
                "bench_tqueue.py": "run_queue_campaign",
                "bench_tobs_observatory.py": "run_bench",
                "bench_tperf_ntcp.py": "run_stepping_modes"}
    for filename, builder in builders.items():
        [func] = [node for node in tree_at(f"benchmarks/{filename}").body
                  if isinstance(node, ast.FunctionDef) and node.name == builder]
        assert not [node for node in ast.walk(func)
                    if isinstance(node, ast.Assert)], builder

    # -- the campaign everyone drives is typed once -------------------------
    sweep = re.compile(r"0\.75\s*\+\s*0\.5\s*\*")
    assert {path for path in sources()
            if sweep.search((ROOT / path).read_text())} == \
        {"src/repro/fleet/scheduler.py"}

    # -- both invariant sweeps judge a run by one rule body -----------------
    functions = {node.name: node
                 for node in tree_at("src/repro/chaos/campaign.py").body
                 if isinstance(node, ast.FunctionDef)}

    def calls(name):
        return {node.func.id for node in ast.walk(functions[name])
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)} & set(functions)

    [rule] = calls("check_invariants") & calls("check_fleet_invariants")
    for key in ("completed", "commit_sequence_monotone",
                "no_double_execute"):
        homes = [name for name, func in functions.items()
                 if any(isinstance(node, ast.Constant) and node.value == key
                        for node in ast.walk(func))]
        assert homes == [rule], key

    # -- `make check`: every gate named, none twice, no linter pass ---------
    makefile = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    rules = {target: (prerequisites.split(), recipe)
             for target, prerequisites, recipe in re.findall(
                 r"^([\w-]+):(.*)\n((?:\t.*\n)*)", makefile, re.M)}

    def reached(target):
        prerequisites, recipe = rules[target]
        scripts = "".join((ROOT / script).read_text() for script
                          in re.findall(r"scripts/[\w.]+\.sh", recipe))
        return recipe + scripts + "".join(map(reached, prerequisites))

    gates = rules["check"][0]
    assert len(gates) == len(set(gates)) and set(gates) <= set(rules)
    # the RPR rules are tier-1 pins (test_analysis.py, test_callgraph.py)
    assert "-m repro.analysis" not in reached("check")
    assert "analyze" not in rules
    # the verifier's verdicts are tier-1 tests (test_verify*.py), so the
    # CLI that prints them is for operators, not a second gate
    assert reached("check").count("-m repro.verify") == 0


def test_a_campaign_has_one_loop():
    """A plain fleet campaign is a durable campaign that never crashes:
    ``drive_request`` has one caller under ``src/`` (the durable
    scheduler's per-submission drive), and the second loop's names —
    ``FleetScheduler``, ``FleetResult``, ``ExperimentRequest`` — are gone
    from ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` and
    ``examples/``."""
    gone = {"FleetScheduler", "FleetResult", "ExperimentRequest"}
    callers = [
        (where, func.name) for _, where, tree in walk("src")
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id",
                    getattr(node.func, "attr", "")) == "drive_request"]
    assert callers == [("src/repro/queue/scheduler.py", "_drive")]
    assert spelt(gone) == set()
    assert not gone & set(repro.__all__)


def test_the_kernel_log_is_a_stream():
    """Records go to the telemetry hub's sinks and nowhere else: no
    archive (``EventLog``), no ``<kernel>.log.records(...)`` query, and
    none of the write-only fault records (``OutageRecord``,
    ``ChaosRecord``) under ``src/``, ``tests/``, ``benchmarks/``,
    ``scripts/`` or ``examples/``."""
    gone = {"EventLog", "OutageRecord", "ChaosRecord"}
    assert spelt(gone) == set()
    assert [where for _, where, tree in walk() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "records"
            and getattr(node.func.value, "attr", None) == "log"] == []
    assert not gone & set(repro.__all__)


def test_host_time_has_one_harness():
    """T-WALL (``benchmarks/twall/``) is the only code outside ``src/``
    that times anything: no figure bench takes pytest-benchmark's
    ``benchmark`` fixture or imports a clock, and neither the packaging
    nor the Makefile names the plugin."""
    clocks = {"time", "resource", "pytest_benchmark"}
    timed = []
    for _, path, tree in walk("benchmarks"):
        if "/twall/" in path:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                timed += [(path, node.name) for arg in node.args.args
                          + node.args.kwonlyargs if arg.arg == "benchmark"]
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import)
                       else [node.module or ""]
                       if isinstance(node, ast.ImportFrom) else [])
            timed += [(path, module) for module in modules
                      if module.split(".")[0] in clocks]
    assert timed == []
    for packaging in ("pyproject.toml", "requirements-ci.txt"):
        assert "pytest-benchmark" not in (ROOT / packaging).read_text()
    makefile = (ROOT / "Makefile").read_text()
    assert not re.search(r"^bench:", makefile, re.M)
    assert "--benchmark-" not in makefile


def broad_handlers(node, scope=""):
    """The enclosing (dotted) scope of every ``except Exception`` / ``except
    BaseException`` / bare ``except:`` under an AST ``node``, whatever the
    handler does."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.ExceptHandler) and (
                child.type is None or {"Exception", "BaseException"} & {
                    getattr(t, "id", None)
                    for t in getattr(child.type, "elts", [child.type])}):
            yield scope
        yield from broad_handlers(child, inner)


def test_every_broad_handler_is_pinned():
    """An ``except Exception`` / ``except BaseException`` / bare
    ``except:`` outside ``tests/`` stands only where it is listed here, by
    module and enclosing function, beside the test that fails without it.
    A new one anywhere fails this test until it is listed with its proof
    (this list replaced a per-file heuristic, RPR005)."""
    proofs = {
        ("repro.coordinator.mspsds", "SimulationCoordinator._at_every_site"):
            "test_telemetry.py::TestTracing::"
            "test_a_run_that_dies_mid_step_leaves_no_span_open",
        ("repro.coordinator.mspsds",
         "SimulationCoordinator._issue_step.round_runner"):
            "test_telemetry.py::TestTracing::"
            "test_a_run_that_dies_mid_step_leaves_no_span_open",
        ("repro.core.client", "NTCPClient._invoke"):
            "test_telemetry.py::TestTracing::"
            "test_a_run_that_dies_mid_step_leaves_no_span_open",
        ("repro.core.server", "NTCPServer._run_plugin"):
            "test_ntcp_protocol.py::TestExecutionTimeout::"
            "test_plugin_crash_fails_transaction",
        ("repro.net.rpc", "RpcService._on_message"):
            "test_net_rpc.py::TestOnAGrid::"
            "test_sync_handler_bug_is_a_wire_error_not_a_hang",
        ("repro.ogsi.notification", "NotificationSink._on_message"):
            "test_telepresence_chef.py::TestCamera::"
            "test_a_raising_consumer_loses_only_its_own_frames",
        ("repro.sim.process", "_Driven._step"):
            "test_sim_kernel.py::TestInterrupt::"
            "test_uncaught_interrupt_fails_process",
    }

    found = [(module, scope) for module, _, tree
             in walk("src", "examples", "benchmarks", "scripts")
             for scope in broad_handlers(tree)]
    assert sorted(found) == sorted(proofs)
    for proof in proofs.values():
        filename, cls, test = proof.split("::")
        [owner] = [node for node in tree_at(f"tests/{filename}").body
                   if isinstance(node, ast.ClassDef) and node.name == cls]
        assert test in {node.name for node in owner.body
                        if isinstance(node, ast.FunctionDef)}, proof


def test_there_is_one_way_to_run_something_later():
    """``Kernel.call_later`` is the entry for code nobody waits on: no
    throw-away ``Timeout`` with a callback anywhere in ``src/``, no
    ``AnyOf`` in an RPC attempt's wait, no closure per message."""
    import textwrap

    from repro.net import Network

    def called(node, attr):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == attr)

    assert [path for _, path, tree in walk("src") for node in ast.walk(tree)
            if called(node, "add_callback")
            and called(node.func.value, "timeout")] == []
    assert "any_of" not in (SRC / "net" / "rpc.py").read_text()
    send = ast.parse(textwrap.dedent(inspect.getsource(Network.send)))
    assert not [node for node in ast.walk(send)
                if isinstance(node, ast.Lambda)]


def test_a_flush_sorts_nothing():
    """What a metrics flush costs is per flush, not per record per
    reader: identity is ``Metric.key`` / the store's sorted key list,
    windows are ``Series.window``, the flight recorder renders at the
    incident, and a sample is validated where it lands (by the checker
    of the run's one store, which the console's receiver feeds), not
    where it is built — each replaced in place, so the old spelling is
    gone."""
    import textwrap

    from repro.monitor import ExperimentMonitor, TelemetryStreamer
    from repro.observatory import FlightRecorder, Series, TimeSeriesStore
    from repro.telemetry.metrics import MetricRegistry

    def calls(*where):
        """Names called (``f(...)`` or ``x.f(...)``) in functions/files."""
        trees = [tree_at(w) if isinstance(w, str) else
                 ast.parse(textwrap.dedent(inspect.getsource(w)))
                 for w in where]
        return {getattr(node.func, "attr", getattr(node.func, "id", ""))
                for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Call)}

    assert not {"sorted", "sort"} & calls(
        "src/repro/monitor/streamer.py", TimeSeriesStore.series,
        MetricRegistry.snapshot, MetricRegistry.__iter__)
    assert "points" not in calls("src/repro/observatory/slo.py")
    assert not {"_jsonable", "extract_step"} & calls(
        FlightRecorder.on_record, FlightRecorder.on_span)
    assert {"_jsonable", "extract_step"} <= calls(FlightRecorder._event)
    assert not {"_check_sample", "validate_metrics_sample"} & calls(
        TelemetryStreamer.flush)
    assert "metrics_sample_checker" in calls(TimeSeriesStore.__init__)
    assert "_check_sample" in calls(TimeSeriesStore.ingest_metrics_payload)
    # the console keeps nothing of its own: it lands a sample in the store
    assert not {"metrics_sample_checker", "_check_sample"} & calls(
        "src/repro/monitor/monitor.py")
    assert "ingest_metrics_payload" in calls(
        ExperimentMonitor.on_stream_sample)
    assert "raw" not in Series.__slots__


def test_one_class_binds_subscriber_ports():
    """``NotificationSink`` is the one subscriber side: a fresh port is
    taken only by it and by the RPC client's reply port, the NSDS and
    video sinks add no ``bind`` and no ``try`` of their own, and no sink
    keeps the payloads it hands on."""
    from repro.nsds import NSDSReceiver
    from repro.ogsi import NotificationSink
    from repro.telepresence import VideoViewer

    def called(node, attr):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == attr)

    trees = {path.removeprefix("src/repro/"): tree
             for _, path, tree in walk("src")}
    assert {where for where, tree in trees.items()
            for node in ast.walk(tree) if called(node, "new_port")} == \
        {"net/rpc.py", "ogsi/notification.py"}

    kept, own_delivery = [], []
    for where in ("ogsi/notification.py", "nsds/subscriber.py",
                  "telepresence/camera.py"):
        for node in ast.walk(trees[where]):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                kept += [(where, t.attr) for t in targets
                         if isinstance(t, ast.Attribute)
                         and t.attr in ("samples", "received", "frames")]
            if (isinstance(node, ast.ClassDef)
                    and node.name in ("NSDSReceiver", "VideoViewer")):
                own_delivery += [
                    (node.name, type(inner).__name__)
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.Try) or called(inner, "bind")]
    assert kept == [] and own_delivery == []
    for cls in (NSDSReceiver, VideoViewer):
        assert issubclass(cls, NotificationSink)
        assert "_on_message" not in vars(cls)


def test_one_table_holds_every_subscription():
    """``SubscriptionTable`` is the one publisher side: one function
    sends to a ``sink_port``, nothing outside ``ogsi/notification.py``
    names an ``expires`` or adds a ``lifetime`` to the clock in a
    subscribe operation, and the three publishers keep no table of
    their own."""
    import textwrap

    from repro.nsds import NSDSService
    from repro.ogsi import ServiceContainer
    from repro.telepresence import CameraService

    senders, deadlines = [], set()
    for _, path, tree in walk("src"):
        where = path.removeprefix("src/repro/")
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", "") == "send"
                        and any("sink_port" in (getattr(arg, "attr", ""),
                                                getattr(arg, "id", ""))
                                for arg in node.args)):
                    senders.append((where, func.name))
                if "expires" in (getattr(node, "attr", None),
                                 getattr(node, "id", None),
                                 getattr(node, "arg", None)) or (
                        func.name.endswith("subscribe")
                        and isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Add)
                        and getattr(node.right, "id", "") == "lifetime"):
                    deadlines.add(where)
    assert senders == [("ogsi/notification.py", "publish")]
    assert deadlines == {"ogsi/notification.py"}
    for cls in (ServiceContainer, NSDSService, CameraService):
        own = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        assert not {"_subs", "_viewers"} & {
            node.attr for node in ast.walk(own)
            if isinstance(node, ast.Attribute)}, cls.__name__


def test_the_at_most_once_record_says_each_thing_once():
    """Durable half: one function keys records by step (``_History.fold``,
    under the one ``load_history``; the fenced store's is a delegate), and
    the rehearsal switches and the second reader stay gone.  Volatile
    half: ``NTCPServer`` changes a transaction's state in ``_move`` and
    builds a run's failure in ``_fail``, and a transaction keeps no
    ``history`` beside its ``timestamps``."""
    import dataclasses

    from repro.core.transaction import Transaction

    gone = {"manifest_enabled", "compaction_enabled", "load_latest"}
    assert spelt(gone, "src") == set()
    assert {path for path, _ in spelt({"history"}, "src")
            if path.startswith("src/repro/core/")} == set()
    folders, mergers, movers, failers = [], {}, [], []
    for _, path, tree in walk("src"):
        where = path.removeprefix("src/repro/")
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for func in cls.body:
                if getattr(func, "name", "") == "load_history":
                    mergers[cls.name] = func
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                keys = []
                if isinstance(node, ast.DictComp):
                    keys = [node.key]
                elif isinstance(node, ast.Assign):
                    keys = [t.slice for t in node.targets
                            if isinstance(t, ast.Subscript)]
                if any(isinstance(sub, ast.Subscript)
                       and getattr(sub.slice, "value", None) == "step"
                       for key in keys for sub in ast.walk(key)):
                    folders.append((where, func.name))
                if where != "core/server.py" or not isinstance(node, ast.Call):
                    continue
                if getattr(node.func, "attr", "") == "transition":
                    movers.append(func.name)
                if (getattr(node.func, "id", "") == "ProtocolError"
                        and [getattr(a, "id", "") for a in node.args]
                        == ["reason"]):
                    failers.append(func.name)
    assert folders == [("repository/checkpoint.py", "fold")]
    assert sorted(mergers) == ["CheckpointStoreBase", "FencedCheckpointStore"]
    delegate = mergers["FencedCheckpointStore"]
    assert not any(isinstance(node, (ast.For, ast.While, ast.Try))
                   for node in ast.walk(delegate))
    assert "inner.load_history" in ast.unparse(delegate)
    assert movers == ["_move"]
    assert set(failers) == {"_fail"}
    assert "history" not in {f.name for f in dataclasses.fields(Transaction)}


def test_a_produced_sde_is_built_by_its_first_reader():
    """A provided SDE: version and time are stamped by its owner at the
    move, the element is built once per read and only for a reader — a
    change nobody reads builds nothing — and a subscriber who wants the
    name is a reader at publication time."""
    import pytest

    from repro.net import Network, RpcClient
    from repro.ogsi import (GridService, NotificationSink, ServiceContainer,
                            ServiceDataSet)
    from repro.sim import Kernel
    from repro.util.errors import ConfigurationError

    now = [0.0]
    sds = ServiceDataSet(lambda: now[0])
    built = []
    owned = {"tag": None, "version": 0, "at": 0.0}

    def move(tag):  # the owner stamps version and time; nothing is built
        owned.update(tag=tag, version=owned["version"] + 1, at=now[0])
        sds.changed("x")

    def resolve(name):
        if name != "x":
            return None
        built.append(owned["tag"])
        return {"made": owned["tag"]}, owned["at"], owned["version"]

    sds.provide(lambda: ["x"], resolve)
    move("v1")   # superseded unread: never built
    now[0] = 5.0
    move("v2")
    assert built == []
    now[0] = 9.0
    sde = sds.get("x")
    assert (sde.value, sde.version, sde.last_modified) == ({"made": "v2"}, 2,
                                                           5.0)
    assert built == ["v2"]
    assert sds.value("x") == {"made": "v2"}
    assert sds.snapshot() == {"x": {"made": "v2"}}
    assert (sds.names(), sds.get("xy"), built) == (["x"], None, ["v2"] * 3)
    with pytest.raises(ConfigurationError):
        sds.set("x", 1)  # a name is stored or provided, never both

    # a live subscription to the name reads at publication, not at
    # delivery; one to another name builds nothing
    class Mutable(GridService):
        def on_attach(self):
            self.state, self.version = "first", 1
            self.service_data.provide(lambda: ["state"], self.resolve)

        def resolve(self, name):
            built.append(self.state)
            return self.state, 0.0, self.version

        def publish(self, state):
            self.state, self.version = state, self.version + 1
            self.service_data.changed("state")

    kernel = Kernel()
    network = Network(kernel, seed=0)
    network.add_host("site")
    network.add_host("user")
    network.connect("site", "user", latency=1.0)
    service = Mutable("mutable")
    ServiceContainer(network, "site").deploy(service)
    notes = []
    sink = NotificationSink(network, "user", callback=notes.append)
    rpc = RpcClient(network, "user")
    built.clear()
    for sde_name in ("other", "state"):
        kernel.run(until=kernel.process(rpc.call(
            "site", "ogsi", "subscribe",
            {"service_id": "mutable", "sink_host": "user",
             "sink_port": sink.port, "sde_name": sde_name})))
        service.publish(f"wanted by {sde_name}")
    service.state = "changed while the notification was in flight"
    kernel.run()
    [note] = notes
    assert (note["value"], note["version"]) == ("wanted by state", 3)
    assert built == ["wanted by state"]
