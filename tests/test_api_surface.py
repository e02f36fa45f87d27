"""The curated top-level API: everything in ``repro.__all__`` must resolve.

Guards the public front door against drift: a rename deep in a subpackage
that breaks a top-level re-export fails here, not in a user's script.
"""

import ast
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
    assert inspect.isclass(repro.ExperimentSession)
    assert inspect.isfunction(repro.ExperimentSession.run)
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
    ``x.attr += n`` sits next to an instrument update, the network never ``repr``-s a payload, and no class
    owns an ``IdFactory`` (ports number per network, not per process).
    """
    import ast
    import pathlib
    import re

    src = pathlib.Path(repro.__file__).parent
    repo = src.parent.parent
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

    for path in src.rglob("*.py"):
        where = path.relative_to(src).as_posix()
        nodes = listen("src/" + where, ast.parse(path.read_text()))
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
                    and path.parent.name != "telemetry"):
                arg = node.args[0]
                name = (arg.values[0].value + "*"
                        if isinstance(arg, ast.JoinedStr) else arg.value)
                assert created.setdefault(
                    name, (node.func.attr, "src/" + where)) == \
                    (node.func.attr, "src/" + where), name
    for root in ("tests", "benchmarks", "scripts"):
        for path in (repo / root).rglob("*.py"):
            listen(path.relative_to(repo).as_posix(),
                   ast.parse(path.read_text()))

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
    doc = (repo / "docs" / "ARCHITECTURE.md").read_text()
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
    assert "repr(" not in (src / "net" / "network.py").read_text()
    assert class_factories == []


def test_a_guarantee_has_one_gate():
    """Each protocol / campaign guarantee is stated once in the library and
    gated once in the harness: a tier-1 test or a ``BENCHES`` floor, never a
    smoke script, a bench ``--smoke`` fork or an inline re-assertion beside
    it — and ``make check`` reaches each gate once."""
    import ast
    import pathlib
    import re

    src = pathlib.Path(repro.__file__).parent
    repo = src.parent.parent

    def sources(*roots):
        return [path for root in roots for path in (repo / root).rglob("*.py")
                if "twall" not in path.parts]

    # -- no hand-rolled runner beside the tests -----------------------------
    assert not list((repo / "scripts").glob("*smoke*.py"))
    assert not [path.name for path in sources("benchmarks")
                if "--smoke" in path.read_text()]

    # -- BENCHES is where a floor is written: the builders judge nothing ----
    builders = {"bench_tfleet.py": "run_fleet_campaign",
                "bench_tqueue.py": "run_queue_campaign",
                "bench_tobs_observatory.py": "run_bench",
                "bench_tperf_ntcp.py": "run_stepping_modes"}
    for filename, builder in builders.items():
        tree = ast.parse((repo / "benchmarks" / filename).read_text())
        [func] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == builder]
        assert not [node for node in ast.walk(func)
                    if isinstance(node, ast.Assert)], builder

    # -- the campaign everyone drives is typed once -------------------------
    sweep = re.compile(r"0\.75\s*\+\s*0\.5\s*\*")
    assert {path.relative_to(repo).as_posix()
            for path in sources("src", "tests", "benchmarks", "scripts",
                                "examples")
            if sweep.search(path.read_text())} == \
        {"src/repro/fleet/scheduler.py"}

    # -- both invariant sweeps judge a run by one rule body -----------------
    campaign = ast.parse((src / "chaos" / "campaign.py").read_text())
    functions = {node.name: node for node in campaign.body
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

    # -- `make check`: every gate named, none twice, the analysis once ------
    makefile = (repo / "Makefile").read_text().replace("\\\n", " ")
    rules = {target: (prerequisites.split(), recipe)
             for target, prerequisites, recipe in re.findall(
                 r"^([\w-]+):(.*)\n((?:\t.*\n)*)", makefile, re.M)}

    def reached(target):
        prerequisites, recipe = rules[target]
        scripts = "".join((repo / script).read_text() for script
                          in re.findall(r"scripts/[\w.]+\.sh", recipe))
        return recipe + scripts + "".join(map(reached, prerequisites))

    gates = rules["check"][0]
    assert len(gates) == len(set(gates)) and set(gates) <= set(rules)
    assert reached("check").count("-m repro.analysis") == 1
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
    import pathlib

    src = pathlib.Path(repro.__file__).parent
    repo = src.parent.parent
    gone = {"FleetScheduler", "FleetResult", "ExperimentRequest"}
    callers, named = [], set()
    for root in ("src", "tests", "benchmarks", "scripts", "examples"):
        for path in (repo / root).rglob("*.py"):
            where = path.relative_to(repo).as_posix()
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                names = {getattr(node, field, None)
                         for field in ("id", "attr", "name")}
                if isinstance(node, ast.alias):
                    names.add(node.name)
                named |= {(where, name) for name in gone & names}
            if root != "src":
                continue
            callers += [
                (where, func.name) for func in ast.walk(tree)
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id",
                            getattr(node.func, "attr", "")) == "drive_request"]
    assert callers == [("src/repro/queue/scheduler.py", "_drive")]
    assert named == set()
    assert not gone & set(repro.__all__)


def test_the_kernel_log_is_a_stream():
    """Records go to the telemetry hub's sinks and nowhere else: no
    archive (``EventLog``), no ``<kernel>.log.records(...)`` query, and
    none of the write-only fault records (``OutageRecord``,
    ``ChaosRecord``) under ``src/``, ``tests/``, ``benchmarks/``,
    ``scripts/`` or ``examples/``."""
    import pathlib

    repo = pathlib.Path(repro.__file__).parent.parent.parent
    gone = {"EventLog", "OutageRecord", "ChaosRecord"}
    found = set()
    for root in ("src", "tests", "benchmarks", "scripts", "examples"):
        for path in (repo / root).rglob("*.py"):
            where = path.relative_to(repo).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                names = {getattr(node, field, None)
                         for field in ("id", "attr", "name")}
                found |= {(where, name) for name in gone & names}
                func = getattr(node, "func", None)
                if (isinstance(node, ast.Call)
                        and getattr(func, "attr", None) == "records"
                        and getattr(func.value, "attr", None) == "log"):
                    found.add((where, ".log.records("))
    assert found == set()
    assert not gone & set(repro.__all__)


def test_host_time_has_one_harness():
    """T-WALL (``benchmarks/twall/``) is the only code outside ``src/``
    that times anything: no figure bench takes pytest-benchmark's
    ``benchmark`` fixture or imports a clock, and neither the packaging
    nor the Makefile names the plugin."""
    import pathlib
    import re

    repo = pathlib.Path(repro.__file__).parent.parent.parent
    clocks = {"time", "resource", "pytest_benchmark"}
    timed = []
    for path in (repo / "benchmarks").rglob("*.py"):
        if "twall" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                timed += [(path.name, node.name) for arg in node.args.args
                          + node.args.kwonlyargs if arg.arg == "benchmark"]
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import)
                       else [node.module or ""]
                       if isinstance(node, ast.ImportFrom) else [])
            timed += [(path.name, module) for module in modules
                      if module.split(".")[0] in clocks]
    assert timed == []
    for packaging in ("pyproject.toml", "requirements-ci.txt"):
        assert "pytest-benchmark" not in (repo / packaging).read_text()
    makefile = (repo / "Makefile").read_text()
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
    import pathlib

    proofs = {
        ("repro.analysis.protocol", "exported_plugins"):
            "test_analysis.py::TestProtocolConformance::"
            "test_unimportable_module_is_a_finding",
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
        ("repro.sim.process", "Process._step"):
            "test_sim_kernel.py::TestInterrupt::"
            "test_uncaught_interrupt_fails_process",
    }

    src = pathlib.Path(repro.__file__).parent
    repo = src.parent.parent
    found = []
    for root in (src.parent, repo / "examples", repo / "benchmarks",
                 repo / "scripts"):
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root if root == src.parent else repo)
            module = ".".join(rel.with_suffix("").parts)
            found += [(module, scope) for scope
                      in broad_handlers(ast.parse(path.read_text()))]
    assert sorted(found) == sorted(proofs)
    for proof in proofs.values():
        filename, cls, test = proof.split("::")
        tree = ast.parse((repo / "tests" / filename).read_text())
        [owner] = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == cls]
        assert test in {node.name for node in owner.body
                        if isinstance(node, ast.FunctionDef)}, proof


def test_there_is_one_way_to_run_something_later():
    """``Kernel.call_later`` is the entry for code nobody waits on: no
    throw-away ``Timeout`` with a callback anywhere in ``src/``, no
    ``AnyOf`` in an RPC attempt's wait, no closure per message."""
    import ast
    import pathlib
    import textwrap

    from repro.net import Network

    def called(node, attr):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == attr)

    src = pathlib.Path(repro.__file__).parent
    assert [path.relative_to(src).as_posix() for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if called(node, "add_callback")
            and called(node.func.value, "timeout")] == []
    assert "any_of" not in (src / "net" / "rpc.py").read_text()
    send = ast.parse(textwrap.dedent(inspect.getsource(Network.send)))
    assert not [node for node in ast.walk(send)
                if isinstance(node, ast.Lambda)]


def test_a_flush_sorts_nothing():
    """What a metrics flush costs is per flush, not per record per
    reader: identity is ``Metric.key`` / the store's sorted key list,
    windows are ``Series.window``, the flight recorder renders at the
    incident, and a sample is validated where it lands, not where it is
    built — each replaced in place, so the old spelling is gone."""
    import ast
    import pathlib
    import textwrap

    from repro.monitor import ExperimentMonitor, TelemetryStreamer
    from repro.observatory import FlightRecorder, Series, TimeSeriesStore
    from repro.telemetry.metrics import MetricRegistry

    def calls(*where):
        """Names called (``f(...)`` or ``x.f(...)``) in functions/files."""
        sources = [w.read_text() if isinstance(w, pathlib.Path)
                   else textwrap.dedent(inspect.getsource(w)) for w in where]
        return {getattr(node.func, "attr", getattr(node.func, "id", ""))
                for source in sources
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call)}

    src = pathlib.Path(repro.__file__).parent
    assert not {"sorted", "sort"} & calls(
        src / "monitor" / "streamer.py", TimeSeriesStore.series,
        MetricRegistry.snapshot, MetricRegistry.__iter__)
    assert "points" not in calls(src / "observatory" / "slo.py")
    assert not {"_jsonable", "extract_step"} & calls(
        FlightRecorder.on_record, FlightRecorder.on_span)
    assert {"_jsonable", "extract_step"} <= calls(FlightRecorder._event)
    assert "validate_metrics_sample" not in calls(TelemetryStreamer.flush)
    for receiver in (ExperimentMonitor.on_stream_sample,
                     TimeSeriesStore.ingest_metrics_payload):
        assert "validate_metrics_sample" in calls(receiver)
    assert "raw" not in Series.__slots__


def test_one_class_binds_subscriber_ports():
    """``NotificationSink`` is the one subscriber side: a fresh port is
    taken only by it and by the RPC client's reply port, the NSDS and
    video sinks add no ``bind`` and no ``try`` of their own, and no sink
    keeps the payloads it hands on."""
    import ast
    import pathlib

    from repro.nsds import NSDSReceiver
    from repro.ogsi import NotificationSink
    from repro.telepresence import VideoViewer

    def called(node, attr):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == attr)

    src = pathlib.Path(repro.__file__).parent
    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text())
             for path in src.rglob("*.py")}
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
    import ast
    import pathlib
    import textwrap

    from repro.nsds import NSDSService
    from repro.ogsi import ServiceContainer
    from repro.telepresence import CameraService

    src = pathlib.Path(repro.__file__).parent
    senders, deadlines = [], set()
    for path in src.rglob("*.py"):
        where = path.relative_to(src).as_posix()
        for func in ast.walk(ast.parse(path.read_text())):
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
    import ast
    import dataclasses
    import pathlib

    from repro.core.transaction import Transaction

    src = pathlib.Path(repro.__file__).parent
    gone = {"manifest_enabled", "compaction_enabled", "load_latest"}
    revived, histories = set(), set()
    folders, mergers, movers, failers = [], {}, [], []
    for path in src.rglob("*.py"):
        where = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = {getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name")}
            revived |= gone & names
            if where.startswith("core/") and "history" in names:
                histories.add(where)
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
    assert not revived
    assert folders == [("repository/checkpoint.py", "fold")]
    assert sorted(mergers) == ["CheckpointStoreBase", "FencedCheckpointStore"]
    delegate = mergers["FencedCheckpointStore"]
    assert not any(isinstance(node, (ast.For, ast.While, ast.Try))
                   for node in ast.walk(delegate))
    assert "inner.load_history" in ast.unparse(delegate)
    assert movers == ["_move"]
    assert set(failers) == {"_fail"}
    assert not histories
    assert "history" not in {f.name for f in dataclasses.fields(Transaction)}


def test_a_produced_sde_is_built_by_its_first_reader():
    """``set_produced``: version and time are stamped at set time, the
    value is built at most once and only if somebody reads it — and a
    subscriber is a reader at publication time."""
    from repro.net import Network, RpcClient
    from repro.ogsi import (GridService, NotificationSink, ServiceContainer,
                            ServiceDataSet)
    from repro.sim import Kernel

    now = [0.0]
    sds = ServiceDataSet(lambda: now[0])
    built = []

    def producer(tag):
        def produce():
            built.append(tag)
            return {"made": tag}
        return produce

    sds.set_produced("x", producer("v1"))   # superseded unread: never built
    now[0] = 5.0
    sde = sds.set_produced("x", producer("v2"))
    assert (sde.version, sde.last_modified, built) == (2, 5.0, [])
    now[0] = 9.0
    assert sds.value("x") == {"made": "v2"}
    assert sds.snapshot() == {"x": {"made": "v2"}}
    assert sds.get("x").value is sde.value
    assert built == ["v2"]
    assert (sde.version, sde.last_modified) == (2, 5.0)

    # a live subscription reads at publication, not at delivery
    class Mutable(GridService):
        def on_attach(self):
            self.state = "first"
            self.publish()

        def publish(self):
            self.service_data.set_produced("state", lambda: self.state)

    kernel = Kernel()
    network = Network(kernel, seed=0)
    network.add_host("site")
    network.add_host("user")
    network.connect("site", "user", latency=1.0)
    service = Mutable("mutable")
    ServiceContainer(network, "site").deploy(service)
    notes = []
    sink = NotificationSink(network, "user", callback=notes.append)
    kernel.run(until=kernel.process(RpcClient(network, "user").call(
        "site", "ogsi", "subscribe",
        {"service_id": "mutable", "sink_host": "user",
         "sink_port": sink.port})))
    service.state = "second"
    service.publish()
    service.state = "changed while the notification was in flight"
    kernel.run()
    [note] = notes
    assert (note["value"], note["version"]) == ("second", 2)
