"""The RPR rules: conventions nothing enforces at run time, pinned here.

Each rule is a scanner over one parsed file, ``scan(module, tree)``
yielding ``(line, message)``, and a pin that runs it over the shared
walker's trees (``conftest.walk``: ``src tests examples benchmarks
scripts``, each file parsed once per session) and asserts nothing is
found.  Each scanner also gets firing and non-firing fixtures.  The
inter-procedural half of RPR001 is ``tests/test_callgraph.py``; the
NTCP plugin-conformance codes (RPR100–104) introspect the live classes
of ``repro.control``.  ``docs/ARCHITECTURE.md`` maps each code to its
pin.  There is no suppression comment: a finding is fixed, or the rule's
own data records the exception with its reason (RPR009's allowlist,
RPR010's staged subsystems).
"""

import ast
import inspect
import re
import textwrap

import pytest

import repro.control
from conftest import parse_tree, walk
from repro.core.plugin import ControlPlugin

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def in_scope(module: str, scopes) -> bool:
    return any(module == scope or module.startswith(scope + ".")
               for scope in scopes)


def dotted(node) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def import_maps(tree) -> tuple[dict[str, str], dict[str, str]]:
    """(module aliases, from-import bindings): ``import numpy as np`` is
    ``{"np": "numpy"}``, ``from time import monotonic as mono`` is
    ``{"mono": "time.monotonic"}``."""
    aliases, bindings = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) if a.asname else
                           (a.name.split(".")[0],) * 2 for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            bindings.update((a.asname or a.name, f"{node.module}.{a.name}")
                            for a in node.names if a.name != "*")
    return aliases, bindings


def canonical(chain: str, aliases, bindings) -> str:
    """``chain`` as written in a file, its head resolved through imports."""
    head, _, rest = chain.partition(".")
    head = bindings.get(head, aliases.get(head, head))
    return f"{head}.{rest}" if rest else head


# ---------------------------------------------------------------------------
# the scanners


#: everything here runs on the kernel's clock, and a run is a pure
#: function of its seed
SIM_SCOPES = ("repro.sim", "repro.coordinator", "repro.control", "repro.net")
WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
}
#: numpy's legacy global-state API; ``default_rng`` is the seeded route
NUMPY_LEGACY = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "uniform", "normal",
    "standard_normal", "poisson", "beta", "binomial", "exponential",
}


def clock_read(target: str) -> str | None:
    """What a call to canonical ``target`` reads that a run must not."""
    if target in WALL_CLOCK:
        return "wall clock / uuid"
    if target.startswith("random."):
        return "process-global RNG"
    if target.startswith("numpy.random.") and \
            target.rsplit(".", 1)[-1] in NUMPY_LEGACY:
        return "legacy numpy global-state RNG"
    return None


def clock_reads(module, tree):
    """RPR001, per file: a wall clock or a global RNG in a sim scope."""
    if not in_scope(module, SIM_SCOPES):
        return
    aliases, bindings = import_maps(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (chain := dotted(node.func)):
            target = canonical(chain, aliases, bindings)
            if kind := clock_read(target):
                yield node.lineno, (f"{kind} `{target}` in a simulated "
                                    "subsystem: use the kernel clock and "
                                    "a seeded generator")


_SEGMENT = r"[a-z][a-z0-9_]*"
_METRIC = ("metric", re.compile(rf"{_SEGMENT}(\.{_SEGMENT}){{2,}}"))
_SPAN = ("span", re.compile(rf"{_SEGMENT}(\.{_SEGMENT}){{1,}}"))
SPAN_OPENERS = ("start_span", "begin_span")
NAMED = {**dict.fromkeys(("counter", "gauge", "histogram"), _METRIC),
         **dict.fromkeys(SPAN_OPENERS, _SPAN)}


def bad_names(module, tree):
    """RPR003: a literal instrument name with fewer than three dotted
    lowercase segments, or a span name with fewer than two (the schema's
    own rule, caught at the call site instead of at export)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in NAMED and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            kind, pattern = NAMED[node.func.attr]
            if not pattern.fullmatch(node.args[0].value):
                yield node.lineno, (f"{kind} name {node.args[0].value!r} "
                                    "is not layer.component.name")


def _opens(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in SPAN_OPENERS)


def _in_scope_nodes(scope):
    """The nodes of ``scope`` itself: nested functions are yielded but not
    entered (each is its own scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _read_back(scope, chain: str, assign) -> bool:
    """Whether ``chain`` is loaded anywhere in ``scope`` but ``assign``."""
    skip = set(ast.walk(assign))
    return any(isinstance(node, (ast.Name, ast.Attribute))
               and isinstance(node.ctx, ast.Load) and node not in skip
               and dotted(node) == chain for node in ast.walk(scope))


def open_spans(module, tree, scope=None):
    """RPR004: a span nothing can close.  An opened span is used as a
    context manager, or its name is read again in its function (``.end()``,
    ``with``, returned, passed on — nested closures count); a span stashed
    in an attribute or a container is read back somewhere in the module;
    a discarded ``start_span`` result is always an orphan."""
    scope = tree if scope is None else scope
    for node in _in_scope_nodes(scope):
        if isinstance(node, FUNCS):
            yield from open_spans(module, tree, node)
        elif isinstance(node, ast.Expr) and _opens(node.value):
            yield node.lineno, "start_span result discarded"
        elif (isinstance(node, ast.Assign) and _opens(node.value)
              and len(node.targets) == 1):
            [target] = node.targets
            if isinstance(target, ast.Name):
                if not _read_back(scope, target.id, node):
                    yield node.lineno, (f"span `{target.id}` is opened but "
                                        "never closed in this scope")
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                container = isinstance(target, ast.Subscript)
                chain = dotted(target.value if container else target)
                kind = "container" if container else "attribute"
                if chain and not _read_back(tree, chain, node):
                    yield node.lineno, (f"span stashed in {kind} `{chain}` "
                                        "is never read back in this module")


#: module -> why its internal-state asserts are acceptable
ASSERT_ALLOWLIST = {
    "repro.core.server": ("attach/txn narrowing on the RPC hot path: "
                          "counters and results are set before any "
                          "dispatch can reach the assert"),
    "repro.net.breaker": ("opened_at is set on every transition into "
                          "OPEN; the asserts narrow Optional for the "
                          "state-machine arithmetic"),
    "repro.ogsi.container": ("service_data is created in create_service "
                             "before the registry hands the service out"),
    "repro.ogsi.service": ("container backref set by attach; asserts "
                           "narrow Optional for lifetime bookkeeping"),
}


def library_asserts(module, tree):
    """RPR009: an ``assert`` in a ``repro`` module, which ``-O`` strips."""
    if in_scope(module, ("repro",)) and module not in ASSERT_ALLOWLIST:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                yield node.lineno, ("`assert` in library code is stripped "
                                    "under -O: raise an explicit exception")


#: RPR010's staged rollout: widening it is adding a package here
STAGED = ("repro.verify", "repro.fleet", "repro.gsi", "repro.invariants")


def missing_docstrings(module, tree):
    """RPR010: in a staged package, the module, its public functions and
    classes, and their public methods carry docstrings."""
    if not in_scope(module, STAGED):
        return
    if ast.get_docstring(tree) is None:
        yield 1, f"module `{module}` has no docstring"
    for node in tree.body:
        if (not isinstance(node, (*FUNCS, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        methods = [sub for sub in getattr(node, "body", [])
                   if isinstance(node, ast.ClassDef)
                   and isinstance(sub, FUNCS) and not sub.name.startswith("_")]
        for public in (node, *methods):
            if ast.get_docstring(public) is None:
                yield public.lineno, f"public `{public.name}` has no docstring"


SCANNERS = {"RPR001": clock_reads, "RPR003": bad_names, "RPR004": open_spans,
            "RPR009": library_asserts, "RPR010": missing_docstrings}


def findings(module, tree) -> list[tuple[int, str, str]]:
    """``(line, code, message)`` of every per-file rule, in line order."""
    return sorted((line, code, message) for code, scan in SCANNERS.items()
                  for line, message in scan(module, tree))


def unclean(code: str, files) -> list[str]:
    """What a failing pin prints: ``path:line: message`` for each of
    ``code``'s findings in the walked ``files``."""
    return [f"{path}:{line}: {message}" for module, path, tree in files
            for line, message in SCANNERS[code](module, tree)]


def write_tree(root, files: dict[str, str]) -> None:
    for rel, source in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(textwrap.dedent(source), encoding="utf-8")


def check(source: str, *, module: str = "repro.x") -> list[tuple[str, str]]:
    return [(code, message) for _, code, message
            in findings(module, ast.parse(textwrap.dedent(source)))]


def codes(found) -> list[str]:
    return [code for code, *_ in found]


class ShippedTree:
    code = ""

    def test_shipped_tree_is_clean(self):
        assert unclean(self.code, walk()) == []


# ---------------------------------------------------------------------------
# the walker and the scanners together


class TestEngine:
    def test_rule_registry_covers_the_documented_codes(self):
        assert list(SCANNERS) == ["RPR001", "RPR003", "RPR004", "RPR009",
                                  "RPR010"]

    def test_module_name_for(self, tmp_path):
        write_tree(tmp_path, dict.fromkeys([
            "src/repro/net/rpc.py", "src/repro/sim/__init__.py",
            "tests/test_x.py"], "x = 1\n"))
        assert [(module, path) for module, path, _ in parse_tree(tmp_path)] \
            == [("repro.net.rpc", "src/repro/net/rpc.py"),
                ("repro.sim", "src/repro/sim/__init__.py"),
                ("tests.test_x", "tests/test_x.py")]

    def test_parse_error_is_a_finding(self, tmp_path):
        """RPR000 is retired: a file that does not parse fails the walker
        (and ``compileall``), naming the file."""
        write_tree(tmp_path, {"src/broken.py": "def broken(:\n"})
        with pytest.raises(SyntaxError) as error:
            parse_tree(tmp_path)
        assert error.value.filename.endswith("broken.py")

    def test_clean_fixture_has_no_findings(self):
        # A busy but invariant-respecting module: spans closed, telemetry
        # named properly, no assert.
        assert check('''
            """Clean module."""
            from repro.util.errors import ProtocolError

            __all__ = ["run"]

            def run(kernel, client):
                span = kernel.telemetry.start_span("layer.comp.op")
                try:
                    client.call()
                except ProtocolError:
                    span.end(ok=False)
                    raise
                span.end(ok=True)
                count = kernel.telemetry.counter("layer.comp.calls")
                count.inc()
                return count
        ''', module="repro.net.clean") == []


class TestContextCache:
    def test_repeated_loads_reuse_the_parse(self, monkeypatch):
        files = walk()
        monkeypatch.setattr(ast, "parse", None)  # a second parse would raise
        assert walk() == files  # AST nodes compare by identity
        assert all(file in files for file in walk("src"))


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path):
        write_tree(tmp_path, {"src/pkg/x.py": """
            def f(hub):
                return hub.counter("rpc.calls")
        """})
        assert unclean("RPR003", parse_tree(tmp_path)) == [
            "src/pkg/x.py:3: metric name 'rpc.calls' is not "
            "layer.component.name"]

    def test_clean_text_report_says_ok(self, tmp_path):
        write_tree(tmp_path, {"src/pkg/x.py": "x = 1\n"})
        assert unclean("RPR003", parse_tree(tmp_path)) == []


class TestCli:
    def test_analyze_paths_walks_directories(self, tmp_path):
        write_tree(tmp_path, dict.fromkeys([
            "src/a.py", "src/pkg/b.py", "src/pkg/__pycache__/c.py",
            "src/out/d.py", "scripts/e.py"], "x = 1\n"))
        assert [path for _, path, _ in parse_tree(tmp_path)] == [
            "src/a.py", "src/pkg/b.py", "scripts/e.py"]


# ---------------------------------------------------------------------------
# the rules: one firing fixture each (plus targeted negatives)


class TestSimClockPurity(ShippedTree):
    code = "RPR001"

    def test_wall_clock_fires_in_scope(self):
        findings = check("""
            import time
            def now():
                return time.time()
        """, module="repro.sim.kernel")
        assert codes(findings) == ["RPR001"]
        assert "time.time" in findings[0][1]

    def test_from_import_and_aliases_resolve(self):
        findings = check("""
            from time import monotonic as mono
            import datetime as dt
            def f():
                return mono(), dt.datetime.now()
        """, module="repro.net.x")
        assert codes(findings) == ["RPR001", "RPR001"]

    def test_global_rng_fires(self):
        findings = check("""
            import random
            import numpy as np
            def f():
                return random.random() + np.random.rand()
        """, module="repro.coordinator.x")
        assert codes(findings) == ["RPR001", "RPR001"]

    def test_seeded_generator_is_fine(self):
        assert check("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed).normal()
        """, module="repro.control.x") == []

    def test_out_of_scope_module_is_ignored(self):
        assert check("""
            import time
            def f():
                return time.time()
        """, module="repro.telemetry.hub") == []


class TestTelemetryNames(ShippedTree):
    code = "RPR003"

    def test_two_segment_metric_fires(self):
        findings = check("""
            def f(hub):
                return hub.counter("rpc.calls")
        """)
        assert codes(findings) == ["RPR003"]

    def test_one_segment_span_fires(self):
        findings = check("""
            def f(tracer):
                return tracer.start_span("step")
        """)
        assert codes(findings) == ["RPR003"]
        assert "span" in findings[0][1]

    def test_uppercase_fires_and_nonliteral_is_skipped(self):
        assert codes(check("""
            def f(hub, name):
                hub.gauge("Layer.Comp.Depth")
                hub.histogram(name)
        """)) == ["RPR003"]

    def test_canonical_names_pass(self):
        assert check("""
            def f(hub, tracer):
                hub.histogram("net.rpc.latency")
                return tracer.start_span("coordinator.step")
        """) == []


class TestSpanLifecycle(ShippedTree):
    code = "RPR004"

    def test_unclosed_span_fires(self):
        findings = check("""
            def f(tracer):
                span = tracer.start_span("a.b.c")
                return 1
        """)
        assert codes(findings) == ["RPR004"]
        assert "never closed" in findings[0][1]

    def test_discarded_span_fires(self):
        findings = check("""
            def f(tracer):
                tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "discarded" in findings[0][1]

    def test_end_with_and_handoff_pass(self):
        assert check("""
            def closed(tracer):
                span = tracer.start_span("a.b.c")
                span.end(ok=True)
            def managed(tracer):
                with tracer.start_span("a.b.c"):
                    pass
            def named_manager(tracer):
                span = tracer.start_span("a.b.c")
                with span:
                    pass
            def handed_off(tracer, sink):
                span = tracer.start_span("a.b.c")
                sink.adopt(span)
            def closed_in_closure(tracer):
                span = tracer.start_span("a.b.c")
                def reply():
                    span.end()
                return reply
        """) == []

    def test_attribute_stash_never_read_back_fires(self):
        findings = check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "stashed in attribute `self._span`" in findings[0][1]

    def test_container_stash_never_read_back_fires(self):
        findings = check("""
            def f(tracer, spans):
                spans["step"] = tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "stashed in container `spans`" in findings[0][1]

    def test_attribute_stash_closed_elsewhere_passes(self):
        # The monitor idiom: the episode span opens in one method and is
        # closed from another — module-wide read-back is good enough.
        assert check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")
                def close(self):
                    if self._span is not None:
                        self._span.end()
        """) == []

    def test_container_stash_drained_elsewhere_passes(self):
        assert check("""
            def open_all(tracer, spans):
                spans["step"] = tracer.start_span("a.b.c")
            def drain(spans):
                for span in spans.values():
                    span.end()
        """) == []

    def test_distinct_attribute_chains_not_confused(self):
        # reading back self._other must not excuse self._span
        findings = check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")
                def close(self):
                    self._other.end()
        """)
        assert codes(findings) == ["RPR004"]


# ---------------------------------------------------------------------------
# broad handlers: RPR005 is retired, the pin in test_api_surface has its job


def broad(source: str) -> list[str]:
    """Where the broad-handler pin's scanner finds a broad handler."""
    from test_api_surface import broad_handlers

    return list(broad_handlers(ast.parse(textwrap.dedent(source))))


class TestBroadExcept:
    """What ``test_every_broad_handler_is_pinned`` counts: every broad
    handler, whatever it does with the failure, and no narrow one."""

    def test_silent_broad_except_fires(self):
        assert broad("""
            def f():
                try:
                    risky()
                except Exception:
                    pass
        """) == ["f"]

    def test_bare_except_fires(self):
        assert broad("""
            def f():
                try:
                    risky()
                except:
                    return None
        """) == ["f"]

    def test_narrow_except_passes(self):
        assert broad("""
            def f():
                try:
                    risky()
                except ValueError:
                    pass
        """) == []

    def test_unbound_exception_still_fires(self):
        assert broad("""
            class C:
                def f(self):
                    try:
                        risky()
                    except (ValueError, BaseException):
                        self.fail(None)
                        return
        """) == ["C.f"]

    def test_bound_but_unused_exception_still_fires(self):
        assert broad("""
            def f(self):
                try:
                    risky()
                except Exception as exc:
                    self.cleanup()
                    return
        """) == ["f"]

    def test_reroute_without_leaving_handler_still_fires(self):
        # a nested function is its own scope
        assert broad("""
            def f(self):
                def inner():
                    try:
                        risky()
                    except Exception as exc:
                        self.fail(exc)
                return inner
        """) == ["f.inner"]


# ---------------------------------------------------------------------------
# noqa is an ordinary comment


class TestNoqa:
    def test_wrong_code_does_not_suppress(self):
        source = ('def f(hub):\n'
                  '    return hub.counter("rpc.calls")  # noqa: RPR005\n')
        assert codes(check(source)) == ["RPR003"]


# ---------------------------------------------------------------------------
# RPR100–104: NTCP protocol conformance of the exported control plugins


def plugin_faults(cls) -> list[tuple[str, str]]:
    """``(code, message)`` for each way ``cls`` breaks the plugin contract:
    its own ``plugin_type`` (RPR101), ``review`` / ``execute`` / ``cancel``
    present and ``execute`` implemented (RPR102), each verb accepting the
    one argument the server core passes (RPR103), ``execute`` a generator
    so it runs as a kernel process (RPR104).  Conformance is a property of
    the resolved MRO, so this inspects the class; it runs nothing."""
    name, faults = cls.__name__, []
    plugin_type = getattr(cls, "plugin_type", None)
    if not isinstance(plugin_type, str) or plugin_type in (
            "", ControlPlugin.plugin_type):
        faults.append(("RPR101", f"{name}.plugin_type is {plugin_type!r}"))
    for verb in ("review", "execute", "cancel"):
        fn = getattr(cls, verb, None)
        if not callable(fn) or fn is ControlPlugin.execute:
            faults.append(("RPR102", f"{name} does not implement {verb}"))
            continue
        signature = inspect.signature(inspect.unwrap(fn))
        try:
            signature.bind(object(), object())  # self, the proposal
        except TypeError as exc:
            faults.append(("RPR103", f"{name}.{verb}{signature}: {exc}"))
        if verb == "execute" and \
                not inspect.isgeneratorfunction(inspect.unwrap(fn)):
            faults.append(("RPR104", f"{name}.execute is not a generator"))
    return faults


class TestProtocolConformance:
    def test_shipped_control_surface_is_conformant(self):
        """RPR100: every name ``repro.control`` exports resolves; every
        exported plugin has no fault."""
        exported = {name: getattr(repro.control, name, None)
                    for name in repro.control.__all__}
        assert [name for name, obj in exported.items() if obj is None] == []
        assert {name: plugin_faults(obj) for name, obj in exported.items()
                if inspect.isclass(obj) and issubclass(obj, ControlPlugin)
                and plugin_faults(obj)} == {}

    def test_every_exported_plugin_is_checked(self):
        plugins = {name for name in repro.control.__all__
                   if inspect.isclass(getattr(repro.control, name))
                   and issubclass(getattr(repro.control, name), ControlPlugin)}
        assert {"SimulationPlugin", "ShoreWesternPlugin", "MPlugin",
                "LabVIEWPlugin", "HumanApprovalPlugin"} <= plugins

    def test_missing_execute_and_plugin_type(self):
        class Bare(ControlPlugin):
            pass

        found = codes(plugin_faults(Bare))
        assert "RPR101" in found  # inherited "abstract" plugin_type
        assert "RPR102" in found  # no execute

    def test_incompatible_signature(self):
        class BadVerbs(ControlPlugin):
            plugin_type = "bad"

            def review(self):  # missing proposal
                pass

            def execute(self, proposal, extra_required):
                yield

        assert codes(plugin_faults(BadVerbs)).count("RPR103") == 2

    def test_non_generator_execute(self):
        class Eager(ControlPlugin):
            plugin_type = "eager"

            def execute(self, proposal):
                return {"forces": {}}

        assert "RPR104" in codes(plugin_faults(Eager))


# ---------------------------------------------------------------------------
# RPR009 — assert-in-library


class TestAssertInLibrary(ShippedTree):
    code = "RPR009"

    def test_assert_in_library_module_fires(self):
        findings = check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.most.session")
        assert codes(findings) == ["RPR009"]

    def test_allowlisted_module_is_exempt(self):
        assert check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.net.breaker") == []

    def test_non_library_modules_are_exempt(self):
        source = """
            def test_f():
                assert 1 + 1 == 2
        """
        assert check(source, module="tests.test_f") == []
        assert check(source, module="examples.demo") == []

    def test_every_allowlist_entry_has_a_reason(self):
        """... and names a module that still holds an ``assert``: a dead
        entry would let the next one in unchecked."""
        holders = {module for module, _, tree in walk("src")
                   if any(isinstance(node, ast.Assert)
                          for node in ast.walk(tree))}
        for module, reason in ASSERT_ALLOWLIST.items():
            assert len(reason) > 20  # a justification, not a token
            assert module in holders, module


# ---------------------------------------------------------------------------
# RPR010 — staged public-API docstrings


class TestPublicApiDocstring:
    def test_missing_docstrings_fire_in_staged_subsystem(self):
        findings = check("""
            class Thing:
                def do(self):
                    return 1
            def helper():
                return 2
        """, module="repro.verify.widget")
        assert codes(findings) == ["RPR010"] * 4  # module, class, method, fn

    def test_documented_api_passes(self):
        assert check('''
            """Module doc."""

            class Thing:
                """Class doc."""

                def do(self):
                    """Method doc."""
                    return self._hidden()

                def _hidden(self):
                    return 1

            def _private():
                return 2
        ''', module="repro.gsi.widget") == []

    def test_unstaged_subsystems_are_exempt(self):
        assert check("""
            def helper():
                return 2
        """, module="repro.coordinator.widget") == []

    def test_dunder_methods_are_exempt(self):
        assert check('''
            """Module doc."""

            class Thing:
                """Class doc."""

                def __init__(self):
                    self.x = 1
        ''', module="repro.verify.widget") == []

    def test_staged_packages_are_clean(self):
        assert {module.split(".")[1] for module, *_ in walk("src")
                if in_scope(module, STAGED)} == {"verify", "fleet", "gsi",
                                                 "invariants"}
        assert unclean("RPR010", walk("src")) == []
