"""The static-analysis pass: rules, the engine, the report, conformance.

Each RPR rule gets a failing fixture proving it fires and rides the
clean-fixture negative test proving none of them over-trigger.  The NTCP
protocol-conformance checker is exercised both against the real
``repro.control`` surface (must be clean) and against deliberately
broken plugin classes (must not be).
"""

import ast
import importlib.util
import textwrap

from repro.analysis import (
    PROTOCOL_CODES,
    RULES,
    AnalysisResult,
    Finding,
    analyze_paths,
    analyze_source,
    check_plugin,
    check_protocol_conformance,
    exported_plugins,
    module_name_for,
    render_text,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.engine import PARSE_ERROR_CODE
from repro.core.plugin import ControlPlugin


def check(source: str, *, module: str = "repro.x",
          path: str = "x.py") -> list[Finding]:
    return analyze_source(textwrap.dedent(source), path=path,
                          module=module).findings


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# engine basics


class TestEngine:
    def test_rule_registry_covers_the_documented_codes(self):
        registered = [rule.code for rule in RULES]
        assert registered == ["RPR001", "RPR003", "RPR004", "RPR009",
                              "RPR010"]
        assert set(PROTOCOL_CODES) == {"RPR100", "RPR101", "RPR102",
                                       "RPR103", "RPR104"}

    def test_module_name_for(self):
        assert module_name_for("src/repro/net/rpc.py") == "repro.net.rpc"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
        assert module_name_for("tests/test_x.py") == "tests.test_x"

    def test_parse_error_is_a_finding(self):
        findings = check("def broken(:\n    pass\n")
        assert codes(findings) == [PARSE_ERROR_CODE]

    def test_clean_fixture_has_no_findings(self):
        # A busy but invariant-respecting module: spans closed, telemetry
        # named properly, no assert.
        result = analyze_source(textwrap.dedent('''
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
        '''), path="src/repro/net/clean.py", module="repro.net.clean")
        assert result.findings == []
        assert result.files == 1


# ---------------------------------------------------------------------------
# the rules: one firing fixture each (plus targeted negatives)


class TestSimClockPurity:
    def test_wall_clock_fires_in_scope(self):
        findings = check("""
            import time
            def now():
                return time.time()
        """, module="repro.sim.kernel")
        assert codes(findings) == ["RPR001"]
        assert "time.time" in findings[0].message

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


class TestTelemetryNames:
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
        assert "span" in findings[0].message

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


class TestSpanLifecycle:
    def test_unclosed_span_fires(self):
        findings = check("""
            def f(tracer):
                span = tracer.start_span("a.b.c")
                return 1
        """)
        assert codes(findings) == ["RPR004"]
        assert "never closed" in findings[0].message

    def test_discarded_span_fires(self):
        findings = check("""
            def f(tracer):
                tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "discarded" in findings[0].message

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
        assert "stashed in attribute `self._span`" in findings[0].message

    def test_container_stash_never_read_back_fires(self):
        findings = check("""
            def f(tracer, spans):
                spans["step"] = tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "stashed in container `spans`" in findings[0].message

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
        result = analyze_source(source, path="x.py", module="x")
        assert codes(result.findings) == ["RPR003"]


# ---------------------------------------------------------------------------
# reporters


class TestReporters:
    def fixture_result(self) -> AnalysisResult:
        source = ('def f(hub):\n'
                  '    return hub.counter("rpc.calls")\n')
        return analyze_source(source, path="pkg/x.py", module="pkg.x")

    def test_text_report_lists_findings_and_summary(self):
        text = render_text(self.fixture_result())
        assert "pkg/x.py:2:" in text
        assert "RPR003" in text
        assert "1 finding(s)" in text

    def test_clean_text_report_says_ok(self):
        result = analyze_source("x = 1\n", path="x.py", module="x")
        assert "analysis: OK" in render_text(result)


# ---------------------------------------------------------------------------
# NTCP protocol conformance


class TestProtocolConformance:
    def test_shipped_control_surface_is_conformant(self):
        assert check_protocol_conformance("repro.control") == []

    def test_every_exported_plugin_is_checked(self):
        plugins, findings = exported_plugins("repro.control")
        assert findings == []
        names = {name for name, _ in plugins}
        assert {"SimulationPlugin", "ShoreWesternPlugin", "MPlugin",
                "LabVIEWPlugin", "HumanApprovalPlugin"} <= names
        for _, cls in plugins:
            assert issubclass(cls, ControlPlugin)

    def test_missing_execute_and_plugin_type(self):
        class Bare(ControlPlugin):
            pass

        found = codes(check_plugin(Bare))
        assert "RPR101" in found  # inherited "abstract" plugin_type
        assert "RPR102" in found  # no execute

    def test_incompatible_signature(self):
        class BadVerbs(ControlPlugin):
            plugin_type = "bad"

            def review(self):  # missing proposal
                pass

            def execute(self, proposal, extra_required):
                yield

        found = codes(check_plugin(BadVerbs))
        assert found.count("RPR103") == 2

    def test_non_generator_execute(self):
        class Eager(ControlPlugin):
            plugin_type = "eager"

            def execute(self, proposal):
                return {"forces": {}}

        assert "RPR104" in codes(check_plugin(Eager))

    def test_unimportable_module_is_a_finding(self):
        findings = check_protocol_conformance("repro.no_such_module")
        assert codes(findings) == ["RPR100"]


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "x = 1\n")
        assert analysis_main([str(tmp_path)]) == 0
        assert "analysis: OK" in capsys.readouterr().out

    def test_findings_exit_one_text(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", """
            def f(hub):
                return hub.counter("rpc.calls")
        """)
        assert analysis_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out

    def test_unknown_select_is_a_usage_error(self, tmp_path, capsys):
        # the pass takes paths only: every former switch is a usage error
        for option in ("--select", "--format", "--no-project",
                       "--no-protocol", "--protocol-module", "--list-rules"):
            assert analysis_main([str(tmp_path), option, "RPR999"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_protocol_conformance_runs_by_default(self, tmp_path, capsys,
                                                  monkeypatch):
        self.write(tmp_path, "ok.py", "x = 1\n")
        monkeypatch.setattr(
            "repro.analysis.__main__.check_protocol_conformance",
            lambda: check_protocol_conformance("repro.no_such_module"))
        assert analysis_main([str(tmp_path)]) == 1
        assert "RPR100" in capsys.readouterr().out

    def test_analyze_paths_walks_directories(self, tmp_path):
        self.write(tmp_path, "a.py", "x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n", encoding="utf-8")
        (sub / "__pycache__").mkdir()
        (sub / "__pycache__" / "c.py").write_text("z = 3\n", encoding="utf-8")
        result = analyze_paths([tmp_path])
        assert result.files == 2  # __pycache__ skipped


# ---------------------------------------------------------------------------
# RPR009 — assert-in-library


class TestAssertInLibrary:
    def test_assert_in_library_module_fires(self):
        findings = check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.most.session")
        assert codes(findings) == ["RPR009"]

    def test_allowlisted_module_is_exempt(self):
        findings = check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.net.breaker")
        assert findings == []

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
        from repro.analysis.rules import AssertInLibrary
        for module, reason in AssertInLibrary.ALLOWLIST.items():
            assert module.startswith("repro.")
            assert len(reason) > 20  # a justification, not a token
            with open(importlib.util.find_spec(module).origin) as source:
                tree = ast.parse(source.read())
            assert any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), module

    def test_shipped_tree_is_clean(self):
        assert analyze_paths(["src"]).findings == []


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
        findings = check('''
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
        ''', module="repro.analysis.widget")
        assert findings == []

    def test_unstaged_subsystems_are_exempt(self):
        findings = check("""
            def helper():
                return 2
        """, module="repro.coordinator.widget")
        assert findings == []

    def test_dunder_methods_are_exempt(self):
        findings = check('''
            """Module doc."""

            class Thing:
                """Class doc."""

                def __init__(self):
                    self.x = 1
        ''', module="repro.verify.widget")
        assert findings == []

    def test_staged_packages_are_clean(self):
        result = analyze_paths(["src/repro/analysis", "src/repro/verify",
                                "src/repro/fleet", "src/repro/gsi"])
        assert result.findings == []


# ---------------------------------------------------------------------------
# one parse per file per run, shared by the rules and the call graph


class TestContextCache:
    def test_repeated_loads_reuse_the_parse(self, tmp_path, monkeypatch):
        (tmp_path / "a.py").write_text("def f():\n    return 1\n")
        (tmp_path / "b.py").write_text("from a import f\nx = f()\n")
        parsed = []
        parse = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        assert analyze_paths([tmp_path]).files == 2
        assert sorted(parsed) == [str(tmp_path / "a.py"),
                                  str(tmp_path / "b.py")]

    def test_rewrite_invalidates(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert analyze_paths([tmp_path]).ok
        path.write_text('def f(hub):\n    return hub.counter("rpc.calls")\n',
                        encoding="utf-8")
        assert codes(analyze_paths([tmp_path]).findings) == ["RPR003"]

    def test_parse_error_on_disk_is_an_rpr000_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        result = analyze_paths([tmp_path])
        assert codes(result.findings) == [PARSE_ERROR_CODE]
        assert result.files == 1

