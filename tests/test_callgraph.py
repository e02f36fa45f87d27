"""The whole-program layer: call-graph resolution and dataflow passes.

The headline fixture is the one the per-file rules *cannot* catch: a
sim-scoped module calling an innocent-looking helper in ``repro.util``
that reads the wall clock two hops down.  The per-file RPR001 pass over
the same tree is asserted clean, proving the inter-procedural pass adds
real reach rather than re-reporting.
"""

import pathlib
import textwrap

from repro.analysis import (
    FileContext,
    ProjectIndex,
    analyze_paths,
    analyze_source,
    clock_findings,
    clock_taint,
    iter_python_files,
    module_name_for,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_tree(root, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def index_of(root) -> ProjectIndex:
    """The call graph of every ``.py`` file under ``root``."""
    return ProjectIndex.build(
        FileContext(str(path), path.read_text(), module_name_for(path))
        for path in iter_python_files([root]))


# ---------------------------------------------------------------------------
# index construction and name resolution


class TestProjectIndex:
    def test_aliased_import_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/util/helper.py": """
                def work():
                    return 1
            """,
            "src/repro/most/user.py": """
                import repro.util.helper as h
                def go():
                    return h.work()
            """,
        })
        index = index_of(tmp_path / "src")
        (site,) = index.calls["repro.most.user.go"]
        assert site.target == "repro.util.helper.work"
        assert site.resolved.qualname == "repro.util.helper.work"

    def test_from_import_with_rename_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/util/helper.py": """
                def work():
                    return 1
            """,
            "src/repro/most/user.py": """
                from repro.util.helper import work as w
                def go():
                    return w()
            """,
        })
        index = index_of(tmp_path / "src")
        (site,) = index.calls["repro.most.user.go"]
        assert site.resolved.qualname == "repro.util.helper.work"

    def test_package_reexport_chain_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/util/__init__.py": """
                from repro.util.inner import work
            """,
            "src/repro/util/inner.py": """
                from repro.util.impl import work
            """,
            "src/repro/util/impl.py": """
                def work():
                    return 1
            """,
            "src/repro/most/user.py": """
                from repro.util import work
                def go():
                    return work()
            """,
        })
        index = index_of(tmp_path / "src")
        (site,) = index.calls["repro.most.user.go"]
        assert site.resolved.qualname == "repro.util.impl.work"

    def test_self_method_dispatch_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/most/user.py": """
                class Runner:
                    def step(self):
                        return self.helper()
                    def helper(self):
                        return 1
            """,
        })
        index = index_of(tmp_path / "src")
        (site,) = index.calls["repro.most.user.Runner.step"]
        assert site.resolved.qualname == "repro.most.user.Runner.helper"

    def test_unresolvable_dynamic_call_stays_unresolved(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/most/user.py": """
                def go(callback):
                    return callback.run()
            """,
        })
        index = index_of(tmp_path / "src")
        (site,) = index.calls["repro.most.user.go"]
        assert site.resolved is None

# ---------------------------------------------------------------------------
# wall-clock taint (inter-procedural RPR001)


CROSS_MODULE_CLOCK = {
    # an out-of-scope helper package hiding a wall-clock read two hops down
    "src/repro/util/timing.py": """
        import time

        def stamp():
            return time.monotonic()

        def elapsed_tag():
            return stamp()
    """,
    # the sim-scoped caller: nothing in THIS file touches the clock
    "src/repro/coordinator/steps.py": """
        from repro.util.timing import elapsed_tag

        def label_step(step):
            return f"{step}-{elapsed_tag()}"
    """,
}


class TestInterproceduralClockPurity:
    def test_taint_chain_reaches_the_clock(self, tmp_path):
        write_tree(tmp_path, CROSS_MODULE_CLOCK)
        index = index_of(tmp_path / "src")
        taint = clock_taint(index)
        assert taint["repro.util.timing.stamp"] == ("time.monotonic",)
        assert taint["repro.util.timing.elapsed_tag"] == (
            "repro.util.timing.stamp", "time.monotonic")
        assert "repro.coordinator.steps.label_step" in taint

    def test_cross_module_violation_flagged_where_per_file_is_blind(
            self, tmp_path):
        write_tree(tmp_path, CROSS_MODULE_CLOCK)
        # the per-file rule sees nothing: the sim-scoped file is clean in
        # isolation and the helper module is out of RPR001's scope
        for path in iter_python_files([tmp_path / "src"]):
            assert analyze_source(path.read_text(), str(path)).findings == []
        # the whole-program pass pins the leak at the boundary call site
        (finding,) = analyze_paths([tmp_path / "src"]).findings
        assert finding.code == "RPR001"
        assert finding.path.endswith("steps.py")
        assert "time.monotonic" in finding.message
        assert "repro.util.timing.elapsed_tag" in finding.message

    def test_in_scope_callee_not_double_reported(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/net/clocky.py": """
                import time
                def now():
                    return time.time()
            """,
            "src/repro/net/user.py": """
                from repro.net.clocky import now
                def go():
                    return now()
            """,
        })
        # per-file already flags clocky.now's body; the project pass must
        # not re-flag the in-scope call into it
        assert clock_findings(index_of(tmp_path / "src")) == []
        (finding,) = analyze_paths([tmp_path / "src"]).findings
        assert finding.path.endswith("clocky.py")

# ---------------------------------------------------------------------------
# the shipped tree itself


class TestShippedTree:
    def test_whole_program_pass_is_clean_on_the_repo(self):
        assert clock_findings(index_of(ROOT / "src")) == []
