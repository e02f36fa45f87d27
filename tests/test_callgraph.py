"""RPR001 across module boundaries: wall-clock taint over the call graph.

The per-file RPR001 scanner (``tests/test_analysis.py``) sees one tree at
a time, so a helper in ``repro.util`` that reads the wall clock two calls
down is invisible to the sim-scoped caller that invokes it.  Here every
project function's calls are resolved syntactically — import aliases,
``from`` imports with renames, package re-export chains and ``self.``
dispatch; dynamic dispatch stays unresolved and gets the benefit of the
doubt — and a clock read taints every function that can reach it (a
fixpoint).  A call from a sim-scoped function into a tainted function
*outside* the sim scopes is flagged at that call, with the witness chain
down to the read; in-scope reads are the per-file scanner's, so each leak
is reported once, where it enters the simulated world.  The pin runs over
the shared walker's trees (``conftest.walk``).
"""

import ast

from conftest import parse_tree, walk
from test_analysis import (
    FUNCS,
    SIM_SCOPES,
    canonical,
    clock_read,
    clock_reads,
    dotted,
    findings,
    import_maps,
    in_scope,
    write_tree,
)


def call_graph(files) -> dict[str, tuple[str, str, list]]:
    """``{qualified function: (module, path, [(call, target, callee)])}``
    for every function and method in ``files``: ``target`` is the call's
    canonical dotted name, ``callee`` the project function it resolves to
    (``None`` when it does not)."""
    modules, functions = {}, {}
    for module, path, tree in files:
        aliases, bindings = import_maps(tree)
        classes = {node.name: {sub.name: sub for sub in node.body
                               if isinstance(sub, FUNCS)}
                   for node in tree.body if isinstance(node, ast.ClassDef)}
        # a bare name defined at top level is this module's
        aliases = {**{node.name: f"{module}.{node.name}" for node in tree.body
                      if isinstance(node, (*FUNCS, ast.ClassDef))}, **aliases}
        modules[module] = (aliases, bindings, classes)
        functions.update((f"{module}.{node.name}", (module, path, None, node))
                         for node in tree.body if isinstance(node, FUNCS))
        functions.update((f"{module}.{cls}.{name}", (module, path, cls, node))
                         for cls, methods in classes.items()
                         for name, node in methods.items())

    def resolve(target):
        """The project function behind ``target``, through re-exports
        (``pkg.f`` bound by ``pkg/__init__.py``'s ``from pkg.impl import
        f``) and constructors (``pkg.Cls`` -> ``pkg.Cls.__init__``)."""
        seen = set()
        while target not in seen:
            seen.add(target)
            for name in (target, f"{target}.__init__"):
                if name in functions:
                    return name
            parts = target.split(".")
            for i in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:i])
                if prefix in modules:  # only the longest can re-export
                    break
            else:
                return None
            bound = modules[prefix][1].get(parts[i])
            if bound is None:
                return None
            target = ".".join([bound, *parts[i + 1:]])
        return None

    graph = {}
    for qualname, (module, path, cls, fn) in functions.items():
        aliases, bindings, classes = modules[module]
        sites = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not (chain := dotted(node.func)):
                continue
            head, _, rest = chain.partition(".")
            if head in ("self", "cls") and cls:
                # only single-hop method calls: self.f(), not self.a.f()
                if rest in classes[cls]:
                    target = f"{module}.{cls}.{rest}"
                    sites.append((node, target, target))
                continue
            target = canonical(chain, aliases, bindings)
            sites.append((node, target, resolve(target)))
        graph[qualname] = (module, path, sites)
    return graph


def clock_taint(graph) -> dict[str, tuple[str, ...]]:
    """Functions that can reach a clock read, each with its witness chain
    (``("repro.util.timing.stamp", "time.monotonic")``)."""
    taint, changed = {}, True
    while changed:
        changed = False
        for qualname, (*_, sites) in graph.items():
            if qualname in taint:
                continue
            witness = next(((target,) if clock_read(target)
                            else (callee, *taint[callee])
                            for _, target, callee in sites
                            if clock_read(target) or callee in taint), None)
            if witness:
                taint[qualname] = witness
                changed = True
    return taint


def clock_leaks(graph) -> list[str]:
    """RPR001, inter-procedural: ``path:line: message`` for each call from
    a sim-scoped function into a tainted out-of-scope function."""
    taint = clock_taint(graph)
    return [f"{path}:{node.lineno}: call into `{callee}` reaches "
            f"`{taint[callee][-1]}` via {' -> '.join(taint[callee])}"
            for module, path, sites in graph.values()
            if in_scope(module, SIM_SCOPES)
            for node, _, callee in sites
            if callee in taint and not in_scope(graph[callee][0], SIM_SCOPES)]


def graph_of(root, files: dict[str, str]):
    """The call graph of ``files`` written under ``root``."""
    write_tree(root, files)
    return call_graph(parse_tree(root, ["src"]))


#: an out-of-scope helper the fixtures call
HELPER = {"src/repro/util/helper.py": """
    def work():
        return 1
"""}


# ---------------------------------------------------------------------------
# call resolution


class TestProjectIndex:
    def test_aliased_import_resolves(self, tmp_path):
        graph = graph_of(tmp_path, {**HELPER,
            "src/repro/most/user.py": """
                import repro.util.helper as h
                def go():
                    return h.work()
            """,
        })
        [(_, target, callee)] = graph["repro.most.user.go"][2]
        assert target == callee == "repro.util.helper.work"

    def test_from_import_with_rename_resolves(self, tmp_path):
        graph = graph_of(tmp_path, {**HELPER,
            "src/repro/most/user.py": """
                from repro.util.helper import work as w
                def go():
                    return w()
            """,
        })
        [(*_, callee)] = graph["repro.most.user.go"][2]
        assert callee == "repro.util.helper.work"

    def test_package_reexport_chain_resolves(self, tmp_path):
        graph = graph_of(tmp_path, {
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
        [(*_, callee)] = graph["repro.most.user.go"][2]
        assert callee == "repro.util.impl.work"

    def test_self_method_dispatch_resolves(self, tmp_path):
        graph = graph_of(tmp_path, {
            "src/repro/most/user.py": """
                class Runner:
                    def step(self):
                        return self.helper()
                    def helper(self):
                        return 1
            """,
        })
        [(*_, callee)] = graph["repro.most.user.Runner.step"][2]
        assert callee == "repro.most.user.Runner.helper"

    def test_unresolvable_dynamic_call_stays_unresolved(self, tmp_path):
        graph = graph_of(tmp_path, {
            "src/repro/most/user.py": """
                def go(callback):
                    return callback.run()
            """,
        })
        [(*_, callee)] = graph["repro.most.user.go"][2]
        assert callee is None


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
        taint = clock_taint(graph_of(tmp_path, CROSS_MODULE_CLOCK))
        assert taint["repro.util.timing.stamp"] == ("time.monotonic",)
        assert taint["repro.util.timing.elapsed_tag"] == (
            "repro.util.timing.stamp", "time.monotonic")
        assert "repro.coordinator.steps.label_step" in taint

    def test_cross_module_violation_flagged_where_per_file_is_blind(
            self, tmp_path):
        graph = graph_of(tmp_path, CROSS_MODULE_CLOCK)
        # the per-file rules see nothing: the sim-scoped file is clean in
        # isolation and the helper module is out of RPR001's scope
        for module, _, tree in parse_tree(tmp_path, ["src"]):
            assert findings(module, tree) == []
        # the whole-program pass pins the leak at the boundary call site
        [leak] = clock_leaks(graph)
        assert leak.startswith("src/repro/coordinator/steps.py:")
        assert "time.monotonic" in leak
        assert "repro.util.timing.elapsed_tag" in leak

    def test_in_scope_callee_not_double_reported(self, tmp_path):
        graph = graph_of(tmp_path, {
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
        assert clock_leaks(graph) == []
        assert [module for module, _, tree in parse_tree(tmp_path, ["src"])
                if list(clock_reads(module, tree))] == ["repro.net.clocky"]


# ---------------------------------------------------------------------------
# the shipped tree itself


class TestShippedTree:
    def test_whole_program_pass_is_clean_on_the_repo(self):
        assert clock_leaks(call_graph(walk())) == []
