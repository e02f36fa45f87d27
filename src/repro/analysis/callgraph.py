"""Whole-program import resolution and the project call graph.

The per-file rules in :mod:`repro.analysis.rules` see one tree at a time,
so a helper in ``repro.util`` that reads the wall clock is invisible to
the sim-scoped caller that invokes it.  This module builds the project
view those rules lack:

* :class:`ModuleInfo` — one parsed module plus its import maps (plain
  ``import x as y`` aliases and ``from m import n as l`` bindings) and
  its locally-defined functions/methods;
* :class:`ProjectIndex` — every module under the analyzed paths, a
  global function table keyed by qualified name
  (``repro.net.rpc.RpcClient.call``), and per-function call-site lists
  with each call resolved through aliases, from-imports, package
  re-exports (``repro.verify.explore`` -> ``repro.verify.explorer.explore``)
  and ``self.``-method dispatch.

Resolution is deliberately syntactic: it follows names, not types, so
dynamic dispatch through variables stays unresolved (``CallSite.resolved
is None``) rather than wrongly resolved.  The inter-procedural RPR001
pass in :mod:`repro.analysis.dataflow` consumes this index; it is built
from the same parsed files the per-file rules read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.rules import FileContext, _dotted, _import_maps

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method defined somewhere in the project."""

    qualname: str  #: fully qualified, e.g. ``repro.core.server.NTCPServer.metrics``
    module: str  #: defining module, e.g. ``repro.core.server``
    local: str  #: name within the module: ``f`` or ``Cls.f``
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str  #: display path of the defining file


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a project function."""

    node: ast.Call
    target: str  #: canonical dotted target after alias/re-export resolution
    resolved: FunctionInfo | None  #: the project function called, if known


class ModuleInfo:
    """One analyzed module: import maps and local definitions."""

    def __init__(self, module: str, ctx: FileContext):
        self.module = module
        self.path = ctx.path
        self.aliases, self.bindings = _import_maps(ctx.tree)
        #: local name (``f`` or ``Cls.f``) -> def node
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: class name -> set of method names, for ``self.x()`` dispatch
        self.classes: dict[str, set[str]] = {}
        for node in ctx.tree.body:
            if isinstance(node, _FUNC_NODES):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods = {sub.name for sub in node.body
                           if isinstance(sub, _FUNC_NODES)}
                self.classes[node.name] = methods
                for sub in node.body:
                    if isinstance(sub, _FUNC_NODES):
                        self.functions[f"{node.name}.{sub.name}"] = sub


class ProjectIndex:
    """The project-wide module/function/call-site index."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "ProjectIndex":
        """Index already-parsed files (the ones the per-file rules read)."""
        index = cls()
        for ctx in contexts:
            info = ModuleInfo(ctx.module, ctx)
            index.modules[info.module] = info
            for local, node in info.functions.items():
                fn = FunctionInfo(qualname=f"{info.module}.{local}",
                                  module=info.module, local=local,
                                  node=node, path=info.path)
                index.functions[fn.qualname] = fn
        for fn in index.functions.values():
            index.calls[fn.qualname] = index._call_sites(fn)
        return index

    # -- name resolution ----------------------------------------------

    def resolve_name(self, module: str, chain: str) -> str:
        """Canonical dotted name for ``chain`` as written inside ``module``.

        ``mono`` after ``from time import monotonic as mono`` becomes
        ``time.monotonic``; a bare reference to a module-level definition
        becomes ``<module>.<name>``; anything else is returned untouched.
        """
        info = self.modules.get(module)
        head, _, rest = chain.partition(".")
        if info is not None:
            if head in info.bindings:
                head = info.bindings[head]
            elif head in info.aliases:
                head = info.aliases[head]
            elif head in info.functions or head in info.classes:
                head = f"{module}.{head}"
        return f"{head}.{rest}" if rest else head

    def resolve_function(self, canonical: str) -> FunctionInfo | None:
        """Project function behind a canonical name, chasing re-exports.

        ``pkg.f`` where ``pkg/__init__.py`` does ``from pkg.impl import f``
        resolves to ``pkg.impl.f``; chains of re-exports are followed
        with a cycle guard.  ``pkg.Cls(...)`` constructor calls resolve
        to ``pkg.Cls.__init__`` when that method exists.
        """
        seen: set[str] = set()
        while canonical not in seen:
            seen.add(canonical)
            direct = self.functions.get(canonical)
            if direct is not None:
                return direct
            init = self.functions.get(f"{canonical}.__init__")
            if init is not None:
                return init
            parts = canonical.split(".")
            redirected = None
            for i in range(len(parts) - 1, 0, -1):
                info = self.modules.get(".".join(parts[:i]))
                if info is None:
                    continue
                attr = parts[i]
                if attr in info.bindings:
                    redirected = ".".join([info.bindings[attr]]
                                          + parts[i + 1:])
                break  # only the longest module prefix can re-export
            if redirected is None:
                return None
            canonical = redirected
        return None

    # -- call extraction ----------------------------------------------

    def _call_sites(self, fn: FunctionInfo) -> list[CallSite]:
        module = self.modules[fn.module]
        own_class = fn.local.partition(".")[0] if "." in fn.local else None
        sites: list[CallSite] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            head, _, rest = chain.partition(".")
            if head in ("self", "cls") and own_class is not None:
                # only single-hop method calls: self.f(...), not self.a.b()
                if rest and "." not in rest \
                        and rest in module.classes.get(own_class, ()):
                    target = f"{fn.module}.{own_class}.{rest}"
                    sites.append(CallSite(node=node, target=target,
                                          resolved=self.functions[target]))
                continue
            target = self.resolve_name(fn.module, chain)
            sites.append(CallSite(node=node, target=target,
                                  resolved=self.resolve_function(target)))
        return sites
