"""The repo-specific rules (``RPR001``–``RPR010``) and what they read/report.

Each rule machine-checks one invariant the codebase otherwise only states
in prose (docstrings, DESIGN.md, the telemetry schema) and that ruff
cannot express.  A rule is an object with a ``code`` and a
``check(ctx)`` that yields :class:`Finding` objects for one parsed
:class:`FileContext`; :data:`RULES` is every rule, in code order.  They
are deliberately heuristic where full type inference would be needed —
heuristics are documented on each rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: path, then line, column, code."""
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        """The conventional ``path:line:col: CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class FileContext:
    """One parsed source file, handed to every rule and to the call graph.

    Attributes:
        path: display path (as given).
        module: best-effort dotted module name (``repro.net.rpc``), used
            by rules that scope themselves to subsystems.
        tree: the parsed AST (``SyntaxError`` at construction otherwise).
    """

    def __init__(self, path: str, source: str, module: str):
        self.path = path
        self.module = module
        self.tree = ast.parse(source, filename=path)

    def finding(self, node: ast.AST | int, code: str, message: str) -> Finding:
        """A :class:`Finding` located at ``node`` (or a literal line)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(path=self.path, line=line, col=col, code=code,
                       message=message)


# ---------------------------------------------------------------------------
# shared AST helpers


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_maps(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """(module aliases, from-import bindings) for a parsed file.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import monotonic as mono`` -> ``{"mono": "time.monotonic"}``.
    """
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                modules[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                names[local] = f"{node.module}.{alias.name}"
    return modules, names


def _canonical_call(node: ast.Call, modules: dict[str, str],
                    names: dict[str, str]) -> str | None:
    """The canonical dotted target of a call, resolving import aliases."""
    chain = _dotted(node.func)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    if head in names:
        head = names[head]
    elif head in modules:
        head = modules[head]
    return f"{head}.{rest}" if rest else head


# ---------------------------------------------------------------------------
# RPR001 — simulation-clock purity


class SimClockPurity:
    """No wall clocks or global RNGs inside the simulated subsystems.

    Everything under ``repro.sim``, ``repro.coordinator``, ``repro.control``
    and ``repro.net`` runs on the kernel's simulation clock, and the whole
    run must be a pure function of its seed (``repro.util.ids``).  Wall-clock
    reads and process-global RNG state break both properties silently.
    """

    code = "RPR001"

    SCOPES = ("repro.sim", "repro.coordinator", "repro.control", "repro.net")

    WALL_CLOCK = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "uuid.uuid1", "uuid.uuid4",
    }
    #: the legacy numpy global-state API; ``default_rng``/``Generator`` are
    #: the sanctioned, seedable route
    NUMPY_LEGACY = {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "standard_normal", "poisson", "beta", "binomial",
        "exponential",
    }

    def _in_scope(self, module: str) -> bool:
        return any(module == scope or module.startswith(scope + ".")
                   for scope in self.SCOPES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's violations in ``ctx`` (see class doc)."""
        if not self._in_scope(ctx.module):
            return
        modules, names = _import_maps(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canon = _canonical_call(node, modules, names)
            if canon is None:
                continue
            if canon in self.WALL_CLOCK:
                yield ctx.finding(
                    node, self.code,
                    f"wall-clock/uuid call `{canon}` in a simulated "
                    "subsystem; use the kernel clock (kernel.now / "
                    "kernel.timeout) and deterministic ids")
            elif canon.startswith("random."):
                yield ctx.finding(
                    node, self.code,
                    f"process-global RNG `{canon}`; use a seeded "
                    "numpy Generator threaded from the run seed")
            elif canon.startswith("numpy.random."):
                if canon.rsplit(".", 1)[-1] in self.NUMPY_LEGACY:
                    yield ctx.finding(
                        node, self.code,
                        f"legacy numpy global-state RNG `{canon}`; use "
                        "numpy.random.default_rng(seed)")


# ---------------------------------------------------------------------------
# RPR003 — telemetry naming convention


class TelemetryNameConvention:
    """Metric/span name literals follow ``layer.component.name``.

    Mirrors the runtime check in
    :func:`repro.telemetry.schema.validate_metric_name` so a bad name fails
    in CI, not at export time: instruments need at least three dotted
    lowercase segments, spans at least two (``coordinator.step`` is the
    canonical two-segment span).  Non-literal names are skipped.
    """

    code = "RPR003"

    METRIC_METHODS = {"counter", "gauge", "histogram"}
    SPAN_METHODS = {"start_span", "begin_span"}
    _SEGMENT = r"[a-z][a-z0-9_]*"
    METRIC_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT}){{2,}}$")
    SPAN_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT}){{1,}}$")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's violations in ``ctx`` (see class doc)."""
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in self.METRIC_METHODS:
                pattern, kind = self.METRIC_RE, "metric"
            elif attr in self.SPAN_METHODS:
                pattern, kind = self.SPAN_RE, "span"
            else:
                continue
            if not node.args or not isinstance(node.args[0], ast.Constant):
                continue
            value = node.args[0].value
            if isinstance(value, str) and not pattern.match(value):
                minimum = 3 if kind == "metric" else 2
                yield ctx.finding(
                    node, self.code,
                    f"{kind} name {value!r} violates the layer.component."
                    f"name convention (>= {minimum} dotted lowercase "
                    "segments)")


# ---------------------------------------------------------------------------
# RPR004 — span lifecycle


class _Scope:
    """One lexical scope's span bookkeeping for :class:`SpanLifecycle`."""

    def __init__(self, node: ast.AST):
        self.node = node
        #: var name -> assignment node, for spans opened into a local
        self.opened: dict[str, ast.AST] = {}


class SpanLifecycle:
    """Every opened span is closed in its scope (or escapes on purpose).

    A span opened with ``start_span`` must either be used as a context
    manager, have ``.end()`` called somewhere in the same function (nested
    closures count), or visibly escape the scope (returned, yielded, passed
    as an argument, stored on an object).  Discarding the result of
    ``start_span`` is always wrong: nothing can ever close that span.

    Spans stashed in attributes (``self._span = start_span(...)``) or
    containers (``spans[key] = start_span(...)``) are tracked module-wide:
    the stashed span must be read back *somewhere* in the same file — a
    ``.end()`` call on the attribute chain, a ``with``, or any other load
    of the chain/container — otherwise nothing can ever close it either.
    """

    code = "RPR004"

    OPENERS = {"start_span", "begin_span"}

    def _is_opener(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.OPENERS)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's violations in ``ctx`` (see class doc)."""
        yield from self._check_scope(ctx, ctx.tree)

    def _child_statements(self, scope_node: ast.AST) -> Iterator[ast.AST]:
        """Nodes lexically in this scope (not descending into functions)."""
        stack = list(ast.iter_child_nodes(scope_node))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, ctx: FileContext,
                     scope_node: ast.AST) -> Iterator[Finding]:
        scope = _Scope(scope_node)
        stashed: list[tuple[str, ast.AST, str]] = []
        for node in self._child_statements(scope_node):
            # discarded result: an expression statement of a start_span call
            if isinstance(node, ast.Expr) and self._is_opener(node.value):
                yield ctx.finding(
                    node, self.code,
                    "start_span result discarded; open spans with `with` "
                    "or keep the span and call .end()")
            elif isinstance(node, ast.Assign) and self._is_opener(node.value):
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    scope.opened[target.id] = node
                elif isinstance(target, ast.Attribute):
                    chain = _dotted(target)
                    if chain is not None:
                        stashed.append((chain, node, "attribute"))
                elif isinstance(target, ast.Subscript):
                    chain = _dotted(target.value)
                    if chain is not None:
                        stashed.append((chain, node, "container"))
            elif (isinstance(node, ast.FunctionDef)
                  or isinstance(node, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node)
        for name, node in sorted(scope.opened.items(),
                                 key=lambda kv: kv[1].lineno):
            if not self._closed_or_escapes(scope_node, name, node):
                yield ctx.finding(
                    node, self.code,
                    f"span `{name}` is opened but never closed in this "
                    "scope: call .end(), use `with`, or hand it off "
                    "explicitly")
        for chain, node, kind in stashed:
            if not self._chain_read_back(ctx.tree, chain, node):
                yield ctx.finding(
                    node, self.code,
                    f"span stashed in {kind} `{chain}` is never read back "
                    "anywhere in this module: nothing can close it — call "
                    ".end() on it or hand it off")

    def _chain_read_back(self, tree: ast.AST, chain: str,
                         assign: ast.AST) -> bool:
        """True when the stash target is loaded outside the stashing stmt."""
        skip = {id(node) for node in ast.walk(assign)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and _dotted(node) == chain):
                return True
            if (isinstance(node, ast.Name) and node.id == chain
                    and isinstance(node.ctx, ast.Load)):
                return True
        return False

    def _closed_or_escapes(self, scope_node: ast.AST, name: str,
                           assign: ast.AST) -> bool:
        for node in ast.walk(scope_node):
            if node is assign:
                continue
            # with name: ... / with name as alias: ...
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return True
            # name.end(...)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "end"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name):
                return True
            # any other load of the name counts as an intentional hand-off
            # (returned, yielded, passed as argument, aliased, stored)
            if (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    and not self._is_end_receiver(scope_node, node)):
                return True
        return False

    @staticmethod
    def _is_end_receiver(scope_node: ast.AST, target: ast.Name) -> bool:
        """True when this Name load is exactly the ``x`` of ``x.end(...)``."""
        for node in ast.walk(scope_node):
            if (isinstance(node, ast.Attribute) and node.value is target
                    and node.attr == "end"):
                return True
        return False


# ---------------------------------------------------------------------------
# RPR009 — assert statements in shipped library code


class AssertInLibrary:
    """No ``assert`` in shipped library code — it vanishes under ``-O``.

    ``assert`` is a *debugging* aid: CPython strips it when run with
    ``-O``, so any invariant guarded by one silently stops being checked
    in optimized deployments.  Library modules (everything under
    ``repro.*``) must raise explicit exceptions for conditions that can
    actually occur; tests keep using ``assert`` freely (pytest rewrites
    them).

    A small per-module allowlist covers internal-state asserts that
    document type-narrowing invariants unreachable from any public API
    (``self.container is not None`` after attach, breaker timestamps
    inside non-CLOSED states).  Each entry records why the module is
    exempt; new entries need the same justification.
    """

    code = "RPR009"

    #: module -> why its internal-state asserts are acceptable
    ALLOWLIST = {
        "repro.core.server": ("attach/txn narrowing on the RPC hot path: "
                              "counters and results are set before any "
                              "dispatch can reach the assert"),
        "repro.net.breaker": ("opened_at is set on every transition into "
                              "OPEN; the asserts narrow Optional for the "
                              "state-machine arithmetic"),
        "repro.ogsi.container": ("service_data is created in create_service "
                                 "before the registry hands the service "
                                 "out"),
        "repro.ogsi.service": ("container backref set by attach; asserts "
                               "narrow Optional for lifetime bookkeeping"),
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's violations in ``ctx`` (see class doc)."""
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        if ctx.module in self.ALLOWLIST:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield ctx.finding(
                    node, self.code,
                    "`assert` in library code is stripped under -O; raise "
                    "an explicit exception (or allowlist the module with "
                    "a justification)")


# ---------------------------------------------------------------------------
# RPR010 — public-API docstrings (staged rollout)


class PublicApiDocstring:
    """Public API in opted-in subsystems carries docstrings.

    Staged rollout: rather than flooding the gate with hundreds of
    findings, the rule applies only to the subsystems listed in
    ``ENABLED_SUBSYSTEMS`` — currently the analysis, verification,
    fleet, and GSI packages, which are the newest code and the
    reference for the convention.  Widening the rollout is a one-line
    change here.

    Checked: the module docstring, public top-level functions and
    classes, and public methods of public classes.  Underscore-private
    names and dunder methods are exempt.
    """

    code = "RPR010"

    ENABLED_SUBSYSTEMS = ("repro.analysis", "repro.verify",
                          "repro.fleet", "repro.gsi")

    def _enabled(self, module: str) -> bool:
        return any(module == scope or module.startswith(scope + ".")
                   for scope in self.ENABLED_SUBSYSTEMS)

    @staticmethod
    def _public(name: str) -> bool:
        return not name.startswith("_")

    def _check_def(self, ctx: FileContext, node: ast.AST,
                   kind: str, qual: str) -> Iterator[Finding]:
        if ast.get_docstring(node) is None:
            yield ctx.finding(
                node, self.code,
                f"public {kind} `{qual}` has no docstring; state its "
                "contract (staged rule; see ENABLED_SUBSYSTEMS)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's violations in ``ctx`` (see class doc)."""
        if not self._enabled(ctx.module):
            return
        if ast.get_docstring(ctx.tree) is None:
            yield ctx.finding(1, self.code,
                              f"module `{ctx.module}` has no docstring")
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._public(node.name):
                    yield from self._check_def(ctx, node, "function",
                                               node.name)
            elif isinstance(node, ast.ClassDef) and self._public(node.name):
                yield from self._check_def(ctx, node, "class", node.name)
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                            and self._public(sub.name)
                            and not sub.name.startswith("__")):
                        yield from self._check_def(
                            ctx, sub, "method", f"{node.name}.{sub.name}")


#: every per-file rule, in code order
RULES = (SimClockPurity(), TelemetryNameConvention(), SpanLifecycle(),
         AssertInLibrary(), PublicApiDocstring())
