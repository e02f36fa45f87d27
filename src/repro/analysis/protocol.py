"""NTCP protocol-conformance checks over the control-plugin surface.

The paper's central abstraction is that every site — physical rig or
numerical simulation — sits behind the same NTCP verb surface
(propose/execute/cancel, reviewed and executed through a
:class:`~repro.core.plugin.ControlPlugin`).  This module machine-checks
that contract for every plugin a package exports:

* ``RPR100`` — the plugin module itself failed to import / export;
* ``RPR101`` — a plugin does not declare its own ``plugin_type``;
* ``RPR102`` — a plugin does not implement ``execute`` at all;
* ``RPR103`` — a verb's signature cannot accept the protocol's arguments;
* ``RPR104`` — ``execute`` is not a generator function (it must run as a
  kernel process so executions can consume simulation time).

Unlike the AST rules, these checks introspect the live classes: plugin
conformance is a property of the resolved method-resolution order (a
plugin may legitimately inherit a verb), which source text alone cannot
establish.  No plugin code is *run* — only imported and inspected.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any

from repro.analysis.rules import Finding

#: every verb of the NTCP plugin contract and the arguments the server
#: core calls it with (beyond ``self``)
VERB_ARGS: dict[str, int] = {"review": 1, "execute": 1, "cancel": 1}

#: the codes this checker can emit, with their invariants
PROTOCOL_CODES: dict[str, str] = {
    "RPR100": "plugin package imports and exports resolve",
    "RPR101": "every exported plugin declares its own plugin_type",
    "RPR102": "every exported plugin implements execute",
    "RPR103": "verb signatures accept the protocol's arguments",
    "RPR104": "execute is a generator (runs as a kernel process)",
}

DEFAULT_MODULE = "repro.control"


def _location(obj: Any) -> tuple[str, int]:
    """(path, line) for a class or function, best effort."""
    try:
        path = inspect.getsourcefile(obj) or "<unknown>"
        _, line = inspect.getsourcelines(obj)
    except (OSError, TypeError):
        return "<unknown>", 1
    return path, line


def _finding(obj: Any, code: str, message: str) -> Finding:
    path, line = _location(obj)
    return Finding(path=path, line=line, col=0, code=code, message=message)


def exported_plugins(module_name: str = DEFAULT_MODULE,
                     ) -> tuple[list[tuple[str, type]], list[Finding]]:
    """The ControlPlugin subclasses a module exports, plus import findings."""
    from repro.core.plugin import ControlPlugin

    findings: list[Finding] = []
    try:
        module = importlib.import_module(module_name)
    except Exception as exc:  # rerouted into the returned findings
        findings.append(Finding(
            path=module_name, line=1, col=0, code="RPR100",
            message=f"cannot import {module_name}: "
                    f"{type(exc).__name__}: {exc}"))
        return [], findings
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = [n for n in vars(module) if not n.startswith("_")]
    plugins: list[tuple[str, type]] = []
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None:
            findings.append(Finding(
                path=module_name, line=1, col=0, code="RPR100",
                message=f"{module_name}.__all__ names {name!r} but the "
                        "module does not define it"))
            continue
        if (inspect.isclass(obj) and issubclass(obj, ControlPlugin)
                and obj is not ControlPlugin):
            plugins.append((name, obj))
    return plugins, findings


def check_plugin(cls: type) -> list[Finding]:
    """Conformance findings for one ControlPlugin subclass."""
    from repro.core.plugin import ControlPlugin

    findings: list[Finding] = []
    name = cls.__name__

    plugin_type = getattr(cls, "plugin_type", None)
    if (not isinstance(plugin_type, str) or not plugin_type
            or plugin_type == ControlPlugin.plugin_type):
        findings.append(_finding(
            cls, "RPR101",
            f"plugin {name} must declare its own plugin_type "
            f"(inherited/abstract value {plugin_type!r})"))

    if getattr(cls, "execute", None) is ControlPlugin.execute:
        findings.append(_finding(
            cls, "RPR102",
            f"plugin {name} does not implement the execute verb"))

    for verb, n_args in VERB_ARGS.items():
        fn = getattr(cls, verb, None)
        if fn is None or not callable(fn):
            findings.append(_finding(
                cls, "RPR102",
                f"plugin {name} is missing the {verb} verb"))
            continue
        fn = inspect.unwrap(fn)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            continue
        placeholders = [object()] * (n_args + 1)  # +1 for self
        try:
            signature.bind(*placeholders)
        except TypeError as exc:
            findings.append(_finding(
                fn, "RPR103",
                f"{name}.{verb}{signature} cannot accept the protocol's "
                f"{n_args} argument(s): {exc}"))

    execute = getattr(cls, "execute", None)
    if (execute is not None and execute is not ControlPlugin.execute
            and not inspect.isgeneratorfunction(inspect.unwrap(execute))):
        findings.append(_finding(
            execute, "RPR104",
            f"{name}.execute must be a generator function — executions "
            "run as kernel processes and may consume simulation time"))
    return findings


def check_protocol_conformance(module_name: str = DEFAULT_MODULE,
                               ) -> list[Finding]:
    """Check every plugin exported from ``module_name``; [] means clean."""
    plugins, findings = exported_plugins(module_name)
    for _, cls in plugins:
        findings.extend(check_plugin(cls))
    findings.sort(key=Finding.sort_key)
    return findings
