"""repro.analysis — the project-specific static-analysis pass.

An AST lint engine with the repo-specific rules ruff cannot express
(``RPR001``–``RPR010``), an inter-procedural RPR001 pass over the project
call graph (:mod:`repro.analysis.callgraph` resolves imports and calls,
:mod:`repro.analysis.dataflow` propagates wall-clock taint across module
boundaries), plus an NTCP protocol-conformance checker over the
control-plugin surface (``RPR10x``), wired into the repo's gate through
``scripts/lint.sh`` (``make analyze`` runs it alone):

    python -m repro.analysis

The rules machine-check invariants the codebase otherwise only states in
prose: simulation-clock purity (a run is a pure function of its seed),
the telemetry naming convention, span lifecycle hygiene, no ``assert``
in library code, and docstrings on the staged public API.  See
``docs/ARCHITECTURE.md`` ("Static analysis & invariants") for the rule
table.
"""

from repro.analysis.callgraph import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)
from repro.analysis.dataflow import clock_findings, clock_taint
from repro.analysis.engine import (
    AnalysisResult,
    analyze_paths,
    analyze_source,
    iter_python_files,
    module_name_for,
    render_text,
)
from repro.analysis.protocol import (
    PROTOCOL_CODES,
    check_plugin,
    check_protocol_conformance,
    exported_plugins,
)
from repro.analysis.rules import RULES, FileContext, Finding

__all__ = [
    # rules and the engine
    "RULES",
    "AnalysisResult",
    "FileContext",
    "Finding",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "module_name_for",
    "render_text",
    # the inter-procedural pass
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "clock_findings",
    "clock_taint",
    # protocol conformance
    "PROTOCOL_CODES",
    "check_plugin",
    "check_protocol_conformance",
    "exported_plugins",
]
