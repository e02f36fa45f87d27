"""The lint engine: one pass over a set of paths, and its text report.

:func:`analyze_paths` walks the paths, parses each ``.py`` file once,
runs every rule in :data:`repro.analysis.rules.RULES` over it, then hands
the same parsed files to the project call graph for the inter-procedural
RPR001 pass (:mod:`repro.analysis.dataflow`).  The NTCP
protocol-conformance checks (``RPR1xx``) live in
:mod:`repro.analysis.protocol` because they introspect live classes
rather than source trees.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.dataflow import clock_findings
from repro.analysis.rules import RULES, FileContext, Finding

#: code reserved for files the engine cannot parse at all
PARSE_ERROR_CODE = "RPR000"

#: directories never descended into when walking paths
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "out", ".ruff_cache"}


def module_name_for(path: str | pathlib.Path) -> str:
    """Best-effort dotted module name for a file path.

    Anchors at a ``src`` directory when one appears in the path (the
    layout this repo uses); otherwise falls back to the path itself with
    separators turned into dots.
    """
    parts = list(pathlib.PurePath(path).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


@dataclass
class AnalysisResult:
    """What one analysis run produced."""

    findings: list[Finding]
    files: int = 0

    @property
    def ok(self) -> bool:
        """True when there is no finding."""
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Finding tallies per rule code, sorted by code."""
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))


def render_text(result: AnalysisResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    if result.findings:
        counts = ", ".join(f"{code}: {n}" for code, n in
                           result.counts().items())
        lines.append(f"analysis: {len(result.findings)} finding(s) "
                     f"in {result.files} file(s) ({counts})")
    else:
        lines.append(f"analysis: OK ({result.files} file(s))")
    return "\n".join(lines)


def _check_file(path: str, source: str, module: str,
                result: AnalysisResult) -> FileContext | None:
    """Parse one file and add its per-file findings to ``result``; the
    parse, or ``None`` (and an ``RPR000`` finding) when it does not parse."""
    result.files += 1
    try:
        ctx = FileContext(path, source, module)
    except SyntaxError as exc:
        result.findings.append(Finding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            code=PARSE_ERROR_CODE, message=f"cannot parse file: {exc.msg}"))
        return None
    for rule in RULES:
        result.findings.extend(rule.check(ctx))
    return ctx


def analyze_source(source: str, path: str = "<string>", *,
                   module: str | None = None) -> AnalysisResult:
    """Run the per-file rules over one source string."""
    result = AnalysisResult(findings=[])
    _check_file(path, source,
                module_name_for(path) if module is None else module, result)
    result.findings.sort(key=Finding.sort_key)
    return result


def iter_python_files(paths: Iterable[str | pathlib.Path],
                      ) -> Iterator[pathlib.Path]:
    """Expand files/directories into the ``.py`` files to analyze."""
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths: Iterable[str | pathlib.Path]) -> AnalysisResult:
    """Every ``.py`` file under ``paths``, each parsed once: the per-file
    rules over each, then the inter-procedural pass over the same parses."""
    result = AnalysisResult(findings=[])
    contexts = []
    for path in iter_python_files(paths):
        ctx = _check_file(str(path), path.read_text(encoding="utf-8"),
                          module_name_for(path), result)
        if ctx is not None:
            contexts.append(ctx)
    result.findings.extend(clock_findings(ProjectIndex.build(contexts)))
    result.findings.sort(key=Finding.sort_key)
    return result
