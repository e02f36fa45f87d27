"""CLI: ``python -m repro.analysis [path ...]``.

Runs the RPR rules (per file, then the inter-procedural pass) over the
paths — by default the repo gate's five directories, those that exist
under the working directory — plus the NTCP protocol-conformance checks.
Takes no option.  Exit status: 0 when clean, 1 on any finding, 2 on a
usage error.
"""

from __future__ import annotations

import pathlib
import sys

from repro.analysis.engine import analyze_paths, render_text
from repro.analysis.protocol import check_protocol_conformance
from repro.analysis.rules import Finding

DEFAULT_PATHS = ("src", "tests", "examples", "benchmarks", "scripts")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = sys.argv[1:] if argv is None else argv
    if any(arg.startswith("-") for arg in args):
        print("usage: python -m repro.analysis [path ...]", file=sys.stderr)
        return 2
    paths = args or [p for p in DEFAULT_PATHS if pathlib.Path(p).exists()]
    if not paths:
        print("analysis: no paths to analyze", file=sys.stderr)
        return 2
    result = analyze_paths(paths)
    result.findings += check_protocol_conformance()
    result.findings.sort(key=Finding.sort_key)
    print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
