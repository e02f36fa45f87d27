#!/bin/sh
# Lint gate: ruff when available (byte-compile fallback otherwise), then
# the project-specific static-analysis pass over its default paths
# (repro.analysis: the RPR rules ruff cannot express + NTCP protocol
# conformance).  Ruff configuration lives in pyproject.toml ([tool.ruff]);
# the RPR rule table, with the rules retired in ruff's favour, lives in
# docs/ARCHITECTURE.md.
set -e
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "lint: ruff check"
    ruff check src tests benchmarks examples scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "lint: python -m ruff check"
    python -m ruff check src tests benchmarks examples scripts
else
    echo "lint: ruff not installed; falling back to compileall -" \
        "unchecked: F401/F822 (__all__ drift, was RPR006)," \
        "B006 (mutable defaults, was RPR007) and the rest of E, F, W, I, B, UP"
    python -m compileall -q src tests benchmarks examples scripts
fi

echo "lint: repro.analysis (RPR rules + NTCP conformance)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro.analysis

echo "lint: OK"
