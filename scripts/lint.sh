#!/bin/sh
# Lint gate: ruff when available, a byte-compile fallback otherwise.
# Ruff configuration lives in pyproject.toml ([tool.ruff]).  The
# project-specific RPR rules are tier-1 pins (tests/test_analysis.py,
# tests/test_callgraph.py); docs/ARCHITECTURE.md maps each code to its pin.
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
    # the bytecode goes to a throwaway prefix: linting leaves no __pycache__
    cache=$(mktemp -d)
    trap 'rm -rf "$cache"' EXIT
    PYTHONPYCACHEPREFIX="$cache" \
        python -m compileall -q src tests benchmarks examples scripts
fi

echo "lint: OK"
