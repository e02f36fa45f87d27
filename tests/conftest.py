"""Shared fixtures and helpers for the tests.

The integration harness lives in :mod:`repro.testing` so benchmarks (and
downstream users) can reuse it; this module re-exports it for the
historical ``from conftest import make_site`` import path.

It also holds the one source walker every static pin reads
(``tests/test_analysis.py``, ``tests/test_callgraph.py``,
``tests/test_api_surface.py``): :func:`walk` hands out the repository's
Python files as ``(module, path, tree)``, each parsed once per session;
and the one ``python -m repro.verify`` pass the verifier's tests read
(:func:`verify_pass`).
"""

import ast
import contextlib
import functools
import gc
import io
import pathlib
from unittest import mock

import pytest

from repro.testing import SiteEnv, make_site
from repro.verify import __main__ as verify_cli
from repro.verify import explore

__all__ = ["ROOT", "SiteEnv", "make_site", "parse_tree", "walk"]

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: the directories the pins read, as the gate names them
TOPS = ("src", "tests", "examples", "benchmarks", "scripts")
_SKIP = {"__pycache__", "out"}


def parse_tree(root, tops=TOPS) -> list[tuple[str, str, ast.Module]]:
    """``(module, path, tree)`` for every ``.py`` file under ``root/<top>``,
    skipping ``__pycache__`` and ``out`` directories: ``path`` is
    ``root``-relative (``src/repro/net/rpc.py``) and ``module`` drops the
    ``src`` anchor (``repro.net.rpc``).  A file that does not parse raises
    its ``SyntaxError``."""
    root = pathlib.Path(root)
    files = []
    for top in tops:
        for file in sorted((root / top).rglob("*.py")):
            rel = file.relative_to(root)
            if _SKIP.isdisjoint(rel.parts):
                parts = list(rel.with_suffix("").parts)
                if parts[0] == "src":
                    parts.pop(0)
                if parts[-1] == "__init__":
                    parts.pop()
                module = ".".join(parts)
                files.append((module, rel.as_posix(), ast.parse(
                    file.read_text(encoding="utf-8"), filename=str(file))))
    return files


@functools.cache
def _repository() -> tuple:
    files = tuple(parse_tree(ROOT))
    # The trees (about 270,000 nodes) live for the session: out of the
    # cyclic collector's generations, a later full collection or
    # gc.get_objects() census does not walk them again.
    gc.collect()
    gc.freeze()
    return files


def walk(*tops: str) -> list[tuple[str, str, ast.Module]]:
    """The repository's files under ``tops`` (all five by default), from
    the one parse this session makes of them."""
    return [file for file in _repository()
            if file[1].split("/")[0] in (tops or TOPS)]


@pytest.fixture(scope="session")
def verify_pass():
    """One ``python -m repro.verify`` pass per session (the live replay
    and judgement of every bounded schedule, then the mutant sweeps,
    about 8 s): ``(exit status, stdout, [exploration per depth])``, the
    last recorded from the CLI's own :func:`explore` calls."""
    explorations = []

    def recorded(config):
        explorations.append(explore(config))
        return explorations[-1]

    with mock.patch.object(verify_cli, "explore", recorded), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        status = verify_cli.main([])
    return status, out.getvalue(), explorations
