"""The inter-procedural RPR001 pass over the project call graph.

The per-file rule sees one tree at a time, so a helper outside the
simulated subsystems that reads the wall clock (or pokes global RNG
state) is invisible to the sim-scoped caller that invokes it.  Here such
a read *taints* every project function that can reach it, and any call
from a sim-scoped function into a tainted out-of-scope function is
flagged at the call site, under the same code, with the witness chain
down to the clock read.  The per-file rule already covers direct
in-scope reads, so the pass only reports scope-boundary crossings — each
leak is flagged exactly once, where it enters the simulated world.

The pass is sound only up to the syntactic call graph: calls the index
cannot resolve (dynamic dispatch, higher-order plumbing) are given the
benefit of the doubt.
"""

from __future__ import annotations

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.rules import Finding, SimClockPurity

_CLOCK_RULE = SimClockPurity()


def _is_clock_read(target: str) -> bool:
    """True when a canonical call target is a wall-clock/global-RNG read."""
    if target in _CLOCK_RULE.WALL_CLOCK:
        return True
    if target.startswith("random."):
        return True
    if target.startswith("numpy.random."):
        return target.rsplit(".", 1)[-1] in _CLOCK_RULE.NUMPY_LEGACY
    return False


def clock_taint(index: ProjectIndex) -> dict[str, tuple[str, ...]]:
    """Functions that can reach a wall-clock read, with a witness chain.

    Maps qualified function name to the chain of targets from that
    function down to the offending read, e.g. ``("repro.util.timing.stamp",
    "time.monotonic")``.  Computed as a fixpoint over the call graph.
    """
    taint: dict[str, tuple[str, ...]] = {}
    for qual, sites in index.calls.items():
        for site in sites:
            if _is_clock_read(site.target):
                taint[qual] = (site.target,)
                break
    changed = True
    while changed:
        changed = False
        for qual, sites in index.calls.items():
            if qual in taint:
                continue
            for site in sites:
                callee = site.resolved
                if callee is not None and callee.qualname in taint:
                    taint[qual] = ((callee.qualname,)
                                   + taint[callee.qualname])
                    changed = True
                    break
    return taint


def clock_findings(index: ProjectIndex) -> list[Finding]:
    """RPR001 findings: sim-scope calls into tainted out-of-scope helpers."""
    taint = clock_taint(index)
    out: list[Finding] = []
    for qual, sites in index.calls.items():
        caller = index.functions[qual]
        if not _CLOCK_RULE._in_scope(caller.module):
            continue
        for site in sites:
            callee = site.resolved
            if callee is None or callee.qualname not in taint:
                continue
            if _CLOCK_RULE._in_scope(callee.module):
                continue  # flagged at its own boundary crossing instead
            chain = (callee.qualname,) + taint[callee.qualname]
            out.append(Finding(
                path=caller.path, line=site.node.lineno,
                col=site.node.col_offset, code=_CLOCK_RULE.code,
                message=(f"call from simulated subsystem into "
                         f"`{callee.qualname}` reaches wall-clock/global "
                         f"RNG `{chain[-1]}` (via {' -> '.join(chain)}); "
                         "thread the kernel clock or a seeded generator "
                         "in instead")))
    return out
