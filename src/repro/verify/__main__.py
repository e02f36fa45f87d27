"""CLI: ``python -m repro.verify`` — the bounded protocol verifier.

One pass, no options.  Explores every fault schedule of the shipped
bound (:data:`~repro.verify.model.SITES` x 4 steps x <= 2 faults) at
both pipeline depths, seeds each :class:`ProtocolRules` break in turn
(each must be caught), and replays every explored trace through a
live coordinator deployment (any divergence fails).

Exit status: 0 when every exploration is clean, every mutation caught
and every replay conformant; 1 otherwise; 2 on any argument.
"""

from __future__ import annotations

import sys
from dataclasses import fields

from repro.verify.conformance import run_conformance
from repro.verify.explorer import ExplorationResult, explore
from repro.verify.model import SITES, ProtocolRules, VerifyConfig

DEPTHS = (0, 1)


def _exploration_lines(result: ExplorationResult) -> list[str]:
    cfg = result.config
    lines = [f"explored sites={','.join(SITES)} steps={cfg.n_steps} "
             f"depth={cfg.pipeline_depth} max_faults={cfg.max_faults}: "
             f"{len(result.traces)} traces, {result.states_explored} "
             f"states, {len(result.violations)} violations"]
    lines += [f"  VIOLATION [{v.invariant}] step {v.step} site {v.site}: "
              f"{v.detail}" for _, v in result.violations]
    return lines


def _schedule(schedule) -> str:
    return " ".join(f"{e.kind}@{e.step}:{e.site}" for e in schedule) or "clean"


def _caught(rule: str) -> list[str]:
    """The invariants the explorer reports with ``rule`` broken."""
    rules = ProtocolRules().mutate(rule)
    return sorted({v.invariant for depth in DEPTHS
                   for _, v in explore(VerifyConfig(pipeline_depth=depth,
                                                    rules=rules)).violations})


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = sys.argv[1:] if argv is None else argv
    if args:
        print("usage: python -m repro.verify", file=sys.stderr)
        return 2
    explorations = [explore(VerifyConfig(pipeline_depth=depth))
                    for depth in DEPTHS]
    lines = [line for result in explorations
             for line in _exploration_lines(result)]
    ok = all(result.ok for result in explorations)
    for rule in (f.name for f in fields(ProtocolRules)):
        caught = _caught(rule)
        ok = ok and bool(caught)
        lines.append(f"mutation {rule}: " + (
            "caught -> " + ",".join(caught) if caught else "NOT CAUGHT"))
    divergences = [pair for result in explorations
                   for pair in run_conformance(result)]
    ok = ok and not divergences
    replayed = sum(len(result.traces) for result in explorations)
    lines.append(f"conformance: {replayed} traces replayed, "
                 f"{len(divergences)} divergences")
    lines += [f"  DIVERGENCE [{_schedule(trace.schedule)}] {d.path}: "
              f"model={d.model!r} live={d.live!r}"
              for trace, d in divergences]
    lines.append("verify: OK" if ok else "verify: FAILED")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
