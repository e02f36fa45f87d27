"""CLI: ``python -m repro.verify`` — the bounded protocol verifier.

One pass, no options.  Replays every fault schedule of the shipped
bound (:data:`~repro.verify.explorer.SITES` x 4 steps x <= 2 faults)
at both pipeline depths on the live rig and judges each run by every
invariant of :mod:`repro.invariants`, then sweeps each
:data:`~repro.verify.explorer.MUTANTS` break in turn (each must be
caught).

Exit status: 0 when every replay is clean and every mutation caught; 1
otherwise; 2 on any argument.
"""

from __future__ import annotations

import sys

from repro.verify.explorer import MUTANTS, SITES, VerifyConfig, explore, sweep


def _schedule(schedule) -> str:
    return " ".join(f"{e.kind}@{e.step}:{e.site}" for e in schedule) or "clean"


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = sys.argv[1:] if argv is None else argv
    if args:
        print("usage: python -m repro.verify", file=sys.stderr)
        return 2
    explorations = [explore(VerifyConfig(pipeline_depth=depth))
                    for depth in (0, 1)]
    caught = {mutant: sorted({v.invariant for _, v in sweep(mutant)})
              for mutant in MUTANTS}
    lines = []
    for result in explorations:
        cfg = result.config
        lines.append(f"replayed sites={','.join(SITES)} steps={cfg.n_steps} "
                     f"depth={cfg.pipeline_depth} max_faults="
                     f"{cfg.max_faults}: {len(result.traces)} schedules, "
                     f"{len(result.violations)} violations")
        lines += [f"  VIOLATION [{v.invariant}] {_schedule(schedule)}: "
                  f"{v.detail}" for schedule, v in result.violations]
    lines += [f"mutation {mutant}: " + ("caught -> " + ",".join(invariants)
                                        if invariants else "NOT CAUGHT")
              for mutant, invariants in caught.items()]
    ok = all(result.ok for result in explorations) and all(caught.values())
    lines.append("verify: OK" if ok else "verify: FAILED")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
