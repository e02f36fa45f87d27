#!/usr/bin/env python
"""Checkpoint / resume: an aborted MOST run picked up bit-exact.

The public MOST run died at step 1493 of 1500 and the experiment was
simply over — there was no way to resume.  This walkthrough runs the same
scenario (scaled down) with the coordinator checkpointing its serialized
step-machine state into the repository every 10 steps:

1. the naive coordinator aborts at the fatal step, flushing a best-effort
   abort-time checkpoint that records the in-flight transaction names;
2. a second coordinator incarnation loads the checkpoint history from the
   repository, restores the integrator bit-exact, and reconciles the
   in-flight step with every site (harvest / cancel / re-propose);
3. the merged displacement and force histories are compared element-exact
   against an uninterrupted same-seed run — they must be identical, and
   no site may have executed a step twice.

Run:  python examples/checkpoint_resume.py
"""

import numpy as np

from repro.most import ExperimentSession, MOSTConfig


def main() -> None:
    config = MOSTConfig().scaled(60)

    print("[1] abort, reconcile, resume")
    report = (ExperimentSession(config, run_id="most-resume")
              .with_faults(fail_at_step=45)
              .with_resume(checkpoint_every=10)
              .run())
    aborted = report.aborted_result
    merged = report.result
    print(f"    first incarnation : aborted at step "
          f"{aborted.aborted_at_step} ({aborted.steps_completed} steps "
          "committed)")
    print(f"    checkpoints       : {report.checkpoints} "
          "sequences in the repository")
    print("    reconciliation    :")
    for line in report.reconciliation.rows():
        print(f"      {line}")
    print(f"    merged result     : {merged.steps_completed}/"
          f"{merged.target_steps} steps, completed={merged.completed}\n")

    print("[2] the resumed run is bit-identical to an uninterrupted one")
    dry = ExperimentSession(config, run_id="most-dry").run().result
    disp_equal = np.array_equal(merged.displacement_history(),
                                dry.displacement_history())
    force_equal = np.array_equal(merged.force_history(),
                                 dry.force_history())
    print(f"    displacement histories element-exact: {disp_equal}")
    print(f"    force histories element-exact       : {force_equal}")
    print("    -> restore + idempotent replay consumes no randomness and "
          "moves no\n       specimen, so the merged physics is the physics "
          "of one clean run.")


if __name__ == "__main__":
    main()
