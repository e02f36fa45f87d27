"""T-CHK — checkpoint overhead and bit-exact resume after an abort.

The public MOST run "exited prematurely at step 1493 (out of 1500)" and
the experiment was simply over.  This benchmark measures the extension
that removes that failure mode:

1. **Checkpoint overhead sweep** — the simulation-only rehearsal with
   checkpoint periods off / every 10 steps / every step: sequences
   written into the repository and the simulated wall-time overhead over
   the uncheckpointed run (checkpoint writes ride the coord—repo link,
   outside the step phases).
2. **Abort + resume determinism** — the public-run fault schedule kills
   the naive coordinator mid-record; a second incarnation loads the
   checkpoint history, reconciles the in-flight transactions with every
   site, and completes.  Asserted: merged displacement *and* force
   histories are element-exact against an uninterrupted same-seed run,
   and no site executed any step twice (at-most-once across restarts).
"""

import numpy as np

from repro.most import ExperimentSession, MOSTConfig
from repro.most.assembly import build_simulation_only
from repro.repository import CheckpointPolicy

from _report import write_report


def overhead_trial(every_n: int | None) -> tuple[float, int]:
    """Simulated wall duration and checkpoints written for one rehearsal."""
    dep = build_simulation_only(MOSTConfig().scaled(40))
    dep.start_backends()
    if every_n is None:
        coord = dep.make_coordinator(run_id="chk-off")
    else:
        coord = dep.make_coordinator(
            run_id=f"chk-{every_n}",
            checkpoint_store=dep.make_checkpoint_store(),
            checkpoint_policy=CheckpointPolicy(every_n_steps=every_n))
    result = dep.kernel.run(until=dep.kernel.process(coord.run()))
    assert result.completed
    return result.wall_duration, coord.state.checkpoint_seq


def bench_tcheckpoint_resume():
    lines = ["Checkpoint/resume (extension of the §3.4 step-1493 abort)", "",
             "[1] checkpoint overhead, simulation-only rehearsal (40 steps)",
             f"    {'period':>10}{'checkpoints':>13}{'wall [s]':>11}"
             f"{'overhead':>10}"]
    base_wall, _ = overhead_trial(None)
    for every_n, label in ((None, "off"), (10, "10"), (1, "1")):
        wall, seqs = overhead_trial(every_n)
        over = (wall - base_wall) / base_wall
        lines.append(f"    {label:>10}{seqs:>13}{wall:>11.2f}"
                     f"{over:>9.2%}")
        if every_n is not None:
            assert over < 0.05, "periodic checkpoints must stay cheap"
    lines += ["    -> checkpoint writes ride the coord-repo link between "
              "steps, outside the", "       step phases; even every-step "
              "checkpointing is lost in the ~2 s/step", ""]

    config = MOSTConfig().scaled(60)
    resumed = (ExperimentSession(config, run_id="most-resume")
               .with_faults(fail_at_step=45)
               .with_resume(checkpoint_every=10)
               .run())
    dry = ExperimentSession(config, run_id="most-dry").run()
    aborted = resumed.aborted_result
    merged, clean = resumed.result, dry.result
    lines += ["[2] abort at the fatal step, resume from the repository",
              f"    aborted at step {aborted.aborted_at_step} with "
              f"{aborted.steps_completed} steps committed; "
              f"{resumed.checkpoints} checkpoint sequences"]
    recon = resumed.reconciliation
    lines += [f"      {row}" for row in recon.rows()]
    disp_equal = np.array_equal(merged.displacement_history(),
                                clean.displacement_history())
    force_equal = np.array_equal(merged.force_history(),
                                 clean.force_history())
    duplicates = {name: site.server.metrics()["duplicate_executes"]
                  for name, site in resumed.deployment.sites.items()}
    lines += [f"    merged result: {merged.steps_completed}/"
              f"{merged.target_steps} steps, completed={merged.completed}",
              f"    displacement histories element-exact: {disp_equal}",
              f"    force histories element-exact       : {force_equal}",
              f"    duplicate executes per site         : {duplicates}",
              "    -> the resumed run is the physics of one clean run; "
              "no specimen", "       re-ran a step across the restart"]
    assert merged.completed
    assert disp_equal and force_equal
    assert len(recon.actions) > 0
    assert all(d == 0 for d in duplicates.values())
    write_report("tchk_checkpoint_resume", lines)
