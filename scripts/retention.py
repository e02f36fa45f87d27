#!/usr/bin/env python
"""What a long simulation-only MOST run keeps, per committed step.

For each step count, two fresh interpreters each run a 50-step warm-up
and then one paper-seed simulation-only session of that many steps:

* untraced: the gc-tracked objects kept per committed step (a
  ``gc.get_objects()`` census before and after ``run()``), the
  collector's share of the run's host time (``gc.callbacks``), the
  process's peak RSS and host steps per second;
* under ``tracemalloc``: the bytes kept per committed step, in all and
  by allocating file (the ten largest).

Run:  PYTHONPATH=src python scripts/retention.py 1500 6000
"""

import gc
import multiprocessing
import resource
import sys
import time
import tracemalloc
from collections import Counter


def session(steps):
    from repro.most import ExperimentSession, MOSTConfig

    return ExperimentSession(MOSTConfig().scaled(steps), simulation_only=True)


def untraced(steps):
    session(50).run()
    run = session(steps)
    gc.collect()
    before = Counter(map(type, gc.get_objects()))
    collecting, started = [0.0], [0.0]

    def timed(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            collecting[0] += time.perf_counter() - started[0]

    gc.callbacks.append(timed)
    began = time.perf_counter()
    outcome = run.run()
    host_s = time.perf_counter() - began
    gc.callbacks.remove(timed)
    gc.collect()
    kept = Counter(map(type, gc.get_objects())) - before
    done = outcome.steps_completed
    print(f"{steps} steps: {sum(kept.values()) / done:.1f} gc-tracked objects"
          f" kept/step, collector {collecting[0] / host_s:.1%}, peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}"
          f" MiB, {done / host_s:,.0f} steps/host_s")
    for kind, count in kept.most_common(8):
        print(f"  {kind.__name__:<24} {count / done:6.2f} /step")


def traced(steps):
    session(50).run()
    run = session(steps)
    tracemalloc.start()
    gc.collect()
    before = tracemalloc.take_snapshot()
    outcome = run.run()
    gc.collect()
    diff = tracemalloc.take_snapshot().compare_to(before, "filename")
    tracemalloc.stop()
    done = outcome.steps_completed
    print(f"{steps} steps: {sum(d.size_diff for d in diff) / done:,.0f} "
          f"bytes kept/step (tracemalloc), by file:")
    for stat in diff[:10]:
        name = stat.traceback[0].filename.split("/src/repro/")[-1]
        print(f"  {name:<40} {stat.size_diff / done:8,.0f} B/step")


if __name__ == "__main__":
    context = multiprocessing.get_context("spawn")
    for steps in map(int, sys.argv[1:] or [1500]):
        for probe in (untraced, traced):
            child = context.Process(target=probe, args=(steps,))
            child.start()
            child.join()
            if child.exitcode:
                sys.exit(child.exitcode)
