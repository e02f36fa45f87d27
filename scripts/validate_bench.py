#!/usr/bin/env python
"""Validate the committed benchmark comparison documents.

Checks every ``BENCH_*.json`` at the repo root against the
``repro.bench/v1`` shape of its experiment, and re-asserts the floors
each document exists to witness — both read from the one table the
benches themselves write through (``benchmarks/_report.py``
``BENCHES``):

* stepping-mode documents (``BENCH_tperf_ntcp.json``) — pipelined
  stepping >= 1.5x aggregate steps/s over sequential, ensembles >= half
  their variant count in aggregate variant-steps/s, committed histories
  bit-exact;
* fleet documents (``BENCH_tfleet.json``) — every experiment completed,
  zero duplicate executes, fairness ratio within its bound, histories
  bit-exact against solo runs, the unauthorized call rejected, and (for
  the committed document) >= 100 experiments over <= 8 shared sites;
* observatory documents (``BENCH_tobs.json``) — observed median step
  time within its bound of the unobserved run, every checked rollup
  bucket consistent with its raw points, query + postmortem documents
  identical across repeated campaigns, and the seeded abort's flight
  snapshot naming the faulted site and step;
* durable-queue documents (``BENCH_tqueue.json``) — every submission
  completed despite the scheduler crashes, zero duplicate executes and
  zero stale-epoch accepts, at least one fencing refusal per crash
  epoch, the resubmitted id deduped, histories bit-exact against the
  uncrashed campaign, and (for the committed document) >= 60
  submissions surviving >= 3 crashes.

Run:  python scripts/validate_bench.py   (or ``make validate-bench``)
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from _report import check_bench  # noqa: E402


def main() -> int:
    committed = sorted(ROOT.glob("BENCH_*.json"))
    if not committed:
        print("no BENCH_*.json documents at the repo root", file=sys.stderr)
        return 1
    print("validating benchmark documents (repro.bench/v1):")
    for path in committed:
        print(f"  {path.name}: ", end="")
        summary = check_bench(json.loads(path.read_text()), committed=True)
        print(f"OK ({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
